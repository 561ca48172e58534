"""digitlab benchmark: time the CLI end to end, or replay a workload traced.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

--trace 0 starts `python -m digitlab.cli ...` (PYTHONPATH=src) once per
command, as a user would, from a single closed-loop client: each command
starts when the previous one has exited.  It repeats the workload's
commands until --seconds have passed, with one `--version` start-up probe
before each repetition, and checks every output against the benchmark's
own references.  --trace 1 replays the same inputs in process with spans
(see traced.py).

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full result document (machine
facts, every sample, reference mismatches, spans), also written under
bench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads as W

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"  # metric names and units
ITEM_UNITS = {"analyze": "values analysed", "chain": "draws requested",
              "growth-scan": "rates scanned", "exact": "commands completed"}
RUN_LIMIT_S = 150.0  # every command is killed past this point of the run
MIN_PROBES = 3  # set-up probes per run, at least


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                       if line.startswith("model name")), platform.processor())
    except OSError:
        facts["cpu_model"] = platform.processor()
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


class Cli:
    """Starts `python -m digitlab.cli` and reports wall time and peak RSS."""

    def __init__(self, root: Path, env: dict, started: float):
        self.root, self.env, self.started = root, env, started

    def __call__(self, args: list[str]) -> dict:
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        fired = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "digitlab.cli", *args], cwd=self.root,
                                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            stderr = proc.stderr.read()  # drains the pipe; ends when the child exits
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
            proc.stderr.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"args": args, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                "rc": proc.returncode, "timed_out": fired.is_set(),
                "stderr": stderr.decode(errors="replace")[-2000:]}


def measure(workload: W.Workload, cli: Cli, seconds: float) -> dict:
    """Closed loop over the workload's commands for about `seconds`; untraced."""
    cli(["--version"])  # untimed: compiles the package's bytecode once per checkout
    probes, iterations, failures = [], [], []
    attempted = 0
    mismatches: list[int] = []
    peak_rss = 0.0
    t_start = time.perf_counter()
    while True:
        probe = cli(["--version"])
        attempted += 1
        if probe["rc"] != 0:
            failures.append(probe)
        probes.append(probe["wall_s"])
        wall, mism, ok = 0.0, 0, True
        for cmd in workload.commands:
            res = cli(cmd.args)
            attempted += 1
            wall += res["wall_s"]
            peak_rss = max(peak_rss, res["rss_mb"])
            if res["rc"] == 0 and not res["timed_out"]:
                try:
                    check = cmd.check()
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    res["broken"] = [f"unreadable output: {exc!r}"]
                else:
                    mism += check.mismatches
                    res["broken"] = check.broken
            if res["rc"] != 0 or res["timed_out"] or res.get("broken"):
                failures.append(res)
                ok = False
        iterations.append(wall)
        if ok:
            mismatches.append(mism)
        now = time.perf_counter()
        # stop when another round would end more than half a round past `seconds`
        if (now + 0.5 * (now - t_start) / len(iterations) > t_start + seconds
                or now - cli.started > RUN_LIMIT_S):
            break
    while len(probes) < MIN_PROBES:
        probes.append(cli(["--version"])["wall_s"])
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(iterations),
            "items_per_s": statistics.median(workload.items / w for w in iterations),
            "peak_rss_mb": peak_rss,
        },
        "ref_mismatches": mismatches[0] if mismatches else None,
        "ref_mismatches_repeat": len(set(mismatches)) <= 1,
        "failed_frac": len(failures) / attempted,
        "setup_samples_s": probes,
        "wall_samples_s": iterations,
        "items_per_iteration": workload.items,
        "item_unit": ITEM_UNITS[workload.name],
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    with open(SPEC) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if not (root / "src" / "digitlab" / "cli.py").is_file():
        print(f"error: no digitlab source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    work = root / "bench" / ".work"
    rundir = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        workload = W.build(args.workload, args.seed, rundir)
        if args.trace:
            import traced

            result = traced.run(workload, str(root), env)
        else:
            result = measure(workload, Cli(root, env, started), args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": facts, **result}
    (work / "results").mkdir(parents=True, exist_ok=True)
    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1))
    print(json.dumps({k: v for k, v in doc.items() if k not in ("spans", "failures")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
