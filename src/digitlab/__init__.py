"""digitlab: a leading-digit law laboratory.

Digit laws at any order and base, exact LD of analytic densities, Monte
Carlo chains of distributions, deterministic averaging schemes,
exponential-growth singularity detection, and dataset conformity testing.
"""

__version__ = "0.1.0"

# These load digitlab.digits, and numpy with it, on first use: `import digitlab`
# runs before cli.py, which sets numpy's BLAS threads before numpy loads.
__all__ = ["DigitDistribution", "Significand", "benford_distribution", "benford_first",
           "benford_pattern", "compartment_boundaries", "digit_pattern", "first_digit", "lda",
           "leading_digits", "mantissa10", "prefix_counts"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import digits

    return getattr(digits, name)
