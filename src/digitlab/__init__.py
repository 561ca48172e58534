"""digitlab: a leading-digit law laboratory.

Digit laws at any order and base, exact LD of analytic densities, Monte
Carlo chains of distributions, deterministic averaging schemes,
exponential-growth singularity detection, and dataset conformity testing.
"""

__version__ = "0.1.0"

from .digits import (  # noqa: F401
    DigitDistribution,
    Significand,
    benford_distribution,
    benford_first,
    benford_pattern,
    compartment_boundaries,
    digit_pattern,
    first_digit,
    lda,
    leading_digits,
    mantissa10,
)
