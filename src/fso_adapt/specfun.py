"""Special-function and random-variate primitives.

Everything here is scalar-oriented and pure: log-gamma, digamma, the
fractional-order modified Bessel function of the second kind, and gamma
variate sampling.  Each is a library call behind a domain check that
raises ValueError (or SingularOrderError) instead of returning NaN.
The names stay, rather than callers using math and scipy directly,
because the benchmark's trace looks them up here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import special

__all__ = [
    "SeriesConfig",
    "SingularOrderError",
    "ln_gamma",
    "digamma",
    "bessel_k_frac",
    "sample_gamma",
]


class SingularOrderError(ValueError):
    """Raised when a series parameter sits on (or too close to) a pole.

    The channel's functionals catch it and take the tail rule; anywhere
    else it reaches the caller, and the command-line tool exits with 3.
    """


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation of all power-series evaluations.

    max_terms: number of retained series terms (k = 0 .. max_terms-1).

    The guard constants are shared by every series and are not settable:
    singularity_eps is the minimum distance of a coefficient denominator
    from zero (the series stops short of a closer one), and convergence_tol
    the early-stop threshold, relative to the partial sum.
    """

    max_terms: int = 20
    singularity_eps: ClassVar[float] = 1e-6
    convergence_tol: ClassVar[float] = 1e-12

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0."""
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"digamma requires finite x > 0, got {x}")
    return float(special.digamma(x))


def bessel_k_frac(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, non-integer order."""
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"bessel_k_frac requires x > 0, got {x}")
    eps = SeriesConfig.singularity_eps
    if abs(nu - round(nu)) < eps:
        raise SingularOrderError(
            f"order nu={nu} is within {eps} of an integer; "
            "perturb the order before calling"
        )
    return float(special.kv(nu, x))


def sample_gamma(shape: float, scale: float, rng: np.random.Generator, size=None):
    """Draw from Gamma(shape, scale); scalar for size=None, else an array."""
    if not (shape > 0 and scale > 0):
        raise ValueError(f"shape and scale must be > 0, got {shape}, {scale}")
    out = rng.gamma(shape, scale, size=size)
    return float(out) if size is None else out
