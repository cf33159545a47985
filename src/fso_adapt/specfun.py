"""Special-function and random-variate primitives.

Everything here is scalar-oriented and pure: log-gamma, digamma, the
fractional-order modified Bessel function of the second kind, and gamma
variate sampling.  These are the building blocks for the irradiance
statistics and the spectral-efficiency series.
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

    Nothing retries: the error reaches the caller, and the command-line
    tool reports it and exits with code 3.
    """


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation of all power-series evaluations.

    max_terms: number of retained series terms (k = 0 .. max_terms-1).

    The guard constants are shared by every series and are not settable:
    singularity_eps is the minimum distance of a coefficient denominator
    from zero (closer raises SingularOrderError), and convergence_tol the
    early-stop threshold, relative to the partial sum.
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


# Asymptotic tail coefficients: B_{2n}/(2n), n = 1..7
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0.

    Upward recurrence psi(x+1) = psi(x) + 1/x shifts the argument to
    x >= 8, then the standard asymptotic series finishes the job.
    """
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"digamma requires finite x > 0, got {x}")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail -= c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


def _bessel_k_series(nu: float, x: float, cfg: SeriesConfig) -> float:
    # K_nu(x) = pi/(2 sin(pi nu)) * sum_k [ (x/2)^(2k-nu)/(Gamma(k-nu+1) k!)
    #                                      - (x/2)^(2k+nu)/(Gamma(k+nu+1) k!) ]
    half = 0.5 * x
    lh = math.log(half)
    pref = math.pi / (2.0 * math.sin(math.pi * nu))
    total = 0.0
    lkfac = 0.0  # ln k!
    for k in range(cfg.max_terms):
        if k > 0:
            lkfac += math.log(k)
        term = 0.0
        for s in (-nu, nu):
            a = k + s + 1.0
            if a > 0:
                t = math.exp((2 * k + s) * lh - math.lgamma(a) - lkfac)
            elif a == math.floor(a):
                t = 0.0  # 1/Gamma at a non-positive integer
            else:
                # 1/Gamma(a) = sin(pi a) Gamma(1-a) / pi for a < 0
                t = (
                    math.exp((2 * k + s) * lh + math.lgamma(1.0 - a) - lkfac)
                    * math.sin(math.pi * a)
                    / math.pi
                )
            term += t if s == -nu else -t
        total += term
        if k > 0 and abs(term) < cfg.convergence_tol * abs(total):
            break
    return pref * total


def bessel_k_frac(nu: float, x: float, cfg: SeriesConfig | None = None) -> float:
    """Modified Bessel function of the second kind, non-integer order.

    Uses the ascending power series for x <= 2 and the library evaluation
    for larger arguments, where the ascending series loses accuracy to
    cancellation.
    """
    cfg = cfg or SeriesConfig()
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"bessel_k_frac requires x > 0, got {x}")
    if abs(nu - round(nu)) < cfg.singularity_eps:
        raise SingularOrderError(
            f"order nu={nu} is within {cfg.singularity_eps} of an integer; "
            "perturb the order before calling"
        )
    if x <= 2.0:
        return _bessel_k_series(nu, x, cfg)
    return float(special.kv(nu, x))


def sample_gamma(shape: float, scale: float, rng: np.random.Generator, size=None):
    """Draw from Gamma(shape, scale); scalar for size=None, else an array."""
    if not (shape > 0 and scale > 0):
        raise ValueError(f"shape and scale must be > 0, got {shape}, {scale}")
    out = rng.gamma(shape, scale, size=size)
    return float(out) if size is None else out
