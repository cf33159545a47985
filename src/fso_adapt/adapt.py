"""Link-adaptation engine for square-QAM over the turbulent channel.

Continuous-rate side: invert the exponential BER bound into a
constellation-size law, water-fill the transmit power against the
instantaneous irradiance, and evaluate the resulting spectral-efficiency
ceiling in closed form.  Discrete-rate side: restrict the constellation
to a finite ladder, place region boundaries at multiples of the cutoff,
and solve the long-term power constraint for the cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .channel import (
    ChannelModel,
    composite_cdf,
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
    moment,
    _inv_moment,
    _misalignment,
    _residue_series,
    _series_accepts,
)
# ln_gamma is unused here; the benchmark's trace tests expect this binding
from .specfun import SeriesConfig, digamma, ln_gamma

__all__ = [
    "BerPolicy",
    "SnrSpec",
    "AdaptiveSolution",
    "ConstellationSet",
    "SolverBracketError",
    "ber_bound",
    "constellation_size_law",
    "optimal_power",
    "solve_cutoff_continuous",
    "ase_series",
    "ase_limit",
    "high_snr_ase",
    "pointing_penalty",
    "discrete_regions",
    "discrete_power",
    "solve_cutoff_discrete",
    "discrete_ase",
    "fixed_required_snr",
    "adaptive_required_snr",
]

LN2 = math.log(2.0)


class SolverBracketError(RuntimeError):
    """Root bracketing failed; the model parameters are pathological."""


@dataclass(frozen=True)
class BerPolicy:
    """Target bit error rate and the derived SNR margin constant."""

    target_ber: float
    k_margin: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.target_ber < 0.2):
            raise ValueError(f"target_ber must lie in (0, 0.2), got {self.target_ber}")
        object.__setattr__(
            self, "k_margin", -1.5 / math.log(5.0 * self.target_ber)
        )


@dataclass(frozen=True)
class SnrSpec:
    """Average transmit SNR, carried in both dB and linear form."""

    snr_db: float
    snr_linear: float

    def __post_init__(self):
        if not self.snr_linear > 0:
            raise ValueError(f"snr_linear must be > 0, got {self.snr_linear}")
        expect = 10.0 ** (self.snr_db / 10.0)
        if abs(self.snr_linear - expect) > 1e-12 * expect:
            raise ValueError("snr_db and snr_linear are inconsistent")

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrSpec":
        return cls(snr_db=snr_db, snr_linear=10.0 ** (snr_db / 10.0))

    @classmethod
    def from_linear(cls, snr_linear: float) -> "SnrSpec":
        return cls(snr_db=10.0 * math.log10(snr_linear), snr_linear=snr_linear)


@dataclass(frozen=True)
class AdaptiveSolution:
    """Solved cutoff with the resulting spectral efficiency and diagnostics.

    iterations counts the distinct evaluations of the constraint that the
    solve made, bracket search and brentq together.
    """

    cutoff: float
    ase_bits: float
    constraint_residual: float
    iterations: int


@dataclass(frozen=True)
class ConstellationSet:
    """Ordered admissible square-QAM sizes; entry 0 means no transmission."""

    sizes: tuple = (0, 4, 16, 64, 256, 1024)

    def __post_init__(self):
        s = tuple(int(v) for v in self.sizes)
        object.__setattr__(self, "sizes", s)
        if len(s) < 2 or s[0] != 0:
            raise ValueError("sizes must start with 0 and contain at least one order")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("sizes must be strictly increasing")
        for m in s[1:]:
            r = round(math.log(m, 4))
            if 4**r != m:
                raise ValueError(f"nonzero sizes must be powers of 4, got {m}")


# ---------------------------------------------------------------------------
# per-block relations


def ber_bound(m: int, inst_snr: float) -> float:
    """Exponential upper bound on Gray-coded square-MQAM bit error rate."""
    if m < 2:
        raise ValueError(f"constellation size must be >= 2, got {m}")
    if inst_snr < 0:
        raise ValueError(f"inst_snr must be >= 0, got {inst_snr}")
    return 0.2 * math.exp(-1.5 * inst_snr / (m - 1.0))


def constellation_size_law(i: float, tx_power_norm: float, policy: BerPolicy) -> float:
    """Largest constellation size meeting the BER target at the given power."""
    if i < 0 or tx_power_norm < 0:
        raise ValueError("i and tx_power_norm must be >= 0")
    return 1.0 + policy.k_margin * i * tx_power_norm


def optimal_power(i: float, cutoff: float, policy: BerPolicy) -> float:
    """Water-filling power adaptation (normalized by noise variance)."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    if i <= cutoff:
        return 0.0
    return (1.0 / cutoff - 1.0 / i) / policy.k_margin


# ---------------------------------------------------------------------------
# continuous-rate solution


def _bracket_and_solve(fun, lo: float, hi: float, max_grow: int = 200):
    """Root of a decreasing function, searched from the guess bracket (lo, hi).

    An end that fails its sign moves by a factor 2 and the other end
    follows it, so brentq never gets a bracket wider than the guess or a
    factor 2.  Each trial point is evaluated once.  Returns the root, the
    residual there and the number of distinct evaluations.
    """
    fun = functools.cache(fun)
    grow = 0
    while fun(hi) > 0:
        lo, hi = hi, 2.0 * hi
        grow += 1
        if grow > max_grow:
            raise SolverBracketError("no upper bracket found for the cutoff")
    while fun(lo) < 0:
        lo, hi = 0.5 * lo, lo
        grow += 1
        if grow > max_grow:
            raise SolverBracketError("no lower bracket found for the cutoff")
    root = brentq(fun, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)
    # brentq returns a point it has evaluated, so the residual is cached
    return root, fun(root), fun.cache_info().currsize


def solve_cutoff_continuous(
    snr: SnrSpec, policy: BerPolicy, m: ChannelModel
) -> AdaptiveSolution:
    """Cutoff irradiance of the water-filling policy at the given average SNR.

    Solves E[(1/cutoff - 1/I)^+] = k_margin * SNR in x = 1/cutoff, where
    the left side is convex and increasing with slope 1 - F(1/x) in
    [0, 1], so the root is unique.  The left side lies between
    x - E[1/I] and x, which brackets the root in [t, t + E[1/I]] with
    t = k_margin * SNR; when E[1/I] is infinite the search walks up from 2t.
    """
    t = policy.k_margin * snr.snr_linear
    hi = t + _mean_inv_irradiance(m)
    x, res, evals = _bracket_and_solve(
        lambda x: t - mean_excess_inv(1.0 / x, m), t, hi if math.isfinite(hi) else 2.0 * t
    )
    return AdaptiveSolution(
        cutoff=1.0 / x,
        ase_bits=float("nan"),
        constraint_residual=-res,
        iterations=evals,
    )


def _mean_log_irradiance(m: ChannelModel) -> float:
    """E[ln I] = psi(a) + psi(b) - ln(ab) + ln A0 - 1/xi2, in nats."""
    a, b = m.alpha, m.beta
    a0, xi2 = _misalignment(m)
    return digamma(a) + digamma(b) - math.log(a * b) + math.log(a0) - 1.0 / xi2


def _mean_inv_irradiance(m: ChannelModel) -> float:
    """E[1/I] = ab / ((a-1)(b-1) A0) * xi2/(xi2-1); inf once min(a, b, xi2) <= 1."""
    if min(m.alpha, m.beta, _misalignment(m)[1]) <= 1.0:
        return math.inf
    return _inv_moment(m)


def ase_series(cutoff: float, m: ChannelModel, cfg: SeriesConfig | None = None) -> float:
    """Closed-form spectral-efficiency ceiling for a solved cutoff, bits/s/Hz.

    E[(ln(I/cutoff))^+] is the base term E[ln I] - ln(cutoff) plus the
    order-2 residue series of the composite law, whose misalignment pole
    keeps the closed form in agreement with direct quadrature.
    """
    cfg = cfg or SeriesConfig()
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    # above A0 the misalignment pole outgrows the value; there, and where
    # the series fails its guard, evaluate the defining expectation directly
    if cutoff <= _misalignment(m)[0]:
        series, tail, peak = _residue_series(cutoff, m, cfg, 2)
        nats = _mean_log_irradiance(m) - math.log(cutoff) + series
        if _series_accepts(nats, tail, peak, 1e-6):
            return nats / LN2
    return mean_log_excess(cutoff, m) / LN2


def ase_limit(
    snr: SnrSpec,
    policy: BerPolicy,
    m: ChannelModel,
    cfg: SeriesConfig | None = None,
) -> AdaptiveSolution:
    """Maximum average spectral efficiency of the continuous-rate policy."""
    sol = solve_cutoff_continuous(snr, policy, m)
    bits = max(ase_series(sol.cutoff, m, cfg), 0.0)
    return AdaptiveSolution(
        cutoff=sol.cutoff,
        ase_bits=bits,
        constraint_residual=sol.constraint_residual,
        iterations=sol.iterations,
    )


def high_snr_ase(snr: SnrSpec, policy: BerPolicy, m: ChannelModel) -> float:
    """Logarithmic high-SNR approximation of the spectral-efficiency limit."""
    val = _mean_log_irradiance(m) + math.log(policy.k_margin * snr.snr_linear)
    return val / LN2


def pointing_penalty(m: ChannelModel) -> float:
    """High-SNR spectral-efficiency loss caused by the misalignment fading."""
    if m.pointing is None:
        raise TypeError("pointing_penalty requires a model with pointing errors")
    p = m.pointing
    return (1.0 / p.xi2 - math.log(p.a0)) / LN2


# ---------------------------------------------------------------------------
# discrete-rate scheme


def discrete_regions(cset: ConstellationSet, cutoff_star: float):
    """Partition of the irradiance axis into (low, high, size) regions."""
    if not cutoff_star > 0:
        raise ValueError(f"cutoff_star must be > 0, got {cutoff_star}")
    sizes = cset.sizes
    out = []
    lo = 0.0
    for i, msize in enumerate(sizes):
        hi = sizes[i + 1] * cutoff_star if i + 1 < len(sizes) else math.inf
        out.append((lo, hi, msize))
        lo = hi
    return out


def discrete_power(i: float, region_m: int, policy: BerPolicy) -> float:
    """Channel-inversion power keeping the BER target inside one region."""
    if region_m == 0:
        return 0.0
    if region_m < 4:
        raise ValueError(f"active regions need a size >= 4, got {region_m}")
    if not i > 0:
        raise ValueError(f"i must be > 0 inside an active region, got {i}")
    return (region_m - 1.0) / (policy.k_margin * i)


def _discrete_constraint(cutoff_star, snr, policy, m, cset):
    sizes = cset.sizes
    # the upper edge of each rung is the lower edge of the next, so each
    # boundary's tail E[1/I; I >= size * cutoff_star] is evaluated once,
    # all in one call
    tails = [*mean_inv_above(np.multiply(sizes[1:], cutoff_star), m), 0.0]
    total = 0.0
    for i in range(1, len(sizes)):
        total += (sizes[i] - 1.0) * (tails[i - 1] - tails[i])
    return total - policy.k_margin * snr.snr_linear


def solve_cutoff_discrete(
    snr: SnrSpec,
    policy: BerPolicy,
    m: ChannelModel,
    cset: ConstellationSet | None = None,
) -> AdaptiveSolution:
    """Cutoff of the finite-ladder scheme from the long-term power constraint.

    The constraint's power stays below (M_max - 1) E[1/I], which the
    ladder spends as its cutoff falls to 0; at or above the SNR that
    takes, there is no root and SolverBracketError is raised at once.
    """
    cset = cset or ConstellationSet()
    saturation = (cset.sizes[-1] - 1.0) * _mean_inv_irradiance(m)
    if policy.k_margin * snr.snr_linear >= saturation:
        sat_db = 10.0 * math.log10(saturation / policy.k_margin)
        raise SolverBracketError(
            f"the ladder saturates at {sat_db:.2f} dB; "
            f"no cutoff spends {snr.snr_db:.2f} dB"
        )
    # each active rung spends (M - 1)/I < 1/cutoff, so the constraint is
    # negative at x = 1/cutoff = t, and rises with x from there
    t = policy.k_margin * snr.snr_linear
    x, res, evals = _bracket_and_solve(
        lambda x: -_discrete_constraint(1.0 / x, snr, policy, m, cset), t, 2.0 * t
    )
    return AdaptiveSolution(
        cutoff=1.0 / x,
        ase_bits=float("nan"),
        constraint_residual=-res,
        iterations=evals,
    )


def discrete_ase(
    snr: SnrSpec,
    policy: BerPolicy,
    m: ChannelModel,
    cset: ConstellationSet | None = None,
    cfg: SeriesConfig | None = None,
) -> AdaptiveSolution:
    """Average spectral efficiency achieved by the finite constellation ladder."""
    cset = cset or ConstellationSet()
    sol = solve_cutoff_discrete(snr, policy, m, cset)
    sizes = cset.sizes
    cdf_vals = [*composite_cdf(np.multiply(sizes[1:], sol.cutoff), m, cfg), 1.0]
    bits = 0.0
    for i in range(1, len(sizes)):
        bits += math.log2(sizes[i]) * (cdf_vals[i] - cdf_vals[i - 1])
    return AdaptiveSolution(
        cutoff=sol.cutoff,
        ase_bits=bits,
        constraint_residual=sol.constraint_residual,
        iterations=sol.iterations,
    )


# ---------------------------------------------------------------------------
# required-SNR inversions


def fixed_required_snr(target_rb: float, target_ber: float, m: ChannelModel) -> SnrSpec:
    """SNR a fixed constellation needs for the fading-averaged BER target.

    The constellation is the one achieving the requested spectral
    efficiency, M = 2^target_rb, driven at constant power.
    """
    if not target_rb > 0:
        raise ValueError(f"target_rb must be > 0, got {target_rb}")
    if not (0.0 < target_ber < 0.2):
        raise ValueError(f"target_ber must lie in (0, 0.2), got {target_ber}")
    msize = 2.0**target_rb
    ln_target = math.log(target_ber / 0.2)

    @functools.cache
    def res(snr_db):
        s = 1.5 * 10.0 ** (snr_db / 10.0) / (msize - 1.0)
        val = mean_exp_neg(s, m)
        return (math.log(val) if val > 0 else -1e6) - ln_target

    # the root in s = 1.5 SNR / (M - 1) lies above Jensen's bound, from
    # E[e^(-sI)] >= e^(-s E[I]), and below the bound from e^(-x) < 1/x,
    # E[e^(-sI)] < E[1/I] / s
    s_lo = -ln_target / moment(1, m)
    s_hi = 0.2 * _mean_inv_irradiance(m) / target_ber
    db = lambda s: 10.0 * math.log10(s * (msize - 1.0) / 1.5)
    lo, hi = max(db(s_lo), -20.0), min(db(s_hi), 90.0)
    if not lo < hi or res(lo) < 0 or res(hi) > 0:
        raise SolverBracketError("fixed-rate SNR bracket failed")
    return SnrSpec.from_db(brentq(res, lo, hi, xtol=1e-9, maxiter=200))


def adaptive_required_snr(
    target_rb: float,
    policy: BerPolicy,
    m: ChannelModel,
    cfg: SeriesConfig | None = None,
) -> SnrSpec:
    """SNR at which the continuous-rate limit reaches the requested efficiency.

    Both the limit and its SNR are explicit in the cutoff: ASE(cutoff) is
    the closed form and SNR(cutoff) = E[(1/cutoff - 1/I)^+] / k_margin.
    The ASE falls monotonically in the cutoff, so ASE(cutoff) = target_rb
    has a single root; it is searched from the guess bracket [A0/4, A0/2],
    and the SNR is evaluated there once.  Answers outside [-30, 80] dB
    raise SolverBracketError.
    """
    if not target_rb > 0:
        raise ValueError(f"target_rb must be > 0, got {target_rb}")

    # ase_series sums its series only up to A0, so the search starts below it
    a0 = _misalignment(m)[0]
    cutoff, _, _ = _bracket_and_solve(
        lambda c: ase_series(c, m, cfg) - target_rb, 0.25 * a0, 0.5 * a0
    )
    snr_linear = mean_excess_inv(cutoff, m) / policy.k_margin
    if not 1e-3 <= snr_linear <= 1e8:  # -30 to 80 dB
        raise SolverBracketError("adaptive-rate SNR outside [-30, 80] dB")
    return SnrSpec.from_linear(snr_linear)
