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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .channel import (
    ChannelModel,
    mean_inv_above,
    moment,
    _laplace_at,
    _law_at,
    _mean_inv_irradiance,
    _mean_log_irradiance,
)
# brentq, digamma, ln_gamma and mean_inv_above are unused here; the
# benchmark's trace tests expect these bindings
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
LN10 = math.log(10.0)
# the fixed-rate solve in u = ln s: the error it leaves (a tenth of
# 1e-9 dB), the least step or bracket it takes, and the largest u whose
# s is a float
_FIXED_TOL = 2.3e-11
_FIXED_STOP = 1e-10
_LN_S_MAX = 709.0
# the steps of Newton's quadratic regime, relative to the iterate's scale
_NEWTON_NEAR = 1e-5


def _newton_stop(step, last, tol, scale=1.0):
    """The error of the iterate plus step, as Newton's last two steps predict it; None above tol.

    Near a simple root of g a Newton step d leaves an error of about
    C d^2, C = g''/(2 g'), and the step before gives C as -d / d_prev^2,
    so the iterate plus d lies about -d^3 / d_prev^2 past the root.  The
    prediction is trusted only in the quadratic regime, once |d| is at
    most _NEWTON_NEAR scale.  A step of at most tol stops the solve too:
    its own error, C d^2, is below rounding, and reads 0.
    """
    if last and abs(step) <= _NEWTON_NEAR * scale:
        err = -step**3 / last**2
        if abs(err) <= tol:
            return err
    return 0.0 if abs(step) <= tol else None


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
        if not (math.isfinite(self.snr_db) and 0 < self.snr_linear < math.inf):
            raise ValueError(f"SNR must be finite and > 0, got {self.snr_db} dB")
        expect = 10.0 ** (self.snr_db / 10.0)
        if abs(self.snr_linear - expect) > 1e-12 * expect:
            raise ValueError("snr_db and snr_linear are inconsistent")

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrSpec":
        try:
            return cls(snr_db=snr_db, snr_linear=10.0 ** (snr_db / 10.0))
        except OverflowError:
            raise ValueError(f"SNR of {snr_db} dB overflows a float") from None

    @classmethod
    def from_linear(cls, snr_linear: float) -> "SnrSpec":
        return cls(snr_db=10.0 * math.log10(snr_linear), snr_linear=snr_linear)


@dataclass(frozen=True)
class AdaptiveSolution:
    """Solved cutoff with the resulting spectral efficiency and diagnostics.

    iterations counts the passes over the constraint that the solve
    made, each at a distinct point: any walk to a start and every Newton
    step.  A Newton solve returns its last pass's point plus that pass's
    step, where it makes no pass, so constraint_residual is then the
    residual predicted there, second order in that step (see
    _newton_stop); the discrete solve's bracket stop returns its last
    pass's point and residual.
    """

    cutoff: float
    ase_bits: float
    constraint_residual: float
    iterations: int


@dataclass(frozen=True)
class ConstellationSet:
    """Ordered admissible square-QAM sizes; entry 0 means no transmission.

    Region i >= 1 starts at sizes[i] * cutoff; every region i carries
    bits[i] = log2 max(sizes[i], 1) and spends spend[i] / (k_margin I),
    spend[i] = max(sizes[i], 1) - 1, so the outage region 0 has neither.
    """

    sizes: tuple = (0, 4, 16, 64, 256, 1024)
    bits: np.ndarray = field(init=False, repr=False, compare=False)
    spend: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sizes) < 2 or float(self.sizes[0]) != 0:
            raise ValueError("sizes must start with 0 and contain at least one order")
        s = (0, *map(self.square_qam, self.sizes[1:]))
        object.__setattr__(self, "sizes", s)
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("sizes must be strictly increasing")
        active = np.maximum(s, 1.0)  # the outage region as a 1-point constellation
        for name, val in (("bits", np.log2(active)), ("spend", active - 1.0)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @staticmethod
    def square_qam(m) -> int:
        """m as an int if it is a square-QAM size 4^r with r >= 1, else ValueError."""
        n = int(m)
        if float(m) != n or n < 4 or 4 ** round(math.log(n, 4)) != n:
            raise ValueError(f"a square-QAM size is a power of 4 from 4 up, got {m}")
        return n

    def bounds(self, cutoff: float) -> np.ndarray:
        """Lower edges of regions 1 to n at the given cutoff."""
        return np.multiply(self.sizes[1:], cutoff)


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


# why a cutoff solve gave up after its 200 evaluations
_NO_UPPER_END = "no upper bracket found for the cutoff"
_NO_CONVERGENCE = "Newton cutoff solve did not converge in 200 evaluations"


def solve_cutoff_continuous(
    snr: SnrSpec, policy: BerPolicy, m: ChannelModel
) -> AdaptiveSolution:
    """Cutoff irradiance of the water-filling policy at the given average SNR.

    Solves h(x) = E[(x - 1/I)^+] = t, t = k_margin * SNR, in x = 1/cutoff
    by Newton's method.  h is convex and increasing with slope 1 - F(1/x)
    in [0, 1], and lies between x - E[1/I] and x, so h(t + E[1/I]) >= t
    and Newton from there falls monotonically onto the unique root; when
    E[1/I] is infinite the start walks up from 2t until h >= t.  Each step
    takes h and its slope from one pass over the law.  The solve stops on
    the pass whose step d leaves a predicted error of at most 1e-14 x
    (see _newton_stop), or whose step is at most that or not positive,
    and returns that iterate plus d without a pass there.
    """
    return _newton_continuous(snr, policy, m)[0]


def _newton_continuous(snr, policy, m, cfg=None):
    """solve_cutoff_continuous's Newton solve, and with series settings cfg the ASE at its cutoff.

    The ASE functional E[(ln(I/c))^+] in nats is read on the last pass
    and carried to the cutoff returned by its first derivative in ln c,
    -(1 - F(c)), from the same pass; the remainder is second order in
    the last step.  A pass carries it when cfg is the default, which the
    constraint's passes use, and the pass before predicts that it stops
    the solve: the step after d is C d^2, with C = -d / d_prev^2 as in
    _newton_stop, and on the first step C = h''/(2 h') = c^2 f(c) / (2 (1 - F(c)))
    with c f(c) taken as p F(c), p = min(a, b, xi2) the power of F at
    the origin.  Otherwise the functional takes one pass of its own at
    the cutoff.  Returns (solution, ASE in nats, or None without cfg).
    """
    t = policy.k_margin * snr.snr_linear
    x = t + _mean_inv_irradiance(m)
    walk = not math.isfinite(x)
    x, last, carry = 2.0 * t if walk else x, 0.0, ()
    fold = ("log",) if cfg == SeriesConfig() else ()
    origin = min(m.alpha, m.beta, m.xi2)
    for evals in range(1, 201):
        c = 1.0 / x
        sf, inv, *rest = _law_at(np.array([c]), m, "sf", "inv", *carry)[:, 0].tolist()
        h = sf / c - inv
        walk = walk and h < t
        if walk:
            x *= 2.0
            continue
        # Newton only lowers x; a step that would not is the rounding floor
        step = (t - h) / sf if h > t else 0.0
        err = _newton_stop(step, last, 1e-14 * x, x)
        if err is not None:
            nats = None
            if carry:
                # ln c falls by log1p(step / x)
                nats = rest[0] + sf * math.log1p(step / x)
            elif cfg is not None:
                nats = float(_law_at(np.array([1.0 / (x + step)]), m, "log", cfg=cfg)[0, 0])
            sol = AdaptiveSolution(
                cutoff=1.0 / (x + step), ase_bits=math.nan, constraint_residual=sf * err,
                iterations=evals,
            )
            return sol, nats
        curv = step / last**2 if last else origin * (1.0 - sf) * c / (2.0 * sf)
        then = _newton_stop(curv * step**2, step, 1e-14 * x, x) is not None
        x, last, carry = x + step, step, fold if then else ()
    raise SolverBracketError(_NO_UPPER_END if walk else _NO_CONVERGENCE)


def ase_series(cutoff: float, m: ChannelModel, cfg: SeriesConfig | None = None) -> float:
    """Closed-form spectral-efficiency ceiling E[(log2(I/cutoff))^+], bits/s/Hz."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    return float(_law_at(np.array([cutoff]), m, "log", cfg=cfg or SeriesConfig())[0, 0]) / LN2


def ase_limit(
    snr: SnrSpec,
    policy: BerPolicy,
    m: ChannelModel,
    cfg: SeriesConfig | None = None,
) -> AdaptiveSolution:
    """Maximum average spectral efficiency of the continuous-rate policy.

    The cutoff solve's last pass carries the ASE functional to the cutoff
    by its slope; with series settings other than the defaults, or when
    the solve stops on a pass that did not carry it, it takes a pass of
    its own there.
    """
    sol, nats = _newton_continuous(snr, policy, m, cfg or SeriesConfig())
    return replace(sol, ase_bits=max(nats / LN2, 0.0))


def high_snr_ase(snr: SnrSpec, policy: BerPolicy, m: ChannelModel) -> float:
    """Logarithmic high-SNR approximation of the spectral-efficiency limit."""
    val = _mean_log_irradiance(m) + math.log(policy.k_margin * snr.snr_linear)
    return val / LN2


def pointing_penalty(m: ChannelModel) -> float:
    """High-SNR spectral-efficiency loss caused by the misalignment fading."""
    if m.pointing is None:
        raise TypeError("pointing_penalty requires a model with pointing errors")
    return (1.0 / m.xi2 - math.log(m.a0)) / LN2


# ---------------------------------------------------------------------------
# discrete-rate scheme


def discrete_regions(cset: ConstellationSet, cutoff_star: float):
    """Partition of the irradiance axis into (low, high, size) regions."""
    if not cutoff_star > 0:
        raise ValueError(f"cutoff_star must be > 0, got {cutoff_star}")
    edges = [0.0, *cset.bounds(cutoff_star).tolist(), math.inf]
    return list(zip(edges, edges[1:], cset.sizes))


def discrete_power(i: float, region_m: int, policy: BerPolicy) -> float:
    """Channel-inversion power keeping the BER target inside one region."""
    if region_m == 0:
        return 0.0
    spend = ConstellationSet.square_qam(region_m) - 1.0
    if not i > 0:
        raise ValueError(f"i must be > 0 inside an active region, got {i}")
    return spend / (policy.k_margin * i)


def _discrete_constraint(cutoff: float, m: ChannelModel, cset: ConstellationSet, *then):
    """Ladder power P at the cutoff, x dP/dx in x = 1/cutoff and the edges' density, from one pass.

    Summed by parts, each edge's tail E[1/I; I >= edge] enters P once with
    its step in spend; each tail grows in x at the rate f(edge)/x.  The
    functionals then, names of _law_at, follow at the edges from the
    same pass.
    """
    inv, pdf, *rest = _law_at(cset.bounds(cutoff), m, "inv", "pdf", *then)
    steps = cset.spend[1:] - cset.spend[:-1]
    return float(steps @ inv), float(steps @ pdf), pdf, *rest


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
    Below it, P(x) = t, t = k_margin * SNR, is solved by Newton's method
    on ln P in ln x, x = 1/cutoff.  A rung of size M is active only where
    I >= M/x, and spends (M - 1)/I < x there, so with M_1 the smallest
    size, P(x) < x P(I >= M_1/x) <= E[I^n] x^(n+1) / M_1^n by Markov's
    inequality.  P < t thus holds at x = t and at
    x = (M_1^n t/E[I^n])^(1/(n+1)); the largest of those for n = 0, 1, 2
    is the lower end of the bracket that every evaluation narrows, and
    Newton starts at twice it.  A step that leaves the bracket goes to 4
    times its lower end while it has no upper one, and to the geometric
    mean of its ends once it has.  The solve stops on the pass whose step
    d leaves a predicted error of at most 1e-14 x (see _newton_stop), or
    whose step is at most that, and returns that iterate plus d without a
    pass there; it also stops at the iterate once the bracket is narrower
    than 4e-14 of its lower end.
    """
    return _newton_discrete(snr, policy, m, cset or ConstellationSet())[0]


def _newton_discrete(snr, policy, m, cset, cfg=None):
    """solve_cutoff_discrete's Newton solve, and with series settings cfg F at its ladder's edges.

    F at each edge is read on the last pass and carried to the edges of
    the cutoff returned by its first derivative, the density at the
    edge, from the same pass; the remainder is second order in the last
    step.  Which pass carries it is chosen as in _newton_continuous, but
    only from the last two steps.
    Returns (solution, F at the edges, or None without cfg).
    """
    saturation = cset.spend[-1] * _mean_inv_irradiance(m)
    if policy.k_margin * snr.snr_linear >= saturation:
        sat_db = 10.0 * math.log10(saturation / policy.k_margin)
        raise SolverBracketError(
            f"the ladder saturates at {sat_db:.2f} dB; "
            f"no cutoff spends {snr.snr_db:.2f} dB"
        )
    t = policy.k_margin * snr.snr_linear
    m1 = cset.sizes[1]
    lo = max(t, math.sqrt(m1 * t / moment(1, m)), (m1 * m1 * t / moment(2, m)) ** (1.0 / 3.0))
    hi, x, last, carry = math.inf, 2.0 * lo, 0.0, ()
    fold = ("cdf",) if cfg == SeriesConfig() else ()
    for evals in range(1, 201):
        p, slope, pdf, *rest = _discrete_constraint(1.0 / x, m, cset, *carry)
        lo, hi = (x, hi) if p < t else (lo, x)
        step = math.nan  # P and its slope are 0 only past the law's support
        if p > 0.0 and slope > 0.0:
            # Newton on ln P - ln t in ln x, its exponent capped below overflow
            step = x * math.expm1(min(math.log(t / p) * p / slope, 700.0))
        err = _newton_stop(step, last, 1e-14 * x, x)
        if err is None and hi - lo <= 4e-14 * lo:
            step, err = 0.0, (p - t) / slope * x  # the bracket stop: this pass's residual
        if err is not None:
            cdf = None
            if carry:
                # each edge M/x moves by M (1/(x + step) - 1/x)
                cdf = rest[0] - pdf * cset.bounds(step / (x * (x + step)))
            elif cfg is not None:
                cdf = _law_at(cset.bounds(1.0 / (x + step)), m, "cdf", cfg=cfg)[0]
            sol = AdaptiveSolution(
                cutoff=1.0 / (x + step), ase_bits=math.nan,
                constraint_residual=slope * err / x, iterations=evals,
            )
            return sol, cdf
        x_next = x + step
        if lo < x_next < hi:
            # the step after this one, as in _newton_continuous
            then = last != 0.0 and _newton_stop(step**3 / last**2, step, 1e-14 * x, x) is not None
            x, last, carry = x_next, step, fold if then else ()
        else:
            x, last, carry = 4.0 * lo if hi == math.inf else math.sqrt(lo * hi), 0.0, ()
    raise SolverBracketError(_NO_UPPER_END if hi == math.inf else _NO_CONVERGENCE)


def discrete_ase(
    snr: SnrSpec,
    policy: BerPolicy,
    m: ChannelModel,
    cset: ConstellationSet | None = None,
    cfg: SeriesConfig | None = None,
) -> AdaptiveSolution:
    """Average spectral efficiency achieved by the finite constellation ladder.

    The cutoff solve's last pass carries the distribution function at the
    ladder's edges to the cutoff by its slope; with series settings other
    than the defaults, or when the solve stops on a pass that did not
    carry it, it takes a pass of its own there.
    """
    cset = cset or ConstellationSet()
    sol, cdf = _newton_discrete(snr, policy, m, cset, cfg or SeriesConfig())
    # summed by parts: each edge adds its step in bits times P(I >= edge)
    survival = 1.0 - np.clip(cdf, 0.0, 1.0)
    return replace(sol, ase_bits=float(np.diff(cset.bits) @ survival))


# ---------------------------------------------------------------------------
# required-SNR inversions


def fixed_required_snr(target_rb: float, target_ber: float, m: ChannelModel) -> SnrSpec:
    """SNR a fixed constellation needs for the fading-averaged BER target.

    The constellation is the one achieving the requested spectral
    efficiency, M = 2^target_rb, driven at constant power.  Its bound
    0.2 exp(-s I), s = 1.5 SNR / (M - 1), averages to the target where
    g(u) = ln E[exp(-sI)] - ln(target_ber/0.2) is 0, u = ln s, a root
    that does not depend on M.  It lies above Jensen's bound, from
    E[exp(-sI)] >= exp(-s E[I]), and below the bound from exp(-x) < 1/x,
    E[exp(-sI)] < E[1/I] / s; clamped to the window [-20, 90] dB, these
    are the ends of a bracket.  Newton's method in u starts at the lower
    end, each step takes g and its slope from one pass of _laplace_at,
    and every pass narrows the bracket.  A step that leaves the bracket
    bisects it in u; while the upper end is the window's, which no bound
    proves, that end is tried first, and g >= 0 there raises.

    The stop is _newton_stop's in u: once a step d is at most 1e-5, in
    the quadratic regime, the solve returns the iterate plus d if the
    error it predicts, |d|^3 / d_prev^2, times max(1, |g'|) is at most
    2.3e-11: a tenth of brentq's
    xtol of 1e-9 dB (2.3e-10 in u), and where |g'| > 1 a bound on the
    relative error of E[exp(-sI)] as well.  A step or a bracket of at
    most 1e-10 also stops it.  On the published cells C is about 0.16
    and the solve takes 4 passes: its steps fall to about 5e-3 and then
    3e-6, for a predicted error of about 1e-12.

    Roots outside the window raise SolverBracketError.  M - 1 is taken
    as expm1(target_rb ln 2) in log form, so that no rate overflows it
    or rounds it to 0.
    """
    if not target_rb > 0:
        raise ValueError(f"target_rb must be > 0, got {target_rb}")
    if not (0.0 < target_ber < 0.2):
        raise ValueError(f"target_ber must lie in (0, 0.2), got {target_ber}")
    ln_target = math.log(target_ber / 0.2)
    bits = target_rb * LN2
    # u - ln(SNR) = ln(1.5) - ln(M - 1)
    offset = math.log(1.5) - bits - math.log(-math.expm1(-bits))
    window = "fixed-rate SNR outside [-20, 90] dB"
    lo, top = (offset + db * LN10 / 10.0 for db in (-20.0, 90.0))
    lo = max(lo, math.log(-ln_target / moment(1, m)))
    top = min(top, _LN_S_MAX)
    hi = min(top, math.log(0.2 * _mean_inv_irradiance(m) / target_ber))
    if not lo < hi:
        raise SolverBracketError(window)
    # g < 0 at hi is proved unless hi is the window's end, which is probed
    # before the first bisection
    probe, u, last = hi == top, lo, 0.0
    for _ in range(200):
        val, slope = _laplace_at(math.exp(u), m)
        g = math.log(val) - ln_target if val > 0.0 else -math.inf
        if g >= 0.0:
            if u == top:
                raise SolverBracketError(window)
            lo = u
        elif u == lo:  # the first pass: the root lies below the lower end
            raise SolverBracketError(window)
        else:
            hi, probe = u, False
        step = -g * val / slope if slope < 0.0 and g > -math.inf else math.nan
        tol = _FIXED_TOL / max(1.0, -slope / val)
        if _newton_stop(step, last, tol) is not None or abs(step) <= _FIXED_STOP:
            return SnrSpec.from_db((u + step - offset) * 10.0 / LN10)
        if hi - lo <= _FIXED_STOP:
            return SnrSpec.from_db((u - offset) * 10.0 / LN10)
        u, last = u + step, step
        if not lo < u < hi:
            u, probe, last = hi if probe else 0.5 * (lo + hi), False, 0.0
    raise SolverBracketError("fixed-rate Newton solve did not converge in 200 passes")


def adaptive_required_snr(
    target_rb: float,
    policy: BerPolicy,
    m: ChannelModel,
    cfg: SeriesConfig | None = None,
) -> SnrSpec:
    """SNR at which the continuous-rate limit reaches the requested efficiency.

    Both the limit and its SNR are explicit in the cutoff c: the limit is
    E[(ln(I/c))^+] / ln 2 and the SNR E[(1/c - 1/I)^+] / k_margin.  In
    u = ln c the limit in nats is convex and decreasing with slope
    -(1 - F(c)), and it is at least E[ln I] - u, so it meets the target at
    u = E[ln I] - target_rb ln 2 or above, and Newton's method from there
    falls monotonically onto the unique root.  Each step takes the limit,
    its slope and E[1/I; I >= c] from one pass over the law with the
    given series settings.  The solve stops on the pass whose step d
    leaves a predicted error of at most 1e-14 max(1, |u|) (see
    _newton_stop), or whose step is at most that, and returns the SNR at
    u + d without a pass there: the pass's SNR moved by its first
    derivative, the SNR falls by (1 - F(c)) (1/c - 1/c') / k_margin from
    c to c' = c e^d, with a remainder second order in d.  A start that
    underflows (about 1,075 bits or more), a zero slope, 200 steps
    without convergence and answers outside [-30, 80] dB raise
    SolverBracketError.  Newton only raises c, and the SNR falls as c
    rises, so the root's SNR is at most an iterate's, and at most
    target_rb ln 2 / (k_margin c) since E[(ln(I/c))^+] >= c E[(1/c - 1/I)^+]:
    the first iterate where either is below -30 dB raises at once.
    """
    if not target_rb > 0:
        raise ValueError(f"target_rb must be > 0, got {target_rb}")
    cfg, target = cfg or SeriesConfig(), target_rb * LN2
    u = _mean_log_irradiance(m) - target
    if not math.exp(u) > 0:
        raise SolverBracketError(f"the cutoff for {target_rb} bits underflows a float")
    last = 0.0
    for _ in range(200):
        c = math.exp(u)
        nats, sf, inv = _law_at(np.array([c]), m, "log", "sf", "inv", cfg=cfg)[:, 0].tolist()
        if not (sf > 0.0 and math.isfinite(nats)):
            raise SolverBracketError(f"no Newton step at the cutoff {c:.6g}: the ASE has no slope")
        snr_linear = (sf / c - inv) / policy.k_margin
        # Newton only raises u; a step that would not is the rounding floor
        step = max((nats - target) / sf, 0.0)
        done = _newton_stop(step, last, 1e-14 * max(1.0, abs(u)), max(1.0, abs(u))) is not None
        if done:
            snr_linear += sf * math.expm1(-step) / (c * policy.k_margin)
        # the root's SNR is at most this iterate's, and at most
        # target / (k_margin c), from ln y >= 1 - 1/y
        ceiling = min(snr_linear, target / (policy.k_margin * c))
        if ceiling < 1e-3 or done and not snr_linear <= 1e8:  # -30 to 80 dB
            raise SolverBracketError("adaptive-rate SNR outside [-30, 80] dB")
        if done:
            return SnrSpec.from_linear(snr_linear)
        u, last = u + step, step
    raise SolverBracketError(_NO_CONVERGENCE)
