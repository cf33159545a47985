"""Irradiance statistics of the turbulent optical channel.

Maps physical link settings (geometry, turbulence strength, jitter) to
distribution parameters, and exposes the fading law of the composite
irradiance I = I_a * I_p three ways: a closed-form residue series below
A0 with a Gauss-Laguerre tail rule beyond it, quadrature (the log-excess
and Laplace functionals), and Monte Carlo sampling.  I_a is gamma-gamma
distributed (product of two unit-mean gamma variates) and I_p follows a
power-law misalignment model on (0, A0].
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special
from scipy.integrate import quad

from .specfun import (
    SeriesConfig,
    SingularOrderError,
    ln_gamma,
    sample_gamma,
)

__all__ = [
    "LinkGeometry",
    "TurbulenceParams",
    "PointingParams",
    "Variant",
    "ChannelModel",
    "rytov_variance",
    "gg_params",
    "beam_waist_at_rx",
    "pointing_params",
    "gg_pdf",
    "composite_pdf",
    "composite_cdf",
    "moment",
    "sample_irradiance",
    "mean_excess_inv",
    "mean_log_excess",
    "mean_inv_above",
    "mean_exp_neg",
]

_QUAD_OPTS = dict(limit=200, epsabs=1e-13, epsrel=1e-11)


@dataclass(frozen=True)
class LinkGeometry:
    """Physical description of the optical link.

    Lengths in meters; cn2 is the refractive-index structure parameter
    in m^(-2/3); jitter_sigma_m is the per-axis RMS pointing displacement
    at the receiver plane.
    """

    length_m: float
    wavelength_m: float
    tx_waist_m: float
    rx_aperture_radius_m: float
    cn2: float
    jitter_sigma_m: float

    def __post_init__(self):
        for name in (
            "length_m",
            "wavelength_m",
            "tx_waist_m",
            "rx_aperture_radius_m",
            "cn2",
            "jitter_sigma_m",
        ):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if self.wavelength_m >= 1e-5:
            raise ValueError("wavelength_m must be below 1e-5 m (optical band)")
        if self.length_m < 1.0:
            raise ValueError("length_m must be at least 1 m")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength_m


@dataclass(frozen=True)
class TurbulenceParams:
    """Gamma-gamma shape parameters plus the Rytov variance they came from."""

    alpha: float
    beta: float
    rytov_var: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.rytov_var > 0):
            raise ValueError("alpha, beta and rytov_var must all be > 0")


@dataclass(frozen=True)
class PointingParams:
    """Misalignment-fading shape parameters.

    a0 is the maximal fraction of collected power; xi2 the squared jitter
    severity (larger = milder misalignment).
    """

    a0: float
    xi2: float
    rx_beam_waist_m: float

    def __post_init__(self):
        if not (0.0 < self.a0 <= 1.0):
            # the no-misalignment limit a0 -> 1 is admitted at the boundary
            raise ValueError(f"a0 must lie in (0,1], got {self.a0}")
        if not self.xi2 > 0:
            raise ValueError(f"xi2 must be > 0, got {self.xi2}")

    @property
    def xi(self) -> float:
        return math.sqrt(self.xi2)


class Variant(enum.Enum):
    GG_ONLY = "gg_only"
    GG_POINTING = "gg_pointing"


@dataclass(frozen=True)
class ChannelModel:
    """Fully parameterized fading law for the composite irradiance."""

    turbulence: TurbulenceParams
    pointing: PointingParams | None = None

    @property
    def variant(self) -> Variant:
        return Variant.GG_ONLY if self.pointing is None else Variant.GG_POINTING

    @property
    def alpha(self) -> float:
        return self.turbulence.alpha

    @property
    def beta(self) -> float:
        return self.turbulence.beta


# ---------------------------------------------------------------------------
# parameter derivation


def rytov_variance(geom: LinkGeometry) -> float:
    """Rytov variance 1.23 Cn^2 k^(7/6) L^(11/6) of the link."""
    return 1.23 * geom.cn2 * geom.wavenumber ** (7.0 / 6.0) * geom.length_m ** (11.0 / 6.0)


def gg_params(sigma_r2: float) -> TurbulenceParams:
    """Gamma-gamma (alpha, beta) for a given Rytov variance."""
    if not (np.isfinite(sigma_r2) and sigma_r2 > 0):
        raise ValueError(f"sigma_r2 must be > 0, got {sigma_r2}")
    s12 = sigma_r2 ** 1.2
    alpha = 1.0 / (math.exp(0.49 * sigma_r2 / (1.0 + 1.11 * s12) ** (7.0 / 6.0)) - 1.0)
    beta = 1.0 / (math.exp(0.51 * sigma_r2 * (1.0 + 0.69 * s12) ** (-5.0 / 6.0)) - 1.0)
    return TurbulenceParams(alpha=alpha, beta=beta, rytov_var=sigma_r2)


def beam_waist_at_rx(geom: LinkGeometry) -> float:
    """Turbulence-broadened beam waist at the receiver plane."""
    rho0 = (1.46 * geom.cn2 * geom.wavenumber**2 * geom.length_m) ** (-3.0 / 5.0)
    eps = 1.0 + 2.0 * geom.tx_waist_m**2 / rho0**2
    spread = geom.wavelength_m * geom.length_m / (math.pi * geom.tx_waist_m**2)
    return geom.tx_waist_m * math.sqrt(1.0 + eps * spread**2)


def pointing_params(
    rx_aperture_radius_m: float, rx_beam_waist_m: float, jitter_sigma_m: float
) -> PointingParams:
    """Misalignment-fading parameters from aperture, beam waist and jitter.

    Uses the erf-based Gaussian-beam/circular-aperture model: the fraction
    of power collected at radial displacement r is approximated by
    A0 * exp(-2 r^2 / w_eq^2), with A0 = erf(v)^2 and the equivalent beam
    width w_eq absorbing aperture truncation.  With Rayleigh-distributed
    displacement of per-axis sigma, xi = w_eq / (2 sigma).
    """
    if not (rx_aperture_radius_m > 0 and rx_beam_waist_m > 0 and jitter_sigma_m > 0):
        raise ValueError("all pointing inputs must be > 0")
    v = math.sqrt(math.pi) * rx_aperture_radius_m / (math.sqrt(2.0) * rx_beam_waist_m)
    if math.exp(-v * v) == 0.0:
        raise ValueError(
            "aperture is so much wider than the beam that the misalignment "
            "model degenerates; drop the pointing model instead"
        )
    erf_v = math.erf(v)
    a0 = erf_v**2
    w_eq2 = (
        rx_beam_waist_m**2
        * math.sqrt(math.pi)
        * erf_v
        / (2.0 * v * math.exp(-v * v))
    )
    xi = math.sqrt(w_eq2) / (2.0 * jitter_sigma_m)
    return PointingParams(a0=a0, xi2=xi * xi, rx_beam_waist_m=rx_beam_waist_m)


# ---------------------------------------------------------------------------
# densities


def _gg_constants(t: TurbulenceParams):
    """(ln c, e, nu, 4ab) of the gamma-gamma density c x^e K_nu(sqrt(4ab x))."""
    a, b = t.alpha, t.beta
    ln_c = math.log(2.0) + 0.5 * (a + b) * math.log(a * b) - ln_gamma(a) - ln_gamma(b)
    return ln_c, 0.5 * (a + b) - 1.0, a - b, 4.0 * a * b


def _gg_density(t: TurbulenceParams):
    """Gamma-gamma density of I_a as a scalar function, constants bound once.

    f(x) = c x^e K_nu(z) with z = sqrt(4 a b x), evaluated in the log
    domain through the exponentially scaled Bessel function, so neither
    the tail nor a large order under- or overflows before the last exp.
    K of integer order needs no special case.  Quadrature integrands call
    this one; _gg_ln_pdf is the same formula over an array.
    """
    ln_c, e, nu, four_ab = _gg_constants(t)

    def pdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        z = math.sqrt(four_ab * x)
        k = special.kve(nu, z)
        if not k > 0.0:
            return 0.0
        return math.exp(ln_c + e * math.log(x) - z + math.log(k))

    return pdf


def _gg_ln_pdf(x: np.ndarray, t: TurbulenceParams) -> np.ndarray:
    """ln f_a(x) over an array of x > 0."""
    ln_c, e, nu, four_ab = _gg_constants(t)
    z = np.sqrt(four_ab * x)
    return ln_c + e * np.log(x) - z + np.log(special.kve(nu, z))


def gg_pdf(ia: float, t: TurbulenceParams) -> float:
    """Gamma-gamma density of the turbulence fluctuation I_a."""
    if ia < 0:
        raise ValueError(f"ia must be >= 0, got {ia}")
    return _gg_density(t)(ia)


def _misalignment(m: ChannelModel) -> tuple[float, float]:
    """(A0, xi2) of the misalignment factor; (1, inf) pins I_p to 1."""
    if m.pointing is None:
        return 1.0, math.inf
    return m.pointing.a0, m.pointing.xi2


def _neg_moment_coeff(alpha: float, beta: float, xi2: float) -> float:
    """Analytically continued E[I_a^(-xi2)] = (ab)^xi2 G(a-xi2) G(b-xi2) / (G(a) G(b))."""
    for arg in (alpha - xi2, beta - xi2):
        if arg <= 0 and arg == math.floor(arg):
            raise SingularOrderError(
                f"xi2 = {xi2} puts a gamma factor on a pole; perturb xi2"
            )
    sign = special.gammasgn(alpha - xi2) * special.gammasgn(beta - xi2)
    ln_mag = (
        xi2 * math.log(alpha * beta)
        + special.gammaln(alpha - xi2)
        + special.gammaln(beta - xi2)
        - ln_gamma(alpha)
        - ln_gamma(beta)
    )
    return sign * math.exp(ln_mag)


def _inv_moment(m: ChannelModel) -> float:
    """E[1/I] = ab / ((a-1)(b-1) A0) * xi2/(xi2-1), analytically continued.

    The expectation diverges once min(a, b, xi2) <= 1; below 1 this is
    the value of its Mellin transform at s = -1, which the residue series
    at that shift completes to the tail E[1/I; I >= c].
    """
    a, b = m.alpha, m.beta
    a0, xi2 = _misalignment(m)
    inv = a * b / ((a - 1.0) * (b - 1.0) * a0)
    return inv if m.pointing is None else inv * xi2 / (xi2 - 1.0)


@functools.lru_cache(maxsize=64)
def _series_table(m: ChannelModel, max_terms: int):
    """Coefficients of the residue series, built once per (model, max_terms).

    The k-th gamma-gamma coefficient of each shape family (x, xb) is
        g_k = cosec(pi(x-xb)) pi (x xb)^(k+xb)
              / (Gamma(x) Gamma(xb) Gamma(k-x+xb+1) k!)
    at the pole p = k + xb.  Returns (p, coeff, ln_g, e_neg, complete):
    p, sign(g_k)/(1 - p/xi2) and ln|g_k| as (K, 2) arrays, the
    misalignment pole's coefficient E[I_a^-xi2] (0 without pointing), and
    whether all max_terms rows are there.  The rows stop short of the
    first k whose pole lies within singularity_eps of xi2.  The factor
    1/(1 - p/xi2) is taken as xi2/(xi2 - p), whose difference is exact
    when p is near xi2, so a near-double pole costs no accuracy beyond the
    cancellation that the guard's peak sees.
    """
    a0, xi2 = _misalignment(m)
    x = np.array([m.alpha, m.beta])
    xb = x[::-1]
    s = np.sin(np.pi * (x - xb))
    if np.any(np.abs(s) < 1e-300):
        raise SingularOrderError("alpha - beta too close to an integer; perturb beta")
    k = np.arange(max_terms, dtype=float)[:, None]
    p = k + xb
    g_arg = k - x + xb + 1.0
    ln_g = (
        math.log(math.pi)
        - np.log(np.abs(s))
        + p * math.log(m.alpha * m.beta)
        - np.array([ln_gamma(v) for v in x])
        - np.array([ln_gamma(v) for v in xb])
        - special.gammaln(g_arg)
        - special.gammaln(k + 1.0)
    )
    coeff = np.sign(s) * special.gammasgn(g_arg)
    if m.pointing is not None:
        with np.errstate(divide="ignore"):
            coeff = coeff * xi2 / (xi2 - p)
    near = (np.abs(p - xi2) < SeriesConfig.singularity_eps).any(axis=1)
    rows = int(np.argmax(near)) if near.any() else max_terms
    e_neg = 0.0 if m.pointing is None else _neg_moment_coeff(m.alpha, m.beta, xi2)
    table = [v[:rows] for v in (p, coeff, ln_g)]
    for v in table:
        v.setflags(write=False)  # shared by every caller through the cache
    return (*table, e_neg, rows == max_terms)


def _residue_series(c, m: ChannelModel, cfg: SeriesConfig, order: int, shift: float = 0.0):
    """Residue series of the composite law at each cutoff c in (0, A0].

    The Mellin transform of I = I_a I_p is the gamma-gamma transform times
    the misalignment factor xi2/(xi2+s), so every closed form is one sum
    over the gamma-gamma poles p = k + xb of both shape families,

        sum_k g_k (c/A0)^p / ((1 - p/xi2) (p + shift)^order),

    plus, with pointing, the misalignment pole E[I_a^-xi2] (c/A0)^xi2
    xi2 / (xi2 + shift)^order.  At shift 0, order 0 is c times the
    density, order 1 the distribution and order 2 the log-moment part of
    E[(ln(I/c))^+]; order 1 at shift s is c^-s E[I^s; I < c].  Each sum
    stops at the first k > 0 whose terms fall below convergence_tol of
    it, or at max_terms.  Returns (value, tail, peak) arrays shaped as c:
    the value, the magnitude of the last term kept (0 once the sum has
    converged) and the largest term, for _series_accepts.  A value that
    is not finite comes back as NaN.  A sum that reaches a pole within
    singularity_eps of xi2 raises SingularOrderError.
    """
    p, coeff, ln_g, e_neg, complete = _series_table(m, cfg.max_terms)
    a0, xi2 = _misalignment(m)
    c = np.asarray(c, dtype=float)
    ln_u = np.log(c.reshape(-1) / a0)
    idx = np.arange(len(ln_u))
    k = np.arange(len(p))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = coeff / (p + shift) ** order * np.exp(ln_g + p * ln_u[:, None, None])
        mag = np.abs(terms).max(axis=-1)
        sums = terms.sum(axis=-1).cumsum(axis=-1)
        done = (k > 0) & (mag < cfg.convergence_tol * np.abs(sums))
        stopped = done.any(axis=-1)
        if not (complete or stopped.all()):
            raise SingularOrderError(
                f"a pole k+xb lies within {cfg.singularity_eps} of xi2 = {xi2}"
            )
        last = np.where(stopped, done.argmax(axis=-1), len(p) - 1)
        val = sums[idx, last]
        tail = np.where(stopped, 0.0, mag[:, -1])
        peak = np.maximum.accumulate(mag, axis=-1)[idx, last]
        # without pointing xi2 = inf and the misalignment pole is absent
        if m.pointing is not None:
            val = val + e_neg * np.exp(xi2 * ln_u) * xi2 / (xi2 + shift) ** order
    val = np.where(np.isfinite(val), val, np.nan)
    return val.reshape(c.shape), tail.reshape(c.shape), peak.reshape(c.shape)


def _series_accepts(val, tail, peak, tol: float):
    """Whether a residue-series value can be trusted to tol, relative.

    With large shape parameters, or far from the origin, the expansion can
    outgrow the term budget or its alternating terms can swamp the result:
    each log-domain term carries a relative rounding of about 1e-14, so a
    sum whose terms peak at P is off by up to P * 1e-14.  The caller then
    integrates directly.  Written so that a NaN from a singular
    coefficient fails the test.  Elementwise over arrays.
    """
    scale = np.maximum(np.abs(val), 1e-12)
    return (tail <= tol * scale) & (peak * 1e-14 <= tol * scale)


# ---------------------------------------------------------------------------
# the tail rule
#
# With lo = c/A0, every functional of the composite law above a cutoff c
# is an integral over t > lo of the gamma-gamma density f_a(t) times the
# mean of its integrand over the misalignment factor, done in closed form:
# P(I_p > c/t) = 1 - (lo/t)^xi2 and E[1/I_p; I_p > c/t] =
# xi2 (1 - (lo/t)^(xi2-1)) / ((xi2-1) A0).  Without pointing both are 1.

# Gauss-Laguerre nodes of the tail rule when every lo = c/A0 is at least
# 1, and when one is below, where the density's branch point t = 0 lies
# closer to lo
_NODES_ABOVE_A0 = 40
_NODES_BELOW_A0 = 100


@functools.cache
def _laguerre(n: int):
    """Nodes and weights of the n-point Gauss-Laguerre rule, read-only."""
    rule = special.roots_laguerre(n)
    for v in rule:
        v.setflags(write=False)
    return rule


def _tail_rule(lo: np.ndarray, m: ChannelModel, j: int, e=None, layered=False):
    """int_lo^inf f_a(t) t^-j h(t) dt at each lo, by Gauss-Laguerre.

    h is 1 for e = None.  Otherwise it is (lo/t)^e if layered, else
    (1 - (lo/t)^e)/e, whose e = 0 limit is ln(t/lo).  The substitution
    sqrt(t) = sqrt(lo) + w/(2 sqrt(ab)) turns the density's
    e^(-2 sqrt(ab t)) into e^(-2 sqrt(ab lo)) e^(-w), the rule's weight.
    Where the layer (lo/t)^e is narrower than that, e/lo > sqrt(ab/lo),
    the layered term is integrated in v = e ln(t/lo) instead, where it is
    the weight e^(-v).
    """
    w, weights = _laguerre(_NODES_ABOVE_A0 if lo.min() >= 1.0 else _NODES_BELOW_A0)
    sab = math.sqrt(m.alpha * m.beta)
    root = np.sqrt(lo)[:, None] + w / (2.0 * sab)
    t = root * root
    # f_a(t) dt = e^(-w) [f_a(t) e^w sqrt(t)/sqrt(ab)] dw
    ft = weights * np.exp(_gg_ln_pdf(t, m.turbulence) + w) * root / sab
    if j:
        ft = ft / t
    if e is None:
        return ft.sum(axis=-1)
    out = np.empty(len(lo))
    narrow = e > np.sqrt(m.alpha * m.beta * lo)
    wide = ~narrow
    if wide.any():
        ln_u = np.log(lo[wide])[:, None] - np.log(t[wide])
        if layered:
            h = np.exp(e * ln_u)
        else:
            h = -np.expm1(e * ln_u) / e if e else -ln_u
        out[wide] = (ft[wide] * h).sum(axis=-1)
    if narrow.any():
        # past z - z0 = 800 the density is nil, and kve fails far beyond
        cap = 2.0 * np.log(np.sqrt(lo[narrow]) + 400.0 / sab)[:, None]
        ln_t = np.minimum(np.log(lo[narrow])[:, None] + w / e, cap)
        # (lo/t)^e f_a(t) dt = e^(-v) [f_a(t) t/e] dv
        ln_f = _gg_ln_pdf(np.exp(ln_t), m.turbulence) + (1 - j) * ln_t - math.log(e)
        layer = (weights * np.exp(ln_f)).sum(axis=-1)
        out[narrow] = layer if layered else (ft[narrow].sum(axis=-1) - layer) / e
    return out


def _survival_rule(c: np.ndarray, m: ChannelModel) -> np.ndarray:
    """1 - F(c) by the tail rule."""
    a0, xi2 = _misalignment(m)
    if m.pointing is None:
        return _tail_rule(c, m, 0)
    return xi2 * _tail_rule(c / a0, m, 0, xi2)


def _inv_above_rule(c: np.ndarray, m: ChannelModel) -> np.ndarray:
    """E[1/I; I >= c] by the tail rule."""
    a0, xi2 = _misalignment(m)
    if m.pointing is None:
        return _tail_rule(c, m, 1)
    return xi2 / a0 * _tail_rule(c / a0, m, 1, xi2 - 1.0)


def _cutoffs(x, name: str):
    """x as a flat float array of cutoffs, with its shape; all must be > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0):
        raise ValueError(f"{name} must be > 0, got {x}")
    return arr.reshape(-1), arr.shape


def _shaped(out: np.ndarray, shape):
    """A float for a scalar input, else an array of the input's shape."""
    return float(out[0]) if shape == () else out.reshape(shape)


# ---------------------------------------------------------------------------
# distribution of the composite irradiance

# Guard tolerance of the series behind the distribution function and the
# power functionals.  The cutoff solves resolve x = 1/c to 1e-14, so the
# series is taken only where its rounding stays near that (peak/value up
# to 100); the smooth tail rule takes the rest.
_SERIES_TOL = 1e-12
# the power functionals have no series setting of their own
_SERIES = SeriesConfig()


def composite_pdf(i, m: ChannelModel, cfg: SeriesConfig | None = None):
    """Density of the composite irradiance I, at a scalar or an array of points."""
    cfg = cfg or SeriesConfig()
    arr = np.asarray(i, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError(f"i must be >= 0, got {i}")
    x = arr.reshape(-1)
    out = np.zeros(x.shape)
    pos = x > 0.0
    if m.pointing is None:
        # the gamma-gamma density has an exact Bessel closed form
        out[pos] = np.exp(_gg_ln_pdf(x[pos], m.turbulence))
        return _shaped(out, arr.shape)
    a0, xi2 = m.pointing.a0, m.pointing.xi2
    todo = pos.copy()
    below = pos & (x <= a0)
    if below.any():
        c = x[below]
        val, tail, peak = _residue_series(c, m, cfg, 0)
        ok = _series_accepts(val / c, tail / c, peak / c, 1e-7)
        out[below] = np.where(ok, np.maximum(val / c, 0.0), 0.0)
        todo[below] = ~ok
    if todo.any():
        # beyond the series' comfortable range: the tail rule
        c = x[todo]
        out[todo] = xi2 / c * _tail_rule(c / a0, m, 0, xi2, layered=True)
    return _shaped(out, arr.shape)


def _cdf_and_survival(c: np.ndarray, m: ChannelModel, cfg: SeriesConfig):
    """(F(c), 1 - F(c)) at cutoffs c > 0.

    The series runs below A0, where its guard takes it only if both F and
    1 - F are good to _SERIES_TOL: the ladder and the power constraint use
    the complement.  The tail rule takes the rest.
    """
    surv = np.full(c.shape, np.nan)
    below = c <= _misalignment(m)[0]
    if below.any():
        val, tail, peak = _residue_series(c[below], m, cfg, 1)
        ok = _series_accepts(np.minimum(val, 1.0 - val), tail, peak, _SERIES_TOL)
        surv[below] = np.where(ok, 1.0 - val, np.nan)
    todo = np.isnan(surv)
    if todo.any():
        surv[todo] = _survival_rule(c[todo], m)
    return 1.0 - surv, surv


def composite_cdf(i, m: ChannelModel, cfg: SeriesConfig | None = None):
    """Distribution function of the composite irradiance I, at a scalar or an array of points."""
    cfg = cfg or SeriesConfig()
    arr = np.asarray(i, dtype=float)
    x = arr.reshape(-1)
    out = np.zeros(x.shape)
    pos = x > 0.0
    if pos.any():
        out[pos] = np.clip(_cdf_and_survival(x[pos], m, cfg)[0], 0.0, 1.0)
    return _shaped(out, arr.shape)


def moment(n: float, m: ChannelModel) -> float:
    """Closed-form n-th moment of the composite irradiance."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b = m.alpha, m.beta
    a0, xi2 = _misalignment(m)
    ln_turb = (
        ln_gamma(a + n) + ln_gamma(b + n) - ln_gamma(a) - ln_gamma(b)
        - n * math.log(a * b)
    )
    return math.exp(ln_turb) * a0**n / (1.0 + n / xi2)


def sample_irradiance(m: ChannelModel, rng: np.random.Generator, size=None):
    """Draw composite irradiance samples; scalar for size=None, else array."""
    a, b = m.alpha, m.beta
    ia = sample_gamma(a, 1.0 / a, rng, size=size) * sample_gamma(b, 1.0 / b, rng, size=size)
    if m.pointing is None:
        # I_p = 1 needs no uniform draw, and drawing one would shift the
        # random stream of every pointing-free Monte Carlo estimate
        return ia
    p = m.pointing
    ip = p.a0 * rng.uniform(size=size) ** (1.0 / p.xi2)
    return ia * ip


# ---------------------------------------------------------------------------
# expectations used by the adaptation engine


def mean_inv_above(threshold, m: ChannelModel):
    """E[I^-1 ; I >= threshold], at a scalar or an array of thresholds.

    Below A0 it is E[1/I] - E[1/I; I < c]: the residue series at shift
    -1 taken from the inverse moment, continued where it diverges.  The
    tail rule takes the thresholds above A0, those the guard turns down,
    and all of them when a, b or xi2 lies within singularity_eps of 1,
    where both terms have a pole.
    """
    c, shape = _cutoffs(threshold, "threshold")
    out = np.full(c.shape, np.nan)
    a0, xi2 = _misalignment(m)
    below = c <= a0
    eps = SeriesConfig.singularity_eps
    if below.any() and min(abs(m.alpha - 1.0), abs(m.beta - 1.0), abs(xi2 - 1.0)) >= eps:
        inv_mean = _inv_moment(m)
        cb = c[below]
        try:
            val, tail, peak = _residue_series(cb, m, _SERIES, 1, shift=-1.0)
        except SingularOrderError:
            val = tail = peak = np.full(cb.shape, np.nan)
        inv = inv_mean - val / cb
        peak = np.maximum(peak / cb, abs(inv_mean))
        ok = _series_accepts(inv, tail / cb, peak, _SERIES_TOL)
        out[below] = np.where(ok, inv, np.nan)
    todo = np.isnan(out)
    if todo.any():
        out[todo] = _inv_above_rule(c[todo], m)
    return _shaped(out, shape)


def mean_excess_inv(cutoff, m: ChannelModel):
    """E[(1/cutoff - 1/I)^+], the average-power functional of the cutoff.

    Equal to (1 - F(c))/c - E[1/I; I >= c]; at a scalar or an array of
    cutoffs.
    """
    c, shape = _cutoffs(cutoff, "cutoff")
    try:
        surv = _cdf_and_survival(c, m, _SERIES)[1]
    except SingularOrderError:
        surv = _survival_rule(c, m)
    return _shaped(surv / c - mean_inv_above(c, m), shape)


def mean_log_excess(cutoff: float, m: ChannelModel) -> float:
    """E[(ln(I/cutoff))^+] in nats."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    pdf = _gg_density(m.turbulence)
    a0, xi2 = _misalignment(m)
    lo = cutoff / a0
    inv_xi2 = 1.0 / xi2

    def integrand(t):
        u = lo / t
        return (inv_xi2 * (u**xi2 - 1.0) - math.log(u)) * pdf(t)

    val, _ = quad(integrand, lo, np.inf, **_QUAD_OPTS)
    return val


def mean_exp_neg(s: float, m: ChannelModel) -> float:
    """E[exp(-s I)], the Laplace transform of the irradiance law."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0.0:
        return 1.0
    pdf = _gg_density(m.turbulence)
    a0, xi2 = _misalignment(m)
    # over W = I_p/A0 ~ Beta(xi2, 1), E[exp(x W)] = 1F1(xi2; xi2+1; x); its
    # xi2 = inf limit exp(x) is written out, since scipy's
    # hyp1f1(inf, inf, x) returns 1 for small |x|
    inner = math.exp if math.isinf(xi2) else partial(special.hyp1f1, xi2, xi2 + 1.0)
    val, _ = quad(lambda t: inner(-s * a0 * t) * pdf(t), 0.0, np.inf, **_QUAD_OPTS)
    return val
