"""Irradiance statistics of the turbulent optical channel.

Maps physical link settings (geometry, turbulence strength, jitter) to
distribution parameters, and exposes the fading law of the composite
irradiance I = I_a * I_p three ways: a closed-form residue series below
A0 with a Gauss-Laguerre tail rule beyond it (and, for the Laplace
transform, the same series in 1/(s A0) with an exp-sinh rule), quadrature
of the log-excess as a reference, and Monte Carlo sampling.  I_a is
gamma-gamma distributed (product of two unit-mean gamma variates) and I_p
follows a power-law misalignment model on (0, A0].
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad

from .specfun import (
    SeriesConfig,
    SingularOrderError,
    digamma,
    ln_gamma,
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

    # (A0, xi2) of the misalignment factor; (1, inf) pins I_p to 1
    @property
    def a0(self) -> float:
        return 1.0 if self.pointing is None else self.pointing.a0

    @property
    def xi2(self) -> float:
        return math.inf if self.pointing is None else self.pointing.xi2


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


@functools.lru_cache(maxsize=64)
def _gg_constants(t: TurbulenceParams):
    """(ln c, e, nu, 4ab) of the gamma-gamma density c x^e K_nu(sqrt(4ab x)), once per law."""
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


# scipy's kve(nu, z) is NaN from z = 2^30 on; from z = 1e9 on, the density
# and every tail of it are nil in double precision
_Z_NIL = 1e9


def _gg_ln_pdf(x: np.ndarray, t: TurbulenceParams) -> np.ndarray:
    """ln f_a(x) over an array of x > 0; -inf from z = _Z_NIL on."""
    ln_c, e, nu, four_ab = _gg_constants(t)
    z = np.sqrt(four_ab * x)
    with np.errstate(invalid="ignore"):
        ln_f = ln_c + e * np.log(x) - z + np.log(special.kve(nu, z))
    return np.where(z < _Z_NIL, ln_f, -np.inf)


def gg_pdf(ia: float, t: TurbulenceParams) -> float:
    """Gamma-gamma density of the turbulence fluctuation I_a."""
    if not ia >= 0:
        raise ValueError(f"ia must be >= 0, got {ia}")
    return _gg_density(t)(ia)


def _gg_mellin(s: float, t: TurbulenceParams) -> float:
    """E[I_a^s] = G(a+s) G(b+s) / (G(a) G(b) (ab)^s), analytically continued in s.

    The composite transform E[I^s] is this times A0^s xi2/(xi2+s).
    """
    a, b = t.alpha, t.beta
    if any(v <= 0 and v == math.floor(v) for v in (a + s, b + s)):
        raise SingularOrderError(f"E[I_a^{s}] has a gamma factor on a pole; perturb xi2")
    ln_mag = (
        -s * math.log(a * b) + special.gammaln(a + s) + special.gammaln(b + s)
        - ln_gamma(a) - ln_gamma(b)
    )
    return float(special.gammasgn(a + s) * special.gammasgn(b + s) * math.exp(ln_mag))


def _inv_moment(m: ChannelModel) -> float:
    """E[1/I] = ab / ((a-1)(b-1) A0) * xi2/(xi2-1), analytically continued.

    The expectation diverges once min(a, b, xi2) <= 1; below 1 this is
    the value of its Mellin transform at s = -1, which the residue series
    at that shift completes to the tail E[1/I; I >= c].  This is
    _gg_mellin(-1) / (A0 (1 - 1/xi2)), kept rational for the ladder's speed.
    """
    a, b = m.alpha, m.beta
    inv = a * b / ((a - 1.0) * (b - 1.0) * m.a0)
    return inv if m.pointing is None else inv * m.xi2 / (m.xi2 - 1.0)


def _mean_inv_irradiance(m: ChannelModel) -> float:
    """E[1/I] = _inv_moment(m); inf once min(a, b, xi2) <= 1."""
    return math.inf if min(m.alpha, m.beta, m.xi2) <= 1.0 else _inv_moment(m)


def _mean_log_irradiance(m: ChannelModel) -> float:
    """E[ln I] = psi(a) + psi(b) - ln(ab) + ln A0 - 1/xi2, in nats."""
    a, b = m.alpha, m.beta
    return digamma(a) + digamma(b) - math.log(a * b) + math.log(m.a0) - 1.0 / m.xi2


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
    first k whose pole lies within singularity_eps of xi2; with no row
    left, or a coefficient on a pole, it raises SingularOrderError.  The factor
    1/(1 - p/xi2) is taken as xi2/(xi2 - p), whose difference is exact
    when p is near xi2, so a near-double pole costs no accuracy beyond the
    cancellation that the guard's peak sees.
    """
    xi2 = m.xi2
    x = np.array([m.alpha, m.beta])
    xb = x[::-1]
    # sin(pi d) as (-1)^n sin(pi (d - n)), n = round(d): near an integer d
    # the rounding of pi d would be a large share of the sine
    n = np.round(x - xb)
    s = np.where(n % 2, -1.0, 1.0) * np.sin(np.pi * (x - xb - n))
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
    if rows == 0:
        raise SingularOrderError("the first pole of the series lies on xi2; perturb xi2")
    e_neg = 0.0 if m.pointing is None else _gg_mellin(-xi2, m.turbulence)
    table = [v[:rows] for v in (p, coeff, ln_g)]
    for v in table:
        v.setflags(write=False)  # shared by every caller through the cache
    return (*table, e_neg, rows == max_terms)


@functools.lru_cache(maxsize=256)
def _series_scale(m: ChannelModel, max_terms: int, orders: tuple, shifts: tuple):
    """The residue table's coefficients over (p + shift)^order, and (xi2 + shift)^order.

    One of each per (order, shift) pair, stacked as read-only (pairs, K, 2)
    and (pairs, 1) arrays, built once per (model, max_terms, pairs).
    """
    p, coeff = _series_table(m, max_terms)[:2]
    # a pole on p + shift = 0 gives an infinite term, which the series'
    # NaN hands to the tail rule
    with np.errstate(divide="ignore"):
        scale = np.array([coeff / (p + s) ** o for o, s in zip(orders, shifts)])
    pole = np.array([[(m.xi2 + s) ** o] for o, s in zip(orders, shifts)])
    for v in (scale, pole):
        v.setflags(write=False)
    return scale, pole


def _residue_series(c, m: ChannelModel, cfg: SeriesConfig, orders: tuple, shifts: tuple):
    """Residue series of the composite law at cutoffs c in (0, A0], one per (order, shift).

    The Mellin transform of I = I_a I_p is the gamma-gamma transform times
    the misalignment factor xi2/(xi2+s), so every closed form is one sum
    over the gamma-gamma poles p = k + xb of both shape families,

        sum_k g_k (c/A0)^p / ((1 - p/xi2) (p + shift)^order),

    plus, with pointing, the misalignment pole E[I_a^-xi2] (c/A0)^xi2
    xi2 / (xi2 + shift)^order.  At shift 0, order 0 is c times the
    density, order 1 the distribution and order 2 the log-moment part of
    E[(ln(I/c))^+]; order 1 at shift s is c^-s E[I^s; I < c].  Each sum
    stops at the first k > 0 whose terms fall below convergence_tol of
    it, or at max_terms.  The pairs share the exp of their terms.  Returns
    (value, tail, peak), each shaped (pairs, *c.shape): the value, the
    magnitude of the last term kept (0 once the sum has converged) and the
    largest term, for _series_accepts.  A value that is not finite, or
    whose sum runs into the row the table was cut at, comes back as NaN.
    """
    p, _, ln_g, e_neg, complete = _series_table(m, cfg.max_terms)
    scale, pole_scale = _series_scale(m, cfg.max_terms, orders, shifts)
    xi2 = m.xi2
    c = np.asarray(c, dtype=float)
    shape = (len(orders), *c.shape)
    ln_u = np.log(c.reshape(-1) / m.a0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # rows are (series, cutoff) pairs
        terms = (scale[:, None] * np.exp(ln_g + p * ln_u[:, None, None])).reshape(-1, *p.shape)
        idx = np.arange(len(terms))
        # a row's k-th terms are its two shape families' (the last axis)
        lead, trail = terms[..., 0], terms[..., 1]
        mag = np.maximum(np.abs(lead), np.abs(trail))
        sums = np.cumsum(lead + trail, axis=-1)
        done = mag < cfg.convergence_tol * np.abs(sums)
        done[:, 0] = False  # no sum stops at k = 0
        stopped = done.any(axis=-1)
        last = np.where(stopped, done.argmax(axis=-1), len(p) - 1)
        val = sums[idx, last]
        tail = np.where(stopped, 0.0, mag[:, -1])
        peak = np.maximum.accumulate(mag, axis=-1)[idx, last]
        # without pointing xi2 = inf and the misalignment pole is absent
        if m.pointing is not None:
            pole = (e_neg * np.exp(xi2 * ln_u) * xi2 / pole_scale).reshape(-1)
            val = val + pole
            if not complete:
                # near a double pole, this one's partner is the row the
                # table was cut at: a sum that reaches that row has no
                # value, and any other is off by about the pole's size
                val[~stopped] = np.nan
                tail = np.maximum(tail, np.abs(pole))
    val = np.where(np.isfinite(val), val, np.nan)
    return val.reshape(shape), tail.reshape(shape), peak.reshape(shape)


def _series_accepts(val, tail, peak, tol: float):
    """Whether a residue-series value can be trusted to tol, relative.

    With large shape parameters, or far from the origin, the expansion can
    outgrow the term budget or its alternating terms can swamp the result:
    each log-domain term carries a relative rounding of about 1e-14, so a
    sum whose terms peak at P is off by up to P * 1e-14.  The tail rule
    then takes the cutoff.  Written so that a NaN from a singular
    coefficient fails the test.  Elementwise over arrays.
    """
    bound = tol * np.maximum(np.abs(val), 1e-12)
    return (tail <= bound) & (peak * 1e-14 <= bound)


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


@functools.lru_cache(maxsize=256)
def _tail_nodes(n: int, p: float):
    """The n-point rule's nodes and weights up to the last one whose term can count.

    With z = z0 + w, z0 = 2 sqrt(ab lo) >= 0, each spec's term at node w
    is W (z0 + w)^q e^z K_nu(z) h, q = a+b-1-2j, times a factor common to
    all nodes.  From a node to a later one, (z0 + w)^q grows no faster
    than w^max(q, 0), e^z K_nu(z) = int_0^inf e^(-z (cosh s - 1)) cosh(nu s) ds
    falls, and h >= 0 grows no faster than w^(1+j) (for j = 1, e > -1).
    So past the node k of the largest bound B = W w^p, p = max(a+b, 2),
    node i's term is at most B_i/B_k of node k's, and the nodes past the
    last one with B >= 2^-60 e^-5 max B, fewer than e^5 of them, add less
    than 2^-60 of the spec's sum, at every lo.
    """
    w, weights = _laguerre(n)
    with np.errstate(divide="ignore"):
        ln_b = np.log(weights) + p * np.log(w)
    keep = np.flatnonzero(ln_b >= ln_b.max() - 60.0 * math.log(2.0) - 5.0)[-1] + 1
    return w[:keep], weights[:keep]


def _tail_rule(lo: np.ndarray, m: ChannelModel, specs, need: np.ndarray) -> np.ndarray:
    """int_lo^inf f_a(t) t^-j h(t) dt at each lo, by Gauss-Laguerre, for each spec (j, e, layered).

    h is 1 for e = None.  Otherwise it is (lo/t)^e if layered, else
    (1 - (lo/t)^e)/e, whose e = 0 limit is ln(t/lo).  The substitution
    sqrt(t) = sqrt(lo) + w/(2 sqrt(ab)) turns the density's
    e^(-2 sqrt(ab t)) into e^(-2 sqrt(ab lo)) e^(-w), the rule's weight.
    Where the layer (lo/t)^e is narrower than that, e/lo > sqrt(ab/lo),
    the layered term is integrated in v = e ln(t/lo) instead, where it is
    the weight e^(-v).  A tail from beyond z = _Z_NIL is 0: lo is capped
    there, which also keeps an infinite lo out of the arithmetic.  The
    rule in sqrt(t) stops at _tail_nodes' cap, past which its nodes add
    less than 2^-60 of the sum; the rule in v keeps all n nodes.

    The specs share the nodes and the density on them.  need, a
    (specs, lo) mask, names the lo each spec is asked for: its node count
    follows those alone, so its value there is the one a call with only
    them gives.  Returns a (specs, lo) array; a value not asked for may
    be NaN.
    """
    lo = np.minimum(lo, _Z_NIL**2 / (4.0 * m.alpha * m.beta))
    sab = math.sqrt(m.alpha * m.beta)
    p = max(m.alpha + m.beta, 2.0)
    # a layer (lo/t)^e is narrow where e exceeds this
    reach = np.sqrt(m.alpha * m.beta * lo)
    out = np.full((len(specs), len(lo)), np.nan)
    # the least lo each spec is asked for; inf for none
    low = np.where(need, lo, np.inf).min(axis=1)
    nodes = {}
    for i, (j, e, layered) in enumerate(specs):
        if low[i] == np.inf:
            continue
        n = _NODES_ABOVE_A0 if low[i] >= 1.0 else _NODES_BELOW_A0
        if n not in nodes:
            w, weights = _tail_nodes(n, p)
            root = np.sqrt(lo)[:, None] + w / (2.0 * sab)
            t = root * root
            # f_a(t) dt = e^(-w) [f_a(t) e^w sqrt(t)/sqrt(ab)] dw
            ft = weights * np.exp(_gg_ln_pdf(t, m.turbulence) + w) * root / sab
            nodes[n] = [t, ft, None]
        t, ft, ln_lo_t = nodes[n]
        if j:
            ft = ft / t
        if e is None:
            out[i] = ft.sum(axis=-1)
            continue
        narrow = need[i] & (e > reach)
        wide = need[i] > narrow
        if wide.any():
            if ln_lo_t is None:
                ln_lo_t = nodes[n][2] = np.log(lo)[:, None] - np.log(t)
            ln_u = ln_lo_t[wide]
            if layered:
                h = np.exp(e * ln_u)
            else:
                h = -np.expm1(e * ln_u) / e if e else -ln_u
            out[i][wide] = (ft[wide] * h).sum(axis=-1)
        if narrow.any():
            v, v_weights = _laguerre(n)
            # past z - z0 = 800 the density is nil, and kve fails far beyond:
            # ln t is capped there, and the nodes past every row's cap, whose
            # terms are 0, are not evaluated
            cap = 2.0 * np.log(np.sqrt(lo[narrow]) + 400.0 / sab)[:, None]
            ln_t = np.log(lo[narrow])[:, None] + v / e
            k = (ln_t <= cap).sum(axis=-1).max()  # v is increasing
            ln_t = np.minimum(ln_t[:, :k], cap)
            # (lo/t)^e f_a(t) dt = e^(-v) [f_a(t) t/e] dv
            ln_f = _gg_ln_pdf(np.exp(ln_t), m.turbulence) + (1 - j) * ln_t - math.log(e)
            terms = np.zeros((len(ln_t), n))
            terms[:, :k] = v_weights[:k] * np.exp(ln_f)
            layer = terms.sum(axis=-1)
            out[i][narrow] = layer if layered else (ft[narrow].sum(axis=-1) - layer) / e
    return out


def _series_or_rule(c: np.ndarray, m: ChannelModel, series, rule, k: int) -> np.ndarray:
    """k functionals at cutoffs c > 0, each by its residue series where trusted, else the tail rule.

    series(c) returns (values, accepted), (k, c) arrays; it is called
    on all the cutoffs once any is at most A0, and its values past A0 are
    dropped.  Each cutoff's sum is its own, so the cutoffs beside it do
    not change its value.  The rule runs once, as
    rule(cr, need), at the cutoffs cr that any functional leaves to it:
    those past A0, those its guard declined, and all of them when the
    series is singular; need, a (k, cr) mask, says which functional needs
    which.  Returns a (k, c) array.
    """
    below = c <= m.a0
    out, taken = np.empty((k, len(c))), np.zeros((k, len(c)), dtype=bool)
    if below.any():
        try:
            out, ok = series(c)
            taken = ok & below
        except SingularOrderError:
            pass
    todo = ~taken
    if todo.any():
        rows = todo.any(axis=0)
        need = todo[:, rows]
        out[todo] = rule(c[rows], need)[need]
    return out


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

# Guard tolerance of the series behind the distribution function, the
# power functionals and the ASE.  The cutoff solves resolve x = 1/c to
# 1e-14, so the series is taken only where its rounding stays near that
# (peak/value up to 100); the smooth tail rule takes the rest.
_SERIES_TOL = 1e-12
# the power functionals have no series setting of their own
_SERIES = SeriesConfig()


# per functional of _law_at: the (order, shift) of its residue series and
# the power j of 1/t in its tail rule
_LAW = {"cdf": (1, 0.0, 0), "sf": (1, 0.0, 0), "inv": (1, -1.0, 1), "pdf": (0, 0.0, 0),
        "log": (2, 0.0, 0)}


@functools.lru_cache(maxsize=64)
def _law_plan(m: ChannelModel):
    """_law_at's constants of the model, built once per model.

    Returns (specs, inv_mean, ln_mean): each functional's tail-rule spec
    by name, and with pointing the ASE's misalignment term as "log_pole";
    E[1/I] continued, NaN on its pole at a, b or xi2 = 1; and E[ln I].
    """
    xi2, pe = m.xi2, m.pointing is not None
    # with pointing, the tail rules of 1 - F and E[1/I; I >= c] average
    # over the misalignment factor in closed form, and the density's is
    # layered; the ASE functional's ln(t/lo) is e = 0, and its
    # misalignment term a spec of its own
    specs = {
        n: (j, 0.0 if n == "log" else xi2 - j if pe else None, n == "pdf")
        for n, (_, _, j) in _LAW.items()
    }
    if pe:
        specs["log_pole"] = (0, xi2, False)
    try:
        inv_mean = _inv_moment(m)
    except ZeroDivisionError:  # on its pole E[1/I] has no value
        inv_mean = math.nan
    return specs, inv_mean, _mean_log_irradiance(m)


def _law_at(c: np.ndarray, m: ChannelModel, *names, cfg: SeriesConfig = _SERIES) -> np.ndarray:
    """The named functionals of the composite law at cutoffs c > 0, as a (names, c) array.

    "cdf" is F(c), "sf" 1 - F(c), "inv" E[1/I; I >= c], "pdf" the
    density and "log" E[(ln(I/c))^+] in nats, the ASE functional.  Their
    series share one exp of the terms and their tail rules one set of
    nodes, but each takes its series only where its own guard accepts
    it, so each value is the one it has when asked alone.  1 - F is
    taken from the series only where F is good to _SERIES_TOL too.
    E[1/I; I >= c] is E[1/I] - E[1/I; I < c] below A0, the series at
    shift -1 taken from the inverse moment, continued where it diverges.
    Both terms have a pole at a, b or xi2 = 1: next to it they cancel
    far below their size, which the guard's peak turns down, and on it
    E[1/I] is NaN, which no guard accepts.  The ASE functional's series
    is E[ln I] - ln(c) plus the order-2 series, and its tail rule
    integrates ln(t/lo) less (1 - (lo/t)^xi2)/xi2, its mean over the
    misalignment factor, integrated as a spec of its own.  Without
    pointing the density is its exact Bessel closed form, which takes no
    route.
    """
    specs, inv_mean, ln_mean = _law_plan(m)
    a0, xi2, pe = m.a0, m.xi2, m.pointing is not None
    # without pointing the density is its Bessel closed form, set below
    routed = tuple(n for n in names if pe or n != "pdf")
    log_pole = pe and "log" in routed
    rule_specs = [specs[n] for n in routed + ("log_pole",) * log_pole]

    def series(c):
        val, tail, peak = _residue_series(c, m, cfg, *zip(*(_LAW[n][:2] for n in routed)))
        ok = np.empty(val.shape, dtype=bool)
        for i, n in enumerate(routed):
            v, tl, pk = val[i], tail[i], peak[i]
            if n == "sf":
                sf = 1.0 - v
                ok[i] = _series_accepts(np.minimum(v, sf), tl, pk, _SERIES_TOL)
                val[i] = sf
            elif n == "inv":
                val[i] = inv_mean - v / c
                pk = np.maximum(pk / c, abs(inv_mean))
                ok[i] = _series_accepts(val[i], tl / c, pk, _SERIES_TOL)
            elif n == "cdf":
                ok[i] = _series_accepts(v, tl, pk, _SERIES_TOL)
            elif n == "log":
                val[i] = ln_mean - np.log(c) + v
                ok[i] = _series_accepts(val[i], tl, pk, _SERIES_TOL)
            else:
                pdf = v / c
                ok[i] = _series_accepts(pdf, tl / c, pk / c, _SERIES_TOL)
                val[i] = np.maximum(pdf, 0.0)
        return val, ok

    def rule(c, need):
        if log_pole:
            need = np.concatenate((need, need[routed.index("log")][None]))
        out = _tail_rule(c / a0, m, rule_specs, need)
        scale = xi2 if pe else 1.0
        for i, n in enumerate(routed):
            if n != "log":
                out[i] *= scale / c if n == "pdf" else scale / a0 if n == "inv" else scale
            elif log_pole:
                out[i] -= out[-1]
            if n == "cdf":
                out[i] = 1.0 - out[i]
        return out[: len(routed)]

    out = _series_or_rule(c, m, series, rule, len(routed)) if routed else np.empty((0, len(c)))
    if len(routed) < len(names):
        i = names.index("pdf")
        out = np.concatenate([out[:i], np.exp(_gg_ln_pdf(c, m.turbulence))[None], out[i:]])
    return out


def composite_pdf(i, m: ChannelModel, cfg: SeriesConfig | None = None):
    """Density of the composite irradiance I, at a scalar or an array of points."""
    arr = np.asarray(i, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError(f"i must be >= 0, got {i}")
    x = arr.reshape(-1)
    out = np.zeros(x.shape)
    pos = x > 0.0
    out[pos] = _law_at(x[pos], m, "pdf", cfg=cfg or SeriesConfig())[0]
    return _shaped(out, arr.shape)


def composite_cdf(i, m: ChannelModel, cfg: SeriesConfig | None = None):
    """Distribution function of the composite irradiance I, at a scalar or an array of points."""
    arr = np.asarray(i, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"i must not be NaN, got {i}")
    x = arr.reshape(-1)
    out = np.zeros(x.shape)
    pos = x > 0.0
    out[pos] = np.clip(_law_at(x[pos], m, "cdf", cfg=cfg or SeriesConfig())[0], 0.0, 1.0)
    return _shaped(out, arr.shape)


def moment(n: float, m: ChannelModel) -> float:
    """Closed-form n-th moment of the composite irradiance."""
    if not 0 <= n < math.inf:
        raise ValueError(f"n must be finite and >= 0, got {n}")
    return _gg_mellin(n, m.turbulence) * m.a0**n / (1.0 + n / m.xi2)


# samples per block of the second gamma factor and of the pointing factor
_SAMPLE_BLOCK = 1 << 16


def sample_irradiance(m: ChannelModel, rng: np.random.Generator, size=None, out=None):
    """Draw composite irradiance samples; scalar for size=None, else array.

    An array is written into ``out`` when given (C-contiguous float64 of
    shape ``size``) and returned.  It draws the stream of
    ``rng.gamma(a, 1/a) * rng.gamma(b, 1/b) * A0 * rng.uniform() ** (1/xi2)``
    bit for bit: numpy's gamma is its scale times ``standard_gamma``,
    ``uniform()`` is ``random()``, and consecutive block draws equal one
    draw of their total size, so the last two factors need only one
    block-sized scratch.  A scalar is the one-sample array's value.
    """
    scalar = size is None and out is None
    if out is None:
        out = np.empty(1 if scalar else size)
    elif not (out.dtype == np.float64 and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array")
    a, b = m.alpha, m.beta
    rng.standard_gamma(a, size=size, out=out)
    out *= 1.0 / a
    flat = out.reshape(-1)
    scratch = np.empty(min(flat.size, _SAMPLE_BLOCK))
    blocks = [(s, scratch[: flat.size - s]) for s in range(0, flat.size, _SAMPLE_BLOCK)]
    for start, blk in blocks:
        rng.standard_gamma(b, out=blk)
        blk *= 1.0 / b
        flat[start : start + blk.size] *= blk
    if m.pointing is not None:
        # I_p = 1 needs no uniform draw, and drawing one would shift the
        # random stream of every pointing-free Monte Carlo estimate
        for start, blk in blocks:
            rng.random(out=blk)
            blk **= 1.0 / m.xi2
            blk *= m.a0
            flat[start : start + blk.size] *= blk
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# expectations used by the adaptation engine


def mean_inv_above(threshold, m: ChannelModel):
    """E[I^-1 ; I >= threshold], at a scalar or an array of thresholds."""
    c, shape = _cutoffs(threshold, "threshold")
    return _shaped(_law_at(c, m, "inv")[0], shape)


def mean_excess_inv(cutoff, m: ChannelModel):
    """E[(1/cutoff - 1/I)^+], the average-power functional of the cutoff.

    Equal to (1 - F(c))/c - E[1/I; I >= c]; at a scalar or an array of
    cutoffs.
    """
    c, shape = _cutoffs(cutoff, "cutoff")
    sf, inv = _law_at(c, m, "sf", "inv")
    return _shaped(sf / c - inv, shape)


def mean_log_excess(cutoff: float, m: ChannelModel) -> float:
    """E[(ln(I/cutoff))^+] in nats."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    pdf = _gg_density(m.turbulence)
    lo, xi2 = cutoff / m.a0, m.xi2
    inv_xi2 = 1.0 / xi2

    def integrand(t):
        u = lo / t
        return (inv_xi2 * (u**xi2 - 1.0) - math.log(u)) * pdf(t)

    val, _ = quad(integrand, lo, np.inf, **_QUAD_OPTS)
    return val


# exp-sinh nodes of the Laplace rule, t = scale exp((pi/2) sinh tau) at
# tau = -4, -4 + 1/16, ..., 4.5: the exponent of t/scale, and the log of
# each node's weight h dt/dtau / t.  Further down than tau = -4, kve
# overflows before the density is nil.
_EXP_SINH_TAU = np.arange(-64, 73) / 16.0
_EXP_SINH_LN_T = 0.5 * math.pi * np.sinh(_EXP_SINH_TAU)
_EXP_SINH_LN_W = np.log(math.pi / 32.0 * np.cosh(_EXP_SINH_TAU))


def _laplace_series(y: float, m: ChannelModel):
    """E[exp(-s I)] and y d/dy of it, y = s A0, by the residue series in 1/y; NaNs past its guard.

    It is the distribution's series transformed term by term through
    E[exp(-s I)] = s int_0^inf exp(-s c) F(c) dc: the term of the pole p
    becomes g_k Gamma(p) y^-p / (1 - p/xi2), and the misalignment pole
    E[I_a^-xi2] Gamma(xi2 + 1) y^-xi2.  It converges for every y, fastest
    for large y.  The guard is relative, since the value falls to the
    bottom of the double range.  Each term is a power of y, so y d/dy of
    the sum is -p times each term kept, and -xi2 times the pole.
    """
    p, coeff, ln_g, e_neg, complete = _series_table(m, _SERIES.max_terms)
    ln_y = math.log(y)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = coeff * np.exp(ln_g + special.gammaln(p) - p * ln_y)
        mag = np.abs(terms).max(axis=-1)
        sums = terms.sum(axis=-1).cumsum()
        # <= so that a sum whose terms all underflowed stops at 0
        done = (np.arange(len(p)) > 0) & (mag <= _SERIES.convergence_tol * np.abs(sums))
    if not done.any():
        # terms that still grow at the last row can grow on to meet the
        # misalignment pole, so an unfinished sum is no bound on the rest
        return math.nan, math.nan
    last = done.argmax()
    val, peak, tail = sums[last], mag[: last + 1].max(), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        slope = -(p[: last + 1] * terms[: last + 1]).sum()
        if m.pointing is not None:
            pole = e_neg * np.exp(special.gammaln(m.xi2 + 1.0) - m.xi2 * ln_y)
            val, peak, slope = val + pole, max(peak, abs(pole)), slope - m.xi2 * pole
            if not complete:
                tail = abs(pole)  # its partner, the row the table was cut at, is missing
    if not 0.0 < val < math.inf:
        # 0 once every term underflowed
        return (0.0, 0.0) if peak == 0.0 else (math.nan, math.nan)
    if not _series_accepts(1.0, tail / val, peak / val, _SERIES_TOL):
        return math.nan, math.nan
    return float(val), float(slope)


def _laplace_rule(y: float, m: ChannelModel):
    """E[exp(-s I)] and y d/dy of it, y = s A0, by the exp-sinh rule over the gamma-gamma density.

    The integrand is f_a(t) times exp(-y t), or with pointing its mean
    over W = I_p/A0 ~ Beta(xi2, 1), E[exp(-y t W)] = 1F1(xi2; xi2+1; -y t).
    The nodes are centred where the mass lies: about 1/y when the density's
    origin power min(a, b) - 1 governs, and about 1 when xi2 < min(a, b),
    where the misalignment pole's y^-xi2 holds the mass at the bulk of f_a.
    The slope takes no further special function: y d/dy exp(-y t) is
    -y t exp(-y t), and integrating E[exp(-z W)] by parts in W gives
    z d/dz 1F1(xi2; xi2+1; -z) = xi2 (exp(-z) - 1F1(xi2; xi2+1; -z)).
    """
    low = min(m.alpha, m.beta)
    scale = 1.0 if m.xi2 < low else low / (low + y)
    ln_t = math.log(scale) + _EXP_SINH_LN_T
    t = np.exp(ln_t)
    ln_f = _gg_ln_pdf(t, m.turbulence) + ln_t + _EXP_SINH_LN_W
    # where kve overflows, at the lowest nodes of a large |a - b|, the
    # density's share is below t^min(a, b) there: those nodes count as nil
    ln_f[~np.isfinite(ln_f)] = -np.inf
    z = y * t
    if m.pointing is None:
        terms = np.exp(ln_f - z)
        return float(terms.sum()), -float((z * terms).sum())
    f = np.exp(ln_f)
    mean_w = special.hyp1f1(m.xi2, m.xi2 + 1.0, -z)
    return float((f * mean_w).sum()), m.xi2 * float((f * (np.exp(-z) - mean_w)).sum())


def _laplace_at(s: float, m: ChannelModel):
    """E[exp(-s I)] and s d/ds of it at a finite s > 0, from one pass.

    The residue series in 1/(s A0) takes both where its guard accepts the
    value, large s; the exp-sinh rule takes the rest, and all of it when
    the series is singular.
    """
    y = s * m.a0
    try:
        val, slope = _laplace_series(y, m)
    except SingularOrderError:
        val = math.nan
    if math.isnan(val):
        val, slope = _laplace_rule(y, m)
    # E[exp(-sI)] is at most 1; the rule's rounding passes it at tiny s
    return min(val, 1.0), slope


def mean_exp_neg(s: float, m: ChannelModel) -> float:
    """E[exp(-s I)], the Laplace transform of the irradiance law; _laplace_at's value."""
    if not s >= 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0.0:
        return 1.0
    if s == math.inf:
        return 0.0  # P(I = 0)
    return _laplace_at(s, m)[0]
