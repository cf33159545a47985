"""Irradiance statistics of the turbulent optical channel.

Maps physical link settings (geometry, turbulence strength, jitter) to
distribution parameters, and exposes the fading law of the composite
irradiance I = I_a * I_p three ways: closed-form power series, direct
quadrature, and Monte Carlo sampling.  I_a is gamma-gamma distributed
(product of two unit-mean gamma variates) and I_p follows a power-law
misalignment model on (0, A0].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
    severity (larger = milder misalignment).  The erf-based diagnostics
    (erf argument v and equivalent beam waist) are kept for reporting.
    """

    a0: float
    xi2: float
    rx_beam_waist_m: float
    erf_arg_v: float = field(default=float("nan"), compare=False)
    equiv_beam_waist_m: float = field(default=float("nan"), compare=False)

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
    return PointingParams(
        a0=a0,
        xi2=xi * xi,
        rx_beam_waist_m=rx_beam_waist_m,
        erf_arg_v=v,
        equiv_beam_waist_m=math.sqrt(w_eq2),
    )


# ---------------------------------------------------------------------------
# densities


def _gg_density(t: TurbulenceParams):
    """Gamma-gamma density of I_a as a scalar function, constants bound once.

    f(x) = c x^e K_nu(z) with z = sqrt(4 a b x), evaluated in the log
    domain through the exponentially scaled Bessel function, so neither
    the tail nor a large order under- or overflows before the last exp.
    K of integer order needs no special case.
    """
    a, b = t.alpha, t.beta
    ln_c = math.log(2.0) + 0.5 * (a + b) * math.log(a * b) - ln_gamma(a) - ln_gamma(b)
    e = 0.5 * (a + b) - 1.0
    nu = a - b
    four_ab = 4.0 * a * b

    def pdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        z = math.sqrt(four_ab * x)
        k = special.kve(nu, z)
        if not k > 0.0:
            return 0.0
        return math.exp(ln_c + e * math.log(x) - z + math.log(k))

    return pdf


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


def _gg_coeff_ln(k: int, x: float, xb: float):
    """(sign, ln magnitude) of the k-th gamma-gamma residue coefficient.

    Coefficient: cosec(pi(x-xb)) * pi * (x*xb)^(k+xb)
                 / (Gamma(x) Gamma(xb) Gamma(k-x+xb+1) k!)
    """
    s = math.sin(math.pi * (x - xb))
    if abs(s) < 1e-300:
        raise SingularOrderError("alpha - beta too close to an integer; perturb beta")
    g_arg = k - x + xb + 1.0
    sign = math.copysign(1.0, s) * special.gammasgn(g_arg)
    ln_mag = (
        math.log(math.pi)
        - math.log(abs(s))
        + (k + xb) * math.log(x * xb)
        - ln_gamma(x)
        - ln_gamma(xb)
        - special.gammaln(g_arg)
        - math.lgamma(k + 1)
    )
    return sign, ln_mag


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


def _residue_series(c: float, m: ChannelModel, cfg: SeriesConfig, order: int):
    """Residue series of the composite law at c, weighted by 1/p^order.

    The Mellin transform of I = I_a I_p is the gamma-gamma transform times
    the misalignment factor xi2/(xi2+s), so every closed form is one sum
    over the gamma-gamma poles p = k + xb of both shape families,

        sum_k g_k (c/A0)^p / ((1 - p/xi2) p^order),

    plus, with pointing, the misalignment pole E[I_a^-xi2] (c/A0)^xi2
    xi2^(1-order).  Order 0 is c times the density, order 1 the
    distribution and order 2 the log-moment part of E[(ln(I/c))^+].
    Meant for 0 < c <= A0; further above it the pole can overflow, and
    the value is then NaN.  Returns (value, tail, peak): the value, the
    magnitude of the last term kept (0 once the sum has converged) and
    the largest term, all in the value's units, for _series_accepts.
    """
    a0, xi2 = _misalignment(m)
    ln_u = math.log(c / a0)
    total = np.longdouble(0.0)
    tail = 0.0
    peak = 0.0
    for k in range(cfg.max_terms):
        term = np.longdouble(0.0)
        mag = 0.0
        for x, xb in ((m.alpha, m.beta), (m.beta, m.alpha)):
            p = k + xb
            if abs(p - xi2) < cfg.singularity_eps:
                raise SingularOrderError(
                    f"pole k+xb = {p} within {cfg.singularity_eps} of xi2 at k={k}"
                )
            sign, ln_mag = _gg_coeff_ln(k, x, xb)
            t = sign * math.exp(ln_mag + p * ln_u) / ((1.0 - p / xi2) * p**order)
            term += np.longdouble(t)
            mag = max(mag, abs(t))
        total += term
        tail = mag
        peak = max(peak, mag)
        if k > 0 and mag < cfg.convergence_tol * abs(float(total)):
            tail = 0.0
            break
    val = float(total)
    # without pointing xi2 = inf and the misalignment pole is absent
    if m.pointing is not None:
        e_neg = _neg_moment_coeff(m.alpha, m.beta, xi2)
        try:
            val += e_neg * math.exp(xi2 * ln_u) * xi2 ** (1 - order)
        except OverflowError:
            # far above A0, (c/A0)^xi2 has no float value; NaN fails the guard
            val = math.nan
    return val, tail, peak


def _series_accepts(val: float, tail: float, peak: float, tol: float) -> bool:
    """Whether a residue-series value can be trusted to tol, relative.

    With large shape parameters, or far from the origin, the expansion can
    outgrow the term budget or its alternating terms can swamp the result:
    each log-domain term carries a relative rounding of about 1e-14, so a
    sum whose terms peak at P is off by up to P * 1e-14.  The caller then
    integrates directly.  Written so that a NaN from a singular
    coefficient fails the test.
    """
    scale = max(abs(val), 1e-12)
    return tail <= tol * scale and peak * 1e-14 <= tol * scale


def _mixture_quad(lo: float, m: ChannelModel) -> float:
    """lo^xi2 E[I_a^-xi2; I_a > lo] by quadrature over the gamma-gamma density.

    This is int_lo^inf f_a(t) (lo/t)^xi2 dt, what is left of the mixture
    over the misalignment factor once that is integrated out in closed
    form.  Its weight falls by e^-50 within t - lo = 50 lo/xi2, a
    boundary layer that quad steps over for large xi2 unless the range is
    split at its edge.
    """
    xi2 = m.pointing.xi2
    pdf = _gg_density(m.turbulence)
    edge = lo * (1.0 + 50.0 / xi2)
    weighted = lambda t: pdf(t) * (lo / t) ** xi2
    layer, _ = quad(weighted, lo, edge, **_QUAD_OPTS)
    rest, _ = quad(weighted, edge, np.inf, **_QUAD_OPTS)
    return layer + rest


def _composite_pdf_quad(i: float, m: ChannelModel) -> float:
    """Density by quadrature, valid on the whole support.

    f(i) = (xi2/i) int_(i/A0)^inf f_a(t) (i/(A0 t))^xi2 dt, the derivative
    of the distribution function below.
    """
    return m.pointing.xi2 / i * _mixture_quad(i / m.pointing.a0, m)


def _composite_cdf_quad(i: float, m: ChannelModel) -> float:
    """Distribution function by quadrature, valid on the whole support.

    P(I <= i) = P(I_a <= i/A0) + (i/A0)^xi2 E[I_a^-xi2; I_a > i/A0],
    where the mixture term vanishes without pointing (xi2 = inf).
    """
    lo = i / _misalignment(m)[0]
    head, _ = quad(_gg_density(m.turbulence), 0.0, lo, **_QUAD_OPTS)
    if m.pointing is None:
        return head
    return head + _mixture_quad(lo, m)


def composite_pdf(i: float, m: ChannelModel, cfg: SeriesConfig | None = None) -> float:
    """Density of the composite irradiance I."""
    cfg = cfg or SeriesConfig()
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    if m.pointing is None:
        # the gamma-gamma density has an exact Bessel closed form
        return gg_pdf(i, m.turbulence)
    if i == 0.0:
        return 0.0
    if i <= m.pointing.a0:
        val, tail, peak = _residue_series(i, m, cfg, 0)
        if _series_accepts(val / i, tail / i, peak / i, 1e-7):
            return max(val / i, 0.0)
    # beyond the series' comfortable range: fall back to quadrature
    return _composite_pdf_quad(i, m)


def composite_cdf(i: float, m: ChannelModel, cfg: SeriesConfig | None = None) -> float:
    """Distribution function of the composite irradiance I."""
    cfg = cfg or SeriesConfig()
    if i <= 0:
        return 0.0
    if i <= _misalignment(m)[0]:
        val, tail, peak = _residue_series(i, m, cfg, 1)
        if _series_accepts(val, tail, peak, 1e-7):
            return min(max(val, 0.0), 1.0)
    return min(max(_composite_cdf_quad(i, m), 0.0), 1.0)


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
#
# The inner expectation over the power-law misalignment factor is carried
# out in closed form, leaving a single quadrature over the gamma-gamma
# density.  Without pointing, A0 = 1 and xi2 = inf reduce each inner term
# to its gamma-gamma form, so the xi2 factors are written as 1/(1 - 1/xi2)
# and u^xi2 (u <= 1), which stay finite there.


def _safe_xi2(xi2: float) -> float:
    # denominators contain (xi2 - 1); nudge off the removable point
    return xi2 if abs(xi2 - 1.0) > 1e-9 else 1.0 + 1e-9


def mean_excess_inv(cutoff: float, m: ChannelModel) -> float:
    """E[(1/cutoff - 1/I)^+], the average-power functional of the cutoff."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    pdf = _gg_density(m.turbulence)
    a0, xi2 = _misalignment(m)
    xi2 = _safe_xi2(xi2)
    lo = cutoff / a0
    inv_c = 1.0 / cutoff
    k = 1.0 / ((1.0 - 1.0 / xi2) * a0)
    e = xi2 - 1.0

    def integrand(t):
        u = lo / t
        return (inv_c * (1.0 - u**xi2) - k / t * (1.0 - u**e)) * pdf(t)

    val, _ = quad(integrand, lo, np.inf, **_QUAD_OPTS)
    return val


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


def mean_inv_above(threshold: float, m: ChannelModel) -> float:
    """E[I^-1 ; I >= threshold]."""
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    pdf = _gg_density(m.turbulence)
    a0, xi2 = _misalignment(m)
    xi2 = _safe_xi2(xi2)
    lo = threshold / a0
    # divided through by a0^xi2, which underflows for strong pointing
    k = 1.0 / ((1.0 - 1.0 / xi2) * a0)
    e = xi2 - 1.0

    def integrand(t):
        return k / t * (1.0 - (lo / t) ** e) * pdf(t)

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
