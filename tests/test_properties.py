"""Property tests of the channel law over the physical parameter box."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import kv

from fso_adapt.adapt import LN2, ase_series
from fso_adapt.channel import (
    TurbulenceParams,
    _residue_series,
    _series_accepts,
    gg_params,
    composite_cdf,
    gg_pdf,
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
)
from fso_adapt.specfun import SeriesConfig

from conftest import reference_model
from oracle import composite_cdf_quad, excess_inv_tight, inv_above_tight, tail_tight

# Rytov variance over the box, and I_a log-uniform in [1e-6, 50]
turbulence = st.floats(0.05, 15.0).map(gg_params)
log_ia = st.floats(math.log(1e-6), math.log(50.0))

# alpha - beta = 2: Bessel K of integer order
INTEGER_ORDER = TurbulenceParams(alpha=4.0, beta=2.0, rytov_var=1.0)


def closed_form(ia: float, t: TurbulenceParams) -> float:
    """c x^e K_(a-b)(2 sqrt(a b x)) evaluated directly, with no log domain."""
    a, b = t.alpha, t.beta
    c = 2.0 * (a * b) ** (0.5 * (a + b)) / (math.gamma(a) * math.gamma(b))
    return c * ia ** (0.5 * (a + b) - 1.0) * float(kv(a - b, 2.0 * math.sqrt(a * b * ia)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(turbulence, log_ia)
@example(INTEGER_ORDER, math.log(0.5))
def test_gg_pdf_matches_closed_form(t, log_x):
    ia = math.exp(log_x)
    f = gg_pdf(ia, t)
    assert math.isfinite(f) and f >= 0.0
    expect = closed_form(ia, t)
    if math.isfinite(expect) and expect > 0.0:
        assert math.isclose(f, expect, rel_tol=1e-9), (t, ia, f, expect)


# link strength, jitter, pointing on or off, and the cutoff over A0
link_box = (
    st.floats(0.05, 15.0),
    st.floats(1e-3, 0.05),
    st.booleans(),
    st.floats(math.log(1e-4), 0.0),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(*link_box)
def test_series_matches_quadrature(sigma_r2, jitter_m, pointing, log_u):
    """Wherever the guard accepts the residue series, it equals quadrature."""
    m = reference_model(sigma_r2, pointing, jitter_m)
    c = (m.pointing.a0 if pointing else 1.0) * math.exp(log_u)
    cfg = SeriesConfig()
    cdf, tail, peak = _residue_series(c, m, cfg, 1)
    if _series_accepts(cdf, tail, peak, 1e-7):
        oracle = composite_cdf_quad(c, m)
        assert abs(cdf - oracle) <= 1e-6, (m, c, cdf, oracle)
    # ase_series returns the quadrature value itself where its guard fails
    ase = ase_series(c, m, cfg)
    assert abs(ase - mean_log_excess(c, m) / LN2) <= 1e-6, (m, c, ase)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.05, 15.0),
    st.floats(1e-3, 0.05),
    st.floats(math.log(1e-4), math.log(20.0)),
    st.floats(1.1, 10.0),
)
def test_laplace_transform_in_unit_interval_and_falling(sigma_r2, jitter_m, log_s, ratio):
    """E[exp(-s I)] is a probability-weighted mean in (0, 1] that falls in s."""
    m = reference_model(sigma_r2, True, jitter_m)
    s = math.exp(log_s)
    near, far = mean_exp_neg(s, m), mean_exp_neg(ratio * s, m)
    assert math.isfinite(near) and 0.0 < near <= 1.0, (m, s, near)
    assert 0.0 < far < near, (m, s, near, far)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.05, 15.0),
    st.floats(1e-3, 0.05),
    st.booleans(),
    st.floats(math.log(1e-3), math.log(1e3)),
)
def test_tail_functionals_match_tight_quadrature(sigma_r2, jitter_m, pointing, log_r):
    """Series below A0 and the tail rule above it agree with a tight quadrature."""
    m = reference_model(sigma_r2, pointing, jitter_m)
    c = (m.pointing.a0 if pointing else 1.0) * math.exp(log_r)
    for got, expect in (
        (mean_inv_above(c, m), inv_above_tight(c, m)),
        (mean_excess_inv(c, m), excess_inv_tight(c, m)),
    ):
        # a tail below 1e-300 has no relative precision left in a double
        assert math.isclose(got, expect, rel_tol=1e-8, abs_tol=1e-300), (m, c, got, expect)
    # F is a double near 1, so its complement is good to 2^-53 at best
    surv = tail_tight(c, m)
    assert abs((1.0 - composite_cdf(c, m)) - surv) <= 1e-8 * surv + 2.0**-53, (m, c, surv)
