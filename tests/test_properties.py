"""Property tests of the channel law over the physical parameter box."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import kv

from fso_adapt import adapt, channel
from fso_adapt.adapt import (
    LN2,
    BerPolicy,
    ConstellationSet,
    SnrSpec,
    SolverBracketError,
    adaptive_required_snr,
    ase_limit,
    ase_series,
    discrete_ase,
    fixed_required_snr,
    solve_cutoff_continuous,
    solve_cutoff_discrete,
)
from fso_adapt.channel import (
    TurbulenceParams,
    _gg_mellin,
    _inv_moment,
    _mean_inv_irradiance,
    _residue_series,
    _series_accepts,
    gg_params,
    composite_cdf,
    gg_pdf,
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
    moment,
)
from fso_adapt.specfun import SeriesConfig

from conftest import assert_tail_cap, reference_model
from oracle import (
    composite_cdf_quad,
    excess_inv_tight,
    inv_above_tight,
    laplace_tight,
    tail_tight,
)

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
    cdf, tail, peak = (v[0, 0] for v in _residue_series(np.log([c / m.a0]), m, cfg, (1,), (0.0,)))
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.05, 15.0),
    st.floats(1e-3, 0.05),
    st.booleans(),
    st.floats(math.log(0.1), math.log(1e5)),
)
# here the series in 1/(s A0) never stops: its 20 terms still grow toward
# the misalignment pole, and their sum taken as the value gave 1.0 for 2.54e-5
@example(0.05, 1e-3, True, 2.75)
def test_laplace_transform_matches_tight_quadrature(sigma_r2, jitter_m, pointing, log_s):
    """E[exp(-s I)] to 1e-11 relative over the box, series and rule alike.

    The oracle is good to about 2e-14 here: on 300 random points of this
    box it stayed that close to the Meijer-G closed form at 30 digits.
    The series' guard admits terms that peak at 100 times the value, and
    their log-domain rounding then costs up to a few 1e-12 (1.9e-12 at
    sigma_R^2 = 6.96, 19.9 mm jitter, s = 63).
    """
    m = reference_model(sigma_r2, pointing, jitter_m)
    s = math.exp(log_s)
    expect = laplace_tight(s, m)
    assert abs(mean_exp_neg(s, m) - expect) <= 1e-11 * expect, (m, s, expect)


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


# link strength log-uniform over the box, jitter, and pointing on or off
model_box = (
    st.floats(math.log(0.05), math.log(15.0)).map(math.exp),
    st.floats(1e-3, 0.05),
    st.booleans(),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(*model_box)
def test_moments_are_one_mellin_transform(sigma_r2, jitter_m, pointing):
    """E[I^n] and the rational E[1/I] are the gamma-gamma transform at s = n and -1."""
    m = reference_model(sigma_r2, pointing, jitter_m)
    a, b = m.alpha, m.beta
    a0, xi2 = m.a0, m.xi2
    for n in range(4):
        ln_turb = (
            math.lgamma(a + n) + math.lgamma(b + n) - math.lgamma(a) - math.lgamma(b)
            - n * math.log(a * b)
        )
        expect = math.exp(ln_turb) * a0**n / (1.0 + n / xi2)
        assert math.isclose(moment(n, m), expect, rel_tol=1e-13), (m, n)
    # away from the poles at a, b or xi2 = 1
    if min(abs(a - 1.0), abs(b - 1.0), abs(xi2 - 1.0)) > 1e-3:
        expect = _gg_mellin(-1.0, m.turbulence) / (a0 * (1.0 - 1.0 / xi2))
        assert math.isclose(_inv_moment(m), expect, rel_tol=1e-13), m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(*model_box)
@example(0.05, 0.05, False)  # alpha + beta near 81: the 40-node rule keeps every node
def test_tail_rule_node_cap_over_the_box(sigma_r2, jitter_m, pointing):
    """Over the box, the tail rule's node cap holds its bound and moves a spec by 4 ulp at most."""
    assert_tail_cap(reference_model(sigma_r2, pointing, jitter_m))


# SNR grid of the box-wide limits, dB
SNR_GRID_DB = range(-10, 61, 5)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(*model_box)
def test_ase_limits_ordered_and_rising_in_snr(sigma_r2, jitter_m, pointing):
    """Over the box, 0 <= discrete ASE <= continuous ASE, both finite and rising in SNR.

    The discrete ladder may saturate, which raises SolverBracketError.
    """
    m = reference_model(sigma_r2, pointing, jitter_m)
    policy = BerPolicy(1e-3)
    cont, disc = [], []
    for db in SNR_GRID_DB:
        snr = SnrSpec.from_db(float(db))
        c = ase_limit(snr, policy, m).ase_bits
        assert math.isfinite(c), (m, db, c)
        cont.append(c)
        try:
            d = discrete_ase(snr, policy, m).ase_bits
        except SolverBracketError:
            continue
        assert math.isfinite(d) and 0.0 <= d <= c, (m, db, c, d)
        disc.append(d)
    for vals in (cont, disc):
        assert all(y >= x for x, y in zip(vals, vals[1:])), (m, vals)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(*model_box, st.floats(-10.0, 60.0))
def test_cutoff_solves_meet_their_constraints(sigma_r2, jitter_m, pointing, snr_db):
    """Each Newton cutoff spends the power budget by the tight oracles, within 12 evaluations.

    Past the ladder's saturation SNR the discrete solve raises at once.
    """
    m = reference_model(sigma_r2, pointing, jitter_m)
    policy = BerPolicy(1e-3)
    snr = SnrSpec.from_db(snr_db)
    t = policy.k_margin * snr.snr_linear
    sol = solve_cutoff_continuous(snr, policy, m)
    assert sol.iterations <= 12, (m, snr_db, sol)
    assert math.isclose(excess_inv_tight(sol.cutoff, m), t, rel_tol=1e-12), (m, snr_db, sol)
    cset = ConstellationSet()
    if t >= cset.spend[-1] * _mean_inv_irradiance(m):
        try:
            solve_cutoff_discrete(snr, policy, m, cset)
        except SolverBracketError as exc:
            assert "saturates" in str(exc)
            return
        raise AssertionError(f"no saturation error at {snr_db} dB for {m}")
    sol = solve_cutoff_discrete(snr, policy, m, cset)
    assert sol.iterations <= 12, (m, snr_db, sol)
    steps = cset.spend[1:] - cset.spend[:-1]
    spent = sum(s * inv_above_tight(e, m) for s, e in zip(steps, cset.bounds(sol.cutoff)))
    assert math.isclose(spent, t, rel_tol=1e-12), (m, snr_db, sol, spent)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(*model_box, st.floats(0.5, 12.0))
def test_adaptive_required_snr_round_trips(sigma_r2, jitter_m, pointing, rb):
    """The required SNR is typed or finite, gives back rb bits and took at most 12 passes."""
    m = reference_model(sigma_r2, pointing, jitter_m)
    policy = BerPolicy(1e-3)
    with mock.patch.object(adapt, "_law_at", wraps=channel._law_at) as law:
        try:
            snr = adaptive_required_snr(rb, policy, m)
        except SolverBracketError:
            return
    assert math.isfinite(snr.snr_db) and law.call_count <= 12, (m, rb, law.call_count)
    assert abs(ase_limit(snr, policy, m).ase_bits - rb) <= 1e-8, (m, rb, snr)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(*model_box, st.floats(math.log(1e-12), math.log(0.19)), st.floats(0.1, 16.0))
# 10 cm jitter: xi2 = 0.54, so E[1/I] is infinite and the window's 90 dB
# end is the bracket's upper end
@example(15.0, 0.1, True, math.log(1e-3), 2.0)
@example(2.0, 0.1, True, math.log(1e-6), 1.0)
def test_fixed_required_snr_over_the_box(sigma_r2, jitter_m, pointing, log_ber, rb):
    """The fixed-rate SNR is typed or finite, rises in rb and meets the BER target.

    Where it is finite, E[exp(-sI)] at its s = 1.5 SNR / (M - 1) is
    BER/0.2 to 1e-10, relative.
    """
    m = reference_model(sigma_r2, pointing, jitter_m)
    ber = math.exp(log_ber)
    snrs = []
    for r in (rb, 1.25 * rb):
        try:
            snr = fixed_required_snr(r, ber, m)
        except SolverBracketError as exc:
            assert "outside [-20, 90] dB" in str(exc), (m, r, ber, exc)
            snrs.append(None)
            continue
        assert math.isfinite(snr.snr_db) and -20.0 <= snr.snr_db <= 90.0, (m, r, ber, snr)
        s = 1.5 * snr.snr_linear / math.expm1(r * LN2)
        assert math.isclose(mean_exp_neg(s, m), ber / 0.2, rel_tol=1e-10), (m, r, ber, snr)
        snrs.append(snr.snr_db)
    if None not in snrs:
        assert snrs[1] > snrs[0], (m, rb, ber, snrs)
