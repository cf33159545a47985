import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv
from scipy.stats import kstest

from fso_adapt import channel
from fso_adapt.channel import (
    ChannelModel,
    LinkGeometry,
    PointingParams,
    TurbulenceParams,
    Variant,
    _gg_mellin,
    _laplace_at,
    _laplace_rule,
    _laplace_series,
    _law_at,
    beam_waist_at_rx,
    composite_cdf,
    composite_pdf,
    gg_params,
    gg_pdf,
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
    moment,
    pointing_params,
    rytov_variance,
    sample_irradiance,
)
from fso_adapt.specfun import SeriesConfig, SingularOrderError

from conftest import NEAR_POLE_JITTER_M, assert_tail_cap, reference_geometry, reference_model
from oracle import (
    cdf_tight,
    composite_cdf_quad,
    composite_pdf_quad,
    excess_inv_tight,
    inv_above_tight,
    laplace_tight,
    log_excess_tight,
    pdf_tight,
    tail_tight,
)


# frozen reference parameter sets for the three turbulence strengths
# (alpha, beta, xi, a0), derived once with this package and cross-checked
# against independent evaluations of the defining formulas
REFERENCE_PARAMS = {
    0.4: (6.8755, 5.3384, 1.7808, 0.7180),
    1.0: (4.3939, 2.5636, 2.0491, 0.4948),
    2.0: (3.9929, 1.7018, 2.5848, 0.3025),
}


def nested_mixture_pdf(i, m):
    """Independent oracle: integrate the conditional density over the
    misalignment mixture directly, with no series expansion."""
    a0, xi2 = m.pointing.a0, m.pointing.xi2

    def inner(ip):
        mix = xi2 / a0**xi2 * ip ** (xi2 - 1.0)
        return gg_pdf(i / ip, m.turbulence) / ip * mix

    val, _ = quad(inner, 0.0, a0, limit=400, epsabs=1e-14, epsrel=1e-12)
    return val


class TestLinkGeometry:
    def test_wavenumber(self):
        g = reference_geometry(0.4)
        assert g.wavenumber == pytest.approx(2 * math.pi / g.wavelength_m, rel=1e-14)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("length_m", -1.0),
            ("length_m", 0.5),
            ("wavelength_m", 2e-5),
            ("tx_waist_m", 0.0),
            ("cn2", float("nan")),
            ("jitter_sigma_m", -0.01),
        ],
    )
    def test_validation(self, field, value):
        kwargs = dict(
            length_m=1000.0,
            wavelength_m=1550e-9,
            tx_waist_m=0.015,
            rx_aperture_radius_m=0.02,
            cn2=1e-14,
            jitter_sigma_m=0.01,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            LinkGeometry(**kwargs)


class TestRytovVariance:
    def test_linear_in_cn2(self):
        g1 = reference_geometry(0.4)
        g2 = LinkGeometry(
            length_m=g1.length_m,
            wavelength_m=g1.wavelength_m,
            tx_waist_m=g1.tx_waist_m,
            rx_aperture_radius_m=g1.rx_aperture_radius_m,
            cn2=3.0 * g1.cn2,
            jitter_sigma_m=g1.jitter_sigma_m,
        )
        assert rytov_variance(g2) == pytest.approx(3.0 * rytov_variance(g1), rel=1e-12)

    @pytest.mark.parametrize("target", [0.4, 1.0, 2.0])
    def test_round_trip(self, target):
        # reference_geometry rescales cn2 so the link hits the target variance
        assert rytov_variance(reference_geometry(target)) == pytest.approx(
            target, rel=1e-12
        )


class TestGgParams:
    @pytest.mark.parametrize("sr2", [0.4, 1.0, 2.0])
    def test_reference_values(self, sr2):
        a_ref, b_ref, _, _ = REFERENCE_PARAMS[sr2]
        t = gg_params(sr2)
        assert t.alpha == pytest.approx(a_ref, abs=5e-5)
        assert t.beta == pytest.approx(b_ref, abs=5e-5)

    def test_alpha_exceeds_beta(self):
        for sr2 in (0.1, 0.5, 1.0, 2.0, 5.0):
            t = gg_params(sr2)
            assert t.alpha > t.beta > 0

    def test_weak_turbulence_limit(self):
        # both shapes diverge as the scintillation vanishes
        t = gg_params(1e-4)
        assert t.alpha > 1e3 and t.beta > 1e3

    def test_invalid(self):
        with pytest.raises(ValueError):
            gg_params(0.0)


class TestBeamWaist:
    def test_broadening_monotone_in_cn2(self):
        g1 = reference_geometry(0.4)
        g2 = reference_geometry(2.0)
        assert beam_waist_at_rx(g2) > beam_waist_at_rx(g1) > g1.tx_waist_m

    def test_vacuum_limit(self):
        # with negligible turbulence the waist reduces to pure diffraction
        g = LinkGeometry(
            length_m=1000.0,
            wavelength_m=1550e-9,
            tx_waist_m=0.015,
            rx_aperture_radius_m=0.02,
            cn2=1e-25,
            jitter_sigma_m=0.01,
        )
        spread = g.wavelength_m * g.length_m / (math.pi * g.tx_waist_m**2)
        expect = g.tx_waist_m * math.sqrt(1.0 + spread**2)
        assert beam_waist_at_rx(g) == pytest.approx(expect, rel=1e-6)


class TestPointingParams:
    @pytest.mark.parametrize("sr2", [0.4, 1.0, 2.0])
    def test_reference_values(self, sr2):
        _, _, xi_ref, a0_ref = REFERENCE_PARAMS[sr2]
        g = reference_geometry(sr2)
        pp = pointing_params(
            g.rx_aperture_radius_m, beam_waist_at_rx(g), g.jitter_sigma_m
        )
        assert pp.xi == pytest.approx(xi_ref, abs=5e-5)
        assert pp.a0 == pytest.approx(a0_ref, abs=5e-5)

    def test_wide_aperture_collects_everything(self):
        pp = pointing_params(0.1, 0.02, 0.01)
        assert pp.a0 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_aperture_rejected(self):
        with pytest.raises(ValueError):
            pointing_params(1.0, 0.01, 0.01)

    def test_smaller_jitter_raises_xi(self):
        p1 = pointing_params(0.02, 0.025, 0.01)
        p2 = pointing_params(0.02, 0.025, 0.005)
        assert p2.xi2 == pytest.approx(4.0 * p1.xi2, rel=1e-12)
        assert p2.a0 == p1.a0

    def test_validation(self):
        with pytest.raises(ValueError):
            pointing_params(-0.02, 0.025, 0.01)
        with pytest.raises(ValueError):
            PointingParams(a0=1.5, xi2=3.0, rx_beam_waist_m=0.02)
        with pytest.raises(ValueError):
            PointingParams(a0=0.7, xi2=0.0, rx_beam_waist_m=0.02)


class TestChannelModel:
    def test_variants(self, models):
        assert models["weak_gg"].variant is Variant.GG_ONLY
        assert models["weak_pe"].variant is Variant.GG_POINTING
        assert models["weak_gg"].alpha == models["weak_pe"].alpha

    def test_misalignment_parameters(self, models):
        # without pointing, A0 = 1 and xi2 = inf pin I_p to 1
        assert (models["weak_gg"].a0, models["weak_gg"].xi2) == (1.0, math.inf)
        p = models["weak_pe"].pointing
        assert (models["weak_pe"].a0, models["weak_pe"].xi2) == (p.a0, p.xi2)

    def test_turbulence_validation(self):
        with pytest.raises(ValueError):
            TurbulenceParams(alpha=-1.0, beta=2.0, rytov_var=0.4)


class TestGgPdf:
    def test_pointwise_against_scipy(self, models):
        t = models["strong_gg"].turbulence
        a, b = t.alpha, t.beta
        c = 2.0 * (a * b) ** (0.5 * (a + b)) / (math.gamma(a) * math.gamma(b))
        for ia in (0.05, 0.3, 1.0, 2.5, 6.0):
            expect = c * ia ** (0.5 * (a + b) - 1.0) * kv(a - b, 2.0 * math.sqrt(a * b * ia))
            assert gg_pdf(ia, t) == pytest.approx(float(expect), rel=1e-9)

    @pytest.mark.parametrize("key", ["weak_gg", "moderate_gg", "strong_gg"])
    def test_normalization(self, models, key):
        t = models[key].turbulence
        total, _ = quad(lambda i: gg_pdf(i, t), 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_unit_mean(self, models):
        t = models["weak_gg"].turbulence
        mean, _ = quad(lambda i: i * gg_pdf(i, t), 0, np.inf, limit=300)
        assert mean == pytest.approx(1.0, abs=1e-8)

    def test_integer_shape_gap(self):
        # alpha - beta = 2: the Bessel function has integer order
        t = TurbulenceParams(alpha=4.0, beta=2.0, rytov_var=1.0)
        a, b = t.alpha, t.beta
        c = 2.0 * (a * b) ** (0.5 * (a + b)) / (math.gamma(a) * math.gamma(b))
        for ia in (0.05, 0.5, 1.0, 2.5, 6.0):
            expect = c * ia ** (0.5 * (a + b) - 1.0) * kv(a - b, 2.0 * math.sqrt(a * b * ia))
            assert gg_pdf(ia, t) == pytest.approx(float(expect), rel=1e-9)

    def test_zero_and_negative(self, models):
        t = models["weak_gg"].turbulence
        assert gg_pdf(0.0, t) == 0.0
        with pytest.raises(ValueError):
            gg_pdf(-0.1, t)


class TestCompositePdf:
    @pytest.mark.parametrize("key", ["weak_pe", "moderate_pe", "strong_pe"])
    def test_series_matches_mixture_quadrature(self, models, key, series_cfg_hi):
        m = models[key]
        for frac in (0.1, 0.5, 0.9):
            i = frac * m.pointing.a0
            assert composite_pdf(i, m, series_cfg_hi) == pytest.approx(
                nested_mixture_pdf(i, m), rel=1e-6
            )
        # at the very edge of the series' range the alternating terms peak
        # around 1e8 and cancel down to order one, so a few 1e-6 of relative
        # rounding noise is the double-precision floor there
        edge = m.pointing.a0
        assert composite_pdf(edge, m, series_cfg_hi) == pytest.approx(
            nested_mixture_pdf(edge, m), rel=1e-5
        )

    def test_frozen_reference_points(self, models, series_cfg_hi):
        # weak turbulence + misalignment; values frozen from the mixture oracle
        m = models["weak_pe"]
        a0 = m.pointing.a0
        assert composite_pdf(0.1 * a0, m, series_cfg_hi) == pytest.approx(
            0.36877039808471446, rel=1e-6
        )
        assert composite_pdf(0.5 * a0, m, series_cfg_hi) == pytest.approx(
            1.488673047665806, rel=1e-6
        )

    def test_tail_branch_matches_oracle(self, models):
        # beyond the power-collection limit the series gives way to quadrature
        m = models["strong_pe"]
        for i in (1.5 * m.pointing.a0, 1.0, 3.0):
            assert composite_pdf(i, m) == pytest.approx(
                nested_mixture_pdf(i, m), rel=1e-8
            )

    @pytest.mark.parametrize("key", ["weak_pe", "strong_pe"])
    def test_normalization(self, models, key, series_cfg_hi):
        m = models[key]
        a0 = m.pointing.a0
        head, _ = quad(
            lambda i: composite_pdf(i, m, series_cfg_hi), 0, a0, limit=300
        )
        tail, _ = quad(
            lambda i: composite_pdf(i, m, series_cfg_hi), a0, np.inf, limit=300
        )
        assert head + tail == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("i", [1e-4, 1e-3, 0.01, 0.04])
    def test_strong_pointing_does_not_overflow(self, i):
        # sigma_r2 = 12 with 3 mm jitter: a0 = 0.0479 and xi2 = 464, where
        # a0**-xi2 overflows; the series must still agree with quadrature
        m = reference_model(12.0, pointing=True, jitter_m=0.003)
        assert composite_pdf(i, m) == pytest.approx(composite_pdf_quad(i, m), rel=1e-9)

    def test_guard_in_value_units(self, series_cfg_hi):
        # 3 mm jitter: the series' terms peak at 1.2e9 times the density,
        # which the guard must see in the density's units to fall back
        m = reference_model(0.4, pointing=True, jitter_m=0.003)
        i = 0.6361454523915885
        assert composite_pdf(i, m, series_cfg_hi) == pytest.approx(
            composite_pdf_quad(i, m), rel=1e-7
        )

    def test_quadrature_weak_turbulence_small_i(self, series_cfg_hi):
        # I_a clusters at 1, so for i << A0 the mixture's mass sits where
        # I_p is close to i; there the density is xi2 i^(xi2-1) A0^-xi2
        # E[I_a^-xi2] up to terms of order (i/A0)^beta
        m = reference_model(0.0619, pointing=True, jitter_m=0.0157)
        a, b = m.alpha, m.beta
        a0, xi2 = m.pointing.a0, m.pointing.xi2
        i = 1.28e-4
        e_neg = math.exp(
            xi2 * math.log(a * b)
            + math.lgamma(a - xi2) + math.lgamma(b - xi2)
            - math.lgamma(a) - math.lgamma(b)
        )
        asymptote = xi2 / i * (i / a0) ** xi2 * e_neg
        assert composite_pdf_quad(i, m) == pytest.approx(asymptote, rel=1e-9)
        assert composite_pdf(i, m, series_cfg_hi) == pytest.approx(asymptote, rel=1e-9)

    @pytest.mark.parametrize(
        "sigma_r2, jitter_m, u", [(0.35, 0.002, 0.3), (0.9, 0.005, 1.0), (0.2, 0.001, 0.1), (2.3, 0.0125, 0.9)]
    )
    def test_series_held_to_package_guard(self, sigma_r2, jitter_m, u):
        # the density's series is accepted only where it is good to 1e-12
        m = reference_model(sigma_r2, jitter_m=jitter_m)
        c = u * m.a0
        assert composite_pdf(c, m) == pytest.approx(pdf_tight(c, m), rel=1e-12)

    def test_gg_limit_collapse(self, models):
        # a near-unity collection limit and enormous xi2 pin I_p to 1, so the
        # composite law must collapse to the bare turbulence density
        t = models["weak_gg"].turbulence
        pp = PointingParams(a0=1.0 - 1e-9, xi2=1e6, rx_beam_waist_m=0.02)
        m = ChannelModel(t, pp)
        cfg = SeriesConfig(max_terms=60)
        for i in (0.2, 0.8, 2.0, 5.0):
            assert composite_pdf(i, m, cfg) == pytest.approx(
                gg_pdf(i, t), rel=1e-3
            )

    def test_gg_only_dispatch(self, models):
        m = models["moderate_gg"]
        assert composite_pdf(0.7, m) == pytest.approx(
            gg_pdf(0.7, m.turbulence), rel=1e-12
        )


class TestCompositeCdf:
    @pytest.mark.parametrize("key", ["weak_pe", "strong_pe"])
    def test_consistent_with_pdf(self, models, key, series_cfg_hi):
        m = models[key]
        a0 = m.pointing.a0
        for i in (0.3 * a0, 0.9 * a0, 2.0):
            f = lambda t: composite_pdf(t, m, series_cfg_hi)
            if i <= a0:
                num, _ = quad(f, 0, i, limit=300)
            else:
                # integrate each evaluation branch separately
                n1, _ = quad(f, 0, a0, limit=300)
                n2, _ = quad(f, a0, i, limit=300)
                num = n1 + n2
            assert composite_cdf(i, m, series_cfg_hi) == pytest.approx(num, abs=5e-7)

    def test_fallback_resolves_boundary_layer(self):
        # sigma_r2 = 12 with 3 mm jitter: xi2 = 464, so the weight
        # (i/(A0 t))^xi2 of the quadrature route falls by e^-50 within
        # t - i/A0 = 0.11 i/A0; the series is exact here
        m = reference_model(12.0, pointing=True, jitter_m=0.003)
        i = 0.01 * m.pointing.a0
        assert composite_cdf_quad(i, m) == pytest.approx(composite_cdf(i, m), rel=1e-9)

    def test_series_at_a0_matches_quadrature(self, models, series_cfg_hi):
        # the series terms peak at 1e7 times the value here, so their
        # rounding alone is worth about 1e-7
        m = models["weak_pe"]
        a0 = m.pointing.a0
        cdf = composite_cdf(a0, m, series_cfg_hi)
        assert cdf == pytest.approx(composite_cdf_quad(a0, m), abs=1e-7)

    @pytest.mark.parametrize(
        "key", ["weak_gg", "weak_pe", "moderate_gg", "moderate_pe", "strong_gg", "strong_pe"]
    )
    @pytest.mark.parametrize("u", [1e-3, 0.01, 0.1, 0.5])
    def test_relative_accuracy_at_small_cutoffs(self, models, key, u):
        # F itself is summed, not 1 - (1 - F), so a small F keeps its digits
        m = models[key]
        c = u * m.a0
        assert composite_cdf(c, m) == pytest.approx(cdf_tight(c, m), rel=1e-11, abs=0.0)

    def test_limits(self, models):
        m = models["weak_pe"]
        assert composite_cdf(0.0, m) == 0.0
        assert composite_cdf(50.0, m) == pytest.approx(1.0, abs=1e-9)

    def test_monotone(self, models, series_cfg_hi):
        m = models["moderate_pe"]
        grid = np.linspace(0.01, 3.0, 40)
        vals = [composite_cdf(i, m, series_cfg_hi) for i in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestMoments:
    @pytest.mark.parametrize("key", ["weak_gg", "weak_pe", "strong_pe"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_against_quadrature(self, models, key, n, series_cfg_hi):
        m = models[key]
        split = m.pointing.a0 if m.variant is Variant.GG_POINTING else 1.0
        f = lambda i: i**n * composite_pdf(i, m, series_cfg_hi)
        head, _ = quad(f, 0, split, limit=300)
        tail, _ = quad(f, split, np.inf, limit=300)
        assert moment(n, m) == pytest.approx(head + tail, rel=1e-5)

    def test_mean_penalty_from_misalignment(self, models):
        # pointing loss strictly reduces the mean collected irradiance
        assert moment(1, models["weak_pe"]) < moment(1, models["weak_gg"]) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_invalid_order(self, models):
        with pytest.raises(ValueError):
            moment(-1.0, models["weak_gg"])


class TestSampling:
    def test_moments_match(self, models):
        rng = np.random.default_rng(2024)
        for key in ("weak_gg", "strong_pe"):
            m = models[key]
            draws = sample_irradiance(m, rng, size=400_000)
            for n in (1, 2):
                mom = moment(n, m)
                se = (draws**n).std() / math.sqrt(draws.size)
                assert abs((draws**n).mean() - mom) <= 5 * se

    def test_distribution_ks(self, models, series_cfg_hi):
        rng = np.random.default_rng(7)
        m = models["moderate_pe"]
        draws = sample_irradiance(m, rng, size=20_000)
        stat, pval = kstest(draws, lambda x: composite_cdf(x, m, series_cfg_hi))
        assert pval > 1e-3

    def test_scalar_draw(self, models):
        rng = np.random.default_rng(1)
        x = sample_irradiance(models["weak_pe"], rng)
        assert np.isscalar(x) and x > 0

    def test_support(self, models):
        rng = np.random.default_rng(3)
        draws = sample_irradiance(models["weak_pe"], rng, size=1000)
        assert np.all(draws > 0)

    @pytest.mark.parametrize("size", [1, 65_535, 65_536, 65_537, 200_003, (3, 70_001)])
    @pytest.mark.parametrize("key", ["moderate_gg", "moderate_pe"])
    @pytest.mark.parametrize("use_out", [False, True])
    def test_block_draws_match_one_draw(self, models, key, size, use_out):
        # the gamma product and the pointing factor drawn whole, in one stream
        m = models[key]
        rng = np.random.Generator(np.random.Philox(12))
        a, b = m.alpha, m.beta
        want = rng.gamma(a, 1.0 / a, size=size) * rng.gamma(b, 1.0 / b, size=size)
        if m.pointing is not None:
            p = m.pointing
            want = want * (p.a0 * rng.uniform(size=size) ** (1.0 / p.xi2))
        after = rng.random()
        rng = np.random.Generator(np.random.Philox(12))
        out = np.empty(size) if use_out else None
        got = sample_irradiance(m, rng, size=size, out=out)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert out is None or got is out
        assert rng.random() == after

    @pytest.mark.parametrize("key", ["moderate_gg", "moderate_pe"])
    def test_scalar_draws_match_one_draw_each(self, models, key):
        m = models[key]
        rng = np.random.Generator(np.random.Philox(12))
        a, b = m.alpha, m.beta
        want = []
        for _ in range(5):
            x = rng.gamma(a, 1.0 / a) * rng.gamma(b, 1.0 / b)
            if m.pointing is not None:
                p = m.pointing
                x = x * (p.a0 * rng.uniform() ** (1.0 / p.xi2))
            want.append(x)
        after = rng.random()
        rng = np.random.Generator(np.random.Philox(12))
        got = [sample_irradiance(m, rng) for _ in range(5)]
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert rng.random() == after

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((2, 1000))[:, ::2],
            np.empty((3, 5), order="F"),
            np.empty(1000, dtype=np.float32),
        ],
        ids=["strided", "fortran", "float32"],
    )
    def test_out_must_be_contiguous_float64(self, models, out):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            sample_irradiance(models["moderate_pe"], rng, size=out.shape, out=out)


class TestExpectationHelpers:
    @pytest.mark.parametrize("key", ["weak_gg", "weak_pe", "strong_pe"])
    def test_mean_excess_inv_oracle(self, models, key, series_cfg_hi):
        m = models[key]
        cutoff = 0.3
        val, _ = quad(
            lambda i: (1.0 / cutoff - 1.0 / i) * composite_pdf(i, m, series_cfg_hi),
            cutoff,
            np.inf,
            limit=300,
        )
        assert mean_excess_inv(cutoff, m) == pytest.approx(val, rel=5e-7)

    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_mean_log_excess_oracle(self, models, key, series_cfg_hi):
        m = models[key]
        cutoff = 0.25
        val, _ = quad(
            lambda i: math.log(i / cutoff) * composite_pdf(i, m, series_cfg_hi),
            cutoff,
            np.inf,
            limit=300,
        )
        assert mean_log_excess(cutoff, m) == pytest.approx(val, rel=1e-7)

    @pytest.mark.parametrize("key", ["weak_gg", "moderate_pe"])
    def test_mean_inv_above_oracle(self, models, key, series_cfg_hi):
        m = models[key]
        thr = 0.4
        val, _ = quad(
            lambda i: composite_pdf(i, m, series_cfg_hi) / i, thr, np.inf, limit=300
        )
        assert mean_inv_above(thr, m) == pytest.approx(val, rel=1e-7)

    @pytest.mark.parametrize(
        "key",
        ["weak_gg", "weak_pe", "moderate_gg", "moderate_pe", "strong_gg", "strong_pe",
         "weak_pe_1mm"],
    )
    def test_mean_exp_neg_oracle(self, models, key):
        # s = 0.1 .. 1e5 runs from the exp-sinh rule through the switch to
        # the series; 1 mm jitter gives xi2 = 317, where the incomplete-
        # gamma form of the misalignment factor's inner mean underflows
        m = models[key] if key in models else reference_model(0.4, True, 0.001)
        for s in np.logspace(-1.0, 5.0, 25):
            expect = laplace_tight(s, m)
            assert mean_exp_neg(s, m) == pytest.approx(expect, rel=1e-12, abs=1e-300), s

    @pytest.mark.parametrize(
        "key, s, expect",
        [("strong_gg", 3e4, 1.2224299429e-7), ("strong_pe", 2e5, 4.970531410e-8),
         ("weak_gg", 1e4, 1.5059395041e-16)],
    )
    def test_mean_exp_neg_at_large_s(self, models, key, s, expect):
        # values of the Meijer-G closed form, at 30 digits; adaptive
        # quadrature over (0, inf) missed the mass near t = 1/(s A0) and
        # gave 5.5e-32, 8.8e-15 and 5.9e-20
        assert mean_exp_neg(s, models[key]) == pytest.approx(expect, rel=1e-9, abs=0)

    def test_mean_exp_neg_where_kve_overflows(self):
        # a - b = 39: scipy's kve overflows at the rule's lowest nodes,
        # where the density is nil; Meijer-G values at 30 digits
        m = ChannelModel(TurbulenceParams(40.0, 1.0, 1.0))
        assert mean_exp_neg(0.5, m) == pytest.approx(0.6685032148568477, rel=1e-12)
        assert mean_exp_neg(50.0, m) == pytest.approx(0.0200901060712569, rel=1e-12)

    def test_mean_exp_neg_endpoints(self, models):
        m = models["weak_pe"]
        assert mean_exp_neg(0.0, m) == 1.0
        assert mean_exp_neg(500.0, m) < 1e-2

    def test_mean_excess_inv_decreasing_in_cutoff(self, models):
        m = models["strong_pe"]
        vals = [mean_excess_inv(c, m) for c in (0.05, 0.2, 0.5, 1.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self, models):
        m = models["weak_gg"]
        with pytest.raises(ValueError):
            mean_excess_inv(0.0, m)
        with pytest.raises(ValueError):
            mean_exp_neg(-1.0, m)


# calls on a non-finite or huge argument, with the limit each must
# return, or the ValueError naming the argument
HUGE_CUTOFFS = (2e16, 1e300, math.inf)
NON_FINITE_CALLS = [
    pytest.param(lambda m: composite_cdf(math.nan, m), "i must", id="composite_cdf-nan"),
    pytest.param(lambda m: gg_pdf(math.nan, m.turbulence), "ia must", id="gg_pdf-nan"),
    pytest.param(lambda m: mean_exp_neg(math.nan, m), "s must", id="mean_exp_neg-nan"),
    pytest.param(lambda m: mean_exp_neg(math.inf, m), 0.0, id="mean_exp_neg-inf"),
    pytest.param(lambda m: moment(math.nan, m), "n must", id="moment-nan"),
    pytest.param(lambda m: moment(math.inf, m), "n must", id="moment-inf"),
    *[
        pytest.param(lambda m, f=f, c=c: f(c, m), limit, id=f"{f.__name__}-{c:g}")
        for f, limit in (
            (composite_cdf, 1.0),
            (composite_pdf, 0.0),
            (mean_inv_above, 0.0),
            (mean_excess_inv, 0.0),
        )
        for c in HUGE_CUTOFFS
    ],
]


@pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
@pytest.mark.parametrize("call, expect", NON_FINITE_CALLS)
def test_non_finite_and_huge_arguments(models, key, call, expect):
    """A NaN argument raises ValueError; a huge or infinite one gives the limit."""
    m = models[key]
    if isinstance(expect, str):
        with pytest.raises(ValueError, match=expect):
            call(m)
    else:
        assert call(m) == expect


class TestSingularityGuards:
    @pytest.mark.parametrize("s", [-2.0, -3.0, -4.5])
    def test_mellin_on_pole(self, s):
        # a + s = 0 or -1, b + s = -2
        t = TurbulenceParams(alpha=2.0, beta=2.5, rytov_var=1.0)
        with pytest.raises(SingularOrderError):
            _gg_mellin(s, t)

    def test_integer_xi2_on_pole(self, models):
        t = models["weak_gg"].turbulence
        # xi2 exactly on alpha puts a gamma factor on a pole: the series
        # is singular and the tail rule takes the cutoff
        pp = PointingParams(a0=0.7, xi2=t.alpha, rx_beam_waist_m=0.02)
        m = ChannelModel(t, pp)
        assert composite_pdf(0.3, m) == pytest.approx(composite_pdf_quad(0.3, m), rel=1e-12)

    def test_series_denominator_collision(self, models):
        t = models["weak_gg"].turbulence
        # xi2 = beta makes the k = 0 denominator vanish in one sub-series
        pp = PointingParams(a0=0.7, xi2=t.beta, rx_beam_waist_m=0.02)
        m = ChannelModel(t, pp)
        pdf = composite_pdf(0.3, m, SeriesConfig())
        assert pdf == pytest.approx(composite_pdf_quad(0.3, m), rel=1e-12)

    @pytest.mark.parametrize("u", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize(
        "pole",
        [
            "xi2_above", "xi2_below", "beta", "beta_pointing",
            "xi2_on", "beta_on", "beta_on_pointing",
        ],
    )
    def test_inv_above_next_to_its_pole(self, models, pole, u):
        # E[1/I] has a pole at a, b or xi2 = 1: next to one the series'
        # two terms cancel far below their size, and on one E[1/I] is NaN,
        # so the guard turns the series down and the tail rule takes every
        # cutoff
        pe = models["strong_pe"]
        beta_one = TurbulenceParams(alpha=4.0, beta=1.0 + 1e-9, rytov_var=1.0)
        # alpha - beta off an integer, so that the series itself is not singular
        beta_on = TurbulenceParams(alpha=4.3, beta=1.0, rytov_var=1.0)
        m = {
            "xi2_above": ChannelModel(pe.turbulence, replace(pe.pointing, xi2=1.0 + 1e-9)),
            "xi2_below": ChannelModel(pe.turbulence, replace(pe.pointing, xi2=1.0 - 1e-9)),
            "beta": ChannelModel(beta_one),
            "beta_pointing": ChannelModel(beta_one, pe.pointing),
            "xi2_on": ChannelModel(pe.turbulence, replace(pe.pointing, xi2=1.0)),
            "beta_on": ChannelModel(beta_on),
            "beta_on_pointing": ChannelModel(beta_on, pe.pointing),
        }[pole]
        c = u * m.a0
        # u = 0.01 is left out: there the rule is 3.5e-11 off on the beta ~ 1
        # models, whose density's branch point at t = 0 lies just before lo
        assert mean_inv_above(c, m) == pytest.approx(inv_above_tight(c, m), rel=1e-12)


NEAR_POLE_CUTOFFS = [1e-3, 0.01, 0.1, 0.5, 0.9, 1.0, 2.0]


@pytest.mark.parametrize("jitter_m", NEAR_POLE_JITTER_M)
@pytest.mark.parametrize("u", NEAR_POLE_CUTOFFS)
def test_near_pole_functionals_match_oracles(jitter_m, u):
    """Cutoffs past the table's last row take the tail rule; the rest keep the series."""
    m = reference_model(1.0, jitter_m=jitter_m)
    c = u * m.pointing.a0
    assert 1.0 - composite_cdf(c, m) == pytest.approx(tail_tight(c, m), rel=1e-12)
    assert composite_pdf(c, m) == pytest.approx(pdf_tight(c, m), rel=1e-12)
    assert mean_inv_above(c, m) == pytest.approx(inv_above_tight(c, m), rel=1e-12)
    assert mean_excess_inv(c, m) == pytest.approx(excess_inv_tight(c, m), rel=1e-11)
    log_excess = _law_at(np.array([c]), m, "log")[0, 0]
    assert log_excess == pytest.approx(log_excess_tight(c, m), rel=1e-12)


# xi2 = 1.00047 at sigma_R^2 = 0.6673: with the misalignment pole that
# close to 1, routing 1 - F with E[1/I; I >= c] would put it on the tail
# rule at the 39.51 dB cutoff, 9e-9 off
XI2_JUST_ABOVE_ONE_JITTER_M = 0.018824260236064424
LAW_NAMES = ("cdf", "sf", "inv", "pdf", "log")


LAW_KEYS = ["weak_gg", "weak_pe", "moderate_gg", "moderate_pe", "strong_gg", "strong_pe",
            "near_pole_0", "near_pole_1", "xi2_just_above_one"]


def law_model(models, key):
    """A reference model, a near-pole model or the xi2 ~ 1 model, by its LAW_KEYS key."""
    if key in models:
        return models[key]
    if key == "xi2_just_above_one":
        return reference_model(0.6673, jitter_m=XI2_JUST_ABOVE_ONE_JITTER_M)
    return reference_model(1.0, jitter_m=NEAR_POLE_JITTER_M[int(key[-1])])


@pytest.mark.parametrize("key", LAW_KEYS)
def test_tail_rule_node_cap(models, key):
    assert_tail_cap(law_model(models, key))


@pytest.mark.parametrize("key", [k for k in LAW_KEYS if not k.endswith("_gg")])
def test_tail_rule_skips_only_nil_nodes(models, key):
    # a narrow layer's nodes past z - z0 = 800 are not evaluated: taken at
    # that cap, as the rule once took them, each adds exactly 0, and the
    # layered density's rule equals the sum over every node bit for bit
    m = law_model(models, key)
    sab = math.sqrt(m.alpha * m.beta)
    specs = channel._law_plan(m)[0]
    clamped = 0
    for lo in (np.geomspace(1e-8, 1e3, 45), np.geomspace(1.0, 1e3, 12)):
        n = channel._NODES_ABOVE_A0 if lo.min() >= 1.0 else channel._NODES_BELOW_A0
        v, weights = channel._laguerre(n)
        cap = 2.0 * np.log(np.sqrt(lo) + 400.0 / sab)[:, None]
        for j, e, layered in specs.values():
            if not e:
                continue
            narrow = e > sab * np.sqrt(lo)
            ln_t = np.log(lo)[:, None] + v / e
            past = (ln_t > cap) & narrow[:, None]
            ln_t = np.minimum(ln_t, cap)
            ln_f = channel._gg_ln_pdf(np.exp(ln_t), m.turbulence) + (1 - j) * ln_t - math.log(e)
            terms = weights * np.exp(ln_f)
            assert (terms[past] == 0.0).all(), (j, e, n)
            clamped += past.sum()
            if layered:
                need = np.ones((1, len(lo)), dtype=bool)
                rule = channel._tail_rule(lo, m, [(j, e, layered)], need)[0]
                np.testing.assert_array_equal(rule[narrow], terms.sum(axis=-1)[narrow])
    assert clamped > 0


class TestSharedPass:
    @pytest.mark.parametrize("key", LAW_KEYS)
    def test_each_functional_as_if_alone(self, models, key):
        m = law_model(models, key)
        # cutoffs from deep in the series to past A0, one at a time and
        # together, and the ladder's five edges at cutoffs up to A0
        grid = np.geomspace(1e-6, 30.0, 49) * m.a0
        ladder = np.array([4.0, 16.0, 64.0, 256.0, 1024.0])
        # the ASE functional, over the grid and at each of its cutoffs alone,
        # against the oracle
        tight = [log_excess_tight(u, m) for u in grid]
        np.testing.assert_allclose(_law_at(grid, m, "log")[0], tight, rtol=1e-12, atol=0)
        alone = [_law_at(u, m, "log")[0, 0] for u in grid[:, None]]
        np.testing.assert_allclose(alone, tight, rtol=1e-12, atol=0)
        for c in [grid, *grid[:, None], *(ladder * u for u in np.geomspace(1e-5, 1.0, 11) * m.a0)]:
            alone = {n: _law_at(c, m, n)[0] for n in LAW_NAMES}
            np.testing.assert_array_equal(np.clip(alone["cdf"], 0.0, 1.0), composite_cdf(c, m))
            np.testing.assert_array_equal(alone["inv"], mean_inv_above(c, m))
            np.testing.assert_array_equal(alone["pdf"], composite_pdf(c, m))
            np.testing.assert_array_equal(alone["sf"] / c - alone["inv"], mean_excess_inv(c, m))
            combos = (
                LAW_NAMES, ("sf", "inv"), ("inv", "pdf"), ("log", "sf", "inv"), ("sf", "log"),
                ("sf", "inv", "log"), ("inv", "pdf", "cdf"),
            )
            for names in combos:
                for name, val in zip(names, _law_at(c, m, *names)):
                    np.testing.assert_array_equal(val, alone[name], err_msg=f"{name} of {names}")


@pytest.mark.parametrize("c", [1e-6, 1e-5])
@pytest.mark.parametrize("pointing", [False, True])
@pytest.mark.parametrize("delta", [-1e-7, -1e-9, 1e-9, 1e-7])
def test_shape_gap_next_to_an_integer(delta, pointing, c):
    # alpha - beta lies within 5e-8 of 2: the series' cosecant is taken of
    # the distance to the integer, not of pi (alpha - beta) with its
    # rounding of 4e-16.  From c = 1e-4 the tail rule's 1 - (1 - F) of a
    # small F is off by up to 8.8e-6.
    m = reference_model(1.3490433908855886 + delta, pointing)
    assert composite_cdf(c, m) == pytest.approx(cdf_tight(c, m), rel=1e-12, abs=0)
    assert mean_inv_above(c, m) == pytest.approx(inv_above_tight(c, m), rel=1e-12, abs=0)
    log_excess = _law_at(np.array([c]), m, "log")[0, 0]
    assert log_excess == pytest.approx(log_excess_tight(c, m), rel=1e-12, abs=0)
    if pointing:
        assert composite_pdf(c, m) == pytest.approx(pdf_tight(c, m), rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha,beta", [(4.0 + 1e-9, 2.0), (4.5, 2.5 - 1e-7), (3.0 + 1e-5, 1.0)])
@pytest.mark.parametrize("s", [1e5, 1e6])
def test_laplace_series_next_to_an_integer_shape_gap(alpha, beta, s):
    # where the series in 1/(s A0) takes the transform, its coefficients
    # share the cosecant of alpha - beta
    m = ChannelModel(TurbulenceParams(alpha=alpha, beta=beta, rytov_var=1.0))
    assert mean_exp_neg(s, m) == pytest.approx(laplace_tight(s, m), rel=1e-12, abs=0)


# the six reference models and 1 mm jitter (xi2 = 317) at sigma_R^2 = 0.4
LAPLACE_KEYS = [*LAW_KEYS[:6], "weak_pe_1mm"]


def laplace_model(models, key):
    return models[key] if key in models else reference_model(0.4, True, 0.001)


class TestLaplacePass:
    @pytest.mark.parametrize("key", ["weak_gg", "weak_pe", "moderate_gg", "moderate_pe",
                                     "strong_gg", "strong_pe"])
    def test_tiny_to_large_s_stays_a_probability(self, models, key):
        # s = 1e-300 to 1e5: the series' slope and misalignment pole
        # overflowed outside np.errstate at tiny s, and the rule's
        # rounding put the transform up to 3e-15 above 1
        m = models[key]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-300, 6):
                assert 0.0 <= mean_exp_neg(10.0**k, m) <= 1.0, k

    @pytest.mark.parametrize("key", LAPLACE_KEYS)
    def test_value_and_slope_are_one_routes(self, models, key):
        # s = 1e-2 to 1e6 takes both routes; the pass's value is
        # mean_exp_neg's, and value and slope come from the series where
        # its guard accepts, else from the exp-sinh rule
        m = laplace_model(models, key)
        routes = set()
        for s in np.logspace(-2.0, 6.0, 33):
            out = _laplace_at(s, m)
            assert out[0] == mean_exp_neg(s, m)
            series = _laplace_series(s * m.a0, m)
            route = "rule" if math.isnan(series[0]) else "series"
            assert out == (series if route == "series" else _laplace_rule(s * m.a0, m))
            assert out[1] < 0.0
            routes.add(route)
        assert routes == {"series", "rule"}

    @pytest.mark.parametrize("key", LAPLACE_KEYS)
    def test_slope_matches_difference_of_tight_oracle(self, models, key):
        # s d/ds E[exp(-sI)] against the five-point centred difference of
        # the tight oracle in ln s, on both routes.  Its step h is 1e-2 over
        # the log-slope k = |s L'/L|, at most 1e-2: at large s, L ~ s^-k and
        # the difference's error is about (h k)^4 / 30 of the slope; the
        # oracle's 1e-13 costs about 1e-13 / (h k) of it.
        m = laplace_model(models, key)
        for s in np.logspace(-2.0, 6.0, 9):
            val, slope = _laplace_at(s, m)
            h = 1e-2 / max(1.0, abs(slope / val))
            f = [laplace_tight(s * math.exp(k * h), m) for k in (-2, -1, 1, 2)]
            diff = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
            assert slope == pytest.approx(diff, rel=1e-8, abs=0), s
