import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv
from scipy.stats import kstest

from fso_adapt.channel import (
    ChannelModel,
    LinkGeometry,
    PointingParams,
    TurbulenceParams,
    Variant,
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

from conftest import reference_geometry, reference_model
from oracle import composite_cdf_quad, composite_pdf_quad


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

    @pytest.mark.parametrize("key", ["weak_gg", "weak_pe", "weak_pe_1mm"])
    def test_mean_exp_neg_oracle(self, models, key, series_cfg_hi):
        # 1 mm jitter gives xi2 = 317, where the incomplete-gamma form of
        # the misalignment factor's inner mean underflows
        m = models[key] if key in models else reference_model(0.4, True, 0.001)
        s = 2.5
        split = m.pointing.a0 if m.variant is Variant.GG_POINTING else 1.0
        f = lambda i: math.exp(-s * i) * composite_pdf(i, m, series_cfg_hi)
        head, _ = quad(f, 0, split, limit=300)
        tail, _ = quad(f, split, np.inf, limit=300)
        assert mean_exp_neg(s, m) == pytest.approx(head + tail, rel=1e-6)

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


class TestSingularityGuards:
    def test_integer_xi2_on_pole(self, models):
        t = models["weak_gg"].turbulence
        # xi2 exactly on alpha puts a gamma factor on a pole only when the
        # offset is a nonpositive integer; use a value landing on one
        pp = PointingParams(a0=0.7, xi2=t.alpha, rx_beam_waist_m=0.02)
        m = ChannelModel(t, pp)
        with pytest.raises(SingularOrderError):
            composite_pdf(0.3, m)

    def test_series_denominator_collision(self, models):
        t = models["weak_gg"].turbulence
        # xi2 = beta makes the k = 0 denominator vanish in one sub-series
        pp = PointingParams(a0=0.7, xi2=t.beta, rx_beam_waist_m=0.02)
        m = ChannelModel(t, pp)
        with pytest.raises(SingularOrderError):
            composite_pdf(0.3, m, SeriesConfig())
