import math

import numpy as np
import pytest
from scipy.integrate import quad

from fso_adapt.specfun import (
    SeriesConfig,
    SingularOrderError,
    bessel_k_frac,
    digamma,
    ln_gamma,
    sample_gamma,
)

EULER = 0.5772156649015329


def bessel_k_quadrature(nu, x):
    """Independent oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t), 0, 30, limit=200)
    return val


class TestLnGamma:
    def test_gamma_of_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_of_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_reference_point(self):
        # frozen from an arbitrary-precision evaluation
        assert ln_gamma(6.8755) == pytest.approx(6.3472871976147177, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)

    def test_reflection_identity(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.05, 0.95, size=200):
            lhs = ln_gamma(x) + ln_gamma(1.0 - x)
            rhs = math.log(math.pi / math.sin(math.pi * x))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER, abs=1e-12)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER, abs=1e-12)

    def test_reference_point(self):
        # frozen from an arbitrary-precision evaluation
        assert digamma(5.3384) == pytest.approx(1.5783509266993746, abs=1e-12)

    def test_finite_difference_oracle(self):
        # Richardson-extrapolated central difference of ln_gamma
        x, h = 5.3384, 1e-4
        d1 = (ln_gamma(x + h) - ln_gamma(x - h)) / (2 * h)
        d2 = (ln_gamma(x + h / 2) - ln_gamma(x - h / 2)) / h
        oracle = (4 * d2 - d1) / 3
        assert digamma(x) == pytest.approx(oracle, abs=1e-9)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(1e-3, 100.0, size=1000):
            assert digamma(x + 1.0) - digamma(x) - 1.0 / x == pytest.approx(0.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(-2.0)


class TestBesselK:
    def test_half_order_closed_form(self):
        expect = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert bessel_k_frac(0.5, 1.0) == pytest.approx(expect, rel=1e-10)

    def test_against_quadrature_oracle(self):
        # frozen values from the integral-representation oracle
        assert bessel_k_frac(1.5371, 1.0) == pytest.approx(0.95735794279753717, rel=1e-9)
        assert bessel_k_frac(2.2911, 0.2) == pytest.approx(112.5616833270434329, rel=1e-9)

    def test_quadrature_oracle_live(self):
        for nu, x in [(1.5371, 1.0), (2.2911, 0.2), (0.7, 1.8)]:
            assert bessel_k_frac(nu, x) == pytest.approx(bessel_k_quadrature(nu, x), rel=1e-8)

    def test_order_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            nu = rng.uniform(0.1, 4.0)
            if abs(nu - round(nu)) < 1e-3:
                continue
            x = rng.uniform(0.05, 6.0)
            assert bessel_k_frac(nu, x) == pytest.approx(bessel_k_frac(-nu, x), rel=1e-10)

    def test_series_matches_large_arg_branch_on_overlap(self):
        # the two evaluation branches must agree around the switch point
        cfg = SeriesConfig(max_terms=60)
        from fso_adapt.specfun import _bessel_k_series

        for nu in (0.4, 1.5371, 2.2911):
            for x in (1.6, 1.9, 2.0):
                from scipy.special import kv

                assert _bessel_k_series(nu, x, cfg) == pytest.approx(float(kv(nu, x)), rel=1e-9)

    def test_modified_bessel_ode_residual(self):
        rng = np.random.default_rng(5)
        h = 1e-3
        for _ in range(30):
            nu = rng.uniform(0.2, 3.0)
            if abs(nu - round(nu)) < 1e-2:
                continue
            x = rng.uniform(0.3, 1.8)
            k0 = bessel_k_frac(nu, x)

            def d1(hh):
                return (bessel_k_frac(nu, x + hh) - bessel_k_frac(nu, x - hh)) / (2 * hh)

            def d2(hh):
                return (
                    bessel_k_frac(nu, x + hh) - 2 * k0 + bessel_k_frac(nu, x - hh)
                ) / (hh * hh)

            # Richardson extrapolation knocks the truncation error to O(h^4)
            dd1 = (4 * d1(h / 2) - d1(h)) / 3
            dd2 = (4 * d2(h / 2) - d2(h)) / 3
            resid = x * x * dd2 + x * dd1 - (x * x + nu * nu) * k0
            assert abs(resid) <= 1e-6 * abs(k0) + 1e-8

    def test_integer_order_rejected(self):
        with pytest.raises(SingularOrderError):
            bessel_k_frac(2.0, 1.0)
        with pytest.raises(SingularOrderError):
            bessel_k_frac(1.0 + 1e-9, 1.0)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_k_frac(0.5, 0.0)


class TestSampleGamma:
    def test_exponential_special_case(self):
        rng = np.random.default_rng(42)
        draws = sample_gamma(1.0, 1.0, rng, size=1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 5 * se

    def test_unit_mean_construction(self):
        rng = np.random.default_rng(43)
        shape = 6.8755
        draws = sample_gamma(shape, 1.0 / shape, rng, size=1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 5 * se

    def test_variance(self):
        rng = np.random.default_rng(44)
        shape = 1.7018
        draws = sample_gamma(shape, 1.0 / shape, rng, size=1_000_000)
        assert draws.var() == pytest.approx(1.0 / shape, rel=0.02)

    def test_scalar_draw(self):
        rng = np.random.default_rng(1)
        assert isinstance(sample_gamma(2.0, 0.5, rng), float)

    def test_bad_parameters(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_gamma(-1.0, 1.0, rng)


class TestSeriesConfig:
    def test_defaults(self):
        cfg = SeriesConfig()
        assert cfg.max_terms == 20
        assert cfg.singularity_eps == 1e-6
        assert cfg.convergence_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs", [{"max_terms": 0}, {"singularity_eps": 0.0}, {"convergence_tol": -1.0}]
    )
    def test_validation(self, kwargs):
        # max_terms is the only field; the guard constants are not settable
        with pytest.raises(ValueError if "max_terms" in kwargs else TypeError):
            SeriesConfig(**kwargs)
