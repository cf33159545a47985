import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from fso_adapt import adapt, channel
from fso_adapt.adapt import (
    LN2,
    AdaptiveSolution,
    BerPolicy,
    ConstellationSet,
    SnrSpec,
    SolverBracketError,
    adaptive_required_snr,
    ase_limit,
    ase_series,
    ber_bound,
    constellation_size_law,
    discrete_ase,
    discrete_power,
    discrete_regions,
    fixed_required_snr,
    high_snr_ase,
    optimal_power,
    pointing_penalty,
    solve_cutoff_continuous,
    solve_cutoff_discrete,
)
from fso_adapt.channel import (
    composite_cdf,
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
    moment,
    sample_irradiance,
)

from fso_adapt.specfun import SeriesConfig

from conftest import NEAR_POLE_JITTER_M, reference_model
from oracle import excess_inv_tight, laplace_tight, log_excess_tight, tail_tight


# required-SNR spot references (dB) for a 1e-3 average BER target,
# frozen from independent high-accuracy evaluations of the two link budgets
REQUIRED_SNR_SPOTS = [
    # (rb, model key, fixed ref, adaptive ref)
    (2.0, "weak_gg", 14.0, 10.7),
    (2.0, "strong_gg", 20.3, 11.2),
    (2.0, "weak_pe", 17.6, 13.4),
    (2.0, "strong_pe", 26.3, 17.0),
    (6.0, "weak_gg", 27.2, 24.2),
    (6.0, "strong_pe", 39.5, 31.2),
    (10.0, "weak_gg", 39.3, 36.3),
    (10.0, "strong_pe", 51.6, 43.4),
]

# the published required-SNR table: four models at 2 to 10 bits
PUBLISHED_CELLS = [
    (key, rb) for key in ("weak_gg", "strong_gg", "weak_pe", "strong_pe")
    for rb in (2.0, 4.0, 6.0, 8.0, 10.0)
]

# misalignment poles next to 1 and far out: xi2 = 1.00047 (sigma_R^2
# 0.6673, jitter 18.824 mm) and xi2 = 5401 (sigma_R^2 15, jitter 1 mm)
ODD_POLES = {
    "xi2_just_above_one": reference_model(0.6673, jitter_m=0.018824260236064424),
    "xi2_5401": reference_model(15.0, jitter_m=0.001),
}

# alpha - beta = 2 on the reference geometry: the cosec coefficient of the
# closed-form series is singular there
SIGMA_R2_INTEGER_ORDER = 1.3490433908855886

MODEL_KEYS = ["weak_gg", "weak_pe", "moderate_gg", "moderate_pe", "strong_gg", "strong_pe"]


class TestBerPolicy:
    def test_margin_constant(self):
        p = BerPolicy(1e-3)
        assert p.k_margin == pytest.approx(-1.5 / math.log(5e-3), rel=1e-14)
        assert p.k_margin == pytest.approx(0.2831087487266323, abs=1e-12)

    def test_stricter_target_smaller_margin(self):
        assert BerPolicy(1e-6).k_margin < BerPolicy(1e-3).k_margin

    @pytest.mark.parametrize("bad", [0.0, 0.2, 1.0, -1e-3])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            BerPolicy(bad)


class TestSnrSpec:
    def test_round_trip(self):
        s = SnrSpec.from_db(17.3)
        assert SnrSpec.from_linear(s.snr_linear).snr_db == pytest.approx(17.3, abs=1e-12)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            SnrSpec(snr_db=10.0, snr_linear=9.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            SnrSpec(snr_db=0.0, snr_linear=0.0)

    @pytest.mark.parametrize("snr_db", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, snr_db):
        with pytest.raises(ValueError, match="finite"):
            SnrSpec.from_db(snr_db)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_beyond_float_range_rejected(self, snr_db):
        with pytest.raises(ValueError, match="4000"):
            SnrSpec.from_db(snr_db)

    def test_infinite_linear_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SnrSpec.from_linear(math.inf)


class TestConstellationSet:
    def test_default_ladder(self):
        assert ConstellationSet().sizes == (0, 4, 16, 64, 256, 1024)

    def test_ladder_layout(self):
        cset = ConstellationSet((0, 4, 64))
        assert cset.bounds(0.5).tolist() == [2.0, 32.0]
        assert cset.bits.tolist() == [0.0, 2.0, 6.0]
        assert cset.spend.tolist() == [0.0, 3.0, 63.0]
        with pytest.raises(ValueError):
            cset.spend[1] = 4.0  # shared by every caller, so read-only

    @pytest.mark.parametrize(
        "sizes",
        [(4, 16), (0,), (0, 16, 4), (0, 4, 8), (0, 4, 4), (0, 1, 4, 16), (0, 1), (0, 4.7, 16.9)],
    )
    def test_validation(self, sizes):
        with pytest.raises(ValueError):
            ConstellationSet(sizes)


class TestPerBlockRelations:
    def test_ber_bound_at_zero_snr(self):
        assert ber_bound(4, 0.0) == pytest.approx(0.2, rel=1e-14)

    def test_ber_bound_hits_target(self, policy):
        # QPSK at the SNR where the bound equals the target exactly
        snr = 3.0 / policy.k_margin
        assert ber_bound(4, snr) == pytest.approx(policy.target_ber, rel=1e-12)

    def test_ber_bound_monotone(self):
        snrs = np.linspace(0, 40, 30)
        vals = [ber_bound(16, s) for s in snrs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_size_law_inverts_bound(self, policy):
        # driving the size-law constellation at that power meets the target
        for i, p in [(0.5, 20.0), (1.3, 7.0), (2.0, 55.0)]:
            msize = constellation_size_law(i, p, policy)
            assert ber_bound(msize, i * p) == pytest.approx(policy.target_ber, rel=1e-12)

    def test_optimal_power_zero_below_cutoff(self, policy):
        assert optimal_power(0.2, 0.3, policy) == 0.0
        assert optimal_power(0.3, 0.3, policy) == 0.0
        assert optimal_power(0.6, 0.3, policy) > 0.0

    def test_validation(self, policy):
        with pytest.raises(ValueError):
            ber_bound(1, 10.0)
        with pytest.raises(ValueError):
            optimal_power(1.0, 0.0, policy)

    @pytest.mark.parametrize("m, snr", [(4, math.nan), (math.nan, 1.0)])
    def test_ber_bound_rejects_nan(self, m, snr):
        with pytest.raises(ValueError, match="must be >= "):
            ber_bound(m, snr)

    @pytest.mark.parametrize("i, power", [(math.nan, 1.0), (1.0, math.nan)])
    def test_size_law_rejects_nan(self, policy, i, power):
        with pytest.raises(ValueError, match="must be >= 0"):
            constellation_size_law(i, power, policy)

    def test_optimal_power_rejects_nan(self, policy):
        with pytest.raises(ValueError, match="i must be >= 0"):
            optimal_power(math.nan, 0.1, policy)


class TestContinuousCutoff:
    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_constraint_satisfied(self, models, policy, key):
        m = models[key]
        snr = SnrSpec.from_db(15.0)
        sol = solve_cutoff_continuous(snr, policy, m)
        assert isinstance(sol, AdaptiveSolution)
        target = policy.k_margin * snr.snr_linear
        assert mean_excess_inv(sol.cutoff, m) == pytest.approx(target, rel=1e-10)
        assert abs(sol.constraint_residual) <= 1e-10 * target

    def test_cutoff_decreases_with_snr(self, models, policy):
        m = models["weak_gg"]
        cuts = [
            solve_cutoff_continuous(SnrSpec.from_db(db), policy, m).cutoff
            for db in (0.0, 10.0, 20.0, 30.0)
        ]
        assert all(b < a for a, b in zip(cuts, cuts[1:]))

    def test_high_snr_cutoff_scaling(self, models, policy):
        # deep into the high-SNR regime nearly all fading states transmit,
        # so cutoff * k_margin * SNR approaches one
        m = models["weak_gg"]
        snr = SnrSpec.from_db(40.0)
        sol = solve_cutoff_continuous(snr, policy, m)
        assert sol.cutoff * policy.k_margin * snr.snr_linear == pytest.approx(
            1.0, rel=0.02
        )


class TestAseSeries:
    @pytest.mark.parametrize(
        "key", ["weak_gg", "strong_gg", "weak_pe", "moderate_pe", "strong_pe"]
    )
    def test_matches_quadrature(self, models, key, series_cfg_hi):
        # dual route: the closed form against direct numerical integration
        # of the log-excess expectation
        m = models[key]
        for cutoff in (0.02, 0.1, 0.4):
            series = ase_series(cutoff, m, series_cfg_hi)
            quadrature = mean_log_excess(cutoff, m) / LN2
            assert series == pytest.approx(quadrature, rel=1e-8, abs=1e-9)

    def test_above_a0_is_quadrature(self, models, series_cfg_hi):
        # above A0 the series terms peak at 5e7 times the value
        m = models["strong_pe"]
        cutoff = 2.3 * m.pointing.a0
        quadrature = mean_log_excess(cutoff, m) / LN2
        assert ase_series(cutoff, m, series_cfg_hi) == pytest.approx(quadrature, rel=1e-9)

    def test_invalid_cutoff(self, models):
        with pytest.raises(ValueError):
            ase_series(0.0, models["weak_gg"])

    @pytest.mark.parametrize("pointing", [True, False])
    def test_integer_order_falls_back(self, policy, pointing):
        # the singular series coefficient yields NaN, which must route to
        # quadrature rather than pass the convergence guard
        m = reference_model(SIGMA_R2_INTEGER_ORDER, pointing)
        cutoff = solve_cutoff_continuous(SnrSpec.from_db(15.0), policy, m).cutoff
        series = ase_series(cutoff, m)
        assert math.isfinite(series)
        assert series == pytest.approx(mean_log_excess(cutoff, m) / LN2, abs=1e-6)


# (sigma_R^2, jitter in m, SNR in dB, max_terms) where a guard of 1e-6
# relative let the order-2 series miss E[(ln(I/c))^+] by about 1e-6 bits;
# TestNearPoleModels::test_ase_limit holds a third such point at 30 dB
ASE_GUARD_POINTS = [
    (0.17259521095183297, 0.0034315160401470484, 9.2, 40),
    (0.34905267590425476, 0.005504951238466357, 4.1, 20),
]


@pytest.mark.parametrize("sigma_r2, jitter_m, snr_db, max_terms", ASE_GUARD_POINTS)
def test_ase_guard_holds_the_tight_oracle(policy, sigma_r2, jitter_m, snr_db, max_terms):
    m = reference_model(sigma_r2, jitter_m=jitter_m)
    sol = ase_limit(SnrSpec.from_db(snr_db), policy, m, SeriesConfig(max_terms=max_terms))
    assert sol.ase_bits == pytest.approx(log_excess_tight(sol.cutoff, m) / LN2, rel=1e-12)


class TestAseLimit:
    @pytest.mark.parametrize(
        "rb,key,ref_db",
        [(2.0, "weak_gg", 10.7), (6.0, "strong_gg", 25.4), (6.0, "weak_pe", 27.0)],
    )
    def test_reference_operating_points(self, models, policy, rb, key, ref_db):
        # at the frozen required SNR the limit must deliver the target rate
        sol = ase_limit(SnrSpec.from_db(ref_db), policy, models[key])
        assert sol.ase_bits == pytest.approx(rb, abs=0.05)

    def test_monotone_in_snr(self, models, policy):
        m = models["strong_pe"]
        vals = [
            ase_limit(SnrSpec.from_db(db), policy, m).ase_bits
            for db in np.arange(0.0, 41.0, 5.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_turbulence_ordering(self, models, policy):
        snr = SnrSpec.from_db(20.0)
        weak = ase_limit(snr, policy, models["weak_gg"]).ase_bits
        strong = ase_limit(snr, policy, models["strong_gg"]).ase_bits
        assert weak > strong

    def test_pointing_ordering(self, models, policy):
        snr = SnrSpec.from_db(20.0)
        for strength in ("weak", "strong"):
            gg = ase_limit(snr, policy, models[f"{strength}_gg"]).ase_bits
            pe = ase_limit(snr, policy, models[f"{strength}_pe"]).ase_bits
            assert pe < gg

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_cutoff_far_above_a0(self, policy, snr_db):
        # xi2 = 5401, A0 = 0.037: the series' misalignment pole (c/A0)^xi2
        # overflows above A0 and must hand the cutoff over to quadrature
        m = reference_model(15.0, jitter_m=0.001)
        sol = ase_limit(SnrSpec.from_db(snr_db), policy, m)
        assert sol.cutoff > m.pointing.a0
        assert math.isfinite(sol.ase_bits) and sol.ase_bits > 0.0
        assert sol.ase_bits == pytest.approx(mean_log_excess(sol.cutoff, m) / LN2, rel=1e-12)


class TestHighSnrAse:
    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_approaches_exact_limit(self, models, policy, key):
        m = models[key]
        snr = SnrSpec.from_db(40.0)
        exact = ase_limit(snr, policy, m).ase_bits
        assert abs(high_snr_ase(snr, policy, m) - exact) <= 0.05

    def test_slope_per_decade(self, models, policy):
        # straight line in the dB domain: log2(10) bits per 10 dB, exactly
        m = models["moderate_pe"]
        d = high_snr_ase(SnrSpec.from_db(50.0), policy, m) - high_snr_ase(
            SnrSpec.from_db(40.0), policy, m
        )
        assert d == pytest.approx(math.log2(10.0), rel=1e-12)

    def test_pointing_penalty_is_offset(self, models, policy):
        snr = SnrSpec.from_db(60.0)
        for strength in ("weak", "moderate", "strong"):
            gg = high_snr_ase(snr, policy, models[f"{strength}_gg"])
            pe = high_snr_ase(snr, policy, models[f"{strength}_pe"])
            pen = pointing_penalty(models[f"{strength}_pe"])
            assert gg - pe == pytest.approx(pen, rel=1e-12)
            assert pen > 0

    def test_penalty_requires_pointing_model(self, models):
        with pytest.raises(TypeError):
            pointing_penalty(models["weak_gg"])


class TestDiscreteScheme:
    def test_regions_partition(self):
        regions = discrete_regions(ConstellationSet(), 0.1)
        assert regions[0] == (0.0, pytest.approx(0.4), 0)
        assert regions[-1][1] == math.inf
        for (lo1, hi1, _), (lo2, _, _) in zip(regions, regions[1:]):
            assert hi1 == lo2
        sizes = [r[2] for r in regions]
        assert sizes == [0, 4, 16, 64, 256, 1024]

    def test_power_meets_target_inside_region(self, policy):
        # channel inversion keeps the instantaneous BER pinned at the target
        cutoff = 0.08
        for msize in (4, 16, 64):
            i = 1.7 * msize * cutoff
            p = discrete_power(i, msize, policy)
            assert ber_bound(msize, i * p) == pytest.approx(
                policy.target_ber, rel=1e-12
            )

    def test_power_validation(self, policy):
        assert discrete_power(0.5, 0, policy) == 0.0
        with pytest.raises(ValueError):
            discrete_power(0.5, 2, policy)
        with pytest.raises(ValueError):
            discrete_power(1.0, 5, policy)
        with pytest.raises(ValueError):
            discrete_power(0.0, 4, policy)

    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_cutoff_constraint(self, models, policy, key):
        m = models[key]
        snr = SnrSpec.from_db(15.0)
        sol = solve_cutoff_discrete(snr, policy, m)
        # verify the long-term power constraint by Monte Carlo
        rng = np.random.default_rng(99)
        draws = sample_irradiance(m, rng, size=400_000)
        regions = discrete_regions(ConstellationSet(), sol.cutoff)
        p = np.zeros_like(draws)
        for lo, hi, msize in regions[1:]:
            mask = (draws >= lo) & (draws < hi)
            p[mask] = (msize - 1.0) / (policy.k_margin * draws[mask])
        se = p.std() / math.sqrt(p.size)
        assert abs(p.mean() - snr.snr_linear) <= 5 * se

    @pytest.mark.parametrize("key", ["weak_gg", "weak_pe", "strong_pe"])
    def test_gap_to_continuous_limit(self, models, policy, key, series_cfg_hi):
        m = models[key]
        for db in (5.0, 15.0, 25.0):
            snr = SnrSpec.from_db(db)
            cont = ase_limit(snr, policy, m, series_cfg_hi).ase_bits
            disc = discrete_ase(snr, policy, m, cfg=series_cfg_hi).ase_bits
            assert 0.0 < cont - disc < 0.2

    def test_finer_ladder_closes_gap(self, models, policy, series_cfg_hi):
        m = models["weak_gg"]
        snr = SnrSpec.from_db(20.0)
        coarse = discrete_ase(
            snr, policy, m, ConstellationSet((0, 4, 64, 1024)), series_cfg_hi
        ).ase_bits
        fine = discrete_ase(snr, policy, m, cfg=series_cfg_hi).ase_bits
        assert fine > coarse

    def test_constraint_evaluates_each_boundary_once(self, models, policy, monkeypatch):
        m = models["strong_pe"]
        cset = ConstellationSet()
        cutoff = 0.05
        # the constraint as a sum over rungs, each edge evaluated on its own
        sizes = cset.sizes
        per_rung = 0.0
        for i in range(1, len(sizes)):
            v = mean_inv_above(sizes[i] * cutoff, m)
            if i + 1 < len(sizes):
                v -= mean_inv_above(sizes[i + 1] * cutoff, m)
            per_rung += (sizes[i] - 1.0) * v
        calls = []

        def counting(c, model, *names):
            calls.append((np.asarray(c), names))
            return channel._law_at(c, model, *names)

        monkeypatch.setattr(adapt, "_law_at", counting)
        val, slope, pdf = adapt._discrete_constraint(cutoff, m, cset)
        # one pass carries every boundary, for the tails and their densities
        assert len(calls) == 1
        edges, names = calls[0]
        assert names == ("inv", "pdf")
        assert len(set(edges.tolist())) == edges.size == len(sizes) - 1
        assert val == pytest.approx(per_rung, rel=1e-12, abs=1e-15)
        np.testing.assert_array_equal(pdf, channel._law_at(edges, m, "pdf")[0])
        # and the distribution function a caller carries rides on the same pass
        calls.clear()
        carried = adapt._discrete_constraint(cutoff, m, cset, "cdf")
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][0], edges)
        assert calls[0][1] == ("inv", "pdf", "cdf")
        assert carried[:2] == (val, slope)
        np.testing.assert_array_equal(carried[2], pdf)
        np.testing.assert_array_equal(np.clip(carried[3], 0.0, 1.0), composite_cdf(edges, m))

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_constraint_slope_matches_difference(self, models, key):
        # x dP/dx in x = 1/cutoff, the log-slope's numerator, against a
        # central difference of P itself
        m = models[key]
        cset = ConstellationSet()
        for cutoff in (1e-3, 1e-2, 0.1, 0.5):
            p, slope, _ = adapt._discrete_constraint(cutoff, m, cset)
            h = 1e-5
            up = adapt._discrete_constraint(cutoff / (1.0 + h), m, cset)[0]
            down = adapt._discrete_constraint(cutoff / (1.0 - h), m, cset)[0]
            assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-8, abs=0), cutoff

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_saturation_fails_fast(self, models, policy, key, monkeypatch):
        # the constraint's power stays below (M_max - 1) E[1/I], so the
        # ladder has a cutoff just below that SNR and none above it
        m = models[key]
        sat_db = 10.0 * math.log10(1023.0 * channel._mean_inv_irradiance(m) / policy.k_margin)
        below = discrete_ase(SnrSpec.from_db(sat_db - 0.5), policy, m).ase_bits
        assert math.isfinite(below) and 9.9 < below < 10.0
        calls = []

        def counting(threshold, model):
            calls.append(threshold)
            return mean_inv_above(threshold, model)

        monkeypatch.setattr(adapt, "mean_inv_above", counting)
        with pytest.raises(SolverBracketError, match=f"{sat_db:.2f} dB"):
            solve_cutoff_discrete(SnrSpec.from_db(sat_db + 0.5), policy, m)
        assert calls == []

    def test_strong_pointing_does_not_underflow(self, policy):
        # a0^xi2 underflows to 0.0 here (xi2 in the hundreds)
        m = reference_model(12.0, jitter_m=0.003)
        snr = SnrSpec.from_db(15.0)
        disc = discrete_ase(snr, policy, m).ase_bits
        assert math.isfinite(disc)
        assert 0.0 <= disc <= ase_limit(snr, policy, m).ase_bits


def counting_quad(monkeypatch):
    """Count the calls of channel.quad from here on."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(channel, "quad", counting)
    return calls


class TestRoutes:
    def test_sweep_makes_no_quadrature(self, models, policy, monkeypatch):
        # the cutoff solves, the ladder, its distribution and the ASE run
        # on the series and the tail rule
        calls = counting_quad(monkeypatch)
        for m in models.values():
            for db in range(0, 31, 5):
                snr = SnrSpec.from_db(db)
                ase_limit(snr, policy, m)
                discrete_ase(snr, policy, m)
        assert calls == []

    @pytest.mark.parametrize("cfg,alone", [(None, 1), (SeriesConfig(max_terms=40), 84)])
    def test_sweep_carries_each_last_functional(self, models, policy, monkeypatch, cfg, alone):
        # with the default series settings, the ASE functional and the
        # ladder's distribution ride on the pass that the steps before
        # predict is the last, so 1 of the 84 solves needs a pass of its
        # own (4 when a confirming pass carried them); with other
        # settings every solve does
        calls = []

        def counting(c, m, *names, **kwargs):
            calls.append(names)
            return channel._law_at(c, m, *names, **kwargs)

        monkeypatch.setattr(adapt, "_law_at", counting)
        for m in models.values():
            for db in range(0, 31, 5):
                snr = SnrSpec.from_db(db)
                ase_limit(snr, policy, m, cfg)
                discrete_ase(snr, policy, m, cfg=cfg)
        assert sum(names in {("log",), ("cdf",)} for names in calls) == alone

    def test_sweep_makes_no_brentq_call(self, models, policy, monkeypatch):
        # both cutoff solves run Newton from their proved starts
        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(adapt, "brentq", refuse)
        for m in models.values():
            for db in range(0, 31, 5):
                snr = SnrSpec.from_db(db)
                ase_limit(snr, policy, m)
                discrete_ase(snr, policy, m)


class TestSweepPasses:
    @pytest.mark.parametrize("cfg", [None, SeriesConfig(max_terms=40)])
    def test_carried_ases_match_their_own_passes(self, models, policy, cfg):
        # the ASE functional and the ladder's distribution, carried from
        # the solves' last pass to the cutoff returned by their slope,
        # match a separate pass there within 1e-12 bits: the carry's
        # remainder, half the second derivative times the last step
        # squared, is below 1e-14 at the stop, and the rest is the two
        # evaluations' rounding (worst 1.0e-13 continuous, 7.3e-14
        # discrete); with other series settings each takes that pass,
        # the same bits.  The solve itself is the one the cutoff gives.
        tol = 0.0 if cfg else 1e-12
        cset = ConstellationSet()
        for m in models.values():
            for db in range(-10, 41, 2):
                snr = SnrSpec.from_db(db)
                sol = solve_cutoff_continuous(snr, policy, m)
                limit = ase_limit(snr, policy, m, cfg)
                own = max(ase_series(sol.cutoff, m, cfg), 0.0)
                assert replace(limit, ase_bits=0.0) == replace(sol, ase_bits=0.0)
                assert limit.ase_bits == pytest.approx(own, rel=0, abs=tol)
                try:
                    sol = solve_cutoff_discrete(snr, policy, m, cset)
                except SolverBracketError:
                    with pytest.raises(SolverBracketError):
                        discrete_ase(snr, policy, m, cset, cfg)
                    continue
                survival = 1.0 - composite_cdf(cset.bounds(sol.cutoff), m, cfg)
                disc = discrete_ase(snr, policy, m, cset, cfg)
                assert replace(disc, ase_bits=0.0) == replace(sol, ase_bits=0.0)
                own = float(np.diff(cset.bits) @ survival)
                assert disc.ase_bits == pytest.approx(own, rel=0, abs=tol)

    def test_sweep_square_work_budget(self, models, policy, monkeypatch):
        # one sweep square, the six models at 0 to 30 dB in steps of 6: at
        # most 1,050 gamma-gamma density evaluations and 6.6 passes over
        # the law a row (2,696 and 10.5 before the tail rule's node cap and
        # the carried functionals, 1,711 before its narrow layers skipped
        # the nodes past their cap, 1,352 and 8.6 with a confirming pass
        # ending each solve), the same on every run
        counts = {"passes": 0, "densities": 0}
        law_at, ln_pdf = channel._law_at, channel._gg_ln_pdf

        def counting_law(*args, **kwargs):
            counts["passes"] += 1
            return law_at(*args, **kwargs)

        def counting_pdf(x, t):
            counts["densities"] += np.size(x)
            return ln_pdf(x, t)

        monkeypatch.setattr(adapt, "_law_at", counting_law)
        monkeypatch.setattr(channel, "_law_at", counting_law)
        monkeypatch.setattr(channel, "_gg_ln_pdf", counting_pdf)
        runs = []
        for _ in range(2):
            counts.update(passes=0, densities=0)
            for m in models.values():
                for db in range(0, 31, 6):
                    snr = SnrSpec.from_db(db)
                    ase_limit(snr, policy, m)
                    discrete_ase(snr, policy, m)
            runs.append(dict(counts))
        rows = len(models) * 6
        assert runs[0] == runs[1]
        assert runs[0]["densities"] <= 1050 * rows
        assert runs[0]["passes"] <= 6.6 * rows


class TestNearPoleModels:
    """xi2 - beta = 3 + 4e-16 and 8: the series table is cut at the pole row."""

    @pytest.fixture(params=NEAR_POLE_JITTER_M)
    def model(self, request):
        return reference_model(1.0, jitter_m=request.param)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
    def test_ase_limit(self, policy, model, snr_db):
        sol = ase_limit(SnrSpec.from_db(snr_db), policy, model)
        expect = log_excess_tight(sol.cutoff, model) / LN2
        assert sol.ase_bits == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
    def test_discrete_ase(self, policy, model, snr_db):
        sol = discrete_ase(SnrSpec.from_db(snr_db), policy, model)
        sizes = ConstellationSet().sizes
        cdf = [1.0 - tail_tight(s * sol.cutoff, model) for s in sizes[1:]] + [1.0]
        bits = sum(math.log2(sizes[i]) * (cdf[i] - cdf[i - 1]) for i in range(1, len(sizes)))
        assert sol.ase_bits == pytest.approx(bits, rel=1e-12)


class TestCutoffBrackets:
    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_bounds_hold_below_saturation(self, models, policy, key):
        # the closed-form brackets the cutoff and fixed-rate solves start from
        m = models[key]
        inv_mean = channel._mean_inv_irradiance(m)
        sat_db = 10.0 * math.log10(1023.0 * inv_mean / policy.k_margin)
        cset = ConstellationSet()
        for db in [-10.0, 0.0, 10.0, 20.0, 30.0, sat_db - 0.5]:
            if db > sat_db - 0.5:
                continue
            snr = SnrSpec.from_db(db)
            t = policy.k_margin * snr.snr_linear
            assert mean_excess_inv(1.0 / (t + inv_mean), m) >= t
            assert mean_excess_inv(1.0 / t, m) <= t
            assert adapt._discrete_constraint(1.0 / t, m, cset)[0] <= t
        mean = moment(1, m)
        for s in (0.1, 1.0, 10.0, 100.0, 1000.0):
            assert math.exp(-s * mean) <= mean_exp_neg(s, m) <= inv_mean / s

    def test_each_point_evaluated_once(self, models, policy, monkeypatch):
        calls = []

        def counting(c, *args, **kwargs):
            calls.append((tuple(np.asarray(c).tolist()), args[1:]))
            return channel._law_at(c, *args, **kwargs)

        monkeypatch.setattr(adapt, "_law_at", counting)
        total = 0
        for m in models.values():
            for db in range(0, 31, 5):
                snr = SnrSpec.from_db(db)
                for solve in (solve_cutoff_continuous, solve_cutoff_discrete):
                    calls.clear()
                    sol = solve(snr, policy, m)
                    points = [c for c, _ in calls]
                    assert len(set(points)) == len(points) == sol.iterations
                    total += len(calls)
                # the ASEs make the same solves; the functional each needs
                # next is read once: on the last pass, or alone at the
                # cutoff returned
                for run, last in ((ase_limit, "log"), (discrete_ase, "cdf")):
                    calls.clear()
                    sol = run(snr, policy, m)
                    points = [c for c, names in calls if names != (last,)]
                    assert len(set(points)) == len(points) == sol.iterations
                    assert last in calls[-1][1]
                    alone = [c for c, names in calls if names == (last,)]
                    found = ConstellationSet().bounds(sol.cutoff) if last == "cdf" else [sol.cutoff]
                    assert alone in ([], [tuple(found)])
        assert total <= 450

    def test_skipped_pass_would_have_stopped(self, models, policy, monkeypatch):
        # the pass each solve no longer makes at the point it returns
        # would have stopped it by the old rule: continuous h - t at most
        # 1e-14 x (1 - F) plus 1e-13 t, h's own rounding (strong_pe at
        # 11 dB reads 1.4e-13 against 6.4e-14, and the old solve's last
        # pass there read -6.8e-14; the series guard allows 1e-12), a
        # discrete Newton step at most 1e-12 x (the old bracket stop left
        # up to 8.0e-13), and an adaptive SNR within 1e-9 dB of that
        # pass's own
        cset = ConstellationSet()
        steps = cset.spend[1:] - cset.spend[:-1]
        for m in models.values():
            sat = cset.spend[-1] * channel._mean_inv_irradiance(m)
            for db in range(-10, 41):
                snr = SnrSpec.from_db(db)
                t = policy.k_margin * snr.snr_linear
                c = solve_cutoff_continuous(snr, policy, m).cutoff
                sf, inv = channel._law_at(np.array([c]), m, "sf", "inv")[:, 0]
                assert sf / c - inv - t <= 1e-14 * sf / c + 1e-13 * t, (m, db)
                if t >= sat:
                    continue
                c = solve_cutoff_discrete(snr, policy, m, cset).cutoff
                inv, pdf = channel._law_at(cset.bounds(c), m, "inv", "pdf")
                p, slope = steps @ inv, steps @ pdf
                assert abs(math.expm1(math.log(t / p) * p / slope)) <= 1e-12, (m, db)
        passes = []

        def recording(c, *args, **kwargs):
            out = channel._law_at(c, *args, **kwargs)
            passes.append((float(c[0]), out[:, 0].tolist()))
            return out

        for m in models.values():
            for rb in np.arange(1.0, 12.5, 0.5):
                monkeypatch.setattr(adapt, "_law_at", recording)
                snr = adaptive_required_snr(rb, policy, m)
                monkeypatch.undo()
                c, (nats, sf, inv) = passes[-1]
                c *= math.exp(max((nats - rb * LN2) / sf, 0.0))
                sf, inv = channel._law_at(np.array([c]), m, "sf", "inv")[:, 0]
                one_more = SnrSpec.from_linear((sf / c - inv) / policy.k_margin)
                assert snr.snr_db == pytest.approx(one_more.snr_db, rel=0, abs=1e-9), (m, rb)

    def test_newton_evaluation_counts(self, models, policy):
        # the six reference models from -10 to 40 dB: each solve within 12
        # evaluations, and the totals well below the bracketing solves'
        # (1,195 continuous and 1,385 discrete) and the confirming-pass
        # Newton solves' (678 and 689; now 554 and 524)
        counts = {solve_cutoff_continuous: [], solve_cutoff_discrete: []}
        for m in models.values():
            sat = 1023.0 * channel._mean_inv_irradiance(m)
            for db in range(-10, 41, 2):
                snr = SnrSpec.from_db(db)
                for solve, n in counts.items():
                    if solve is solve_cutoff_discrete and policy.k_margin * snr.snr_linear >= sat:
                        continue
                    n.append(solve(snr, policy, m).iterations)
        assert max(map(max, counts.values())) <= 12
        assert sum(counts[solve_cutoff_continuous]) <= 560
        assert sum(counts[solve_cutoff_discrete]) <= 530

    @pytest.mark.parametrize(
        "solve,ratio,cause",
        [
            (solve_cutoff_continuous, 2.0, "did not converge"),
            (solve_cutoff_discrete, 2.0, "did not converge"),
            (solve_cutoff_discrete, 0.5, "no upper bracket"),
        ],
    )
    def test_newton_cap_names_its_cause(self, models, policy, monkeypatch, solve, ratio, cause):
        # on a law where each Newton step moves x = 1/cutoff by 0.1%, the
        # solve uses up its 200 evaluations; the error says whether the
        # discrete bracket ever found an upper end
        snr = SnrSpec.from_db(10.0)
        t = policy.k_margin * snr.snr_linear
        cset = ConstellationSet()
        spent = cset.spend[-1] - cset.spend[0]

        def creeping(c, m, *names):
            x = 1.0 / c
            if names == ("sf", "inv"):
                # h = x - inv = t + 1e-3 x, with slope 1
                return np.array([np.ones_like(x), x - t - 1e-3 * x])
            # P = ratio t, with d ln P / d ln x = 1e3 |ln ratio|
            inv = np.full_like(x, ratio * t / spent)
            return np.array([inv, inv * 1e3 * abs(math.log(ratio))])

        monkeypatch.setattr(adapt, "_law_at", creeping)
        with pytest.raises(SolverBracketError, match=cause):
            solve(snr, policy, models["moderate_pe"])

    def test_pointing_just_past_xi2_one(self, policy):
        # xi2 = 1.00047: here the tail rule's 1 - F is 9e-9 off, and only
        # the series, which its own guard accepts, meets the oracle
        m = reference_model(0.6673, jitter_m=0.018824260236064424)
        assert m.xi2 == pytest.approx(1.00047, abs=1e-12)
        snr = SnrSpec.from_db(39.51)
        t = policy.k_margin * snr.snr_linear
        sol = solve_cutoff_continuous(snr, policy, m)
        x = 1.0 / sol.cutoff
        root = brentq(
            lambda y: excess_inv_tight(1.0 / y, m) - t,
            x * (1.0 - 1e-10), x * (1.0 + 1e-10), xtol=1e-300, rtol=1e-15,
        )
        assert x == pytest.approx(root, rel=1e-12)


class TestRequiredSnr:
    @pytest.mark.parametrize("rb,key,ref_fixed,ref_adapt", REQUIRED_SNR_SPOTS)
    def test_reference_values(self, models, policy, rb, key, ref_fixed, ref_adapt):
        m = models[key]
        assert fixed_required_snr(rb, policy.target_ber, m).snr_db == pytest.approx(
            ref_fixed, abs=0.2
        )
        assert adaptive_required_snr(rb, policy, m).snr_db == pytest.approx(
            ref_adapt, abs=0.2
        )

    def test_adaptation_always_saves_power(self, models, policy):
        for key in ("weak_gg", "strong_gg", "weak_pe", "strong_pe"):
            m = models[key]
            for rb in (2.0, 6.0, 10.0):
                fixed = fixed_required_snr(rb, policy.target_ber, m).snr_db
                adapt = adaptive_required_snr(rb, policy, m).snr_db
                assert adapt < fixed

    def test_savings_shrink_with_rate(self, models, policy):
        # the water-filling gain fades as the constellation grows
        m = models["weak_gg"]
        gaps = []
        for rb in (2.0, 6.0, 10.0):
            gaps.append(
                fixed_required_snr(rb, policy.target_ber, m).snr_db
                - adaptive_required_snr(rb, policy, m).snr_db
            )
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_validation(self, models, policy):
        with pytest.raises(ValueError):
            fixed_required_snr(0.0, 1e-3, models["weak_gg"])
        with pytest.raises(ValueError):
            fixed_required_snr(2.0, 0.5, models["weak_gg"])
        with pytest.raises(ValueError):
            adaptive_required_snr(-1.0, policy, models["weak_gg"])

    @pytest.mark.parametrize("key", ["weak_gg", "strong_gg", "weak_pe", "strong_pe"])
    def test_round_trip(self, models, policy, key):
        # the continuous-rate limit at the returned SNR is the requested rate
        m = models[key]
        for rb in (2.0, 6.0, 10.0):
            snr = adaptive_required_snr(rb, policy, m)
            assert ase_limit(snr, policy, m).ase_bits == pytest.approx(rb, abs=1e-8)

    def test_round_trip_through_overflowing_pole(self, policy):
        # xi2 = 5401, A0 = 0.037: the series' misalignment pole overflows
        # above A0; Newton climbs to the root from below A0/4 and stays
        # below A0, so TestAseLimit::test_cutoff_far_above_a0 covers the
        # overflow
        m = reference_model(15.0, jitter_m=0.001)
        snr = adaptive_required_snr(2.0, policy, m)
        assert ase_limit(snr, policy, m).ase_bits == pytest.approx(2.0, abs=1e-8)

    def test_table2_cells_stay_on_the_series(self, models, policy, monkeypatch):
        # the cutoff search and the SNR at its root make no quadrature, nor
        # does the fixed-rate solve
        calls = counting_quad(monkeypatch)
        for m in models.values():
            for rb in (2.0, 4.0, 6.0, 8.0, 10.0):
                adaptive_required_snr(rb, policy, m)
                fixed_required_snr(rb, policy.target_ber, m)
        assert calls == []

    def test_fixed_rate_outside_snr_window(self, models):
        # at BER 1e-12, 8 bits over strong turbulence need more than 90 dB
        with pytest.raises(SolverBracketError, match=r"outside \[-20, 90\] dB"):
            fixed_required_snr(8.0, 1e-12, models["strong_gg"])

    @pytest.mark.parametrize("rb", [1100.0, 1e-300])
    def test_fixed_rate_extremes_outside_snr_window(self, models, rb):
        # M = 2^1100 overflows a float, and 2^1e-300 - 1 rounds to 0;
        # ln(M - 1) in log form places both roots outside the window
        with pytest.raises(SolverBracketError, match=r"outside \[-20, 90\] dB"):
            fixed_required_snr(rb, 1e-3, models["weak_gg"])

    @pytest.mark.parametrize(
        "key,ber,rb",
        [
            *((k, ber, rb) for k in MODEL_KEYS
              for ber, rb in [(1e-2, 2.0), (1e-3, 4.0), (1e-6, 8.0), (1e-9, 10.0)]),
            # sigma_R^2 = 1.346 without pointing: the steps run 8.3, then
            # 1.46, and a stop read off them before Newton converges
            # quadratically would leave 2.7e-11
            ("gg_1.346", 3.3810023002884835e-09, 5.761429386677567),
            *((k, ber, 4.0) for k in ODD_POLES for ber in (1e-3, 1e-6)),
        ],
    )
    def test_fixed_root_matches_tight_oracle(self, models, key, ber, rb):
        # the oracle's own root of ln E[exp(-sI)] = ln(BER/0.2) in u = ln s,
        # s = 1.5 SNR / (M - 1): the solve's error in u, times
        # max(1, |d ln E[exp(-sI)] / du|), is at most its 2.3e-11, a tenth
        # of brentq's 1e-9 dB
        m = models.get(key) or ODD_POLES.get(key) or reference_model(1.3460540935048688, False)
        ln_spend = math.log(1.5 / (2.0**rb - 1.0))
        snr = fixed_required_snr(rb, ber, m)
        u = math.log(snr.snr_linear) + ln_spend
        ln_target = math.log(ber / 0.2)
        root = brentq(
            lambda v: math.log(laplace_tight(math.exp(v), m)) - ln_target,
            u - 1e-8, u + 1e-8, xtol=1e-14, rtol=1e-15,
        )
        val, slope = channel._laplace_at(math.exp(root), m)
        assert abs(u - root) * max(1.0, -slope / val) <= 2.3e-11
        assert snr.snr_db == pytest.approx(10.0 * (root - ln_spend) / math.log(10.0), abs=1e-10)

    @pytest.mark.parametrize("rb", [40.0, 1e-4, 1000.0])
    def test_outside_snr_window(self, models, policy, monkeypatch, rb):
        # 40 bits needs more than 80 dB, 1e-4 bits less than -30 dB; the
        # cutoff for 1000 bits lies near 1e-301, where the SNR is about
        # 3000 dB.  Each raises within 3 passes over the law: 1e-4 bits
        # as soon as an iterate bounds the root's SNR below -30 dB.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return channel._law_at(*args, **kwargs)

        monkeypatch.setattr(adapt, "_law_at", counting)
        with pytest.raises(SolverBracketError, match=r"outside \[-30, 80\] dB"):
            adaptive_required_snr(rb, policy, models["weak_gg"])
        assert len(calls) <= 3

    @pytest.mark.parametrize("rb", [2000.0, math.inf])
    def test_cutoff_start_underflows(self, models, policy, rb):
        # Newton's start exp(E[ln I] - rb ln 2) is 0.0 from about 1,075 bits
        with pytest.raises(SolverBracketError, match="underflows"):
            adaptive_required_snr(rb, policy, models["weak_gg"])

    @pytest.mark.parametrize("slope,cause", [(1.0, "did not converge"), (0.0, "no slope")])
    def test_newton_stop_names_its_cause(self, models, policy, monkeypatch, slope, cause):
        # on a law where each Newton step moves u = ln(cutoff) by 1e-3, the
        # solve uses up its 200 passes; where 1 - F is 0 it has no step
        def creeping(c, m, *names, cfg):
            return np.array([np.full_like(c, 6.0 * LN2 + 1e-3), np.full_like(c, slope), c])

        monkeypatch.setattr(adapt, "_law_at", creeping)
        with pytest.raises(SolverBracketError, match=cause):
            adaptive_required_snr(6.0, policy, models["moderate_pe"])

    @pytest.mark.parametrize(
        "key,rb", [*PUBLISHED_CELLS, *((k, rb) for k in ODD_POLES for rb in (2.0, 6.0, 10.0))]
    )
    def test_root_matches_tight_oracle(self, models, policy, monkeypatch, key, rb):
        # the SNR at the oracle's own root of E[(ln(I/c))^+] = rb ln 2; a
        # published cell takes at most 5 passes over the law
        m = models[key] if key in models else ODD_POLES[key]
        cutoffs = []

        def recording(c, *args, **kwargs):
            cutoffs.append(float(c[0]))
            return channel._law_at(c, *args, **kwargs)

        monkeypatch.setattr(adapt, "_law_at", recording)
        snr = adaptive_required_snr(rb, policy, m).snr_linear
        # Newton climbs onto the root, and its last step, at most
        # 1e-5 max(1, |ln c|) in ln c, is taken without a pass
        c = cutoffs[-1]
        root = brentq(
            lambda y: log_excess_tight(y, m) - rb * LN2,
            c * (1.0 - 1e-9), c * (1.0 + 1e-3), xtol=1e-300, rtol=8.9e-16,
        )
        assert snr == pytest.approx(excess_inv_tight(root, m) / policy.k_margin, rel=1e-12)
        assert key in ODD_POLES or len(cutoffs) <= 5

    def test_makes_no_brentq_call(self, models, policy, monkeypatch):
        # neither half of a published cell calls brentq, the fixed-rate
        # half takes at most 5 passes of the Laplace transform, and the 20
        # adaptive halves at most 42 passes over the law (54 with a
        # confirming pass)
        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        passes = []

        def counting(*args):
            passes.append(args)
            return channel._laplace_at(*args)

        law_passes = []

        def counting_law(*args, **kwargs):
            law_passes.append(args)
            return channel._law_at(*args, **kwargs)

        monkeypatch.setattr(adapt, "brentq", refuse)
        monkeypatch.setattr(adapt, "_laplace_at", counting)
        monkeypatch.setattr(adapt, "_law_at", counting_law)
        for key, rb in PUBLISHED_CELLS:
            adaptive_required_snr(rb, policy, models[key])
            passes.clear()
            fixed_required_snr(rb, policy.target_ber, models[key])
            assert len(passes) <= 5, (key, rb)
        assert len(law_passes) <= 42


class TestBerGuarantee:
    def test_instantaneous_ber_never_exceeds_target(self, models, policy):
        # the defining property of the adaptation: for every fading state
        # above the cutoff, the rate/power pair meets the BER bound
        m = models["strong_pe"]
        snr = SnrSpec.from_db(18.0)
        sol = solve_cutoff_continuous(snr, policy, m)
        rng = np.random.default_rng(5150)
        draws = sample_irradiance(m, rng, size=1000)
        for i in draws:
            if i <= sol.cutoff:
                continue
            p = optimal_power(i, sol.cutoff, policy)
            msize = constellation_size_law(i, p, policy)
            if msize < 2:
                # just above the cutoff the law allots less than one bit;
                # no real constellation is transmitted there
                continue
            assert ber_bound(msize, i * p) <= policy.target_ber * (1 + 1e-9)
