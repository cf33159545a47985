import math

import numpy as np
import pytest
from scipy.integrate import quad

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
    mean_excess_inv,
    mean_exp_neg,
    mean_inv_above,
    mean_log_excess,
    moment,
    sample_irradiance,
)

from conftest import reference_model


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


class TestConstellationSet:
    def test_default_ladder(self):
        assert ConstellationSet().sizes == (0, 4, 16, 64, 256, 1024)

    @pytest.mark.parametrize(
        "sizes",
        [(4, 16), (0,), (0, 16, 4), (0, 4, 8), (0, 4, 4)],
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
        snr = SnrSpec.from_db(15.0)
        cset = ConstellationSet()
        cutoff = 0.05
        # the constraint as a sum over rungs, each edge evaluated on its own
        sizes = cset.sizes
        per_rung = -policy.k_margin * snr.snr_linear
        for i in range(1, len(sizes)):
            v = mean_inv_above(sizes[i] * cutoff, m)
            if i + 1 < len(sizes):
                v -= mean_inv_above(sizes[i + 1] * cutoff, m)
            per_rung += (sizes[i] - 1.0) * v
        calls = []

        def counting(threshold, model):
            calls.append(np.asarray(threshold))
            return mean_inv_above(threshold, model)

        monkeypatch.setattr(adapt, "mean_inv_above", counting)
        val = adapt._discrete_constraint(cutoff, snr, policy, m, cset)
        # one call carries every boundary
        assert len(calls) == 1
        assert len(set(calls[0].tolist())) == calls[0].size == len(sizes) - 1
        assert val == pytest.approx(per_rung, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_saturation_fails_fast(self, models, policy, key, monkeypatch):
        # the constraint's power stays below (M_max - 1) E[1/I], so the
        # ladder has a cutoff just below that SNR and none above it
        m = models[key]
        sat_db = 10.0 * math.log10(1023.0 * adapt._mean_inv_irradiance(m) / policy.k_margin)
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


class TestRoutes:
    def test_sweep_quadrature_only_in_log_excess_fallback(self, models, policy, monkeypatch):
        # the cutoff solves, the ladder and its distribution run on the
        # series and the tail rule; quadrature is left to the log-excess
        # fallback of ase_series above A0
        depth = [0]
        inside = []

        def log_excess(cutoff, model):
            depth[0] += 1
            try:
                return mean_log_excess(cutoff, model)
            finally:
                depth[0] -= 1

        def counting_quad(*args, **kwargs):
            inside.append(depth[0] > 0)
            return quad(*args, **kwargs)

        monkeypatch.setattr(adapt, "mean_log_excess", log_excess)
        monkeypatch.setattr(channel, "quad", counting_quad)
        for m in models.values():
            for db in range(0, 31, 5):
                snr = SnrSpec.from_db(db)
                ase_limit(snr, policy, m)
                discrete_ase(snr, policy, m)
        assert all(inside), f"{inside.count(False)} quad calls outside mean_log_excess"


class TestCutoffBrackets:
    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_bounds_hold_below_saturation(self, models, policy, key):
        # the closed-form brackets the cutoff and fixed-rate solves start from
        m = models[key]
        inv_mean = adapt._mean_inv_irradiance(m)
        sat_db = 10.0 * math.log10(1023.0 * inv_mean / policy.k_margin)
        cset = ConstellationSet()
        for db in [-10.0, 0.0, 10.0, 20.0, 30.0, sat_db - 0.5]:
            if db > sat_db - 0.5:
                continue
            snr = SnrSpec.from_db(db)
            t = policy.k_margin * snr.snr_linear
            assert mean_excess_inv(1.0 / (t + inv_mean), m) >= t
            assert mean_excess_inv(1.0 / t, m) <= t
            assert adapt._discrete_constraint(1.0 / t, snr, policy, m, cset) <= 0.0
        mean = moment(1, m)
        for s in (0.1, 1.0, 10.0, 100.0, 1000.0):
            assert math.exp(-s * mean) <= mean_exp_neg(s, m) <= inv_mean / s

    def test_each_point_evaluated_once(self, models, policy, monkeypatch):
        calls = []

        def counting(fn):
            def wrapped(c, *args):
                calls.append(c)
                return fn(c, *args)

            return wrapped

        for name in ("_discrete_constraint", "mean_excess_inv"):
            monkeypatch.setattr(adapt, name, counting(getattr(adapt, name)))
        total = 0
        for m in models.values():
            for db in range(0, 31, 5):
                snr = SnrSpec.from_db(db)
                for solve in (solve_cutoff_continuous, solve_cutoff_discrete):
                    calls.clear()
                    sol = solve(snr, policy, m)
                    assert len(set(calls)) == len(calls) == sol.iterations
                    total += len(calls)
        assert total <= 800


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
        # above A0; the cutoff search starts at A0/2 and stays below it, so
        # TestAseLimit::test_cutoff_far_above_a0 covers the overflow
        m = reference_model(15.0, jitter_m=0.001)
        snr = adaptive_required_snr(2.0, policy, m)
        assert ase_limit(snr, policy, m).ase_bits == pytest.approx(2.0, abs=1e-8)

    def test_table2_cells_stay_on_the_series(self, models, policy, monkeypatch):
        # the cutoff search starts below A0, where ase_series never falls
        # back to the quadrature of E[(ln(I/c))^+]
        calls = []

        def counting(cutoff, model):
            calls.append(cutoff)
            return mean_log_excess(cutoff, model)

        monkeypatch.setattr(adapt, "mean_log_excess", counting)
        for key in ("weak_gg", "strong_gg", "weak_pe", "strong_pe"):
            for rb in (2.0, 4.0, 6.0, 8.0, 10.0):
                adaptive_required_snr(rb, policy, models[key])
        assert calls == []

    @pytest.mark.parametrize("rb", [40.0, 1e-4, 1000.0])
    def test_outside_snr_window(self, models, policy, rb):
        # 40 bits needs more than 80 dB, 1e-4 bits less than -30 dB; the
        # cutoff for 1000 bits lies beyond the bracket search
        with pytest.raises(SolverBracketError):
            adaptive_required_snr(rb, policy, models["weak_gg"])


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
