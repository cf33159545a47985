import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fso_adapt.adapt import (
    BerPolicy,
    ConstellationSet,
    SnrSpec,
    ase_limit,
    ber_bound,
    discrete_ase,
    solve_cutoff_continuous,
    solve_cutoff_discrete,
)
from fso_adapt.mc import (
    AuditReport,
    McConfig,
    QamSimConfig,
    audit_power_constraint,
    estimate_ase_mc,
    estimate_discrete_ase_mc,
    simulate_qam_ber,
)
from fso_adapt import channel, mc


class TestConfigs:
    def test_mc_defaults(self):
        cfg = McConfig()
        assert cfg.n_samples == 40_000 and cfg.seed == 0 and cfg.workers == 1

    def test_mc_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=10)
        with pytest.raises(ValueError):
            McConfig(workers=0)

    @pytest.mark.parametrize("bad_m", [2, 8, 32, 100, 16384])
    def test_qam_size_validation(self, bad_m):
        with pytest.raises(ValueError):
            QamSimConfig(m=bad_m, inst_snr_db=10.0, n_symbols=1000)

    @pytest.mark.parametrize("db", [math.nan, -math.inf, math.inf, 4000.0, -4000.0])
    def test_qam_snr_validation(self, db):
        with pytest.raises(ValueError) as want:
            SnrSpec.from_db(db)
        with pytest.raises(ValueError) as got:
            QamSimConfig(m=16, inst_snr_db=db, n_symbols=1000)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: McConfig(n_samples=1e5),
            lambda: McConfig(workers=2.0),
            lambda: McConfig(workers=True),
            lambda: McConfig(n_samples="40000"),
            lambda: QamSimConfig(m=16, inst_snr_db=10.0, n_symbols=1e4),
        ],
        ids=["float_samples", "float_workers", "bool_workers", "str_samples", "float_symbols"],
    )
    def test_counts_must_be_integers(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_numpy_integer_counts(self, models, policy):
        m = models["weak_gg"]
        snr = SnrSpec.from_db(10.0)
        cfg = McConfig(n_samples=np.int64(20_000), seed=3, workers=np.int32(3))
        want = estimate_ase_mc(snr, policy, m, McConfig(n_samples=20_000, seed=3, workers=3))
        assert estimate_ase_mc(snr, policy, m, cfg) == want
        qam = QamSimConfig(m=16, inst_snr_db=10.0, n_symbols=np.uint32(5_000))
        assert simulate_qam_ber(qam, np.random.default_rng(1)) == simulate_qam_ber(
            QamSimConfig(m=16, inst_snr_db=10.0, n_symbols=5_000), np.random.default_rng(1)
        )


class TestDeterminism:
    def test_bit_stable_repeat(self, models, policy):
        snr = SnrSpec.from_db(15.0)
        cfg = McConfig(n_samples=20_000, seed=7, workers=3)
        a = estimate_ase_mc(snr, policy, models["weak_pe"], cfg)
        b = estimate_ase_mc(snr, policy, models["weak_pe"], cfg)
        assert a == b

    def test_seed_changes_result(self, models, policy):
        snr = SnrSpec.from_db(15.0)
        m = models["weak_pe"]
        a = estimate_ase_mc(snr, policy, m, McConfig(n_samples=20_000, seed=1))
        b = estimate_ase_mc(snr, policy, m, McConfig(n_samples=20_000, seed=2))
        assert a[0] != b[0]

    def test_worker_split_covers_all_samples(self, models, policy):
        # uneven split across workers must still consume every sample;
        # check indirectly through the reported standard error scaling
        snr = SnrSpec.from_db(10.0)
        m = models["weak_gg"]
        _, se1 = estimate_ase_mc(snr, policy, m, McConfig(n_samples=10_000, seed=3, workers=3))
        _, se2 = estimate_ase_mc(snr, policy, m, McConfig(n_samples=40_000, seed=3, workers=3))
        assert se2 == pytest.approx(se1 / 2.0, rel=0.2)


def _sequential_mean(model, cfg, transform):
    """The estimators' mean and standard error, one stream after another."""
    total = total_sq = 0.0
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    base, extra = divmod(cfg.n_samples, cfg.workers)
    for idx, seq in enumerate(seqs):
        n = base + (1 if idx < extra else 0)
        if not n:
            continue
        rng = np.random.Generator(np.random.Philox(seq))
        a, b = model.alpha, model.beta
        i = rng.gamma(a, 1.0 / a, size=n) * rng.gamma(b, 1.0 / b, size=n)
        if model.pointing is not None:
            p = model.pointing
            i = i * (p.a0 * rng.uniform(size=n) ** (1.0 / p.xi2))
        vals = transform(i)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / cfg.n_samples
    return mean, math.sqrt(max(total_sq / cfg.n_samples - mean * mean, 0.0) / cfg.n_samples)


class TestConcurrentStreams:
    """Streams drawn on the pool give the sequential reduction bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_matches_sequential_reference(self, models, policy, monkeypatch, key, workers):
        # up to three streams each span two full blocks and end in a partial one
        block = channel._SAMPLE_BLOCK
        m = models[key]
        snr = SnrSpec.from_db(15.0)
        cfg = McConfig(n_samples=3 * (2 * block + 1) + 2, seed=17, workers=workers)
        k = policy.k_margin
        cset = ConstellationSet()
        sizes = np.array(cset.sizes, dtype=float)
        sol_c = solve_cutoff_continuous(snr, policy, m)
        sol_d = solve_cutoff_discrete(snr, policy, m, cset)
        c, d = sol_c.cutoff, sol_d.cutoff
        bits_by_region = np.concatenate(([0.0], np.log2(sizes[1:])))
        m_minus_1 = np.concatenate(([0.0], sizes[1:] - 1.0))
        transforms = []
        reduce_mean = mc._reduce_mean

        def recorded(model, cfg, transform):
            transforms.append(transform)
            return reduce_mean(model, cfg, transform)

        monkeypatch.setattr(mc, "_reduce_mean", recorded)

        def region(i):
            return np.searchsorted(sizes[1:] * d, i, side="right")

        def audit(sol, scheme):
            rep = audit_power_constraint(snr, policy, m, sol, cfg, scheme, cset)
            return rep.empirical_power, rep.std_error

        cases = [
            (
                estimate_ase_mc(snr, policy, m, cfg, cutoff=c),
                lambda i: np.maximum(np.log2(np.maximum(i, 1e-300) / c), 0.0),
            ),
            (
                estimate_discrete_ase_mc(snr, policy, m, cset, cfg, cutoff=d),
                lambda i: bits_by_region[region(i)],
            ),
            (
                audit(sol_c, "continuous"),
                lambda i: np.maximum(1.0 / c - 1.0 / np.maximum(i, 1e-300), 0.0) / k,
            ),
            (
                audit(sol_d, "discrete"),
                lambda i: m_minus_1[region(i)] / (k * np.maximum(i, 1e-300)),
            ),
        ]
        stream = channel.sample_irradiance(m, np.random.default_rng(31), size=cfg.n_samples)
        assert len(transforms) == len(cases)
        for (got, expr), transform in zip(cases, transforms):
            want = _sequential_mean(m, cfg, expr)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            # element by element, the blocks give the whole-stream expression
            vals = stream.copy()
            for start in range(0, vals.size, block):
                transform(vals[start : start + block])
            assert vals.tobytes() == expr(stream).tobytes()

    def test_concurrent_callers_share_the_capped_pool(self, models, policy):
        cpus = mc._cpus()
        m = models["weak_pe"]
        snr = SnrSpec.from_db(10.0)
        cfg = McConfig(n_samples=64_000, seed=5, workers=64)
        before = threading.active_count()
        want = estimate_ase_mc(snr, policy, m, cfg)
        assert threading.active_count() - before <= cpus
        got = []
        callers = [
            threading.Thread(target=lambda: got.append(estimate_ase_mc(snr, policy, m, cfg)))
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want] * 4
        assert threading.active_count() - before <= cpus


    def test_streams_held_at_once_are_capped_by_the_pool(self, models, policy):
        # each stream in flight holds its buffer and one block scratch
        m = models["strong_pe"]
        snr = SnrSpec.from_db(10.0)
        n = 1_280_000
        stream_bytes = 8 * n // 64
        bound = 2 * stream_bytes * min(mc._cpus(), 64) + (1 << 20)

        def peak(workers):
            cfg = McConfig(n_samples=n, seed=3, workers=workers)
            tracemalloc.start()
            try:
                estimate_ase_mc(snr, policy, m, cfg, cutoff=0.5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1) > 8 * n  # the one stream's buffer is seen
        assert peak(64) <= bound

    def test_failed_transform_leaves_no_draw_running(self, models, monkeypatch):
        lock = threading.Lock()
        counts = {"entered": 0, "running": 0}
        draw = mc.sample_irradiance

        def counted(*args, **kwargs):
            with lock:
                later = counts["entered"] > 0
                counts["entered"] += 1
                counts["running"] += 1
            try:
                if later:
                    time.sleep(0.05)  # still drawing when the first stream fails
                return draw(*args, **kwargs)
            finally:
                with lock:
                    counts["running"] -= 1

        def failing(vals):
            raise ArithmeticError("transform failed")

        monkeypatch.setattr(mc, "sample_irradiance", counted)
        cfg = McConfig(n_samples=400_000, seed=2, workers=4)
        with pytest.raises(ArithmeticError, match="transform failed"):
            mc._reduce_mean(models["strong_pe"], cfg, failing)
        # the first stream failed; those still queued or drawing are
        # cancelled or waited for before the error leaves the call
        assert counts["entered"] >= 1
        assert counts["running"] == 0


class TestContinuousAseMc:
    @pytest.mark.parametrize("key", ["weak_gg", "strong_gg", "weak_pe", "strong_pe"])
    @pytest.mark.parametrize("db", [5.0, 20.0])
    def test_matches_closed_form(self, models, policy, series_cfg_hi, key, db):
        m = models[key]
        snr = SnrSpec.from_db(db)
        closed = ase_limit(snr, policy, m, series_cfg_hi).ase_bits
        mean, se = estimate_ase_mc(snr, policy, m, McConfig(n_samples=200_000, seed=11))
        assert abs(mean - closed) <= 4 * se

    def test_explicit_cutoff_short_circuits_solver(self, models, policy):
        m = models["weak_gg"]
        snr = SnrSpec.from_db(15.0)
        cut = solve_cutoff_continuous(snr, policy, m).cutoff
        cfg = McConfig(n_samples=20_000, seed=4)
        assert estimate_ase_mc(snr, policy, m, cfg, cutoff=cut) == estimate_ase_mc(
            snr, policy, m, cfg
        )


class TestDiscreteAseMc:
    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_matches_closed_form(self, models, policy, series_cfg_hi, key):
        m = models[key]
        snr = SnrSpec.from_db(15.0)
        cset = ConstellationSet()
        closed = discrete_ase(snr, policy, m, cset, series_cfg_hi).ase_bits
        mean, se = estimate_discrete_ase_mc(
            snr, policy, m, cset, McConfig(n_samples=200_000, seed=13)
        )
        assert abs(mean - closed) <= 4 * se

    def test_single_rung_ladder(self, models, policy):
        m = models["weak_gg"]
        snr = SnrSpec.from_db(0.0)
        mean, se = estimate_discrete_ase_mc(
            snr, policy, m, ConstellationSet((0, 4)), McConfig(n_samples=20_000, seed=5)
        )
        # with a single 4-QAM rung the mean is 2 * P(I >= 4 cutoff)
        assert 0.0 < mean < 2.0

    def test_infeasible_power_budget_rejected(self, models, policy):
        # one QPSK rung cannot absorb a 15 dB average-power budget: the
        # channel-inversion power is bounded by 3 E[1/I], so no cutoff exists
        from fso_adapt.adapt import SolverBracketError, solve_cutoff_discrete

        with pytest.raises(SolverBracketError):
            solve_cutoff_discrete(
                SnrSpec.from_db(15.0), policy, models["weak_gg"], ConstellationSet((0, 4))
            )


class TestQamSimulator:
    def test_bound_holds(self):
        rng = np.random.default_rng(2)
        for m in (4, 16, 64):
            for db in (10.0, 16.0, 22.0):
                gamma = 10.0 ** (db / 10.0)
                bound = ber_bound(m, gamma)
                if bound < 1e-5:
                    continue
                ber, se = simulate_qam_ber(
                    QamSimConfig(m=m, inst_snr_db=db, n_symbols=400_000), rng
                )
                assert ber <= bound + 4 * se

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(3)
        bers = [
            simulate_qam_ber(QamSimConfig(m=16, inst_snr_db=db, n_symbols=400_000), rng)[0]
            for db in (8.0, 12.0, 16.0)
        ]
        assert bers[0] > bers[1] > bers[2] > 0

    def test_qpsk_matches_theory(self):
        # QPSK per-bit error rate is exactly Q(sqrt(snr)) on this scaling
        from scipy.stats import norm

        rng = np.random.default_rng(4)
        db = 8.0
        gamma = 10.0 ** (db / 10.0)
        expect = norm.sf(math.sqrt(gamma))
        ber, se = simulate_qam_ber(
            QamSimConfig(m=4, inst_snr_db=db, n_symbols=2_000_000), rng
        )
        assert abs(ber - expect) <= 5 * se

    def test_sixteen_qam_matches_theory(self):
        # nearest-neighbor union expression for Gray 16-QAM, exact at the
        # per-axis level: BER = (3/4) Q(d) + (1/2) Q(3d) - (1/4) Q(5d),
        # d = sqrt(snr/5)
        from scipy.stats import norm

        rng = np.random.default_rng(6)
        db = 12.0
        gamma = 10.0 ** (db / 10.0)
        d = math.sqrt(gamma / 5.0)
        expect = 0.75 * norm.sf(d) + 0.5 * norm.sf(3 * d) - 0.25 * norm.sf(5 * d)
        ber, se = simulate_qam_ber(
            QamSimConfig(m=16, inst_snr_db=db, n_symbols=2_000_000), rng
        )
        assert abs(ber - expect) <= 5 * se

    @pytest.mark.parametrize("m", [4, 64, 1024])
    @pytest.mark.parametrize("n_symbols", [1_000, mc._CHUNK + 3])
    def test_matches_out_of_place_expression(self, m, n_symbols):
        cfg = QamSimConfig(m=m, inst_snr_db=14.0, n_symbols=n_symbols)
        levels = int(round(math.sqrt(m)))
        scale = math.sqrt(1.5 / (m - 1.0))
        noise_std = math.sqrt(0.5 / 10.0**1.4)
        idx = np.arange(levels)
        gray = idx ^ (idx >> 1)
        popcount = np.array([bin(v).count("1") for v in range(64)])
        rng = np.random.default_rng(8)
        errors = 0
        remaining = n_symbols
        while remaining > 0:
            n = min(remaining, mc._CHUNK)
            remaining -= n
            for _axis in range(2):
                tx = rng.integers(0, levels, size=n)
                y = (2 * tx - (levels - 1)) * scale + noise_std * rng.standard_normal(n)
                rx = np.clip(np.rint((y / scale + (levels - 1)) / 2.0), 0, levels - 1)
                errors += int(np.sum(popcount[gray[tx] ^ gray[rx.astype(np.int64)]]))
        n_bits = n_symbols * int(round(math.log2(m)))
        ber = errors / n_bits
        want = (ber, math.sqrt(max(ber * (1.0 - ber), 0.0) / n_bits))
        assert simulate_qam_ber(cfg, np.random.default_rng(8)) == want

    def test_zero_noise_limit(self):
        rng = np.random.default_rng(7)
        ber, _ = simulate_qam_ber(
            QamSimConfig(m=64, inst_snr_db=60.0, n_symbols=100_000), rng
        )
        assert ber == 0.0


class TestMemory:
    """At its peak an op holds one float64 a draw and block-sized arrays."""

    @pytest.mark.parametrize(
        "kind", ["ase", "discrete", "audit_continuous", "audit_discrete", "qam"]
    )
    def test_peak_is_one_float64_a_draw(self, models, policy, kind):
        m = models["strong_pe"]
        snr = SnrSpec.from_db(15.0)
        cset = ConstellationSet()
        n = 1_000_000
        cfg = McConfig(n_samples=n, seed=24)
        if kind == "ase":
            cut = solve_cutoff_continuous(snr, policy, m).cutoff
            op = lambda: estimate_ase_mc(snr, policy, m, cfg, cutoff=cut)
        elif kind == "discrete":
            cut = solve_cutoff_discrete(snr, policy, m, cset).cutoff
            op = lambda: estimate_discrete_ase_mc(snr, policy, m, cset, cfg, cutoff=cut)
        elif kind == "qam":
            qam = QamSimConfig(m=1024, inst_snr_db=25.0, n_symbols=n)
            op = lambda: simulate_qam_ber(qam, np.random.default_rng(24))
        else:
            scheme = kind.split("_")[1]
            solve = solve_cutoff_continuous if scheme == "continuous" else solve_cutoff_discrete
            sol = solve(snr, policy, m)
            op = lambda: audit_power_constraint(snr, policy, m, sol, cfg, scheme, cset)
        tracemalloc.start()
        try:
            op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + (1 << 20)


class TestPowerAudit:
    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_continuous_passes(self, models, policy, key):
        m = models[key]
        snr = SnrSpec.from_db(15.0)
        sol = solve_cutoff_continuous(snr, policy, m)
        rep = audit_power_constraint(
            snr, policy, m, sol, McConfig(n_samples=200_000, seed=21)
        )
        assert isinstance(rep, AuditReport)
        assert rep.passed and abs(rep.z_score) <= 5.0
        assert rep.scheme == "continuous"

    @pytest.mark.parametrize("key", ["weak_gg", "strong_pe"])
    def test_discrete_passes(self, models, policy, key):
        m = models[key]
        snr = SnrSpec.from_db(15.0)
        sol = solve_cutoff_discrete(snr, policy, m)
        rep = audit_power_constraint(
            snr, policy, m, sol, McConfig(n_samples=200_000, seed=22), scheme="discrete"
        )
        assert rep.passed

    def test_wrong_cutoff_fails(self, models, policy):
        # sensitivity check: a mis-solved cutoff must be flagged
        from dataclasses import replace

        m = models["weak_gg"]
        snr = SnrSpec.from_db(15.0)
        sol = solve_cutoff_continuous(snr, policy, m)
        bad = replace(sol, cutoff=1.5 * sol.cutoff)
        rep = audit_power_constraint(
            snr, policy, m, bad, McConfig(n_samples=200_000, seed=23)
        )
        assert not rep.passed

    def test_unknown_scheme(self, models, policy):
        m = models["weak_gg"]
        snr = SnrSpec.from_db(15.0)
        sol = solve_cutoff_continuous(snr, policy, m)
        with pytest.raises(ValueError):
            audit_power_constraint(
                snr, policy, m, sol, McConfig(n_samples=20_000), scheme="peak"
            )
