"""Tests of the benchmark harness itself (not of the package).

Run with:  python3 -m pytest bench/tests -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fso_adapt as fa  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from scipy.integrate import quad as scipy_quad  # noqa: E402


def _wrapped_bindings():
    """(namespace, attribute) of every package binding that is a bench wrapper."""
    found = []
    for ns in [fa, *(getattr(fa, n) for n in spans.NAMESPACES), fa.cli.RunConfig]:
        for key, value in vars(ns).items():
            if getattr(value, spans.MARK, False):
                found.append((getattr(ns, "__name__", ns), key))
    return found


def _cheap_sweep_op(sweep):
    op = next(op for op in sweep.ops() if op.params["snr_db"] <= 5.0)
    op.params["snr_db"] = 0.0
    return op


@pytest.fixture(scope="module")
def sweep():
    w = workloads.Sweep(seed=3, nproc=1)
    w.build()
    return w


# ---------------------------------------------------------------------------
# span arithmetic and the percentile rule


def test_self_time_subtracts_children_and_leaf_time():
    # (id, name, start, end, parent, op)
    recorded = [
        (2, "grandchild", 2.0, 3.0, 1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (3, "b", 5.0, 6.0, 0, 0),
        (0, "root", 0.0, 10.0, None, 0),
    ]
    selfs = spans.self_times(recorded, {0: 0.5})
    assert selfs == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0 - 0.5)


@pytest.mark.parametrize(
    "n, k, pct",
    [(100, 89, 90.0), (21, 10, 100 * 11 / 21), (11, 0, 100 / 11), (5, 0, 20.0), (1, 0, 100.0)],
)
def test_tail_rank_leaves_ten_ops_beyond(n, k, pct):
    got_k, got_pct = run.tail_rank(n)
    assert (got_k, got_pct) == (k, pytest.approx(pct))
    assert n - 1 - got_k == min(10, n - 1)


def test_failed_op_misses_every_latency_target():
    ok = [run.Result(None, {}, None, 0.001 * (i + 1)) for i in range(20)]
    bad = run.Result(None, None, ZeroDivisionError(), 0.0, category="untyped")
    lat = run.latency_metrics([*ok, bad])
    assert lat["n"] == 21
    assert lat["tail"] == pytest.approx(11.0)  # sorted index 10 of 1..20 ms, inf
    assert math.isinf(run.latency_metrics([bad, bad, ok[0]])["p50"])


# ---------------------------------------------------------------------------
# failure accounting


class _Scripted(workloads.Workload):
    """Ops that each fail in one category."""

    def ops(self):
        for kind in ("typed", "untyped", "nan", "miss", "pass"):
            yield workloads.Op(kind, {})

    def run(self, op):
        if op.kind == "typed":
            raise fa.SolverBracketError("no bracket")
        if op.kind == "untyped":
            return {"x": 1.0 / 0.0}
        return {"x": math.nan if op.kind == "nan" else 1.0}

    def check(self, op, out):
        return "off by a mile" if op.kind == "miss" else None


def test_failures_are_counted_by_category():
    w = _Scripted(seed=0, nproc=1)
    results = [run.run_op(w, op) for op in w.ops()]
    run.classify(w, results)
    assert [r.category for r in results] == ["typed", "untyped", "nan", "tolerance", None]
    assert run.failure_counts(results) == {"nan": 1, "typed": 1, "untyped": 1, "tolerance": 1}


def test_importtime_parse():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        340 |   scipy.integrate._quadpack\n"
        "import time:      1000 |     440000 | scipy.integrate\n"
    )
    assert run._importtime_of(log, "scipy.integrate") == pytest.approx(0.44)
    assert run._importtime_of(log, "numpy") == 0.0


# ---------------------------------------------------------------------------
# inputs come from the seed


def test_ops_repeat_for_a_seed_and_differ_across_seeds(sweep):
    def first(w, n):
        return [op.params for _, op in zip(range(n), w.ops())]

    again = workloads.Sweep(seed=3, nproc=1)
    again.build()
    other = workloads.Sweep(seed=4, nproc=1)
    other.build()
    assert first(sweep, 12) == first(again, 12)
    assert first(sweep, 12) != first(other, 12)


def test_sweep_rounds_hold_each_configuration_and_level_once(sweep):
    n = sweep.round_ops
    rows = [(op.params["model"], op.params["snr_db"]) for _, op in zip(range(6 * n), sweep.ops())]
    for r in range(6):
        models, levels = zip(*rows[r * n:(r + 1) * n])
        assert sorted(models) == sorted(workloads.PUBLISHED)
        assert sorted(levels) == list(workloads.SWEEP_LEVELS_DB)
    assert sorted(rows) == sorted(
        (m, db) for m in workloads.PUBLISHED for db in workloads.SWEEP_LEVELS_DB
    )


class _Counting(workloads.Workload):
    """Ops that take no time, in rounds of three."""

    round_ops = 3

    def ops(self):
        while True:
            yield workloads.Op("noop", {})

    def run(self, op):
        return {}


def test_timed_loop_stops_on_a_round_boundary():
    results, _ = run.run_for(_Counting(seed=1, nproc=1), 0.0)
    assert len(results) == 3


def test_invert_round_covers_the_published_table_once():
    w = workloads.Invert(seed=7, nproc=1)
    assert w.round_ops == 20
    cells = [(op.params["model"], op.params["rate_bits"]) for _, op in zip(range(20), w.ops())]
    assert sorted(cells) == sorted(workloads.REQSNR_TABLE)
    for b in range(5):
        assert sorted(m for m, _ in cells[4 * b: 4 * b + 4]) == sorted(workloads.TABLE2_MODELS)


def test_box_starts_with_the_documented_defects_and_stays_in_the_box():
    ops = [op.params for _, op in zip(range(3 + 40), workloads.Box(seed=5, nproc=1).ops())]
    assert [p["label"] for p in ops[:3]] == ["D1", "D1", "D2"]
    for p in ops[3:]:
        assert workloads.BOX_SIGMA_R2[0] <= p["sigma_r2"] <= workloads.BOX_SIGMA_R2[1]
        assert workloads.BOX_JITTER_M[0] <= p["jitter_m"] <= workloads.BOX_JITTER_M[1]
        assert workloads.BOX_SNR_DB[0] <= p["snr_db"] <= workloads.BOX_SNR_DB[1]
    # one SNR per quarter of the range in every block of four
    for b in range(10):
        snrs = sorted(p["snr_db"] for p in ops[3 + 4 * b: 7 + 4 * b])
        quarters = [int((s + 10.0) // 17.5) for s in snrs]
        assert quarters == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# tracing installs wrappers only in the traced run


class _Inspecting(workloads.Sweep):
    """A sweep whose op records which bindings are wrapped while it runs."""

    seen = None

    def run(self, op):
        type(self).seen = _wrapped_bindings()
        return super().run(op)


def test_untraced_run_installs_no_wrapper(sweep):
    w = _Inspecting(seed=3, nproc=1)
    w.models = sweep.models
    w.ops = lambda: iter([_cheap_sweep_op(sweep)])
    results, _ = run.run_for(w, 0.0)
    assert len(results) == 1 and results[0].err is None
    assert _Inspecting.seen == []
    assert fa.channel.quad is scipy_quad


def test_traced_op_patches_every_namespace(sweep):
    op = _cheap_sweep_op(sweep)
    rec = spans.Recorder(fa)
    rec.install()
    try:
        patched = set(rec.patched_bindings())
        # names bound with ``from ... import`` are patched where they were bound
        for binding in [
            ("fso_adapt.adapt", "mean_inv_above"),
            ("fso_adapt.adapt", "brentq"),
            ("fso_adapt.adapt", "digamma"),
            ("fso_adapt.adapt", "ln_gamma"),
            ("fso_adapt.channel", "quad"),
            ("fso_adapt.channel", "ln_gamma"),
            ("fso_adapt.mc", "solve_cutoff_discrete"),
            ("fso_adapt.mc", "sample_irradiance"),
            ("fso_adapt.cli", "ase_limit"),
            ("fso_adapt", "ase_limit"),
        ]:
            assert binding in patched
        rec.op_id = 0
        result = run.run_op(sweep, op)
        m = sweep.models["weak_pe"]
        cfg = fa.McConfig(n_samples=1_000, seed=1, workers=2)
        fa.estimate_ase_mc(fa.SnrSpec.from_db(0.0), sweep.policy, m, cfg, cutoff=0.5)
        rec.op_id = None
    finally:
        rec.uninstall()
    assert result.err is None
    assert _wrapped_bindings() == []
    layers = rec.layer_metrics()
    for key in (
        "channel.mean_inv_above.calls",
        "channel.mean_excess_inv.calls",
        "channel.composite_cdf.calls",
        "channel.quad.calls",
        "channel.quad.evals",
        "adapt.solve_cutoff_continuous.calls",
        "adapt.solve_cutoff_discrete.calls",
        "adapt.ase_series.calls",
        "adapt.brentq.calls",
        "adapt.brentq.fevals",
        "specfun.ln_gamma.calls",
    ):
        assert layers[key] > 0, key
    assert layers["channel.quad.evals"] > layers["channel.quad.calls"]
    assert layers["adapt.solve_cutoff_discrete.fevals"] % 9 == 0  # 9 per constraint
    assert layers["channel.sample_irradiance.draws"] == 1_000
    assert rec.counts["mc.estimate_ase_mc.calls"] == 1
    assert all(s[5] == 0 for s in rec.spans)
    # the recorder holds no spans from calls made outside an op
    n = len(rec.spans)
    fa.ase_limit(fa.SnrSpec.from_db(0.0), sweep.policy, m)
    assert len(rec.spans) == n


# ---------------------------------------------------------------------------
# the command refuses to run without the package sources


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
