"""The four benchmark workloads: input generation, op execution and checks.

One op is one output row, the row a ``fso-adapt`` subcommand would print.
Every workload draws its inputs from the seed it is given, in rounds of
``round_ops`` ops.  A round spreads its ops evenly over the workload's
range, and a run measures whole rounds, so runs with different seeds do
work of the same mix and size.  The package only receives the generated
inputs, through its public API.

Checks run after the timed loop.  ``check`` returns None when an op's
output agrees with its independent route, or a message describing the
miss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import fso_adapt as fa
from fso_adapt import cli

import oracle

# published required-SNR table (dB): (model, rate) -> (fixed, adaptive)
REQSNR_TABLE = {
    ("weak_gg", 2.0): (14.0, 10.7), ("strong_gg", 2.0): (20.3, 11.2),
    ("weak_pe", 2.0): (17.6, 13.4), ("strong_pe", 2.0): (26.3, 17.0),
    ("weak_gg", 4.0): (21.0, 17.9), ("strong_gg", 4.0): (27.3, 18.9),
    ("weak_pe", 4.0): (24.6, 20.7), ("strong_pe", 4.0): (33.2, 24.8),
    ("weak_gg", 6.0): (27.2, 24.2), ("strong_gg", 6.0): (33.5, 25.4),
    ("weak_pe", 6.0): (30.9, 27.0), ("strong_pe", 6.0): (39.5, 31.2),
    ("weak_gg", 8.0): (33.3, 30.3), ("strong_gg", 8.0): (39.6, 31.5),
    ("weak_pe", 8.0): (36.9, 33.1), ("strong_pe", 8.0): (45.5, 37.3),
    ("weak_gg", 10.0): (39.3, 36.3), ("strong_gg", 10.0): (45.6, 37.5),
    ("weak_pe", 10.0): (43.0, 39.1), ("strong_pe", 10.0): (51.6, 43.4),
}
TABLE_RATES = (2.0, 4.0, 6.0, 8.0, 10.0)

# the six published channel configurations on the reference geometry
SIGMA_R2 = {"weak": 0.4, "moderate": 1.0, "strong": 2.0}
PUBLISHED = {
    f"{name}_{'pe' if pe else 'gg'}": (sr2, pe)
    for name, sr2 in SIGMA_R2.items()
    for pe in (False, True)
}
TABLE2_MODELS = ("weak_gg", "strong_gg", "weak_pe", "strong_pe")

SWEEP_LEVELS_DB = (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)  # one per configuration
MC_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
MC_SAMPLES = 1_000_000
QAM_SYMBOLS = 1_000_000
QAM_SIZES = (4, 16, 64, 256, 1024)

# the physical parameter box
BOX_SIGMA_R2 = (0.05, 15.0)
BOX_JITTER_M = (1e-3, 5e-2)
BOX_SNR_DB = (-10.0, 60.0)
# documented defect inputs: (label, sigma_r2, pointing, jitter_m, snr_db)
BOX_FIXED = (
    ("D1", 1.3490433908855886, True, 0.01, 15.0),
    ("D1", 1.3490433908855886, False, 0.01, 15.0),
    ("D2", 12.0, True, 0.003, 15.0),
)

ASE_QUAD_TOL = 1e-6  # series vs quadrature, as acceptance check 04
GAP_MAX = 0.2  # continuous - discrete on the published grid, check 07
REQSNR_TOL_DB = 0.2  # published table, check 02
MC_TOL_BITS = 0.03  # Monte Carlo vs closed form, check 03
AUDIT_Z_MAX = 5.0  # power audits, check 10
BER_SIGMAS = 4.0  # simulated BER above the bound, check 08


@dataclass
class Op:
    """One generated input row; ``model`` is filled in when the op builds one."""

    kind: str
    params: dict
    model: object = field(default=None, repr=False)


def link_model(sigma_r2: float, pointing: bool, jitter_m: float | None = None):
    """Channel model on the reference geometry, resolved through the CLI config."""
    overrides = [] if jitter_m is None else [f"geometry.jitter_sigma_m={jitter_m!r}"]
    return cli.RunConfig.load(None, overrides).channel_model(
        sigma_r2=sigma_r2, pointing=pointing
    )


def _stratified(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


class Workload:
    """Base: the CLI defaults (BER 1e-3, default ladder and series settings)."""

    name = ""
    round_ops = 1  # a run stops only after a whole round of this many ops
    trace_ops = 1  # ops in the traced run
    checks = ""  # what check() compares, for the report

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        config = cli.RunConfig.load(None, None)
        self.policy = config.policy()
        self.series = config.series()
        self.cset = config.constellations()
        self.models = {}

    def build(self):
        """Build the channel models the ops share (part of set-up)."""

    def prepare(self):
        """Untimed work that must precede the ops."""

    def ops(self):
        raise NotImplementedError

    def run(self, op: Op) -> dict:
        raise NotImplementedError

    def check(self, op: Op, out: dict):
        raise NotImplementedError

    def final_checks(self, results) -> dict:
        """Run-level checks beyond the per-op ones: name -> passed."""
        return {}

    def _ase_checks(self, op, out, gap_max):
        m = op.model
        pointing = None if m.pointing is None else (m.pointing.a0, m.pointing.xi2)
        ref = oracle.ase_at_cutoff(out["cutoff"], m.alpha, m.beta, pointing)
        if abs(out["ase_limit"] - ref) > ASE_QUAD_TOL:
            return f"ase_limit {out['ase_limit']:.9f} vs quadrature {ref:.9f}"
        gap = out["ase_limit"] - out["ase_discrete"]
        if not 0.0 <= gap <= gap_max:
            return f"continuous - discrete = {gap:.6f} outside [0, {gap_max}]"
        return None


class Sweep(Workload):
    """Rows of the published figure datasets: 6 configurations x 0-30 dB."""

    name = "sweep"
    round_ops = trace_ops = len(PUBLISHED)
    checks = (f"ase_limit vs quadrature at the cutoff within {ASE_QUAD_TOL:g} bits; "
              f"0 <= continuous - discrete <= {GAP_MAX} bits")

    def build(self):
        self.models = {key: link_model(*cfg) for key, cfg in PUBLISHED.items()}

    def ops(self):
        rng = np.random.default_rng(self.seed)
        keys = [list(self.models)[i] for i in rng.permutation(len(self.models))]
        n = len(keys)
        for r in itertools.count():
            # a Latin square: round r gives configuration j SNR level
            # (r + j) mod 6, so every round holds each configuration and each
            # level once and six rounds hold every (configuration, level) pair
            # once; the cost of a row grows threefold from 0 to 30 dB
            for j in rng.permutation(n):
                yield Op("row", {"model": keys[j], "snr_db": SWEEP_LEVELS_DB[(r + j) % n]})

    def run(self, op):
        m = op.model = self.models[op.params["model"]]
        snr = fa.SnrSpec.from_db(op.params["snr_db"])
        limit = fa.ase_limit(snr, self.policy, m, self.series)
        disc = fa.discrete_ase(snr, self.policy, m, self.cset, self.series)
        return {
            "ase_limit": limit.ase_bits,
            "ase_discrete": disc.ase_bits,
            "high_snr_approx": fa.high_snr_ase(snr, self.policy, m),
            "cutoff": limit.cutoff,
        }

    def check(self, op, out):
        return self._ase_checks(op, out, GAP_MAX)


class Invert(Workload):
    """Required-SNR table cells: fixed plus adaptive, over the Table-2 models."""

    name = "invert"
    round_ops = len(REQSNR_TABLE)  # a run measures whole tables
    trace_ops = len(TABLE2_MODELS)
    checks = f"fixed and adaptive SNR within {REQSNR_TOL_DB} dB of the published table"

    def build(self):
        self.models = {key: link_model(*PUBLISHED[key]) for key in TABLE2_MODELS}

    def ops(self):
        rng = np.random.default_rng(self.seed)
        n_models, n_rates = len(TABLE2_MODELS), len(TABLE_RATES)
        while True:
            # a Latin schedule: group r gives model j rate (r + j) mod 5, so
            # every group of four holds each model once and a round of five
            # groups holds all twenty published cells once; cells of the
            # strong models cost about 1.5 times those of the weak ones
            rates = rng.permutation(n_rates)
            for r in rng.permutation(n_rates):
                for j in rng.permutation(n_models):
                    rb = TABLE_RATES[rates[(r + j) % n_rates]]
                    yield Op("cell", {"model": TABLE2_MODELS[j], "rate_bits": rb})

    def run(self, op):
        m = op.model = self.models[op.params["model"]]
        rb = op.params["rate_bits"]
        fixed = fa.fixed_required_snr(rb, self.policy.target_ber, m)
        adaptive = fa.adaptive_required_snr(rb, self.policy, m, self.series)
        return {"fixed_db": fixed.snr_db, "adaptive_db": adaptive.snr_db}

    def check(self, op, out):
        ref_fixed, ref_adaptive = REQSNR_TABLE[op.params["model"], op.params["rate_bits"]]
        for label, got, ref in (
            ("fixed", out["fixed_db"], ref_fixed),
            ("adaptive", out["adaptive_db"], ref_adaptive),
        ):
            if abs(got - ref) > REQSNR_TOL_DB:
                return f"{label} {got:.2f} dB vs published {ref} dB"
        return None


class MonteCarlo(Workload):
    """Monte Carlo estimates, power audits and the QAM simulator."""

    name = "mc"
    round_ops = trace_ops = 4 * len(PUBLISHED) + len(QAM_SIZES)
    checks = (f"Monte Carlo within {MC_TOL_BITS} bits of the closed form; "
              f"audit |z| <= {AUDIT_Z_MAX:g}; BER <= bound + {BER_SIGMAS:g} stderr")
    MC_KINDS = ("ase", "discrete", "audit_continuous", "audit_discrete")

    def build(self):
        self.models = {key: link_model(*cfg) for key, cfg in PUBLISHED.items()}

    def prepare(self):
        """Solve both cutoffs and both closed forms once per model."""
        rng = np.random.default_rng([self.seed, 1])
        self.points = {}
        for key, m in self.models.items():
            snr = fa.SnrSpec.from_db(float(rng.choice(MC_GRID_DB)))
            sol_c = fa.solve_cutoff_continuous(snr, self.policy, m)
            sol_d = fa.solve_cutoff_discrete(snr, self.policy, m, self.cset)
            sizes = self.cset.sizes
            cdf = [fa.composite_cdf(s * sol_d.cutoff, m, self.series) for s in sizes[1:]]
            cdf.append(1.0)
            closed_d = sum(
                math.log2(sizes[i]) * (cdf[i] - cdf[i - 1]) for i in range(1, len(sizes))
            )
            self.points[key] = {
                "snr": snr,
                "sol_c": sol_c,
                "sol_d": sol_d,
                "closed_c": max(fa.adapt.ase_series(sol_c.cutoff, m, self.series), 0.0),
                "closed_d": closed_d,
            }

    def ops(self):
        rng = np.random.default_rng(self.seed)
        for rnd in itertools.count():
            items = [("mc", key, kind) for key in self.models for kind in self.MC_KINDS]
            items += [("qam", m, None) for m in QAM_SIZES]
            for i, idx in enumerate(rng.permutation(len(items))):
                group, target, kind = items[idx]
                op_seed = int(rng.integers(2**31))
                if group == "qam":
                    # an SNR where the bound lies in [1e-4, 1e-2]
                    bound = 10.0 ** rng.uniform(-4.0, -2.0)
                    gamma = (target - 1.0) / 1.5 * math.log(0.2 / bound)
                    yield Op("qam", {"m": target, "inst_snr_db": 10.0 * math.log10(gamma),
                                     "seed": op_seed})
                else:
                    workers = (1, self.nproc)[(i + rnd) % 2]
                    yield Op(kind, {"model": target, "seed": op_seed, "workers": workers})

    def run(self, op):
        p = op.params
        if op.kind == "qam":
            cfg = fa.QamSimConfig(m=p["m"], inst_snr_db=p["inst_snr_db"], n_symbols=QAM_SYMBOLS)
            ber, se = fa.simulate_qam_ber(cfg, np.random.default_rng(p["seed"]))
            return {"ber": ber, "stderr": se}
        m = op.model = self.models[p["model"]]
        pt = self.points[p["model"]]
        cfg = fa.McConfig(n_samples=MC_SAMPLES, seed=p["seed"], workers=p["workers"])
        snr = pt["snr"]
        if op.kind == "ase":
            mean, se = fa.estimate_ase_mc(snr, self.policy, m, cfg, cutoff=pt["sol_c"].cutoff)
        elif op.kind == "discrete":
            mean, se = fa.estimate_discrete_ase_mc(
                snr, self.policy, m, self.cset, cfg, cutoff=pt["sol_d"].cutoff
            )
        else:
            scheme = op.kind.split("_", 1)[1]
            sol = pt["sol_c"] if scheme == "continuous" else pt["sol_d"]
            rep = fa.audit_power_constraint(snr, self.policy, m, sol, cfg, scheme, self.cset)
            return {"z_score": rep.z_score, "empirical_power": rep.empirical_power}
        return {"mean": mean, "stderr": se}

    def check(self, op, out):
        p = op.params
        if op.kind == "qam":
            gamma = 10.0 ** (p["inst_snr_db"] / 10.0)
            bound = fa.ber_bound(p["m"], gamma)
            if out["ber"] > bound + BER_SIGMAS * out["stderr"]:
                return f"BER {out['ber']:.3e} above bound {bound:.3e}"
            return None
        if op.kind in ("ase", "discrete"):
            closed = self.points[p["model"]]["closed_c" if op.kind == "ase" else "closed_d"]
            if abs(out["mean"] - closed) > MC_TOL_BITS:
                return f"Monte Carlo {out['mean']:.4f} vs closed form {closed:.4f}"
            return None
        if abs(out["z_score"]) > AUDIT_Z_MAX:
            return f"power audit z = {out['z_score']:.2f}"
        return None

    def final_checks(self, results):
        """Repeat the first Monte Carlo op: the output must be bit-identical."""
        first = next((r for r in results if r.op.kind != "qam" and r.out), None)
        if first is None:
            return {}
        again = self.run(Op(first.op.kind, first.op.params))
        same = all(
            np.float64(again[k]).tobytes() == np.float64(v).tobytes()
            for k, v in first.out.items()
        )
        return {"mc_bit_identical_repeat": same}


class Box(Workload):
    """A fresh channel per op, drawn from the physical parameter box."""

    name = "box"
    trace_ops = len(BOX_FIXED) + 4
    checks = (f"ase_limit vs quadrature at the cutoff within {ASE_QUAD_TOL:g} bits; "
              "discrete <= continuous")

    def ops(self):
        for label, sr2, pe, jitter, db in BOX_FIXED:
            yield Op("row", {"label": label, "sigma_r2": sr2, "pointing": pe,
                             "jitter_m": jitter, "snr_db": db})
        rng = np.random.default_rng(self.seed)
        n = 4
        while True:
            # a Latin hypercube block: each dimension hits each quarter once
            u_sr2, u_jit, u_snr = (_stratified(rng, n) for _ in range(3))
            pointing = rng.permutation([True, False] * (n // 2))
            for i in range(n):
                yield Op("row", {
                    "label": "box",
                    "sigma_r2": _log_uniform(BOX_SIGMA_R2, u_sr2[i]),
                    "pointing": bool(pointing[i]),
                    "jitter_m": _log_uniform(BOX_JITTER_M, u_jit[i]),
                    "snr_db": BOX_SNR_DB[0] + (BOX_SNR_DB[1] - BOX_SNR_DB[0]) * u_snr[i],
                })

    def run(self, op):
        p = op.params
        m = op.model = link_model(p["sigma_r2"], p["pointing"], p["jitter_m"])
        snr = fa.SnrSpec.from_db(p["snr_db"])
        limit = fa.ase_limit(snr, self.policy, m, self.series)
        disc = fa.discrete_ase(snr, self.policy, m, self.cset, self.series)
        return {"ase_limit": limit.ase_bits, "ase_discrete": disc.ase_bits,
                "cutoff": limit.cutoff}

    def check(self, op, out):
        # off the published grid only discrete <= continuous is claimed
        return self._ase_checks(op, out, math.inf)


def _log_uniform(bounds, u):
    lo, hi = bounds
    return float(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u))


WORKLOADS = {w.name: w for w in (Sweep, Invert, MonteCarlo, Box)}
