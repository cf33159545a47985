"""Command-line front end.

Subcommands: params, ase, required-snr, mc, reproduce.  Configuration is
a flat key=value file with dotted section prefixes, overridable with
repeated --set flags.  All emitted files are UTF-8 CSV with a header row.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial

from . import (
    BerPolicy,
    ChannelModel,
    ConstellationSet,
    LinkGeometry,
    McConfig,
    SeriesConfig,
    SnrSpec,
    SolverBracketError,
    adaptive_required_snr,
    ase_limit,
    audit_power_constraint,
    beam_waist_at_rx,
    discrete_ase,
    estimate_ase_mc,
    estimate_discrete_ase_mc,
    fixed_required_snr,
    gg_params,
    high_snr_ase,
    pointing_params,
    rytov_variance,
    solve_cutoff_continuous,
    solve_cutoff_discrete,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _checked(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), reporting a ValueError as a config error on key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


_DEFAULTS = {
    "geometry.length_m": 1000.0 / 3.0,
    "geometry.wavelength_m": 1550e-9,
    "geometry.tx_waist_m": 0.015,
    "geometry.rx_aperture_radius_m": 0.02,
    "geometry.cn2": 1.5e-13,
    "geometry.jitter_sigma_m": 0.01,
    "turbulence.sigma_r2": None,
    "pointing.enabled": True,
    "ber.target": 1e-3,
    "snr.start_db": 0.0,
    "snr.stop_db": 30.0,
    "snr.step_db": 1.0,
    "constellations": "0,4,16,64,256,1024",
    "series.max_terms": 20,
    "mc.n_samples": 40_000,
    "mc.seed": 12345,
    "mc.workers": 1,
    "output.path": None,
}

_BOOL_KEYS = {"pointing.enabled"}
_INT_KEYS = {"series.max_terms", "mc.n_samples", "mc.seed", "mc.workers"}
_STR_KEYS = {"constellations", "output.path"}


def _coerce(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    if key in _BOOL_KEYS:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return int(raw) if key in _INT_KEYS else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, raw = (s.strip() for s in stripped.split("=", 1))
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return values


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings after file parsing and overrides."""

    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None, overrides: list[str] | None) -> "RunConfig":
        values = dict(_DEFAULTS)
        if path:
            values.update(parse_config_file(path))
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, raw = (s.strip() for s in item.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"--set: unknown key {key!r}")
            values[key] = _coerce(key, raw)
        start, stop, step = (values[f"snr.{k}_db"] for k in ("start", "stop", "step"))
        if not 0 < step < math.inf:
            raise ConfigError("snr.step_db must be finite and > 0")
        if not -math.inf < start <= stop < math.inf:
            raise ConfigError("snr.start_db and snr.stop_db must be finite, start <= stop")
        # no sweep wants more points; building a larger grid would only run until killed
        if (stop - start) / step >= 10_000:
            raise ConfigError("snr.step_db: the SNR grid exceeds 10000 points")
        for key in ("snr.start_db", "snr.stop_db"):
            _checked(key, SnrSpec.from_db, values[key])
        return cls(raw=values)

    def __getitem__(self, key):
        return self.raw[key]

    def geometry(self, sigma_r2: float | None = None) -> LinkGeometry:
        """Configured link; cn2 is rescaled to hit a target Rytov variance."""
        values = {f.name: self[f"geometry.{f.name}"] for f in fields(LinkGeometry)}
        geom = _checked("geometry", LinkGeometry, **values)
        target = sigma_r2 if sigma_r2 is not None else self["turbulence.sigma_r2"]
        if target is None:
            return geom
        if not (math.isfinite(target) and target > 0):
            raise ConfigError(f"turbulence.sigma_r2 must be finite and > 0, got {target}")
        # the Rytov variance is linear in cn2
        return replace(geom, cn2=geom.cn2 * target / rytov_variance(geom))

    def channel_model(
        self, sigma_r2: float | None = None, pointing: bool | None = None
    ) -> ChannelModel:
        geom = self.geometry(sigma_r2)
        turb = gg_params(rytov_variance(geom))
        use_pe = self["pointing.enabled"] if pointing is None else pointing
        if not use_pe:
            return ChannelModel(turb)
        wl = beam_waist_at_rx(geom)
        args = (geom.rx_aperture_radius_m, wl, geom.jitter_sigma_m)
        return ChannelModel(turb, _checked("geometry", pointing_params, *args))

    def series(self) -> SeriesConfig:
        return _checked("series.max_terms", SeriesConfig, self["series.max_terms"])

    def policy(self) -> BerPolicy:
        return _checked("ber.target", BerPolicy, self["ber.target"])

    def constellations(self) -> ConstellationSet:
        # ConstellationSet converts each size to int
        sizes = tuple(s for s in str(self["constellations"]).split(",") if s.strip())
        return _checked("constellations", ConstellationSet, sizes)

    def mc(self, args) -> McConfig:
        workers = self["mc.workers"] if args.workers is None else args.workers
        n = self["mc.n_samples"] if args.samples is None else args.samples
        seed = self["mc.seed"] if args.seed is None else args.seed
        return _checked("mc", McConfig, n_samples=n, seed=seed, workers=workers)

    def snr_grid(self):
        start, stop, step = (self[f"snr.{k}_db"] for k in ("start", "stop", "step"))
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]


def _write_csv(path: str | None, header: list[str], rows: list[list]):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _fmt(x: float, nd: int = 4) -> str:
    return f"{x:.{nd}f}"


def _table(path: str | None, header: list[str], rows) -> int:
    """Compute and write a table of (label cells, compute) rows.

    compute() returns the row's value cells.  A row whose numerics fail
    is written as nan, with a warning that names it, and the other rows
    are still computed; the command then exits with the numeric code.
    """
    out = []
    failures = 0
    for labels, compute in rows:
        try:
            cells = compute()
        except SolverBracketError as exc:
            failures += 1
            cells = ["nan"] * (len(header) - len(labels))
            name = ", ".join(f"{k}={v}" for k, v in zip(header, labels))
            print(f"warning: {name} failed: {exc}", file=sys.stderr)
        out.append([*labels, *cells])
    _write_csv(path, header, out)
    return EXIT_NUMERIC if failures else EXIT_OK


def _cases(config: RunConfig, strengths) -> list:
    """(name, model) per (name, sigma_r2) strength, without then with pointing."""
    return [
        (f"{name}_{'pe' if pe else 'nope'}", config.channel_model(sigma_r2=sr2, pointing=pe))
        for pe in (False, True)
        for name, sr2 in strengths
    ]


def _ase_table(path, labels, rows, policy, cfg, cset=None, mc_cfg=None, approx=False) -> int:
    """ASE table of (label cells, SNR in dB, model) rows.

    Each row holds the continuous limit, then the ladder, Monte Carlo and
    high-SNR columns that are asked for.
    """
    header = [*labels, "ase_limit"]
    header += ["ase_discrete"] * (cset is not None)
    header += ["ase_mc", "ase_mc_stderr"] * (mc_cfg is not None)
    header += ["high_snr_approx"] * approx

    def cells(snr_db, model):
        snr = SnrSpec.from_db(snr_db)
        limit = ase_limit(snr, policy, model, cfg)
        row = [_fmt(limit.ase_bits)]
        if cset is not None:
            row.append(_fmt(discrete_ase(snr, policy, model, cset, cfg).ase_bits))
        if mc_cfg is not None:
            mean, se = estimate_ase_mc(snr, policy, model, mc_cfg, cutoff=limit.cutoff)
            row += [_fmt(mean), f"{se:.6f}"]
        if approx:
            row.append(_fmt(high_snr_ase(snr, policy, model)))
        return row

    return _table(path, header, ((lab, partial(cells, db, m)) for lab, db, m in rows))


_TARGETS = (2.0, 4.0, 6.0, 8.0, 10.0)


def _required_snr_table(config: RunConfig, path: str | None, targets) -> int:
    """Fixed and adaptive required SNR per target, a column pair per case."""
    policy = config.policy()
    cfg = config.series()
    cases = _cases(config, (("weak", 0.4), ("strong", 2.0)))
    header = ["rb_bits"]
    for case, _ in cases:
        header += [f"fixed_{case}_db", f"adaptive_{case}_db"]

    def cells(rb):
        row = []
        for _, model in cases:
            fixed = fixed_required_snr(rb, policy.target_ber, model)
            adapt = adaptive_required_snr(rb, policy, model, cfg)
            row += [f"{fixed.snr_db:.1f}", f"{adapt.snr_db:.1f}"]
        return row

    return _table(path, header, (([f"{rb:g}"], partial(cells, rb)) for rb in targets))


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(config: RunConfig, args) -> int:
    model = config.channel_model()
    turb, pp = model.turbulence, model.pointing
    rows = [
        ["sigma_r2", _fmt(turb.rytov_var)],
        ["alpha", _fmt(turb.alpha)],
        ["beta", _fmt(turb.beta)],
        ["k_margin", f"{config.policy().k_margin:.6f}"],
    ]
    if pp is not None:
        rows += [
            ["w_l_m", f"{pp.rx_beam_waist_m:.6f}"],
            ["a0", _fmt(pp.a0)],
            ["xi", _fmt(pp.xi)],
        ]
    rows.append(["model", model.variant.name])
    _write_csv(args.out or config["output.path"], ["quantity", "value"], rows)
    return EXIT_OK


def cmd_ase(config: RunConfig, args) -> int:
    model = config.channel_model()
    rows = [([f"{snr_db:.1f}"], snr_db, model) for snr_db in config.snr_grid()]
    columns = dict(cset=config.constellations(), mc_cfg=config.mc(args), approx=True)
    path = args.out or config["output.path"]
    return _ase_table(path, ["snr_db"], rows, config.policy(), config.series(), **columns)


def cmd_required_snr(config: RunConfig, args) -> int:
    parse = lambda: [float(t) for t in args.targets.split(",")]
    targets = _checked("--targets", parse) if args.targets else _TARGETS
    if not all(0 < t < math.inf for t in targets):
        raise ConfigError(f"--targets: each target must be finite and > 0, got {args.targets}")
    return _required_snr_table(config, args.out or config["output.path"], targets)


def cmd_mc(config: RunConfig, args) -> int:
    model = config.channel_model()
    policy = config.policy()
    cset = config.constellations()
    mc_cfg = config.mc(args)
    header = ["snr_db", "ase_mc", "ase_mc_stderr", "ase_discrete_mc", "ase_discrete_mc_stderr"]
    header += ["power_audit_z_cont", "power_audit_z_disc"]

    def cells(snr_db):
        snr = SnrSpec.from_db(snr_db)
        sol_c = solve_cutoff_continuous(snr, policy, model)
        sol_d = solve_cutoff_discrete(snr, policy, model, cset)
        mean_c, se_c = estimate_ase_mc(snr, policy, model, mc_cfg, cutoff=sol_c.cutoff)
        mean_d, se_d = estimate_discrete_ase_mc(
            snr, policy, model, cset, mc_cfg, cutoff=sol_d.cutoff
        )
        audit_c = audit_power_constraint(snr, policy, model, sol_c, mc_cfg, "continuous")
        audit_d = audit_power_constraint(
            snr, policy, model, sol_d, mc_cfg, "discrete", cset
        )
        audits = [f"{audit_c.z_score:.3f}", f"{audit_d.z_score:.3f}"]
        return [_fmt(mean_c), f"{se_c:.6f}", _fmt(mean_d), f"{se_d:.6f}", *audits]

    rows = (([f"{snr_db:.1f}"], partial(cells, snr_db)) for snr_db in config.snr_grid())
    return _table(args.out or config["output.path"], header, rows)


_SIGMA_ROWS = (("weak", 0.4), ("moderate", 1.0), ("strong", 2.0))


def cmd_reproduce(config: RunConfig, args) -> int:
    artifact = args.artifact
    out = args.out or config["output.path"] or f"{artifact}.csv"
    if artifact == "table2":
        return _required_snr_table(config, out, _TARGETS)
    if artifact == "table3":
        rows = []
        for name, sr2 in _SIGMA_ROWS:
            model = config.channel_model(sigma_r2=sr2, pointing=True)
            a0, xi = _fmt(model.pointing.a0), _fmt(model.pointing.xi)
            rows.append([name, f"{sr2:g}", _fmt(model.alpha), _fmt(model.beta), xi, a0])
        _write_csv(out, ["strength", "sigma_r2", "alpha", "beta", "xi", "a0"], rows)
        return EXIT_OK
    # the figures fix their own policy, series and Monte Carlo settings
    if artifact == "fig2":
        cases = _cases(config, _SIGMA_ROWS)
        columns = {"mc_cfg": McConfig(n_samples=40_000, seed=config["mc.seed"], workers=1)}
    else:
        sr2 = {"fig3": 0.4, "fig4": 2.0}[artifact]
        cases = [
            (tag, config.channel_model(sigma_r2=sr2, pointing=pe))
            for tag, pe in (("nope", False), ("pe", True))
        ]
        columns = {"cset": ConstellationSet()}
    rows = [([case, f"{db}"], float(db), model) for case, model in cases for db in range(31)]
    policy, cfg = BerPolicy(1e-3), SeriesConfig(max_terms=20)
    return _ase_table(out, ["config", "snr_db"], rows, policy, cfg, **columns)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso-adapt",
        description="Spectral-efficiency limits of adaptive MQAM over turbulent optical links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampling=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        if sampling:
            # read by RunConfig.mc, so only the subcommands that sample take them
            p.add_argument("--seed", type=int)
            p.add_argument("--samples", type=int)
            p.add_argument("--workers", type=int)
        return p

    common(sub.add_parser("params", help="derived channel parameters"))
    common(sub.add_parser("ase", help="spectral-efficiency sweep over the SNR grid"), True)
    p = common(sub.add_parser("required-snr", help="required SNR for target efficiencies"))
    p.add_argument("--targets", help="comma-separated bits/s/Hz targets")
    common(sub.add_parser("mc", help="Monte Carlo estimates and power audits"), True)
    p = common(sub.add_parser("reproduce", help="regenerate a published table or figure dataset"))
    p.add_argument(
        "artifact", choices=["table2", "table3", "fig2", "fig3", "fig4"]
    )
    return parser


_COMMANDS = {
    "params": cmd_params,
    "ase": cmd_ase,
    "required-snr": cmd_required_snr,
    "mc": cmd_mc,
    "reproduce": cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.config, args.overrides)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        # a value outside its domain, an overflow or a division by zero
        # met inside the numerics
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
