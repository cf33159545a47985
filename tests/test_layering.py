"""The series engine stays inside channel: the modules above it import only its functionals."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fso_adapt"

# the residue series, its table, stages and guard, the series-or-rule
# router, the tail rule and its node cap, the per-model law constants, the
# rational E[1/I] and the Laplace transform's two routes and series weight
# are channel's own building blocks
ENGINE = {
    "_residue_series",
    "_series_table",
    "_series_scale",
    "_series_stops",
    "_series_sum",
    "_SERIES_ERRORS",
    "_series_accepts",
    "_series_or_rule",
    "_tail_rule",
    "_tail_nodes",
    "_law_plan",
    "_SERIES",
    "_SERIES_TOL",
    "_inv_moment",
    "_laplace_plan",
    "_laplace_series",
    "_laplace_rule",
}


def channel_imports(path: Path) -> set:
    """Every name that the module imports from .channel."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "channel"
        for alias in node.names
    }


@pytest.mark.parametrize("module", ["adapt.py", "mc.py", "cli.py"])
def test_no_series_engine_import(module):
    assert channel_imports(SRC / module) & ENGINE == set()


def test_adapt_reads_the_law_from_channel():
    # the check above sees the imports it is meant to see
    assert {"_law_at", "_laplace_at", "_mean_log_irradiance"} <= channel_imports(SRC / "adapt.py")
