"""Shared fixtures: the six reference channel configurations.

The reference link: 1000/3 m path at 1550 nm, 1.5 cm transmit waist,
2 cm receiver aperture radius, 1 cm per-axis jitter.  Turbulence strength
is swept via the structure parameter so the Rytov variance hits
0.4 (weak), 1 (moderate) and 2 (strong); each strength is used both with
and without the misalignment model.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fso_adapt import (
    BerPolicy,
    ChannelModel,
    LinkGeometry,
    SeriesConfig,
    beam_waist_at_rx,
    channel,
    gg_params,
    pointing_params,
    rytov_variance,
)

SIGMA_R2 = {"weak": 0.4, "moderate": 1.0, "strong": 2.0}

# jitters (m) that put xi2 - beta at 3 + 4e-16 and at 8 for sigma_R^2 = 1:
# the misalignment pole and the gamma-gamma pole k + beta nearly meet, and
# the series table is cut at that row
NEAR_POLE_JITTER_M = [0.008687406996372325, 0.006304675439721756]


def reference_geometry(sigma_r2: float) -> LinkGeometry:
    base = LinkGeometry(
        length_m=1000.0 / 3.0,
        wavelength_m=1550e-9,
        tx_waist_m=0.015,
        rx_aperture_radius_m=0.02,
        cn2=1e-13,
        jitter_sigma_m=0.01,
    )
    cn2 = base.cn2 * sigma_r2 / rytov_variance(base)
    return LinkGeometry(
        length_m=base.length_m,
        wavelength_m=base.wavelength_m,
        tx_waist_m=base.tx_waist_m,
        rx_aperture_radius_m=base.rx_aperture_radius_m,
        cn2=cn2,
        jitter_sigma_m=base.jitter_sigma_m,
    )


def reference_model(sigma_r2: float, pointing: bool = True, jitter_m: float = 0.01):
    """Reference-geometry channel at the given strength and jitter."""
    geom = replace(reference_geometry(sigma_r2), jitter_sigma_m=jitter_m)
    turb = gg_params(rytov_variance(geom))
    if not pointing:
        return ChannelModel(turb)
    wl = beam_waist_at_rx(geom)
    pp = pointing_params(geom.rx_aperture_radius_m, wl, geom.jitter_sigma_m)
    return ChannelModel(turb, pp)


# lo = c/A0 of the tail rule's node-cap checks; from lo = 1 on, it takes
# the 40-node rule
TAIL_LO = np.geomspace(1e-6, 1e3, 28)


def assert_tail_cap(m):
    """The tail rule's node cap holds its bound and moves no spec by more than 4 ulp.

    Each spec's terms over the full node set, in the rule's substitution,
    past the cap add at most 2^-60 of those before it; the capped rule
    matches the full one, patched in, for every spec _law_at gives it.
    """
    specs = channel._law_plan(m)[0]
    names = [n for n in specs if m.pointing is not None or n != "pdf"]
    specs = [specs[n] for n in names]
    sab = math.sqrt(m.alpha * m.beta)
    p = max(m.alpha + m.beta, 2.0)
    for lo in (TAIL_LO, TAIL_LO[TAIL_LO >= 1.0]):
        n = channel._NODES_ABOVE_A0 if lo.min() >= 1.0 else channel._NODES_BELOW_A0
        w, weights = channel._laguerre(n)
        keep = len(channel._tail_nodes(n, p)[0])
        root = np.sqrt(lo)[:, None] + w / (2.0 * sab)
        t = root * root
        ft = weights * np.exp(channel._gg_ln_pdf(t, m.turbulence) + w) * root / sab
        u = lo[:, None] / t
        for (j, e, layered), name in zip(specs, names):
            if e is None:
                h = 1.0
            elif layered:
                h = u**e
            else:
                h = -np.expm1(e * np.log(u)) / e if e else -np.log(u)
            terms = ft / t**j * h
            assert (terms >= 0.0).all(), name
            dropped, kept = terms[:, keep:].sum(axis=1), terms[:, :keep].sum(axis=1)
            assert (dropped <= 2.0**-60 * kept).all(), (name, n)
        need = np.ones((len(specs), len(lo)), dtype=bool)
        capped = channel._tail_rule(lo, m, specs, need)
        with mock.patch.object(channel, "_tail_nodes", lambda n, p: channel._laguerre(n)):
            full = channel._tail_rule(lo, m, specs, need)
        np.testing.assert_array_max_ulp(capped, full, maxulp=4)


def build_models() -> dict:
    """All six (strength x pointing) reference channel models."""
    models = {}
    for name, sr2 in SIGMA_R2.items():
        models[f"{name}_gg"] = reference_model(sr2, pointing=False)
        models[f"{name}_pe"] = reference_model(sr2)
    return models


@pytest.fixture(scope="session")
def models():
    return build_models()


@pytest.fixture(scope="session")
def policy():
    return BerPolicy(1e-3)


@pytest.fixture(scope="session")
def series_cfg():
    return SeriesConfig()


@pytest.fixture(scope="session")
def series_cfg_hi():
    return SeriesConfig(max_terms=40)
