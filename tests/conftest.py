"""Shared fixtures: the six reference channel configurations.

The reference link: 1000/3 m path at 1550 nm, 1.5 cm transmit waist,
2 cm receiver aperture radius, 1 cm per-axis jitter.  Turbulence strength
is swept via the structure parameter so the Rytov variance hits
0.4 (weak), 1 (moderate) and 2 (strong); each strength is used both with
and without the misalignment model.
"""

from dataclasses import replace

import pytest

from fso_adapt import (
    BerPolicy,
    ChannelModel,
    LinkGeometry,
    SeriesConfig,
    beam_waist_at_rx,
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
