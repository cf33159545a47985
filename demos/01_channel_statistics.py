"""Walk through the channel statistics for one link geometry.

Starts from physical settings (path length, wavelength, beam waist,
aperture, jitter), derives the fading-law parameters, and checks the
resulting density against a large sample by comparing moments and a few
quantiles.
"""

import numpy as np

from fso_adapt import (
    ChannelModel,
    LinkGeometry,
    beam_waist_at_rx,
    composite_cdf,
    gg_params,
    moment,
    pointing_params,
    rytov_variance,
    sample_irradiance,
)

# a 1/3 km link at 1550 nm; cn2 tuned for moderate turbulence
geom = LinkGeometry(
    length_m=1000.0 / 3.0,
    wavelength_m=1550e-9,
    tx_waist_m=0.015,
    rx_aperture_radius_m=0.02,
    cn2=4.8e-14,
    jitter_sigma_m=0.01,
)

sr2 = rytov_variance(geom)
turb = gg_params(sr2)
wl = beam_waist_at_rx(geom)
pp = pointing_params(geom.rx_aperture_radius_m, wl, geom.jitter_sigma_m)
model = ChannelModel(turb, pp)

print("link geometry")
print(f"  path length        {geom.length_m:8.1f} m")
print(f"  beam waist at rx   {wl * 100:8.2f} cm")
print(f"  rytov variance     {sr2:8.4f}")
print()
print("fading-law parameters")
print(f"  alpha = {turb.alpha:.4f}, beta = {turb.beta:.4f}")
print(f"  xi = {pp.xi:.4f}, a0 = {pp.a0:.4f}")
print()

# closed-form moments vs a million draws
rng = np.random.default_rng(1)
draws = sample_irradiance(model, rng, size=1_000_000)
print("moment check (closed form | sampled)")
for n in (1, 2, 3):
    print(f"  E[I^{n}]  {moment(n, model):10.6f} | {np.mean(draws**n):10.6f}")
print()

# the distribution function at a few sampled quantiles
print("distribution check (analytic CDF at empirical quantiles)")
for q in (0.05, 0.25, 0.5, 0.75, 0.95):
    x = float(np.quantile(draws, q))
    print(f"  q={q:4.2f}  I={x:7.4f}  F(I)={composite_cdf(x, model):7.4f}")
