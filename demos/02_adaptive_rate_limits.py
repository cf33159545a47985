"""Spectral-efficiency ceiling of continuous rate adaptation.

Sweeps the average SNR for weak and strong turbulence, with and without
misalignment fading, and prints the exact limit next to its high-SNR
straight-line approximation and the misalignment penalty.
"""

from fso_adapt import (
    BerPolicy,
    SnrSpec,
    ase_limit,
    high_snr_ase,
    pointing_penalty,
)
from fso_adapt.cli import RunConfig

policy = BerPolicy(1e-3)
config = RunConfig.load(None, None)

for sr2, label in ((0.4, "weak"), (2.0, "strong")):
    for with_pe in (False, True):
        model = config.channel_model(sigma_r2=sr2, pointing=with_pe)
        tag = f"{label} turbulence" + (", with misalignment" if with_pe else "")
        print(tag)
        print("  snr_db   limit   high-snr approx")
        for db in (0, 10, 20, 30, 40):
            snr = SnrSpec.from_db(float(db))
            exact = ase_limit(snr, policy, model).ase_bits
            approx = high_snr_ase(snr, policy, model)
            print(f"  {db:6d}  {exact:6.3f}  {approx:8.3f}")
        if with_pe:
            print(f"  misalignment penalty: {pointing_penalty(model):.3f} bits/s/Hz")
        print()
