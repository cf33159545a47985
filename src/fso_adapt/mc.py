"""Monte Carlo verification harness.

Sample-based estimates of the spectral-efficiency quantities, empirical
audits of the average-power constraints, and a symbol-level Gray-coded
square-QAM simulator for validating the exponential BER bound.

Determinism contract: for a fixed (seed, workers, n_samples) triple the
results are bit-stable on any machine; per-worker streams are spawned
from the seed, drawn and transformed concurrently on a thread pool of at
most one thread per available CPU, and combined in worker order.
"""

from __future__ import annotations

import collections
import concurrent.futures
import math
import os
from dataclasses import dataclass

import numpy as np

from .adapt import (
    AdaptiveSolution,
    BerPolicy,
    ConstellationSet,
    SnrSpec,
    solve_cutoff_continuous,
    solve_cutoff_discrete,
)
from .channel import _SAMPLE_BLOCK, ChannelModel, sample_irradiance

__all__ = [
    "McConfig",
    "QamSimConfig",
    "AuditReport",
    "estimate_ase_mc",
    "estimate_discrete_ase_mc",
    "simulate_qam_ber",
    "audit_power_constraint",
]


def _check_count(name, value):
    """ValueError unless value is a Python or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class McConfig:
    """Sample count, seed and worker-stream count for one Monte Carlo run."""

    n_samples: int = 40_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        _check_count("n_samples", self.n_samples)
        _check_count("workers", self.workers)
        if self.n_samples < 1_000:
            raise ValueError("n_samples below 1000 cannot support statistical claims")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class QamSimConfig:
    """One square-QAM AWGN simulation point."""

    m: int
    inst_snr_db: float
    n_symbols: int

    def __post_init__(self):
        ConstellationSet.square_qam(self.m)
        if self.m > 4096:
            raise ValueError(f"m above 4096 (64 levels per axis) is not simulated, got {self.m}")
        SnrSpec.from_db(self.inst_snr_db)  # finite, above 0 and within float range
        _check_count("n_symbols", self.n_symbols)
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be positive")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an empirical average-power audit."""

    scheme: str
    empirical_power: float
    expected_power: float
    std_error: float
    z_score: float
    passed: bool
    n_samples: int


def _worker_chunks(cfg: McConfig):
    """Per-worker (generator, count) pairs in deterministic worker order."""
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    base, extra = divmod(cfg.n_samples, cfg.workers)
    out = []
    for idx, seq in enumerate(seqs):
        n = base + (1 if idx < extra else 0)
        if n:
            out.append((np.random.Generator(np.random.Philox(seq)), n))
    return out


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# one thread per available CPU; the executor starts its threads on first submit
_THREADS = _cpus()
_POOL = concurrent.futures.ThreadPoolExecutor(_THREADS, "fso-adapt-mc")


def _stream_sums(model: ChannelModel, rng, buf, transform):
    """Sum and sum of squares of transform(I) over one stream drawn into buf."""
    sample_irradiance(model, rng, size=buf.size, out=buf)
    for start in range(0, buf.size, _SAMPLE_BLOCK):
        transform(buf[start : start + _SAMPLE_BLOCK])
    # whole-buffer sums: numpy's pairwise order over the stream keeps the bits
    total = float(np.sum(buf))
    np.multiply(buf, buf, out=buf)
    return total, float(np.sum(buf))


def _reduce_mean(model: ChannelModel, cfg: McConfig, transform):
    """Mean and standard error of transform(I) over the configured samples.

    numpy's generators and ufuncs release the GIL on arrays, so each
    stream is drawn, transformed and summed on a pool thread, at most one
    stream per pool thread ahead of the caller, which adds the sums in
    worker order.  Every stream buffer is allocated here, in the calling
    thread: glibc gives each thread its own malloc arena, which keeps its
    peak.  The buffer is the only stream-sized array: ``transform`` must
    be elementwise, since it is called on consecutive blocks of
    ``_SAMPLE_BLOCK`` draws, and it overwrites each block with its values
    in place, so its temporaries are block-sized and live on the pool
    thread.
    """
    waiting = collections.deque(_worker_chunks(cfg))
    drawing = collections.deque()
    total = 0.0
    total_sq = 0.0
    try:
        while waiting or drawing:
            while waiting and len(drawing) < _THREADS:
                rng, count = waiting.popleft()
                drawing.append(
                    _POOL.submit(_stream_sums, model, rng, np.empty(count), transform)
                )
            part, part_sq = drawing.popleft().result()
            total += part
            total_sq += part_sq
    except BaseException:
        # no stream may run on, or fail unread, after the call has returned
        for fut in drawing:
            fut.cancel()
        concurrent.futures.wait(drawing)
        raise
    n = cfg.n_samples
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _region(bounds, i):
    """Ladder region of each sample: the number of sorted bounds at or below it."""
    # one byte a sample for up to 255 rungs, not eight
    idx = np.zeros(i.shape, dtype=np.min_scalar_type(len(bounds)))
    for b in bounds:
        idx += i >= b
    return idx


def estimate_ase_mc(
    snr: SnrSpec,
    policy: BerPolicy,
    model: ChannelModel,
    cfg: McConfig,
    cutoff: float | None = None,
):
    """Sampled spectral efficiency of the continuous-rate policy.

    Returns (mean, std_error) of log2(I/cutoff)^+ over the draws; the
    cutoff is solved from the power constraint unless supplied.
    """
    if cutoff is None:
        cutoff = solve_cutoff_continuous(snr, policy, model).cutoff

    def bits(i):
        np.maximum(i, 1e-300, out=i)
        i /= cutoff
        np.log2(i, out=i)
        np.maximum(i, 0.0, out=i)

    return _reduce_mean(model, cfg, bits)


def estimate_discrete_ase_mc(
    snr: SnrSpec,
    policy: BerPolicy,
    model: ChannelModel,
    cset: ConstellationSet,
    cfg: McConfig,
    cutoff: float | None = None,
):
    """Sampled spectral efficiency of the finite constellation ladder."""
    if cutoff is None:
        cutoff = solve_cutoff_discrete(snr, policy, model, cset).cutoff
    bounds = cset.bounds(cutoff)

    def bits(i):
        np.take(cset.bits, _region(bounds, i), out=i, mode="clip")

    return _reduce_mean(model, cfg, bits)


# precomputed popcounts for Gray-label XORs (up to 64 levels per axis)
_POPCOUNT = np.array([bin(v).count("1") for v in range(64)], dtype=np.int64)

_CHUNK = 1 << 20


def simulate_qam_ber(cfg: QamSimConfig, rng: np.random.Generator):
    """Bit error rate of Gray-mapped square QAM over AWGN.

    Per-axis PAM with reflected-binary labels and minimum-distance
    detection; inst_snr_db is the average symbol energy over the noise
    power.  Returns (ber, std_error).  Besides a chunk's int32 labels it
    holds two float64 arrays of ``_SAMPLE_BLOCK`` symbols.
    """
    levels = int(round(math.sqrt(cfg.m)))
    bits_per_symbol = int(round(math.log2(cfg.m)))
    gamma = 10.0 ** (cfg.inst_snr_db / 10.0)
    scale = math.sqrt(1.5 / (cfg.m - 1.0))  # unit average symbol energy
    noise_std = math.sqrt(0.5 / gamma)
    idx = np.arange(levels)
    gray = idx ^ (idx >> 1)
    # bit errors of each (sent, detected) level pair, at sent * levels + detected
    pair_errors = _POPCOUNT[gray[:, None] ^ gray].reshape(-1)

    # the noise and received samples of one block; the noise block, once
    # added in, holds the (sent, detected) pair index
    noise = np.empty(min(cfg.n_symbols, _SAMPLE_BLOCK))
    pair = noise.view(np.intp)
    received = np.empty_like(noise)
    errors = 0
    remaining = cfg.n_symbols
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        for _axis in range(2):  # I and Q axes are independent and identical
            # the chunk's labels in one call, drawn before its noise; int32
            # gives the default int64's values (both bound next_uint32 draws)
            tx = rng.integers(0, levels, size=n, dtype=np.int32)
            for start in range(0, n, _SAMPLE_BLOCK):
                # y = (2 tx - (L - 1)) scale + noise_std N, detected as
                # clip(rint((y / scale + L - 1) / 2)); consecutive noise
                # blocks are one draw of the chunk's size
                sent = tx[start : start + _SAMPLE_BLOCK]
                y, z, ij = received[: sent.size], noise[: sent.size], pair[: sent.size]
                np.multiply(sent, 2.0, out=y)
                y -= levels - 1
                y *= scale
                rng.standard_normal(out=z)
                z *= noise_std
                y += z
                y /= scale
                y += levels - 1
                y /= 2.0
                np.rint(y, out=y)
                np.clip(y, 0, levels - 1, out=y)
                np.multiply(sent, levels, out=ij)
                np.add(ij, y, out=ij, casting="unsafe")
                errors += int(np.bincount(ij, minlength=levels * levels) @ pair_errors)
            del tx, sent  # freed before the next axis draws its own
    n_bits = cfg.n_symbols * bits_per_symbol
    ber = errors / n_bits
    return ber, math.sqrt(max(ber * (1.0 - ber), 0.0) / n_bits)


def audit_power_constraint(
    snr: SnrSpec,
    policy: BerPolicy,
    model: ChannelModel,
    solution: AdaptiveSolution,
    cfg: McConfig,
    scheme: str = "continuous",
    cset: ConstellationSet | None = None,
) -> AuditReport:
    """Check E[P(I)]/sigma^2 = SNR empirically for a solved cutoff."""
    k = policy.k_margin
    cutoff = solution.cutoff
    if scheme == "continuous":

        def power(i):
            np.maximum(i, 1e-300, out=i)
            np.divide(1.0, i, out=i)
            np.subtract(1.0 / cutoff, i, out=i)
            np.maximum(i, 0.0, out=i)
            i /= k

    elif scheme == "discrete":
        cset = cset or ConstellationSet()
        bounds = cset.bounds(cutoff)

        def power(i):
            idx = _region(bounds, i)
            np.maximum(i, 1e-300, out=i)
            i *= k
            np.divide(cset.spend[idx], i, out=i)

    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    mean, se = _reduce_mean(model, cfg, power)
    z = (mean - snr.snr_linear) / se if se > 0 else math.inf
    return AuditReport(
        scheme=scheme,
        empirical_power=mean,
        expected_power=snr.snr_linear,
        std_error=se,
        z_score=z,
        passed=abs(z) <= 5.0,
        n_samples=cfg.n_samples,
    )
