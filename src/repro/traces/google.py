"""Google-cluster-like LLMU traces (paper section VI-B).

The simulation study feeds LLMU VMs with Google traces [32].  Those are
not redistributable, so we generate statistically similar load series:
always-active utilization with strong diurnal swing, autocorrelated
minute-to-minute noise (AR(1)) and occasional load spikes — the features
reported by the Google cluster analyses the paper cites [4, 22, 23].
"""

from __future__ import annotations

import numpy as np

from .base import ROW_BLOCK, ActivityTrace, VMKind, trace_rows


def google_llmu_matrix(hours: int, seeds, base_levels, diurnal_amplitudes,
                       ar_coeff: float = 0.85, noise_std: float = 0.08,
                       spike_prob: float = 0.01, floor: float = 0.03,
                       out: np.ndarray | None = None,
                       rows=None) -> np.ndarray:
    """LLMU traces as the rows of one activity matrix.

    Row ``k`` is the series :func:`google_llmu_trace` draws for
    ``seeds[k]``, ``base_levels[k]`` and ``diurnal_amplitudes[k]``: each
    row keeps its own ``default_rng`` stream, and the AR(1) recursion
    runs as ``hours`` vector steps across the rows with the same
    elementwise operations.  The rows are written to
    ``out[rows, :hours]`` (a fresh ``(n, hours)`` matrix by default),
    one block of rows at a time.
    """
    if not 0.0 <= ar_coeff < 1.0:
        raise ValueError("ar_coeff must be in [0, 1)")
    if out is None:
        out = np.empty((len(seeds), hours))
        rows = np.arange(len(seeds))
    t = np.arange(hours)
    wave = np.sin(2 * np.pi * ((t % 24) - 6) / 24.0)
    base_levels = np.asarray(base_levels, dtype=np.float64)[:, None]
    diurnal_amplitudes = np.asarray(diurnal_amplitudes, dtype=np.float64)[:, None]

    for lo in range(0, len(seeds), ROW_BLOCK):
        block = slice(lo, lo + ROW_BLOCK)
        block_seeds = seeds[block]
        n = len(block_seeds)
        innov = np.empty((hours, n))
        spiked, spike = np.empty((n, hours)), np.empty((n, hours))
        for k, seed in enumerate(block_seeds):
            rng = np.random.default_rng(seed)
            innov[:, k] = rng.normal(0.0, noise_std, size=hours)
            rng.random(out=spiked[k])
            spike[k] = rng.uniform(0.2, 0.5, size=hours)
        # One AR(1) step per hour across the block's rows.  A lone row
        # steps on Python floats: the same double operations, without a
        # one-element array's per-call overhead.
        x, ar = 0.0, []
        for step in (innov[:, 0].tolist() if n == 1 else innov):
            x = ar_coeff * x + step
            ar.append(x)
        levels = base_levels[block] + diurnal_amplitudes[block] * wave
        levels = levels + np.array(ar).reshape(hours, n).T
        levels += (spiked < spike_prob) * spike
        out[rows[block], :hours] = np.clip(levels, floor, 1.0)
    return out


def google_llmu_trace(hours: int, seed: int = 0, base_level: float = 0.5,
                      diurnal_amplitude: float = 0.2, ar_coeff: float = 0.85,
                      noise_std: float = 0.08, spike_prob: float = 0.01,
                      floor: float = 0.03) -> ActivityTrace:
    """Always-active utilization series with diurnal + AR(1) structure.

    ``floor`` keeps every hour strictly active — the defining LLMU
    property — while spikes push some hours to full utilization.  The
    one-row call of :func:`google_llmu_matrix`.
    """
    matrix = google_llmu_matrix(hours, [seed], [base_level],
                                [diurnal_amplitude], ar_coeff=ar_coeff,
                                noise_std=noise_std, spike_prob=spike_prob,
                                floor=floor)
    return trace_rows(matrix, [f"google-llmu-{seed}"], [VMKind.LLMU])[0]


def google_llmu_draws(n: int, seed: int = 0) -> tuple[list, list, list]:
    """Per-VM ``(seeds, base_levels, diurnal_amplitudes)`` of an
    ``n``-VM LLMU fleet: varied base loads and phases, drawn VM by VM
    from one ``default_rng(seed)`` stream."""
    rng = np.random.default_rng(seed)
    seeds, base_levels, amplitudes = [], [], []
    for _ in range(n):
        seeds.append(int(rng.integers(0, 2**31)))
        base_levels.append(float(rng.uniform(0.35, 0.65)))
        amplitudes.append(float(rng.uniform(0.1, 0.3)))
    return seeds, base_levels, amplitudes


def google_llmu_fleet(n: int, hours: int, seed: int = 0) -> list[ActivityTrace]:
    """A fleet of LLMU traces with varied base loads and phases."""
    draws = google_llmu_draws(n, seed)
    return trace_rows(google_llmu_matrix(hours, *draws),
                      [f"google-llmu-{s}" for s in draws[0]],
                      [VMKind.LLMU] * n)
