"""Weight learning for the idleness model (paper section III-C-b).

The four scale weights ``w = (wd, ww, wm, wy)`` are corrected every hour
by steepest descent on the quadratic error

    Q(w) = (IP' - IP)^2 = (w0^T SI' - w^T SI)^2        (paper eq. (8))

where ``w0`` are the weights at the beginning of the hour, ``SI'`` the
scores *after* the hourly update and ``SI`` the scores *before* it.

The paper treats weights as relative importances ("higher means more
important"); we therefore keep them on the non-negative unit simplex via
Euclidean projection after the descent (see DESIGN.md, interpretation
choices).  :func:`descend_weights` works on any leading batch axes, row
by row: one VM's model and the fleet model share it (through
:func:`repro.core.model.hourly_update`).
"""

from __future__ import annotations

import numpy as np

N_SCALES = 4


def project_to_simplex(v: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    ``mask`` (bool, same shape) marks active coordinates; masked-out
    coordinates are forced to exactly zero and the remaining mass is
    distributed over the active ones.  Supports a trailing axis of
    coordinates with arbitrary leading batch axes.
    """
    v = np.asarray(v, dtype=np.float64)
    if mask is None:
        mask = np.ones(v.shape[-1], dtype=bool)
    mask = np.broadcast_to(mask, v.shape)
    w = np.where(mask, v, -np.inf)

    # Sort descending along the last axis; -inf (masked) entries sink.
    u = -np.sort(-w, axis=-1)
    k = np.arange(1, v.shape[-1] + 1, dtype=np.float64)
    finite = np.isfinite(u)
    safe_u = np.where(finite, u, 0.0)
    css = np.cumsum(safe_u, axis=-1) - 1.0
    cond = (u - css / k > 0) & finite
    # rho: last index where cond holds (at least one always holds for a
    # non-empty mask because the largest active coordinate satisfies it).
    rho = cond.shape[-1] - 1 - np.argmax(cond[..., ::-1], axis=-1)
    any_active = mask.any(axis=-1)
    if not np.all(any_active):
        raise ValueError("projection requires at least one active scale")
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    out = np.maximum(np.where(mask, v, 0.0) - theta, 0.0)
    return np.where(mask, out, 0.0)


def descend_weights(
    w0: np.ndarray,
    si_old: np.ndarray,
    si_new: np.ndarray,
    steps: int,
    learning_rate: float,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """One hourly weight correction (vectorized over leading batch axes).

    Parameters
    ----------
    w0 : (..., 4) weights at the beginning of the hour.
    si_old : (..., 4) SI scores before the hourly update.
    si_new : (..., 4) SI scores after the hourly update.
    steps, learning_rate : descent configuration.
    mask : optional (4,) bool array of active scales (ablation).

    Returns the corrected weights, projected onto the simplex.
    """
    w0 = np.asarray(w0, dtype=np.float64)
    si_old = np.asarray(si_old, dtype=np.float64)
    si_new = np.asarray(si_new, dtype=np.float64)
    if mask is not None:
        si_old = np.where(mask, si_old, 0.0)
        si_new = np.where(mask, si_new, 0.0)

    target = np.sum(w0 * si_new, axis=-1)  # IP' (paper eq. (7))
    w = w0.copy()
    # Steepest descent on Q(w): grad = -2 (target - w.SI) SI.
    # Normalize the step by |SI|^2 so convergence speed is independent of
    # the (tiny) SI magnitude; eta=1 would solve exactly in one step.
    norm2 = np.sum(si_old * si_old, axis=-1)
    safe = np.where(norm2 > 0.0, norm2, 1.0)
    for _ in range(steps):
        err = target - np.sum(w * si_old, axis=-1)
        w = w + (learning_rate * err / safe)[..., None] * si_old
    w = np.where((norm2 > 0.0)[..., None], w, w0)
    return project_to_simplex(w, mask)


def initial_weights(mask: np.ndarray | None = None, batch: int | None = None) -> np.ndarray:
    """Uniform weights over the active scales (start of learning)."""
    if mask is None:
        mask = np.ones(N_SCALES, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    n_active = int(mask.sum())
    if n_active == 0:
        raise ValueError("at least one scale must be active")
    base = np.where(mask, 1.0 / n_active, 0.0)
    if batch is None:
        return base.copy()
    return np.tile(base, (batch, 1))
