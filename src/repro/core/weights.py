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
    n = v.shape[-1]
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("projection requires at least one active scale")
    # Sort descending along the last axis; -inf (masked) entries sink.
    u = np.where(mask, v, -np.inf)
    np.negative(u, out=u)
    u.sort(axis=-1)
    np.negative(u, out=u)
    finite = np.isfinite(u)
    css = np.where(finite, u, 0.0).cumsum(axis=-1)
    css -= 1.0
    cond = (u - css / np.arange(1.0, n + 1.0) > 0) & finite
    # rho: last index where cond holds (at least one always holds for a
    # non-empty mask because the largest active coordinate satisfies it).
    rho = n - 1 - cond[..., ::-1].argmax(axis=-1)
    rows = css.reshape(-1, n)
    theta = rows[np.arange(rows.shape[0]), rho.ravel()].reshape(rho.shape + (1,))
    out = np.maximum(np.where(mask, v, 0.0) - theta / (rho[..., None] + 1.0), 0.0)
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

    target = (w0 * si_new).sum(axis=-1)  # IP' (paper eq. (7))
    # Steepest descent on Q(w): grad = -2 (target - w.SI) SI.
    # Normalize the step by |SI|^2 so convergence speed is independent of
    # the (tiny) SI magnitude; eta=1 would solve exactly in one step.
    norm2 = (si_old * si_old).sum(axis=-1)
    live = norm2 > 0.0
    safe = np.where(live, norm2, 1.0)
    w = w0
    for _ in range(steps):
        err = target - (w * si_old).sum(axis=-1)
        w = w + (learning_rate * err / safe)[..., None] * si_old
    w = np.where(live[..., None], w, w0)
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
