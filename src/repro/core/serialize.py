"""Persistence for idleness models.

A data center restarts its management plane without wanting to relearn
months of idleness history, so models are saveable.  Format: a single
NumPy ``.npz`` archive holding the score tables, the weights and the
scalar counters, plus a format version.  Version 2 stores the monthly
and yearly scales as written (:mod:`repro.core.slab`): ``<scale>_days``
(the day of each row) and ``<scale>_rows`` (the rows).  Version-1
archives, whose ``sim``/``siy`` are dense tables, still load.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .fleet import FleetIdlenessModel
from .model import IdlenessModel
from .params import DEFAULT_PARAMS, DrowsyParams
from .slab import DaySlab

FORMAT_VERSION = 2
#: Versions :func:`load_model`/:func:`load_fleet` read (1: dense tables).
READABLE_VERSIONS = (1, FORMAT_VERSION)


def _check_version(data) -> int:
    version = int(data["version"])
    if version not in READABLE_VERSIONS:
        raise ValueError(f"unsupported model file version {version} "
                         f"(expected one of {READABLE_VERSIONS})")
    return version


def _slab_arrays(model) -> dict:
    """The touched-day layout of ``model``'s monthly and yearly scales.

    A fleet-bound VM's model (a :class:`~repro.core.binding.FleetVMView`)
    has no slabs of its own: its dense row is compressed, exactly as a
    detached scalar copy of it stores them.
    """
    out = {}
    for name in ("sim", "siy"):
        slab = getattr(model, "_" + name, None)
        if slab is None:
            slab = DaySlab.from_dense(getattr(model, name))
        out[name + "_days"] = slab.day_of_row()
        out[name + "_rows"] = slab.written_rows()
    return out


def _load_slabs(model, data, version: int) -> None:
    for name, days in (("sim", 31), ("siy", 365)):
        if version == 1:
            slab = DaySlab.from_dense(data[name])
        else:
            slab = DaySlab.from_rows(days, data[name + "_days"],
                                     data[name + "_rows"])
        setattr(model, "_" + name, slab)


def save_model(model: IdlenessModel, path: str | Path) -> None:
    """Serialize one VM's model to ``path`` (.npz)."""
    np.savez_compressed(
        path,
        version=FORMAT_VERSION,
        kind="scalar",
        sid=model.sid, siw=model.siw, **_slab_arrays(model),
        weights=model.weights,
        scale_mask=model.scale_mask,
        activity_sum=model._activity_sum,
        active_hours=model._active_hours,
        hours_observed=model.hours_observed,
    )


def load_model(path: str | Path,
               params: DrowsyParams = DEFAULT_PARAMS) -> IdlenessModel:
    """Restore a scalar model saved by :func:`save_model`."""
    with np.load(path) as data:
        version = _check_version(data)
        if str(data["kind"]) != "scalar":
            raise ValueError("file holds a fleet model; use load_fleet")
        model = IdlenessModel(params)
        model.sid = data["sid"].copy()
        model.siw = data["siw"].copy()
        _load_slabs(model, data, version)
        model.weights = data["weights"].copy()
        model.scale_mask = data["scale_mask"].copy()
        model._activity_sum = float(data["activity_sum"])
        model._active_hours = int(data["active_hours"])
        model.hours_observed = int(data["hours_observed"])
    return model


def save_fleet(fleet: FleetIdlenessModel, path: str | Path) -> None:
    """Serialize a whole fleet's models to ``path`` (.npz)."""
    np.savez_compressed(
        path,
        version=FORMAT_VERSION,
        kind="fleet",
        n=fleet.n,
        sid=fleet.sid, siw=fleet.siw, **_slab_arrays(fleet),
        weights=fleet.weights,
        scale_mask=fleet.scale_mask,
        activity_sum=fleet._activity_sum,
        active_hours=fleet._active_hours,
        hours_observed=fleet.hours_observed,
        row_hours=fleet.row_hours,
    )


def load_fleet(path: str | Path,
               params: DrowsyParams = DEFAULT_PARAMS) -> FleetIdlenessModel:
    """Restore a fleet model saved by :func:`save_fleet`."""
    with np.load(path) as data:
        version = _check_version(data)
        if str(data["kind"]) != "fleet":
            raise ValueError("file holds a scalar model; use load_model")
        fleet = FleetIdlenessModel(int(data["n"]), params)
        fleet.sid = data["sid"].copy()
        fleet.siw = data["siw"].copy()
        _load_slabs(fleet, data, version)
        fleet.weights = data["weights"].copy()
        fleet.scale_mask = data["scale_mask"].copy()
        fleet._activity_sum = data["activity_sum"].copy()
        fleet._active_hours = data["active_hours"].copy()
        fleet.hours_observed = int(data["hours_observed"])
        if "row_hours" in data.files:
            fleet.row_hours = data["row_hours"].copy()
        else:  # archives written before the per-row counters existed
            fleet.row_hours = np.full(fleet.n, fleet.hours_observed,
                                      dtype=np.int64)
    return fleet


def model_to_bytes(model: IdlenessModel) -> bytes:
    """In-memory serialization (e.g. for replication over the network)."""
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def model_from_bytes(blob: bytes,
                     params: DrowsyParams = DEFAULT_PARAMS) -> IdlenessModel:
    """Inverse of :func:`model_to_bytes`."""
    return load_model(io.BytesIO(blob), params)
