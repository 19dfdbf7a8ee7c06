"""Wire helpers for cross-shard traffic.

Everything that crosses a shard boundary is self-contained: a VM is
pickled with a *detached* scalar idleness model (never a columnar
fleet view, whose arrays belong to the source shard's binding), and
the op vocabulary below is plain tuples/dicts of primitives so both
the thread and the spawn transports carry identical payloads.

Op vocabulary (coordinator -> shard, applied in global call order):

=================  ====================================================
``("wake", h)``            force host ``h`` awake (zero-grace resume)
``("mig", v, d)``          intra-shard migration of VM ``v`` to ``d``
``("insert", v, d, s, dur)``
                           attach an in-flight VM arriving from shard
                           ``s``'s extraction
``("bulk", moves)``        relocate-all block: detach/attach ``moves``
                           (MigrationRecord field dicts) atomically
``("place", blob, d)``     churn arrival: unpickle ``blob`` onto ``d``
``("remove", v)``          churn departure of VM ``v``
``("power_off", h)`` /     maintenance power transitions
``("power_on", h)``
=================  ====================================================
"""

from __future__ import annotations

import pickle

import numpy as np

from ...core.model import IdlenessModel


def detached_model(model, params) -> IdlenessModel:
    """A scalar :class:`IdlenessModel` copy of ``model``.

    Works for both plain models and columnar fleet views (the
    attributes read here are the fleet view's materializing
    properties), producing a model whose arrays are owned by the copy.
    """
    m = IdlenessModel(params)
    m.sid[:] = model.sid
    m.siw[:] = model.siw
    m.sim = model.sim
    m.siy = model.siy
    m.weights = np.array(model.weights, dtype=float, copy=True)
    m._activity_sum = float(model._activity_sum)
    m._active_hours = int(model._active_hours)
    m.hours_observed = int(model.hours_observed)
    return m


def pickle_vm(vm) -> bytes:
    """Pickle ``vm`` with its model detached to a scalar copy.

    The VM object itself is left untouched (its model — possibly a
    fleet view into the source shard's binding — and its activity
    column are swapped out only for the duration of the dump).
    """
    model = vm.model
    column, row = vm._activity_col, vm._activity_row
    vm.model = detached_model(model, vm.params)
    vm.unbind_activity()
    try:
        return pickle.dumps(vm, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        vm.model = model
        if column is not None:
            vm.bind_activity(column, row)


def unpickle_vm(blob: bytes):
    return pickle.loads(blob)


def record_as_dict(rec) -> dict:
    """A :class:`MigrationRecord` as a primitives-only dict."""
    return {"time": rec.time, "vm_name": rec.vm_name, "source": rec.source,
            "destination": rec.destination, "duration_s": rec.duration_s}
