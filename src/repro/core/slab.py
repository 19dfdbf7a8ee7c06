"""Touched-day storage for the monthly and yearly SI scales.

The paper's model keeps one score per (day, hour) at the monthly (31
days) and yearly (365 days) scales, but a run writes only the calendar
days it simulates: a 168-h run touches 7 of the 365 year rows.  A
:class:`DaySlab` stores those days only — one day-major ``(k, *lead,
24)`` block whose rows are added the first time a day is written, plus
a day → row index.  ``lead`` is ``()`` for one VM's model and ``(n,)``
for a fleet's.  Day-major keeps one day's scores contiguous: a fleet
write at one slot stays within that day's ``(n, 24)`` block, and
growing the block copies the written days only, so its spare capacity
stays untouched (never resident).

A day that was never written reads as ``0.0``, exactly what the
zero-initialized dense table held, so every query and update is
bit-identical to the dense layout by construction.  Rows are keyed by
*written*, never by *non-zero*: a cell that was written ``-0.0`` reads
back as ``-0.0``.
"""

from __future__ import annotations

import numpy as np

from .calendar import HOURS_PER_DAY


class DaySlab:
    """A ``(*lead, days, 24)`` score table holding only the written days.

    ``index`` maps a day to its row of ``data`` (a ``(capacity, *lead,
    24)`` block) in first-write order; ``data`` is ``None`` until the
    first write, then grows by doubling (capped at ``days`` rows).
    ``rows`` arguments select within the lead axes (``...`` for all of
    them, an int for one fleet row).
    """

    __slots__ = ("days", "lead", "index", "data")

    def __init__(self, days: int, lead: tuple = ()) -> None:
        self.days = days
        self.lead = tuple(lead)
        self.index: dict[int, int] = {}
        self.data: np.ndarray | None = None

    @classmethod
    def from_rows(cls, days: int, day_of_row, rows: np.ndarray) -> "DaySlab":
        """A slab holding ``rows[..., j, :]`` as day ``day_of_row[j]``
        (distinct days in ``[0, days)``; raises ``ValueError`` if not)."""
        rows = np.array(rows, dtype=np.float64)
        slab = cls(days, rows.shape[:-2])
        slab.index = {int(d): j for j, d in enumerate(day_of_row)}
        k = len(slab.index)
        if (rows.shape[-2:] != (k, HOURS_PER_DAY) or k != len(day_of_row)
                or not all(0 <= d < days for d in slab.index)):
            raise ValueError(f"malformed day slab: days {list(day_of_row)} "
                             f"for rows of shape {rows.shape}")
        if k:
            slab.data = np.ascontiguousarray(np.moveaxis(rows, -2, 0))
        return slab

    @classmethod
    def from_dense(cls, table: np.ndarray) -> "DaySlab":
        """Compress a dense ``(*lead, days, 24)`` table.

        A day is kept when any of its cells differs from ``+0.0`` (a
        ``-0.0`` counts), so the slab reads back exactly ``table``.
        """
        table = np.asarray(table, dtype=np.float64)
        lead_axes = tuple(range(table.ndim - 2))
        kept = np.any((table != 0.0) | np.signbit(table),
                      axis=lead_axes + (table.ndim - 1,))
        days = np.flatnonzero(kept)
        return cls.from_rows(table.shape[-2], days, table[..., days, :])

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of score storage (0 before the first write)."""
        return 0 if self.data is None else self.data.nbytes

    def day_of_row(self) -> np.ndarray:
        """The stored days, in row order."""
        return np.fromiter(self.index, dtype=np.int64, count=len(self.index))

    def written_rows(self) -> np.ndarray:
        """The ``(*lead, k, 24)`` block of the ``k`` written days."""
        if self.data is None:
            return np.zeros(self.lead + (0, HOURS_PER_DAY))
        return np.moveaxis(self.data[:len(self.index)], 0, -2)

    def read(self, day: int, hour: int, rows=...):
        """The scores at ``(day, hour)``: a view, or ``0.0`` if unwritten."""
        r = self.index.get(day)
        if r is None:
            return 0.0
        return self.data[r][rows, hour]

    def read_hours(self, days: np.ndarray, hours: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
        """``(len(rows), len(days))`` scores of the lead rows ``rows`` at
        each ``(days[k], hours[k])``, ``0.0`` where a day is unwritten."""
        if self.data is None:
            return np.zeros((len(rows), len(days)))
        at = np.array([self.index.get(d, -1) for d in days.tolist()])
        out = self.data[at, rows[:, None], hours]
        out[:, at < 0] = 0.0
        return out

    def write(self, day: int, hour: int, value, rows=...) -> None:
        """Store ``value`` at ``(day, hour)``, adding the day's row if new."""
        r = self.index.get(day)
        if r is None:
            r = self._add(day)  # may reallocate self.data: resolve first
        self.data[r][rows, hour] = value

    def _add(self, day: int) -> int:
        r = len(self.index)
        data = self.data
        if data is None or r == len(data):
            cap = min(self.days, max(1, 2 * r))
            grown = np.zeros((cap,) + self.lead + (HOURS_PER_DAY,))
            if data is not None:
                grown[:r] = data
            self.data = grown
        self.index[day] = r
        return r

    def dense(self, rows=...) -> np.ndarray:
        """The full ``(…, days, 24)`` table: a fresh read-only array, zeros
        where unwritten (a write to it would be lost, so it raises);
        ``rows`` selects lead rows, e.g. one VM of a fleet."""
        block = self.written_rows()[rows]
        out = np.zeros(block.shape[:-2] + (self.days, HOURS_PER_DAY))
        out[..., self.day_of_row(), :] = block
        out.flags.writeable = False
        return out

    def import_row(self, i: int, src: "DaySlab", j=...) -> None:
        """Copy ``src``'s written days (lead row ``j``) into row ``i``."""
        for day, r in src.index.items():
            self.write(day, slice(None), src.data[r][j], i)


def dense_property(name: str, doc: str) -> property:
    """A property reading the slab attribute ``name`` as a dense table
    (a read-only copy); assigning a dense table compresses it."""
    return property(
        lambda self: getattr(self, name).dense(),
        lambda self, table: setattr(self, name, DaySlab.from_dense(table)),
        doc=doc + "  A read-only copy; assigning a dense table replaces it.")
