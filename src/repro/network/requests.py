"""Client request generation and latency accounting (paper section VI-A).

The testbed drives LLMI VMs with CloudSuite Web Search clients replaying
production traces; the SLA requires >99 % of requests within 200 ms.  We
generate open-loop Poisson request arrivals whose hourly rate follows
the VM's activity trace, and account per-request latency, including the
wake penalty when a request lands on a drowsy server.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.calendar import slot_of_hour
from ..core.params import SLA_LATENCY_S


class PerVMRequestStreams:
    """Per-VM Philox request substreams (DESIGN.md §10).

    Each VM's generator is keyed by a stable digest of ``(seed, vm
    name)`` — not by spawn order — so a VM's arrival and service-time
    draws are invariant under fleet iteration order, placement changes
    and VM arrivals/departures.  The shared-stream layout (one generator
    consumed in fleet order) is seed-compatible with the original
    submit-time sampling but couples every VM's randomness to the
    iteration order; these substreams trade that compatibility for
    reordering robustness.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def for_vm(self, vm_name: str) -> np.random.Generator:
        """The VM's own counter-based generator (created lazily)."""
        rng = self._streams.get(vm_name)
        if rng is None:
            digest = hashlib.blake2b(
                f"{self.seed}:{vm_name}".encode(), digest_size=16).digest()
            rng = np.random.Generator(
                np.random.Philox(key=int.from_bytes(digest, "big")))
            self._streams[vm_name] = rng
        return rng


@dataclass
class Request:
    """One client request and its measured latency."""

    arrival_s: float
    vm_name: str
    service_time_s: float
    completion_s: float = float("nan")
    #: Did this request find the host in S3 (and trigger/await a wake)?
    woke_host: bool = False

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def completed(self) -> bool:
        return not math.isnan(self.completion_s)


def poisson_arrivals(rng: np.random.Generator, start_s: float, duration_s: float,
                     rate_per_s: float) -> np.ndarray:
    """Poisson arrival times in [start, start + duration)."""
    if rate_per_s <= 0.0:
        return np.empty(0)
    n = rng.poisson(rate_per_s * duration_s)
    return start_s + np.sort(rng.uniform(0.0, duration_s, size=n))


_SHAPE_KINDS = ("constant", "diurnal", "weekly", "flash", "replay")


@dataclass(frozen=True)
class ArrivalShape:
    """Deterministic hourly modulation of the request arrival rate.

    A scenario's *arrival pattern* (DESIGN.md §12): the effective
    per-second request rate of an hour is the profile's trace-driven
    rate times :meth:`rate_factor` of that absolute hour.  The factor is
    a pure function of the hour index (no RNG), so shaped traffic stays
    exactly as deterministic and reorder-invariant as the unshaped
    bulk-request path it modulates.

    Kinds:

    * ``constant`` — flat ``scale`` (the identity shape at 1.0);
    * ``diurnal`` — sinusoidal day cycle peaking at ``phase_h`` o'clock
      with relative ``amplitude``;
    * ``weekly`` — the diurnal cycle with weekends (Sat/Sun of the
      simulation calendar) damped to ``weekend_factor``;
    * ``flash`` — flat baseline with a flash crowd of ``burst_factor``×
      traffic for ``burst_len_h`` hours every ``burst_period_h`` hours
      (the period is deliberately co-prime with 24 by default so bursts
      precess across the day);
    * ``replay`` — cycle through an explicit ``factors`` table, e.g.
      loaded from a measured CSV via :meth:`from_csv`.
    """

    kind: str = "constant"
    scale: float = 1.0
    #: diurnal/weekly: relative swing around the mean, in [0, 1].
    amplitude: float = 0.6
    #: diurnal/weekly: hour of day the rate peaks.
    phase_h: float = 15.0
    #: weekly: multiplier applied on Saturdays/Sundays.
    weekend_factor: float = 0.35
    #: flash: hours between burst onsets / burst length / burst height.
    burst_period_h: int = 47
    burst_len_h: int = 2
    burst_factor: float = 8.0
    #: replay: explicit factor table, cycled over the horizon.
    factors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _SHAPE_KINDS:
            raise ValueError(
                f"unknown arrival shape {self.kind!r}; "
                f"expected one of {_SHAPE_KINDS}")
        if self.scale < 0.0:
            raise ValueError("scale must be >= 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.kind == "flash" and (self.burst_period_h < 1
                                     or self.burst_len_h < 1):
            raise ValueError("burst period/length must be >= 1 hour")
        if self.kind == "replay":
            if not self.factors:
                raise ValueError("replay shape needs a factors table")
            if any(f < 0.0 for f in self.factors):
                raise ValueError("replay factors must be >= 0")

    @classmethod
    def from_csv(cls, source: str | Path, scale: float = 1.0) -> "ArrivalShape":
        """Replay shape from a CSV of hourly rate factors.

        Accepts a path or CSV text with one factor per row — either a
        single column or a trailing column after an hour index; a
        non-numeric header row is skipped (see
        :func:`repro.traces.replay.read_hourly_column`).
        """
        from ..traces.replay import read_hourly_column

        return cls(kind="replay", scale=scale,
                   factors=tuple(read_hourly_column(source)))

    def rate_factor(self, hour_index: int) -> float:
        """Rate multiplier for an absolute hour (periodic extension)."""
        kind = self.kind
        if kind == "constant":
            return self.scale
        if kind == "replay":
            return self.scale * self.factors[hour_index % len(self.factors)]
        if kind == "flash":
            in_burst = hour_index % self.burst_period_h < self.burst_len_h
            return self.scale * (self.burst_factor if in_burst else 1.0)
        # diurnal / weekly
        h = hour_index % 24
        factor = 1.0 + self.amplitude * np.cos(
            2.0 * np.pi * (h - self.phase_h) / 24.0)
        if kind == "weekly" and slot_of_hour(hour_index).day_of_week >= 5:
            factor *= self.weekend_factor
        return self.scale * float(factor)

    def factors_for(self, start_hour: int, n_hours: int) -> np.ndarray:
        """``(n_hours,)`` factor vector starting at ``start_hour``."""
        return np.array([self.rate_factor(start_hour + k)
                         for k in range(n_hours)])


@dataclass(frozen=True)
class RequestProfile:
    """How a VM's trace activity translates into request traffic."""

    #: Request rate (per second) when the VM is at full activity.
    peak_rate_per_s: float = 0.01
    #: Lognormal service-time distribution (median ~60 ms, CloudSuite-ish).
    service_median_s: float = 0.060
    service_sigma: float = 0.35
    #: Deterministic first request at the start of each active hour
    #: (clients notice the service; this is also what wakes a drowsy
    #: host at the start of an active period).
    leading_request: bool = True
    #: Optional arrival-pattern shaping (diurnal, flash crowds, replay).
    #: ``None`` keeps the original trace-proportional rate bit-exactly.
    shape: ArrivalShape | None = None

    def hourly_arrivals(self, rng: np.random.Generator, hour_start_s: float,
                        activity: float,
                        hour_index: int | None = None) -> np.ndarray:
        """Arrival times for one hour at the given activity level.

        ``hour_index`` (the absolute hour) keys the arrival shape; when
        absent, or with no shape configured, the rate is the unshaped
        trace-proportional one.
        """
        if activity <= 0.0:
            return np.empty(0)
        rate = self.peak_rate_per_s * activity
        if self.shape is not None and hour_index is not None:
            rate *= self.shape.rate_factor(hour_index)
            if rate <= 0.0:
                # A zeroed-out hour generates nothing, leading request
                # included: the shape silenced this VM's clients.
                return np.empty(0)
        arrivals = poisson_arrivals(rng, hour_start_s, 3600.0, rate)
        if self.leading_request:
            lead = hour_start_s + float(rng.uniform(0.0, 2.0))
            arrivals = np.sort(np.concatenate(([lead], arrivals)))
        return arrivals

    def sample_service_time(self, rng: np.random.Generator) -> float:
        return float(self.service_median_s * rng.lognormal(0.0, self.service_sigma))

    def sample_service_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` service-time draws in one vectorized pass.

        Bit-identical to ``n`` sequential :meth:`sample_service_time`
        calls on the same generator state: numpy fills the array from
        the same underlying bit stream the scalar draws consume, and the
        median scaling is the same elementwise multiply.
        """
        return self.service_median_s * rng.lognormal(
            0.0, self.service_sigma, size=n)


class RequestLog:
    """Completed-request archive with the paper's SLA metrics.

    Columnar (DESIGN.md §10): parallel arrays, one row per completed
    request in completion order, so a day of traffic costs no object
    per request.
    """

    def __init__(self) -> None:
        self.arrivals = array("d")
        self.vm_names: list[str] = []
        self.service_times = array("d")
        self.completions = array("d")
        #: 1 where the request found its host drowsy (section VI-A.3).
        self.woke = array("b")

    def __len__(self) -> int:
        return len(self.arrivals)

    def append(self, arrival_s: float, vm_name: str, service_time_s: float,
               completion_s: float, woke_host: bool = False) -> None:
        self.arrivals.append(arrival_s)
        self.vm_names.append(vm_name)
        self.service_times.append(service_time_s)
        self.completions.append(completion_s)
        self.woke.append(woke_host)

    def extend(self, arrivals: list[float], vm_names: list[str],
               service_times: list[float], completions: list[float]) -> None:
        """Append rows in bulk, one per entry of the equal-length lists,
        none of which found its host drowsy."""
        self.arrivals.fromlist(arrivals)
        self.vm_names.extend(vm_names)
        self.service_times.fromlist(service_times)
        self.completions.fromlist(completions)
        self.woke.frombytes(bytes(len(completions)))

    def record(self, request: Request) -> None:
        if not request.completed:
            raise ValueError("only completed requests can be recorded")
        self.append(request.arrival_s, request.vm_name,
                    request.service_time_s, request.completion_s,
                    request.woke_host)

    @property
    def requests(self) -> list[Request]:
        """The rows as :class:`Request` objects, built on each call (for
        inspection; no statistic reads it)."""
        return [Request(*row[:4], woke_host=bool(row[4])) for row in zip(
            self.arrivals, self.vm_names, self.service_times,
            self.completions, self.woke)]

    @property
    def wake_requests(self) -> list[Request]:
        """Requests that hit a drowsy server (the tail of section VI-A.3)."""
        return [r for r in self.requests if r.woke_host]

    @property
    def latencies_s(self) -> np.ndarray:
        """``completion - arrival`` per row: the float subtraction
        :attr:`Request.latency_s` makes."""
        return np.array(self.completions) - np.array(self.arrivals)

    def summary(self, bound_s: float = SLA_LATENCY_S) -> dict[str, float]:
        """The request-latency digest, every statistic from one latency
        array.  It is reduced in sorted order, so the digest is a pure
        function of the latency *multiset*, whatever the log order."""
        lat = self.latencies_s
        wake = lat[np.array(self.woke, dtype=bool)]
        lat.sort()
        if lat.size:
            p50, p99, p100 = np.percentile(lat, (50, 99, 100))
            sla = float(np.mean(lat <= bound_s))
            mean = float(np.mean(lat))
        else:
            p50 = p99 = p100 = sla = mean = float("nan")
        return {
            "requests": float(lat.size),
            "sla_fraction": sla,
            "mean_s": mean,
            "p50_s": float(p50),
            "p99_s": float(p99),
            "max_s": float(p100),
            "wake_requests": float(wake.size),
            "max_wake_latency_s": float(wake.max()) if wake.size else 0.0,
        }
