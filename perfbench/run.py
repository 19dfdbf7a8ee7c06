"""Perf ledger for the Drowsy-DC simulator.

Runs one workload (see ``workloads.py``) for about ``--seconds``
seconds, one simulation at a time, each in a fresh process, and prints
the metrics named in ``BENCHMARK.json``::

    python3 perfbench/run.py --workload event-day --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

``--trace 0`` is the untraced pass: the end-to-end metrics, each the
median over the repetitions.  ``--trace 1`` is the traced pass: one
untraced repetition (the base of the tracing overhead) and then traced
repetitions whose layer spans give the per-layer metrics.  Every
repetition's outputs are checked; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the lines
before it are a run manifest and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

#: Untraced repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 2
#: Wall budget of one invocation; no repetition starts that would
#: likely end past it.
LIMIT_S = 165.0


#: How the untraced pass reduces its repetitions to each metric.
STATISTIC = {
    "setup_s": "median of {n}",
    "run_s": "sum over hours of the fastest of {n}",
    "vm_hours_per_s": "VM-hours / run_s",
    "peak_rss_mb": "median of {n}",
}


class RepFailed(RuntimeError):
    """A repetition exited non-zero, timed out or printed no result."""


# ----------------------------------------------------------------------
# one repetition, with the peak RSS of its process tree
# ----------------------------------------------------------------------
def _children_of() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _descendants(pid: int) -> list[int]:
    tree, found, todo = _children_of(), [], [pid]
    while todo:
        kids = tree.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def _peak_rss_kb(pid: int) -> int:
    """The kernel's high-water mark of ``pid``'s resident set (VmHWM)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_rep(workload: str, seed: int, mode: str, workdir: Path,
            check: bool, timeout: float) -> dict:
    """Run ``rep.py`` once and return its result.

    The repetition reports its own peak RSS; the peaks of its child
    processes (the sharded backend's workers) are polled from ``/proc``
    while it runs and added, so ``peak_rss_mb`` counts the whole tree.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = workdir / "rep.json"
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode,
           "--workdir", str(workdir / "ckpt")]
    if check:
        cmd.append("--check")
    env = dict(os.environ, TMPDIR=str(workdir))
    child_peaks: dict[int, int] = {}
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                start_new_session=True)
        deadline = time.monotonic() + timeout
        try:
            while True:
                try:
                    proc.wait(timeout=0.25)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise RepFailed(f"timed out after {timeout:.0f} s")
                    for pid in _descendants(proc.pid):
                        child_peaks[pid] = max(child_peaks.get(pid, 0),
                                               _peak_rss_kb(pid))
        finally:
            # The session holds the repetition and every process it
            # started; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    shutil.rmtree(workdir / "ckpt", ignore_errors=True)
    lines = out_path.read_text().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} ({mode}) exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = (result["rss_mb"]
                             + sum(child_peaks.values()) / 1024.0)
    return result


# ----------------------------------------------------------------------
# one workload: repetitions, checks, aggregation
# ----------------------------------------------------------------------
class Ledger:
    """Repetitions of one workload and the outcome of their checks."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rep(self, mode: str, check: bool = False,
            workload: str | None = None) -> dict | None:
        """One checked repetition (of ``workload``, default this one)."""
        workload = workload or self.name
        self.attempted += 1
        timeout = max(LIMIT_S - self.elapsed(), 1.0)
        try:
            result = run_rep(workload, self.seed, mode,
                             self.workdir / f"rep{self.attempted}", check,
                             timeout)
        except (RepFailed, OSError, ValueError) as exc:
            self.fail(str(exc))
            return None
        failed = list(result["failed"])
        if workload == self.name:
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                failed.append(f"{mode} run digest {result['digest']} != "
                              f"first run's {self.digest}")
        if failed:
            self.fail(*failed)
            return None
        return result

    def fail(self, *problems: str) -> None:
        """Count one failed run, with what went wrong."""
        self.failed += 1
        self.failures += problems

    def repeat(self, mode: str, seconds: float, min_reps: int,
               first_check: bool) -> list[dict]:
        """Repetitions until ``seconds`` would be overrun (at least
        ``min_reps`` attempts, within the invocation's budget)."""
        reps: list[dict] = []
        start = time.monotonic()
        n = 0
        while True:
            result = self.rep(mode, check=first_check and n == 0)
            n += 1
            if result is not None:
                reps.append(result)
            spent = time.monotonic() - start
            per_rep = spent / n
            if n >= min_reps and spent + per_rep > seconds:
                return reps
            if self.elapsed() + 1.5 * per_rep > LIMIT_S:
                return reps


def untraced_pass(ledger: Ledger, seconds: float) -> dict:
    reps = ledger.repeat("plain", seconds, MIN_REPS, first_check=True)
    if not reps:
        return {}
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    run_s = floor_run_s([r["segments"] for r in reps])
    return {
        "setup_s": med("setup_s"),
        "run_s": run_s,
        "vm_hours_per_s": reps[0]["vm_hours"] / run_s,
        "peak_rss_mb": med("peak_rss_mb"),
        "run_s_median": med("run_s"),
        "_samples": len(reps),
    }


def floor_run_s(segments: list[list[float]]) -> float:
    """Run wall time with the host's noise bursts filtered out.

    The simulation is deterministic, so every repetition does the same
    work between the same hour boundaries; a segment's fastest
    repetition is its best estimate, and the run's is their sum.  On a
    shared host, contention from other tenants slows stretches of a
    run by up to 75 %; a median over a few repetitions keeps such
    bursts, this sum drops them unless every repetition met one in the
    same hour.  It cannot remove a slowdown that lasts the whole run.
    """
    if len({len(s) for s in segments}) != 1:
        raise ValueError("repetitions crossed different hour boundaries")
    return sum(min(column) for column in zip(*segments))


def companion_layers(ledger: Ledger, base: dict) -> dict:
    """Run the workload's companion untraced and traced; its results
    must equal the workload's except for ``backend``.  Returns the
    companion's own layer metrics (``sharded.*``)."""
    name = WORKLOADS[ledger.name].companion
    plain = ledger.rep("plain", workload=name)
    traced = ledger.rep("traced", workload=name)
    for run in (plain, traced):
        if run is not None and (run["digest_except_backend"]
                                != base["digest_except_backend"]):
            ledger.fail(f"{name} results differ from {ledger.name}'s "
                        "beyond the backend field")
            return {}
    layers = {}
    if traced is not None:
        # The companion runs on the sharded backend; its other layer
        # spans duplicate the workload's own.
        layers = {k: v for k, v in traced["layers"].items()
                  if k.startswith("sharded.")}
    if plain is not None:
        layers["sharded.overhead_x"] = plain["run_s"] / base["run_s"]
    return layers


def traced_pass(ledger: Ledger, seconds: float,
                names: list[str]) -> dict:
    workload = WORKLOADS[ledger.name]
    base = ledger.rep("plain", check=True)
    traced = ledger.repeat("traced", seconds - ledger.elapsed(), 1,
                           first_check=True)
    layers: dict = dict.fromkeys(names, 0)
    if not traced:
        return layers
    merged: dict[str, list] = {}
    for r in traced:
        for key, value in {**r["counts"], **r["layers"]}.items():
            merged.setdefault(key, []).append(value)
        if "resume_s" in r:
            merged.setdefault("resilience.resume_s", []).append(r["resume_s"])
    layers.update({k: statistics.median(v) for k, v in merged.items()})
    if base is not None:
        layers["trace.untraced_run_s"] = base["run_s"]
        layers["trace.overhead_s"] = layers["trace.run_s"] - base["run_s"]
        if workload.companion is not None:
            layers.update(companion_layers(ledger, base))
    return layers


# ----------------------------------------------------------------------
# manifest and output
# ----------------------------------------------------------------------
def git_sha() -> str:
    """HEAD's commit, read from ``.git`` (the benchmark may run in a
    checkout that is not a repository: then ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(seed: int, workloads: list[str]) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "seeds": {name: seed for name in workloads},
    }


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Drowsy-DC perf ledger (see the module docstring).")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in metrics_spec]
    units = {m["name"]: m["unit"] for m in metrics_spec}
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])

    info = manifest(args.seed, workloads)
    info["digests"] = {}
    work = ROOT / ".perfbench_work" / str(os.getpid())
    attempted = failed = 0
    final: dict = {}
    try:
        for name in workloads:
            ledger = Ledger(name, args.seed, work / name)
            if args.trace:
                values = traced_pass(ledger, args.seconds, names)
                how = dict.fromkeys(names, "traced")
            else:
                values = untraced_pass(ledger, args.seconds)
                n = values.pop("_samples", 0)
                how = {m: text.format(n=n) for m, text in STATISTIC.items()}
            info["digests"][name] = ledger.digest
            attempted += ledger.attempted
            failed += ledger.failed
            print(f"{name}: {ledger.attempted} runs, {ledger.failed} failed"
                  f" ({ledger.elapsed():.1f} s)")
            for problem in ledger.failures:
                print(f"  FAILED: {problem}")
            for metric in names:
                if metric in values:
                    print(f"  {metric:<34} {values[metric]:>16.6g} "
                          f"{units[metric]:<8} {how[metric]}")
            if "run_s_median" in values:
                print(f"  (median of the whole runs' wall: "
                      f"{values['run_s_median']:.6g} s)")
            prefix = f"{name}." if len(workloads) > 1 else ""
            final.update({prefix + m: {"value": values[m], "unit": units[m]}
                          for m in names if m in values})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print("manifest: " + json.dumps(info, sort_keys=True))
    correct = failed == 0 and len(final) == len(names) * len(workloads)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
