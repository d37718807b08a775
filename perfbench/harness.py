"""Request timing, the measuring loop, child processes and summary statistics.

A workload hands the loop one cycle of requests at a time: its fixed mix.
The loop times each request, checks its output after the clock stops, and
keeps going until the measured time would pass the run length.  The first
cycle always runs to the end, so every request kind is measured at least
once and the count-based checks always see the same first cycle.

On a shared machine the speed drifts, by up to 1.8x between 30-second
windows on a shared 2-vCPU Xeon VM.  A request can name a fixed
calibration kernel to run before and after it; its times are then scaled
to the speed at which the kernel takes its reference time (CAL_REF_S).
The "interpreter" kernel resembles the per-matrix path and the CSV
writer.  The "numpy" kernel resembles a sampler on one thread, and
"numpy-nproc" one on every CPU, as a threads=nproc estimate runs.  A
kernel in this process does not track a child process, so a CLI request
run as a child is bracketed by the "process" kernel instead: a fresh
interpreter that imports numpy and scipy.special, much of what a CLI
process does before its own work.  That kernel runs once per point, and
the kernel after one request doubles as the kernel before the next.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

#: kernel times that scaled request times refer to
CAL_REF_S = {"interpreter": 2.75e-3, "numpy": 12e-3, "numpy-nproc": 23.5e-3, "process": 0.56}
#: runs per calibration point; the point is their median
CAL_REPEATS = {"interpreter": 3, "numpy": 15, "numpy-nproc": 9, "process": 1}
#: kernels whose after-time is reused as the next request's before-time
CHAINED = {"process"}
PROCESS_KERNEL = "import numpy, scipy.special"
_CAL_MATS = np.random.default_rng(0).random((64, 3, 3))
_EYE = np.eye(3)
_CAL_RNG = np.random.Generator(np.random.Philox(7))
_CAL_RNGS = [np.random.Generator(np.random.Philox(8 + i))
             for i in range(len(os.sched_getaffinity(0)))]


@dataclass
class Outcome:
    """What a CLI request left behind; child runs also carry their own cost."""

    code: int
    stdout: str
    stderr: str
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    maxrss_kb: int = 0


@dataclass
class Request:
    """One operation of a workload's mix.

    ``items`` is the work it completes (samples, rows, matrices or one
    request); ``ops`` is how many checked operations it holds.  ``check``
    gets the value ``run`` returned and lists one message per failed
    operation.  Only ``rated`` requests count toward ``ops_per_s`` and the
    latency figures.
    """

    kind: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], list]
    ops: int = 1
    rated: bool = True
    #: the CAL_REF_S kernel that brackets it; None leaves it unscaled
    calibrate: Optional[str] = None


@dataclass
class Record:
    kind: str
    cycle: int
    items: int
    ops: int
    rated: bool
    wall_s: float
    cpu_s: float
    child_rss_kb: int
    failures: list
    #: CAL_REF_S over the calibration kernel's time around the request; 1 unscaled
    scale: float = 1.0
    #: the calibration kernel's time right after the request
    cal_after_s: Optional[float] = None

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def _interpreter_kernel() -> None:
    acc = 0.0
    for k in range(150):
        m = np.array(_CAL_MATS[k % 64])
        acc += float(np.abs(m.T @ m - _EYE).max()) + math.sqrt(float(m.min()))
        values = m.ravel().tolist()
        acc += sum(x * x for x in values) + len(",".join(f"{x:.17g}" for x in values))


def _numpy_kernel() -> None:
    z = _CAL_RNG.standard_normal((40000, 3)) + 1j * _CAL_RNG.standard_normal((40000, 3))
    float(np.sqrt(np.abs(z) ** 2).sum() + _CAL_RNG.beta(1.5, 1.5, 40000).sum())


def _numpy_draws(rng) -> None:
    x = rng.standard_normal(600_000)
    np.sqrt(np.abs(x), out=x)
    float(x.sum())


def _numpy_nproc_kernel() -> None:
    threads = [threading.Thread(target=_numpy_draws, args=(rng,)) for rng in _CAL_RNGS]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _process_kernel() -> None:
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", PROCESS_KERNEL], os.environ)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0:
        raise RuntimeError(f"calibration child {PROCESS_KERNEL!r} exited {status}")


_KERNELS = {"interpreter": _interpreter_kernel, "numpy": _numpy_kernel,
            "numpy-nproc": _numpy_nproc_kernel, "process": _process_kernel}


def calibration_s(kind: str) -> float:
    """Median time of CAL_REPEATS[kind] runs of a fixed kernel that calls no unilab code.

    "interpreter": 3x3 numpy calls, Python arithmetic and float formatting.
    "numpy": Gaussian and Beta draws and elementwise math on 40k-row arrays.
    "numpy-nproc": Gaussian draws and elementwise math on a 600k array, on
    one thread per CPU, each with its own generator.  "process": a fresh
    interpreter running PROCESS_KERNEL, spawn to reap.
    """
    kernel = _KERNELS[kind]
    times = []
    for _ in range(CAL_REPEATS[kind]):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def child_env(src) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: Sequence[str], env: dict, workdir: str) -> Outcome:
    """Run ``python args...`` to completion with stdout and stderr in files.

    Wall time runs from the spawn to the reap; CPU time and peak RSS are
    the child's own, from wait4.
    """
    out_path = os.path.join(workdir, "child.stdout")
    err_path = os.path.join(workdir, "child.stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *args],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode()
        stderr = err.read().decode()
    return Outcome(
        code=os.waitstatus_to_exitcode(status),
        stdout=stdout,
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def measure(request: Request, cycle: int, scope=None, before: Optional[float] = None) -> Record:
    """Time one request and check its output; ``scope`` brackets the timed part.

    ``before`` is a calibration time already taken right before the request.
    """
    calibrate = request.calibrate
    if calibrate and before is None:
        before = calibration_s(calibrate)
    if scope is not None:
        scope.begin(cycle, request.kind)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        value = request.run()
        error = None
    except Exception as exc:  # a crashing operation is a failed one, not a crashed run
        value, error = None, f"{request.kind}: raised {exc!r}"
    wall = time.perf_counter() - t0
    if scope is not None:
        scope.end()
    cpu = time.process_time() - c0
    after = calibration_s(calibrate) if calibrate else None
    scale = CAL_REF_S[calibrate] / (0.5 * (before + after)) if calibrate else 1.0
    rss = 0
    if isinstance(value, Outcome) and value.wall_s is not None:
        wall, cpu, rss = value.wall_s, value.cpu_s, value.maxrss_kb
    if error is not None:
        failures = [error] * request.ops
    else:
        try:
            failures = [f"{request.kind}: {msg}" for msg in request.check(value)]
        except Exception as exc:  # the checker met output it could not even parse
            failures = [f"{request.kind}: output check raised {exc!r}"]
    return Record(request.kind, cycle, request.items, request.ops, request.rated,
                  wall, cpu, rss, failures[: request.ops], scale, after)


def run_loop(make_cycle: Callable[[int], list], seconds: float, scope=None) -> list:
    """Run cycles of requests until the measured time would exceed ``seconds``.

    Only time spent inside requests counts, so output checks and input
    generation do not shorten the measurement.
    """
    records: list = []
    measured = 0.0
    cycle = 0
    while True:
        for request in make_cycle(cycle):
            if cycle > 0 and measured + measured / len(records) > seconds:
                return records
            chained = request.calibrate in CHAINED and records
            record = measure(request, cycle, scope, records[-1].cal_after_s if chained else None)
            records.append(record)
            measured += record.wall_s
        cycle += 1


# ---------------------------------------------------------------------------
# statistics


def by_kind(records) -> dict:
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r)
    return kinds


def mix_seconds(records, cost: Callable[[Record], float]) -> float:
    """Cost of one cycle, each kind at the median of its requests.

    Each kind is weighted by its count in the first cycle, which makes the
    figure independent of how many repetitions of each kind fit into the run.
    """
    per_cycle = Counter(r.kind for r in records if r.cycle == 0)
    return sum(per_cycle[k] * statistics.median(cost(r) for r in rs)
               for k, rs in by_kind(records).items())


def mix_rate(records, cost: Callable[[Record], float]) -> float:
    """Items per second of one cycle of the mix (see mix_seconds)."""
    per_cycle = Counter(r.kind for r in records if r.cycle == 0)
    items = sum(per_cycle[k] * rs[0].items for k, rs in by_kind(records).items())
    return items / mix_seconds(records, cost)


def tail(values) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported and its percentile is 100.
    """
    v = sorted(values)
    if len(v) < 11:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def e2e_metrics(records, setup_s: float, self_rss: bool) -> tuple:
    """The gated end-to-end metrics of a run, and the figures only reported."""
    rated = [r for r in records if r.rated]
    walls_ms = [1000.0 * r.ref_wall_s for r in rated]
    tail_ms, tail_pct = tail(walls_ms)
    if self_rss:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.child_rss_kb for r in records)
    metrics = {
        "ops_per_s": (mix_rate(rated, lambda r: r.ref_wall_s), "1/s"),
        "ops_per_cpu_s": (mix_rate(records, lambda r: r.ref_cpu_s), "1/s"),
        "latency_ms_p50": (statistics.median(walls_ms), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    reported = {
        "latency_ms_tail": tail_ms,
        "latency_ms_tail_percentile": tail_pct,
        "latency_samples": len(rated),
        "timing_scale_p50": statistics.median(r.scale for r in records),
        "unscaled_ops_per_s": mix_rate(rated, lambda r: r.wall_s),
        "unscaled_latency_ms_p50": statistics.median(1000.0 * r.wall_s for r in rated),
    }
    return metrics, reported
