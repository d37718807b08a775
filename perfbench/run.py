"""unilab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mc-estimate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``,
nothing is installed.  With ``--trace 0`` the last line of stdout carries
the end-to-end metrics (BENCHMARK.json ``end_to_end``); with ``--trace 1``
it carries the per-layer metrics from a traced run.  The lines before it
hold the machine and build metadata and a report with the seed, the
failure count and the workload's own named figures (mc_samples_per_s,
cli_wall_ms_p50, ...).  See perfbench/README.md for the metrics and the
layer predictions.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import (CAL_REF_S, calibration_s, child_env, e2e_metrics, mix_seconds,
                     run_loop, spawn)
from spans import Tracer, home_workloads, layer_metrics, wrapped_functions
import warmup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: workloads.WORKLOADS imports unilab, so the names are listed here for
#: argument parsing in a directory without the sources
WORKLOAD_NAMES = ("mc-estimate", "cli-oneshot", "sample-export", "decide-scan")
#: fresh interpreters timed for setup_s
SETUP_REPEATS = 3
#: fresh interpreters timed for the import-time breakdown
IMPORT_REPEATS = 5


def measure_setup(workload: str, workdir: Path) -> tuple:
    """(scaled, unscaled) median time of fresh interpreters running warmup.py.

    Each probe is scaled like a cli-oneshot request, by the "process"
    calibration kernel run before and after it (see harness).
    """
    walls, scaled = [], []
    after = calibration_s("process")
    for _ in range(SETUP_REPEATS):
        before = after
        o = spawn([str(HERE / "warmup.py"), workload], child_env(SRC), str(workdir))
        if o.code != 0:
            raise RuntimeError(f"set-up probe failed with exit {o.code}: {o.stderr.strip()}")
        after = calibration_s("process")
        walls.append(o.wall_s)
        scaled.append(o.wall_s * CAL_REF_S["process"] / (0.5 * (before + after)))
    return statistics.median(scaled), statistics.median(walls)


def import_times(workdir: Path) -> dict:
    """init.* from ``python -X importtime -c 'import unilab'`` (medians)."""
    total, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        o = spawn(["-X", "importtime", "-c", "import unilab"], child_env(SRC), str(workdir))
        if o.code != 0:
            raise RuntimeError(f"import probe failed: {o.stderr.strip()[-300:]}")
        self_us = {}
        cumulative_us = {}
        for line in o.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cum, name = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue  # the column header
            self_us[name.strip()] = int(own)
            cumulative_us[name.strip()] = int(cum)
        total.append(cumulative_us["unilab"] / 1e6)
        scipy.append(sum(v for n, v in self_us.items() if n.split(".")[0] == "scipy") / 1e6)
    return {
        "init.import_s": (statistics.median(total), "s"),
        "init.scipy_import_s": (statistics.median(scipy), "s"),
    }


def metadata() -> dict:
    import numpy
    import scipy

    import unilab

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "unilab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "unilab": unilab.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine_settings_changed": False,
    }


def write_spans(path: Path, phases: dict) -> None:
    """Every span of a traced run as one JSON object per line, gzip-compressed."""
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for phase, spans in phases.items():
            for span in spans:
                fh.write(json.dumps({"phase": phase, **span._asdict()}) + "\n")


def traced_run(cls, seed: int, seconds: float, workdir: Path) -> tuple:
    """Per-layer metrics: half the time untraced, half traced, then companions.

    The CLI workloads run in process here, through unilab.cli.main(argv),
    in both halves, so trace.overhead_ratio compares like with like.  A
    metric this workload never reaches (sampling rates on decide-scan, say)
    comes from a short traced cycle of the other workloads, and so does
    every metric whose layer this workload is not a home of (see
    spans.home_workloads).  The spans go to perfbench/traces/ at the end.
    """
    from workloads import WORKLOADS

    wl = cls(seed, workdir, spawn_cli=False)
    warm = run_loop(lambda c: wl.cycle(c, mini=True), 0)
    plain = run_loop(wl.cycle, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(wl.cycle, seconds / 2, tracer)
        primary = tracer.take()
        companions = []
        for other_cls in WORKLOADS.values():
            if other_cls is not cls:
                other = other_cls(seed, workdir, spawn_cli=False)
                companions += run_loop(lambda c, o=other: o.cycle(c, mini=True), 0, tracer)
        fallback = tracer.take()
    finally:
        tracer.uninstall()

    metrics, sources = {}, {}
    own, other = layer_metrics(primary), layer_metrics(fallback)
    for name, (value, unit) in own.items():
        sources[name] = cls.name
        if value is None or cls.name not in home_workloads(name):
            (value, unit), sources[name] = other[name], "companions"
        if value is None:
            raise RuntimeError(f"no spans to compute {name}")
        metrics[name] = (value, unit)
    trace_file = HERE / "traces" / f"{cls.name}-seed{seed}.jsonl.gz"
    write_spans(trace_file, {cls.name: primary, "companions": fallback})
    metrics.update(import_times(workdir))
    common = {r.kind for r in plain} & {r.kind for r in traced}
    metrics["trace.overhead_ratio"] = (
        mix_seconds([r for r in traced if r.kind in common], lambda r: r.ref_wall_s)
        / mix_seconds([r for r in plain if r.kind in common], lambda r: r.ref_wall_s), "ratio")
    report = {"metric_sources": sources, "spans": str(trace_file.relative_to(ROOT))}
    return metrics, warm + plain + traced + companions, report


def run(args, workdir: Path) -> int:
    from workloads import WORKLOADS

    setup_s, unscaled_setup_s = measure_setup(args.workload, workdir)
    warmup.run(args.workload)
    cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, records, report = traced_run(cls, args.seed, args.seconds, workdir)
    else:
        wl = cls(args.seed, workdir, spawn_cli=not cls.in_process)
        records = run_loop(wl.cycle, args.seconds)
        metrics, reported = e2e_metrics(records, setup_s, self_rss=cls.in_process)
        report = {"named": wl.report(records), **reported}
    failures = [msg for r in records for msg in r.failures]
    attempted = sum(r.ops for r in records)
    leftovers = wrapped_functions()
    for msg in failures[:20] + [f"still wrapped after the run: {n}" for n in leftovers]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": len(records), "setup_s": setup_s,
        "unscaled_setup_s": unscaled_setup_s,
        "failed_ratio": len(failures) / attempted,
        "units": {name: unit for name, (_, unit) in metrics.items()},
    })
    print(json.dumps({"meta": metadata()}))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and not leftovers,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one unilab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unilab" / "__init__.py").is_file():
        print(f"perfbench: no unilab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
