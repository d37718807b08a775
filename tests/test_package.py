import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import unilab
import unilab.cli  # noqa: F401  (the benchmark reaches unilab.cli through the package)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(unilab.__file__).resolve().parent

#: names that left the library, with the module each lived in
_REMOVED = {
    "analytic": ("b3_integral", "gauss_2f1_onethird", "density_f12", "cdf_absj_values",
                 "likelihood_ratio_at", "digamma", "log_gamma"),
    "core": ("extreme_q_search", "ExtremeQResult", "q_product_form", "x_interval", "BVector"),
    "estimators": ("moment_suite", "ks_distance", "EmpiricalCdf"),
}


def test_public_surface():
    assert len(set(unilab.__all__)) == len(unilab.__all__)
    missing = [name for name in unilab.__all__ if not hasattr(unilab, name)]
    assert not missing
    # internal helpers live only in their modules
    for name in ("pochhammer", "b_from_product_coords", "embedding_gram_matrix", "split_stream"):
        assert not hasattr(unilab, name), name
    assert hasattr(unilab.analytic, "pochhammer")
    assert hasattr(unilab.core, "b_from_product_coords")
    assert hasattr(unilab.core, "embedding_gram_matrix")
    for module, names in _REMOVED.items():
        for name in names:
            assert not hasattr(unilab, name), name
            assert not hasattr(importlib.import_module(f"unilab.{module}"), name), name


def test_names_the_benchmark_reads_are_exported():
    used = set()
    for script in ("workloads.py", "warmup.py"):
        used |= set(re.findall(r"\bunilab\.(\w+)", (PERFBENCH / script).read_text()))
    assert {"estimate_mean", "cdf_absj", "sample_b", "jarlskog"} <= used
    assert [name for name in sorted(used) if not hasattr(unilab, name)] == []


def run_child(code, *args):
    """Run ``python -c code args...`` with this checkout's sources first on the path."""
    src = str(Path(unilab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env=env)


def test_no_library_file_mentions_scipy():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [f.name for f in files if "scipy" in f.read_text()] == []


def test_import_leaves_scipy_quadrature_unloaded():
    # the package needs only numpy
    proc = run_child("import sys, unilab, unilab.cli\n"
                     "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_WITHOUT_SCIPY = """
import importlib, json, sys
from pathlib import Path
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import unilab
for path in Path(unilab.__file__).parent.glob("*.py"):
    if path.stem != "__init__":
        importlib.import_module(f"unilab.{path.stem}")
from unilab.cli import main
d = Path(sys.argv[1])
(d / "w.json").write_text(json.dumps({"b": [1 / 3] * 4}))
runs = [
    ["check", "--input", str(d / "w.json")],
    ["reconstruct", "--input", str(d / "w.json")],
    ["analytic", "--table"],
    ["dist", "--measure", "mu:1.5", "--what", "cdf"],
    ["estimate", "--target", "entropy", "--measure", "mu:1.5", "--n", "1000"],
    ["sample", "--measure", "haar", "--n", "10"],
]
codes = [main(argv + ["--output", str(d / "out")]) for argv in runs]
print(json.dumps({"codes": codes}))
"""


def test_the_cli_runs_without_scipy(tmp_path):
    proc = run_child(_WITHOUT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * 6, proc.stderr


def test_functions_the_tracer_wraps_exist():
    # a traced name that is missing is skipped silently, and a traced run
    # then has no spans for the metrics built on it
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert "estimators" in spans._TRACED
    missing = [f"{short}.{name}" for short, names in spans._TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"unilab.{short}"), name, None))]
    assert missing == []
