import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import unilab
import unilab.cli  # noqa: F401  (the benchmark reaches unilab.cli through the package)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_public_surface():
    assert len(set(unilab.__all__)) == len(unilab.__all__)
    missing = [name for name in unilab.__all__ if not hasattr(unilab, name)]
    assert not missing
    # internal helpers live only in their modules
    for name in ("pochhammer", "q_product_form", "x_interval", "b_from_product_coords",
                 "embedding_gram_matrix", "split_stream"):
        assert not hasattr(unilab, name), name
    assert hasattr(unilab.analytic, "pochhammer")
    assert hasattr(unilab.core, "q_product_form") and hasattr(unilab.core, "x_interval")
    assert hasattr(unilab.core, "b_from_product_coords")
    assert hasattr(unilab.core, "embedding_gram_matrix")


def test_names_the_benchmark_reads_are_exported():
    used = set()
    for script in ("workloads.py", "warmup.py"):
        used |= set(re.findall(r"\bunilab\.(\w+)", (PERFBENCH / script).read_text()))
    assert {"estimate_mean", "cdf_absj", "sample_b", "jarlskog"} <= used
    assert [name for name in sorted(used) if not hasattr(unilab, name)] == []


def test_import_leaves_scipy_quadrature_unloaded():
    # scipy.integrate is imported by b3_integral on first use, not by the package
    src = str(Path(unilab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    code = "import sys, unilab, unilab.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
