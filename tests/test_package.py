import re
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
