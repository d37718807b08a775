"""Set-up probe: import unilab, then make the workload's warm-up call.

    PYTHONPATH=src python3 perfbench/warmup.py mc-estimate

The benchmark times this script in fresh interpreters for ``setup_s`` and
calls ``run`` in its own process before it starts measuring.
"""

import os
import sys

#: |J| of the quark sector, the CLI's default prob-jobs threshold
J_CKM = 3.08e-5


def mc_mix():
    """(label, measure, statistic, samples per call) of the mc-estimate mix."""
    import unilab

    S = unilab.Statistic
    return (
        ("haar-absj", unilab.HAAR, S.indicator_absj_leq(J_CKM), 2_000_000),
        ("flat-qnonneg", unilab.FLAT_B3, S.indicator_q_nonneg(), 2_000_000),
        ("mu1.5-entropy", unilab.MeasureSpec.mu(1.5), S.entropy(), 4_000_000),
        ("mu2-sq2", unilab.MeasureSpec.mu(2.0), S.generalized_entropy(2.0), 4_000_000),
    )


def run(workload: str) -> None:
    import unilab

    if workload == "mc-estimate":
        threads = len(os.sched_getaffinity(0))
        for _, measure, stat, _ in mc_mix():
            unilab.estimate_mean(measure, stat, 6400, seed=1, threads=threads)
    elif workload == "decide-scan":
        for m in (unilab.W, unilab.IDENTITY):
            unilab.classify(m)
            j = unilab.jarlskog(unilab.reconstruct(m).unitary)
            unilab.cdf_absj(1.0, abs(j))
        unilab.classify(unilab.SCHUR)
    elif workload in ("cli-oneshot", "sample-export"):
        # each request is a fresh process; its set-up is the import itself
        import unilab.cli  # noqa: F401
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    run(sys.argv[1])
