"""End-to-end acceptance checks.

Every promise the package makes is exercised here at its stated tolerance
and time budget: the exact constants, the Monte Carlo agreement with every
closed form, the CKM-scale probabilities, distributional agreement, the
structural identities, and bit-level determinism.  Each test prints one
PASS line with the measured numbers (visible with pytest -s).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from unilab import cli, core
from unilab.analytic import (
    ABSJ_MAX,
    b3_q_integrals,
    cdf_absj,
    density_absj,
    h_k,
    mean_entropy_mu,
    mean_generalized_entropy_b3,
    q_moments,
    volume_ratio,
)
from unilab.core import (
    MAX_BALL_RADIUS,
    Q_CLASS_TOL,
    SCHUR,
    W,
    birkhoff_volume_triangulation,
    embedding_gram_determinant,
    feasible_b_mask,
    matrix_from_b,
    q_of,
    q_values,
)
from unilab.estimators import Statistic, _moments_of, _result, _sharded, estimate_mean
from unilab.sampling import (
    DEFAULT_SEED,
    FLAT_B3,
    HAAR,
    MeasureSpec,
    RngStream,
    sample_b,
    sample_flat_b3,
    sample_haar_unitary,
)
from unilab.unitary import jarlskog, jarlskog_values, reconstruct, to_bistochastic

SEED = DEFAULT_SEED


def _report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def q_moment_rows(k, n_max, samples, threads=None):
    """<Q^n> for n = 1..n_max under mu_k over one shared sample, scored by the estimators."""
    measure = MeasureSpec.mu(k)

    def work(stream, count):
        qv = q_values(sample_b(measure, stream, count))
        return [_moments_of(qv**power) for power in range(1, n_max + 1)]

    seed, parts = _sharded(work, samples, SEED, threads)
    return [_result(f"{measure.label}:Q^{power}", [part[power - 1] for part in parts], seed,
                    q_moments(k, power)) for power in range(1, n_max + 1)]


def ks_upper_bound(values, cdf, step=500):
    """An upper bound on the Kolmogorov-Smirnov distance of a sample from a CDF.

    cdf runs only at every step-th order statistic and the largest one.  A
    monotone F at any sample lies between its values at the two nodes around
    it, which bounds both one-sided gaps there; the bound exceeds the
    distance by at most step/n.
    """
    v = np.sort(values)
    n = v.size
    nodes = np.unique(np.r_[0:n:step, n - 1])
    f = np.array([cdf(y) for y in v[nodes].tolist()])
    return max(((nodes[1:] + 1) / n - f[:-1]).max(), (f[1:] - nodes[:-1] / n).max())


# ---------------------------------------------------------------------------
# exact constants


def test_exact_constants():
    start = time.perf_counter()
    checks = [
        ("h[k=3/2] = pi^2/105", h_k(1.5), math.pi**2 / 105),
        ("h[k=1] = pi/2", h_k(1.0), math.pi / 2),
        ("volume ratio = 8 pi^2/105", volume_ratio(), 8 * math.pi**2 / 105),
        ("<S>[k=1] = 5/6", mean_entropy_mu(1.0), 5 / 6),
        ("<S>[k=3/2] = 286/315", mean_entropy_mu(1.5), 286 / 315),
        ("<S> flat = 53/60", mean_generalized_entropy_b3(1.0), 53 / 60),
        ("<J^2>[k=1] = 1/720", q_moments(1.0, 1) / 4, 1 / 720),
        ("<J^2>[k=3/2] = 3/1144", q_moments(1.5, 1) / 4, 3 / 1144),
        ("<Q> flat = 1/168", b3_q_integrals()[0], 1 / 168),
        ("<Q^2> flat = 1/5940", b3_q_integrals()[1], 1 / 5940),
        ("Q(Schur) = -1/16", q_of(SCHUR), -1 / 16),
        ("Q(W) = 1/27", q_of(W), 1 / 27),
        ("J(F3)^2 = 1/108", jarlskog(reconstruct(W).unitary) ** 2, 1 / 108),
    ]
    worst = 0.0
    for label, got, want in checks:
        err = abs(got - want)
        worst = max(worst, err)
        assert err <= 1e-12, f"{label}: {got} vs {want}"
    # integer-exact values
    assert birkhoff_volume_triangulation() == 9 / 8
    assert embedding_gram_determinant() == 81
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "exact constants",
        f"{len(checks) + 2} values, worst |err| = {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# Monte Carlo vs closed forms at a million samples


def test_mc_volume_ratio_at_one_million():
    start = time.perf_counter()
    r = estimate_mean(FLAT_B3, Statistic.indicator_q_nonneg(), 10**6, seed=SEED)
    elapsed = time.perf_counter() - start
    assert abs(r.z_score) < 4
    assert elapsed < 60
    _report(
        "P{Q>=0} flat at 1e6",
        f"{r.estimate:.6f} vs {r.reference:.6f}, z = {r.z_score:+.2f} (<4), {elapsed:.1f}s < 60s",
    )


def test_mc_entropy_means_at_one_million():
    start = time.perf_counter()
    zs = []
    for k in (1.0, 1.5):
        r = estimate_mean(MeasureSpec.mu(k), Statistic.entropy(), 10**6, seed=SEED)
        zs.append(r.z_score)
        assert abs(r.z_score) < 4, f"k={k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(
        "<S> under mu_1 and mu_3/2 at 1e6",
        f"z = {zs[0]:+.2f}, {zs[1]:+.2f} (<4), {elapsed:.1f}s < 60s",
    )


def test_mc_q_moments_at_one_million():
    start = time.perf_counter()
    worst = 0.0
    for k in (1.0, 1.5, 2.0):
        for row in q_moment_rows(k, 3, 10**6):
            worst = max(worst, abs(row.z_score))
            assert abs(row.z_score) < 4, row.name
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(
        "<Q^n> for n = 1..3, k in {1, 3/2, 2} at 1e6",
        f"9 moments, worst |z| = {worst:.2f} (<4), {elapsed:.1f}s < 60s",
    )


def test_mc_sigma_q_at_one_million():
    start = time.perf_counter()
    r = estimate_mean(FLAT_B3, Statistic.q(), 10**6, seed=SEED)
    sigma = r.std_error * math.sqrt(r.n_samples)
    target = b3_q_integrals()[2]
    elapsed = time.perf_counter() - start
    assert sigma == pytest.approx(target, rel=0.02)
    assert elapsed < 60
    _report(
        "sigma_Q flat at 1e6",
        f"{sigma:.6f} vs {target:.6f} within 2%, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# CKM-scale probabilities


def test_ckm_scale_cdf_values():
    y_obs = 3.08e-5
    p1 = cdf_absj(1.0, y_obs).value
    assert 7.3e-4 <= p1 <= 8.2e-4
    p1e4 = cdf_absj(1.0, 1e-4).value
    assert p1e4 == pytest.approx(2.5085e-3, rel=0.01)
    p32 = cdf_absj(1.5, y_obs).value
    assert p32 == pytest.approx(3.98e-7, rel=0.02)
    _report(
        "CDF at the observed |J|",
        f"P_1({y_obs:g}) = {p1:.4e} in [7.3e-4, 8.2e-4]; "
        f"P_1(1e-4) = {p1e4:.4e} = 2.5085e-3 +- 1%; "
        f"P_3/2({y_obs:g}) = {p32:.3e} = 3.98e-7 +- 2%",
    )


def test_likelihood_ratio_near_1200():
    # Haar against the flat polytope measure, exactly 1/(8 pi y)
    y_obs = 3.08e-5
    ratio = density_absj(1.0, y_obs).value / (volume_ratio() * density_absj(1.5, y_obs).value)
    assert ratio == pytest.approx(1200, rel=0.10)
    assert ratio == pytest.approx(1 / (8 * math.pi * y_obs), rel=1e-12)
    _report("density ratio at observed |J|", f"{ratio:.1f} = 1200 +- 10%")


def test_ckm_probability_mc_cross_check_ten_million():
    start = time.perf_counter()
    r = estimate_mean(HAAR, Statistic.indicator_absj_leq(3.08e-5), 10**7, seed=SEED)
    elapsed = time.perf_counter() - start
    assert abs(r.z_score) < 4
    assert elapsed < 600
    _report(
        "P{|J| <= 3.08e-5} from 1e7 Haar draws",
        f"{r.estimate:.3e} vs {r.reference:.3e}, z = {r.z_score:+.2f} (<4), "
        f"{elapsed:.0f}s < 600s",
    )


def test_k32_ckm_probability_series_vs_quadrature():
    # about 4 expected hits per 1e7 samples: far too rare for MC, so the
    # series value is accepted against an independent quadrature instead
    y_obs = 3.08e-5
    series = cdf_absj(1.5, y_obs).value
    by_quad, quad_err = quad(
        lambda t: density_absj(1.5, t).value, 0.0, y_obs, epsabs=1e-13, limit=200
    )
    assert series == pytest.approx(by_quad, rel=1e-8)
    _report(
        "P_3/2 at observed |J|, series vs quadrature",
        f"{series:.10e} vs {by_quad:.10e} (quad err {quad_err:.1e})",
    )


# ---------------------------------------------------------------------------
# distributional agreement


def test_ks_haar_against_k1_cdf_at_one_million():
    u = sample_haar_unitary(RngStream(SEED), 10**6)
    absj = np.abs(jarlskog_values(u))
    d = ks_upper_bound(absj, lambda y: cdf_absj(1.0, y).value)
    assert d < 0.003
    _report("KS of 1e6 Haar |J| vs k=1 CDF", f"D <= {d:.5f} < 0.003")


def test_ks_flat_measure_against_k32_cdf_at_one_million():
    b = sample_b(MeasureSpec.mu(1.5), RngStream(SEED), 10**6)
    absj = 0.5 * np.sqrt(np.clip(q_values(b), 0.0, None))
    d = ks_upper_bound(absj, lambda y: cdf_absj(1.5, y).value)
    assert d < 0.003
    # the bound is within 500/n of the distance, so it still rejects a wrong law
    wrong = ks_upper_bound(absj, lambda y: cdf_absj(1.0, y).value)
    assert wrong > 0.1
    _report("KS of 1e6 mu_3/2 |J| vs k=3/2 CDF",
            f"D <= {d:.5f} < 0.003; against the k=1 CDF D >= {wrong - 5e-4:.3f} > 0.1")


def test_absj_density_normalization():
    errs = []
    for k in (1.0, 1.5):
        total, _ = quad(lambda y: density_absj(k, y).value, 0.0, ABSJ_MAX, limit=300)
        errs.append(abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-8, f"k={k}"
    _report(
        "density normalization for k in {1, 3/2}",
        f"|integral - 1| = {errs[0]:.1e}, {errs[1]:.1e} <= 1e-8",
    )


def test_hypergeometric_lemma_quadrature():
    total, _ = quad(lambda u: 2.0 * hyp2f1(1 / 3, 2 / 3, 1, 1 - u * u), 0.0, 1.0, limit=200)
    assert abs(total - 3.0) <= 1e-8
    _report("2F1 lemma integrates to 3", f"|{total:.12f} - 3| <= 1e-8")


# ---------------------------------------------------------------------------
# structural properties


def test_reconstruction_round_trip_ten_thousand():
    b = sample_b(MeasureSpec.mu(1.5), RngStream(SEED), 10**4)
    mats = matrix_from_b(b)
    worst_entry = 0.0
    worst_defect = 0.0
    for i in range(b.shape[0]):
        result = reconstruct(b[i])
        back = to_bistochastic(result.unitary)
        worst_entry = max(worst_entry, np.abs(back.entries - mats[i]).max())
        worst_defect = max(worst_defect, result.unitary.defect)
    assert worst_entry < 1e-10
    assert worst_defect < 1e-10
    _report(
        "round trip on 1e4 mu_3/2 samples",
        f"max entry err {worst_entry:.1e} < 1e-10, max defect {worst_defect:.1e} < 1e-10",
    )


def test_jarlskog_identity_on_haar_samples():
    u = sample_haar_unitary(RngStream(SEED), 10**5)
    j = jarlskog_values(u)
    b = (np.abs(u) ** 2)[:, :2, :2].reshape(-1, 4)
    gap = np.abs(j * j - q_values(b) / 4.0).max()
    assert gap < 1e-12
    _report("J^2 = Q/4 on 1e5 Haar samples", f"max gap {gap:.1e} < 1e-12")


def test_q_invariant_under_all_72_symmetries():
    b = sample_flat_b3(RngStream(SEED), 2000)
    mats = matrix_from_b(b)
    q0 = q_values(b)
    worst = 0.0
    count = 0
    for rp in itertools.permutations(range(3)):
        for cp in itertools.permutations(range(3)):
            pm = mats[:, rp][:, :, cp]
            for image in (pm, pm.transpose(0, 2, 1)):
                qi = q_values(image[:, :2, :2].reshape(-1, 4))
                worst = max(worst, np.abs(qi - q0).max())
                count += 1
    assert count == 72
    assert worst < 1e-12
    _report("Q under all 72 symmetries", f"max |dQ| = {worst:.1e} < 1e-12")


def test_chain_condition_equivalence_hundred_thousand():
    b = sample_flat_b3(RngStream(SEED), 10**5)
    q = q_values(b)
    b1, b2, b3, b4 = b.T
    links = np.stack(
        [
            np.sqrt(b1 * b2),
            np.sqrt(b3 * b4),
            np.sqrt(np.clip((1 - b1 - b3) * (1 - b2 - b4), 0.0, None)),
        ]
    )
    closes = 2 * links.max(axis=0) <= links.sum(axis=0)
    mismatches = int((closes != (q >= 0)).sum())
    assert mismatches == 0
    _report(
        "chain closure <=> Q >= 0 on 1e5 samples",
        f"{mismatches} mismatches (closest |Q| to 0: {np.abs(q).min():.1e})",
    )


def test_ball_containment_hundred_thousand():
    rng = RngStream(SEED).generator
    n = 10**5
    gram = core.embedding_gram_matrix().astype(float)
    z = rng.normal(size=(n, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radius = MAX_BALL_RADIUS * rng.random(n) ** 0.25
    center = W.entries[:2, :2].ravel()
    b = center + (radius[:, None] * z) @ np.linalg.inv(np.linalg.cholesky(gram))
    assert feasible_b_mask(b).all()
    q_min = q_values(b).min()
    assert q_min >= -Q_CLASS_TOL
    _report(
        "ball of radius sqrt(2)/3 around W on 1e5 interior points",
        f"all feasible, min Q = {q_min:.2e} >= -{Q_CLASS_TOL:g}",
    )


# ---------------------------------------------------------------------------
# determinism


def test_estimators_bit_identical_across_threads():
    pairs = []
    for stat in (Statistic.q(), Statistic.indicator_q_nonneg()):
        one = estimate_mean(FLAT_B3, stat, 50_000, seed=SEED, threads=1)
        eight = estimate_mean(FLAT_B3, stat, 50_000, seed=SEED, threads=8)
        rerun = estimate_mean(FLAT_B3, stat, 50_000, seed=SEED, threads=8)
        assert one == eight == rerun
        pairs.append(stat.label)
    suite_one = q_moment_rows(1.5, 2, 20_000, threads=1)
    suite_eight = q_moment_rows(1.5, 2, 20_000, threads=8)
    assert suite_one == suite_eight
    _report(
        "estimator determinism",
        f"bit-identical across runs and 1 vs 8 threads for {pairs} and the moment suite",
    )


def test_cli_outputs_byte_identical(tmp_path):
    cases = [
        ["sample", "--measure", "mu:1.5", "--n", "50", "--seed", str(SEED)],
        ["sample", "--measure", "haar", "--n", "20", "--seed", str(SEED)],
        ["dist", "--measure", "mu:1.5", "--what", "cdf", "--points", "16"],
        ["estimate", "--target", "volume-ratio", "--measure", "flat-b3", "--n", "5000",
         "--threads", "1"],
        ["estimate", "--target", "volume-ratio", "--measure", "flat-b3", "--n", "5000",
         "--threads", "8"],
    ]
    outputs = []
    for i, argv in enumerate(cases):
        a = tmp_path / f"a{i}"
        c = tmp_path / f"c{i}"
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(c)]) == 0
        assert a.read_bytes() == c.read_bytes()
        outputs.append(a.read_bytes())
    # the two estimate runs differ only in --threads: same bytes
    assert outputs[3] == outputs[4]
    _report(
        "seeded command determinism",
        f"{len(cases)} commands byte-identical across runs; "
        "estimate bytes equal for --threads 1 vs 8",
    )
