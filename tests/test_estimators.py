import json
import math

import numpy as np
import pytest

from unilab.analytic import (
    ABSJ_MAX,
    cdf_absj,
    cdf_absj_values,
    mean_entropy_mu,
    mean_generalized_entropy_b3,
    mean_generalized_entropy_mu,
    q_moments,
    volume_ratio,
)
from unilab.core import q_values
from unilab.estimators import (
    N_SUBSTREAMS,
    EmpiricalCdf,
    EstimateResult,
    Statistic,
    estimate_mean,
    ks_distance,
    moment_suite,
)
from unilab.sampling import FLAT_B3, HAAR, MeasureSpec, RngStream, sample_b


def test_statistic_validation():
    assert Statistic.q().name == "Q"
    assert Statistic.generalized_entropy(2).param == 2.0
    assert Statistic.indicator_absj_leq(1e-4).param == 1e-4
    assert Statistic.indicator_q_nonneg().is_indicator
    assert not Statistic.entropy().is_indicator
    with pytest.raises(ValueError):
        Statistic("Q", param=1.0)
    with pytest.raises(ValueError):
        Statistic("generalized_entropy")
    with pytest.raises(ValueError):
        Statistic.generalized_entropy(-0.5)
    with pytest.raises(ValueError):
        Statistic.indicator_absj_leq(ABSJ_MAX * 1.01)
    with pytest.raises(ValueError):
        Statistic("no_such_statistic")


def test_estimate_result_serialization():
    r = EstimateResult("x", 1.0, 0.1, 1000, 7, reference=1.05, z_score=-0.5)
    d = json.loads(r.to_json())
    assert d == {
        "name": "x",
        "estimate": 1.0,
        "std_error": 0.1,
        "n_samples": 1000,
        "seed": 7,
        "reference": 1.05,
        "z_score": -0.5,
    }


def test_empirical_cdf_steps():
    ecdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0, 2.0])
    assert ecdf.n == 4
    assert ecdf(0.5) == 0.0
    assert ecdf(1.0) == 0.25  # right-continuous: jump counted at the point
    assert ecdf(1.999) == 0.25
    assert ecdf(2.0) == 0.75
    assert ecdf(3.0) == 1.0
    assert ecdf(99.0) == 1.0
    np.testing.assert_allclose(ecdf(np.array([1.0, 2.5])), [0.25, 0.75])
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([2.0, 1.0]), 2)
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError):
        EmpiricalCdf.from_samples([])


def test_estimate_mean_rejects_small_n():
    with pytest.raises(ValueError):
        estimate_mean(FLAT_B3, Statistic.q(), 99)


def test_estimate_mean_rejects_bad_threads():
    with pytest.raises(ValueError):
        estimate_mean(FLAT_B3, Statistic.q(), 1000, threads=0)


def test_flat_volume_ratio_estimate():
    r = estimate_mean(FLAT_B3, Statistic.indicator_q_nonneg(), 10**5, seed=75193)
    assert r.reference == volume_ratio()
    assert abs(r.z_score) < 4
    assert r.n_samples == 10**5
    assert r.seed == 75193
    # Bernoulli standard error
    p = r.estimate
    assert r.std_error == pytest.approx(math.sqrt(p * (1 - p) / 10**5), rel=1e-12)


def test_reference_autofill_map():
    flat_cases = {
        "Q": 1 / 168,
        "entropy": 53 / 60,
        "indicator_Q_nonneg": volume_ratio(),
    }
    for name, ref in flat_cases.items():
        r = estimate_mean(FLAT_B3, Statistic(name), 200, seed=1)
        assert r.reference == pytest.approx(ref, rel=1e-12)
    r = estimate_mean(FLAT_B3, Statistic.generalized_entropy(2.0), 200, seed=1)
    assert r.reference == pytest.approx(mean_generalized_entropy_b3(2.0), rel=1e-12)
    # no closed form on file for these two under the flat measure
    assert estimate_mean(FLAT_B3, Statistic.j2(), 200, seed=1).reference is None
    assert estimate_mean(FLAT_B3, Statistic.j2(), 200, seed=1).z_score is None
    assert (
        estimate_mean(FLAT_B3, Statistic.indicator_absj_leq(0.05), 200, seed=1).reference
        is None
    )

    for measure, k in ((HAAR, 1.0), (MeasureSpec.mu(1.5), 1.5), (MeasureSpec.mu(2.0), 2.0)):
        assert estimate_mean(measure, Statistic.q(), 200, seed=1).reference == pytest.approx(
            q_moments(k, 1), rel=1e-12
        )
        assert estimate_mean(measure, Statistic.j2(), 200, seed=1).reference == pytest.approx(
            q_moments(k, 1) / 4, rel=1e-12
        )
        assert estimate_mean(
            measure, Statistic.entropy(), 200, seed=1
        ).reference == pytest.approx(mean_entropy_mu(k), rel=1e-12)
        assert estimate_mean(
            measure, Statistic.generalized_entropy(3.0), 200, seed=1
        ).reference == pytest.approx(mean_generalized_entropy_mu(k, 3.0), rel=1e-12)
        assert estimate_mean(
            measure, Statistic.indicator_absj_leq(1e-4), 200, seed=1
        ).reference == pytest.approx(cdf_absj(k, 1e-4).value, rel=1e-12)
        assert estimate_mean(measure, Statistic.indicator_q_nonneg(), 200, seed=1).reference == 1.0


def test_mu_measures_live_on_nonnegative_q():
    for k in (0.75, 1.0, 1.5, 2.0):
        r = estimate_mean(MeasureSpec.mu(k), Statistic.indicator_q_nonneg(), 10**4, seed=9)
        assert r.estimate == 1.0
        assert r.std_error == 0.0
        assert r.z_score == 0.0


def test_closed_form_targets_within_4_sigma():
    n = 10**5
    cases = [
        (HAAR, Statistic.q()),
        (HAAR, Statistic.j2()),
        (HAAR, Statistic.entropy()),
        (HAAR, Statistic.indicator_absj_leq(0.02)),
        (MeasureSpec.mu(1.5), Statistic.j2()),
        (MeasureSpec.mu(1.5), Statistic.entropy()),
        (MeasureSpec.mu(1.5), Statistic.generalized_entropy(2.0)),
        (MeasureSpec.mu(2.0), Statistic.q()),
        (FLAT_B3, Statistic.q()),
        (FLAT_B3, Statistic.entropy()),
        (FLAT_B3, Statistic.generalized_entropy(0.0)),
    ]
    for measure, stat in cases:
        r = estimate_mean(measure, stat, n, seed=75193)
        assert r.reference is not None
        assert abs(r.z_score) < 4, r.name


def test_determinism_across_runs_and_threads():
    args = (MeasureSpec.mu(1.5), Statistic.q(), 20_000)
    first = estimate_mean(*args, seed=42, threads=1)
    again = estimate_mean(*args, seed=42, threads=1)
    fanned = estimate_mean(*args, seed=42, threads=8)
    assert first == again == fanned
    assert estimate_mean(*args, seed=43).estimate != first.estimate


def test_threads_env_fallback(monkeypatch):
    args = (FLAT_B3, Statistic.q(), 5000)
    base = estimate_mean(*args, seed=11, threads=3)
    monkeypatch.setenv("UNILAB_THREADS", "2")
    assert estimate_mean(*args, seed=11) == base
    monkeypatch.setenv("UNILAB_THREADS", "not-a-number")
    with pytest.raises(ValueError, match="UNILAB_THREADS"):
        estimate_mean(*args, seed=11)


def test_entropy_seed_zero_is_recorded_and_replayable():
    r = estimate_mean(FLAT_B3, Statistic.q(), 1000, seed=0)
    assert r.seed > 0
    replay = estimate_mean(FLAT_B3, Statistic.q(), 1000, seed=r.seed)
    assert replay.estimate == r.estimate


def test_coverage_calibration():
    # z should be approximately standard normal across independent seeds
    hits = 0
    for seed in range(1, 201):
        r = estimate_mean(FLAT_B3, Statistic.indicator_q_nonneg(), 10**4, seed=seed)
        hits += abs(r.z_score) <= 1.96
    assert 0.90 <= hits / 200 <= 0.99


def test_sigma_q_flat():
    r = estimate_mean(FLAT_B3, Statistic.q(), 10**6, seed=75193)
    sample_sigma = r.std_error * math.sqrt(r.n_samples)
    assert sample_sigma == pytest.approx(0.011529064547824371, rel=0.02)


def test_moment_suite_rows():
    rows = moment_suite(1.5, 3, 10**5, seed=75193)
    assert len(rows) == 4
    zero = rows[0]
    assert zero.estimate == 1.0 and zero.std_error == 0.0 and zero.z_score == 0.0
    assert zero.reference == 1.0
    assert zero.name == "mu_1.5:Q^0" and zero.n_samples == 10**5
    for power, row in enumerate(rows[1:], start=1):
        assert row.name == f"mu_1.5:Q^{power}"
        assert row.reference == pytest.approx(q_moments(1.5, power), rel=1e-12)
        assert abs(row.z_score) < 4
    assert moment_suite(1.0, 1, 10**4)[1].reference == pytest.approx(1 / 180, rel=1e-12)


def test_moment_suite_shares_samples_and_is_deterministic():
    a = moment_suite(2.0, 2, 5000, seed=5, threads=1)
    b = moment_suite(2.0, 2, 5000, seed=5, threads=8)
    assert a == b
    with pytest.raises(ValueError):
        moment_suite(1.0, 0, 5000)
    with pytest.raises(ValueError):
        moment_suite(1.0, 5, 5000)
    with pytest.raises(ValueError):
        moment_suite(0.4, 1, 5000)


def test_ks_distance_null_and_discrimination():
    n = 20_000
    u = RngStream(314).generator.random(n)
    # uniform draws against their own CDF: comfortably below the 99% line
    assert ks_distance(EmpiricalCdf.from_samples(u), lambda x: np.clip(x, 0, 1)) < 1.63 / math.sqrt(n)

    b = sample_b(MeasureSpec.mu(1.5), RngStream(777), n)
    absj = 0.5 * np.sqrt(np.clip(q_values(b), 0.0, None))
    ecdf = EmpiricalCdf.from_samples(absj)
    assert ks_distance(ecdf, lambda y: cdf_absj_values(1.5, y)) < 1.95 / math.sqrt(n)
    # and the k = 1 CDF is very visibly the wrong model for these samples
    assert ks_distance(ecdf, lambda y: cdf_absj_values(1.0, y)) > 0.01


def test_ks_distance_scalar_callable_and_small_n():
    u = np.sort(RngStream(1).generator.random(2000))
    ecdf = EmpiricalCdf.from_samples(u)
    vec = ks_distance(ecdf, lambda x: np.clip(x, 0, 1))
    scalar = ks_distance(ecdf, lambda x: min(max(float(x), 0.0), 1.0))
    assert vec == scalar
    with pytest.raises(ValueError):
        ks_distance(EmpiricalCdf.from_samples(u[:999]), lambda x: x)


def test_ks_distance_catches_one_sided_shift():
    # all mass shifted right of the model: the plus gap must see it
    v = np.linspace(0.5, 1.0, 2000)
    d = ks_distance(EmpiricalCdf.from_samples(v), lambda x: np.clip(x, 0, 1))
    assert d == pytest.approx(0.5, abs=1e-3)


def test_substream_count_is_fixed():
    assert N_SUBSTREAMS == 64
