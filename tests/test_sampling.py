import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import psi

from unilab import core
from unilab.sampling import (
    DEFAULT_SEED,
    FLAT_B3,
    HAAR,
    MeasureSpec,
    RngStream,
    sample_b,
    sample_flat_b3,
    sample_haar_unitary,
    sample_mu_k,
)
from unilab.unitary import jarlskog_values


def zscore(values, target):
    se = values.std(ddof=1) / math.sqrt(len(values))
    return (values.mean() - target) / se


# ---------------------------------------------------------------------------
# streams


def test_every_sampler_returns_an_empty_array_for_zero_draws():
    stream = RngStream(5)
    assert sample_flat_b3(stream, 0).shape == (0, 4)
    assert sample_mu_k(stream, 0, 1.5).shape == (0, 4)
    assert sample_haar_unitary(stream, 0).shape == (0, 3, 3)
    for spec in (HAAR, MeasureSpec.mu(2.0), FLAT_B3):
        assert sample_b(spec, stream, 0).shape == (0, 4)


def test_streams_are_deterministic_and_addressable():
    a = sample_mu_k(RngStream(75193), 3, 1.5)
    b = sample_mu_k(RngStream(75193), 3, 1.5)
    np.testing.assert_array_equal(a, b)
    c = sample_mu_k(RngStream(75194), 3, 1.5)
    assert not np.array_equal(a, c)
    d = sample_mu_k(RngStream(75193, index=1), 3, 1.5)
    assert not np.array_equal(a, d)


def test_golden_first_draws_seed_75193():
    # pins the whole stack: Philox key schedule, draw order, beta sampler
    got = sample_mu_k(RngStream(DEFAULT_SEED), 2, 1.5)
    expected = np.array(
        [
            [0.10401527914625149, 0.34400103555278533, 0.49700279312611539, 0.14896331913412725],
            [0.47131738766486958, 0.45893870441554885, 0.35718957859114808, 0.4894969754565584],
        ]
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)
    u = sample_haar_unitary(RngStream(DEFAULT_SEED), 1)[0]
    assert u[0, 0] == pytest.approx(-0.5716222527292536 + 0.33197121998426504j, abs=1e-16)
    f = sample_flat_b3(RngStream(DEFAULT_SEED), 1)[0]
    np.testing.assert_allclose(
        f,
        [0.5303983638291874, 0.3833987731881423, 0.3889948971870204, 0.3964973653606042],
        rtol=0,
        atol=1e-16,
    )


def test_split_streams():
    root = RngStream(42)
    kids = root.split(5)
    assert [c.index for c in kids] == [1, 2, 3, 4, 5]
    assert all(c.seed == 42 for c in kids)
    grand = kids[2].split(2)
    assert [g.index for g in grand] == [3 * 2**32 + 1, 3 * 2**32 + 2]
    # children are reproducible from their address alone
    np.testing.assert_array_equal(
        sample_flat_b3(kids[3], 7), sample_flat_b3(RngStream(42, index=4), 7)
    )
    # and do not consume the parent
    np.testing.assert_array_equal(
        sample_flat_b3(root, 3), sample_flat_b3(RngStream(42), 3)
    )


def test_seed_zero_draws_fresh_entropy():
    s1, s2 = RngStream(0), RngStream(0)
    assert s1.seed != 0 and s2.seed != 0
    assert s1.seed != s2.seed  # 2^-63 collision chance
    # the drawn seed is recorded, so the stream stays replayable
    np.testing.assert_array_equal(
        sample_flat_b3(RngStream(s1.seed), 4), sample_flat_b3(s1, 4)
    )
    with pytest.raises(ValueError):
        RngStream(-5)


def test_measure_spec_validation():
    assert MeasureSpec.mu(1.5).label == "mu_1.5"
    assert HAAR.label == "haar" and FLAT_B3.label == "flat_b3"
    for bad in (0.5, 0.2, -1.0, None, math.inf, math.nan):
        with pytest.raises(ValueError):
            MeasureSpec.mu(bad)
    with pytest.raises(ValueError):
        MeasureSpec("haar", 2.0)
    with pytest.raises(ValueError):
        MeasureSpec("lebesgue")
    with pytest.raises(ValueError):
        sample_mu_k(RngStream(1), 10, 0.5)
    with pytest.raises(ValueError):
        sample_mu_k(RngStream(1), 2, math.inf)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_unitarity_and_first_moments():
    u = sample_haar_unitary(RngStream(101), 100_000)
    defect = np.abs(np.einsum("nij,nkj->nik", u.conj(), u) - np.eye(3))
    assert defect.max() < 1e-12
    m = np.abs(u) ** 2
    # every |U_ij|^2 has density 2(1-t): mean 1/3, second moment 1/6
    for i in range(3):
        for j in range(3):
            assert abs(zscore(m[:, i, j], 1 / 3)) < 4
            assert abs(zscore(m[:, i, j] ** 2, 1 / 6)) < 4
    j = jarlskog_values(u)
    assert abs(zscore(j, 0.0)) < 4
    assert abs(zscore(j * j, 1 / 720)) < 4
    assert np.abs(j).max() <= 1 / (6 * math.sqrt(3)) + 1e-15


def test_haar_pushforward_is_mu_1():
    n = 50_000
    bh = sample_b(HAAR, RngStream(5), n)
    bm = sample_mu_k(RngStream(6), n, 1.0)
    # same law for each coordinate and for Q
    for i in range(4):
        assert stats.ks_2samp(bh[:, i], bm[:, i]).statistic < 0.015
    assert stats.ks_2samp(core.q_values(bh), core.q_values(bm)).statistic < 0.015


# ---------------------------------------------------------------------------
# mu_k sampling


def test_mu_k_samples_are_unistochastic():
    for k in (0.75, 1.0, 1.5, 2.0, 5.0):
        b = sample_mu_k(RngStream(11), 20_000, k)
        assert core.matrix_from_b(b).min() >= -1e-12
        assert core.q_values(b).min() >= -1e-12


def test_mu_k_q_means():
    n = 100_000
    for k, target in ((1.0, 1 / 180), (1.5, 3 / 286)):
        q = core.q_values(sample_mu_k(RngStream(13), n, k))
        assert abs(zscore(q, target)) < 4


def test_mu_k_entropy_means():
    n = 100_000
    for k, target in ((1.0, 5 / 6), (1.5, 286 / 315), (2.0, 19 / 20)):
        s = core.entropy_values(sample_mu_k(RngStream(17), n, k))
        assert target == pytest.approx(psi(3 * k + 1) - psi(k + 1), rel=1e-12)
        assert abs(zscore(s, target)) < 4


# ---------------------------------------------------------------------------
# flat sampling


def test_flat_b3_feasible_and_prefix_stable():
    b = sample_flat_b3(RngStream(19), 50_000)
    assert core.feasible_b_mask(b).all()
    np.testing.assert_array_equal(b[:100], sample_flat_b3(RngStream(19), 100))


def test_flat_b3_known_means():
    n = 200_000
    b = sample_flat_b3(RngStream(23), n)
    q = core.q_values(b)
    assert abs(zscore(q, 1 / 168)) < 4
    assert abs(zscore(b[:, 0], 1 / 3)) < 4
    assert abs(zscore(core.entropy_values(b), 53 / 60)) < 4
    ind = (q >= 0).astype(float)
    assert abs(zscore(ind, 8 * math.pi**2 / 105)) < 4


def test_flat_b3_exact_first_and_second_moments():
    # uniform on a simplex with vertices v_0..v_4: E[b] = sum v / 5 and
    # E[b b^T] = (sum v v^T + (sum v)(sum v)^T) / 30; the three simplices
    # have equal volume, so the flat law averages them
    mean = [Fraction(0)] * 4
    second = [[Fraction(0)] * 4 for _ in range(4)]
    for names in core._SIMPLEX_VERTICES:
        verts = [core._VERTEX_B[name] for name in names]
        total = [sum(v[i] for v in verts) for i in range(4)]
        for i in range(4):
            mean[i] += Fraction(total[i], 5 * 3)
            for j in range(4):
                outer = sum(v[i] * v[j] for v in verts) + total[i] * total[j]
                second[i][j] += Fraction(outer, 30 * 3)
    b = sample_flat_b3(RngStream(37), 1_000_000)
    assert core.feasible_b_mask(b).all()
    for i in range(4):
        assert abs(zscore(b[:, i], float(mean[i]))) < 4
        for j in range(i, 4):
            assert abs(zscore(b[:, i] * b[:, j], float(second[i][j]))) < 4


def test_box_acceptance_rate_is_volume():
    # the polytope fills 1/8 of the unit box in b: checks the b-volume, not the sampler
    g = RngStream(29).generator
    cand = g.random((400_000, 4))
    hits = core.feasible_b_mask(cand).astype(float)
    assert abs(zscore(hits, 1 / 8)) < 4


def test_sample_b_dispatch():
    np.testing.assert_array_equal(
        sample_b(MeasureSpec.mu(2.0), RngStream(31), 5), sample_mu_k(RngStream(31), 5, 2.0)
    )
    np.testing.assert_array_equal(
        sample_b(FLAT_B3, RngStream(31), 5), sample_flat_b3(RngStream(31), 5)
    )
    bh = sample_b(HAAR, RngStream(31), 5)
    u = sample_haar_unitary(RngStream(31), 5)
    np.testing.assert_array_equal(bh, np.abs(u[:, :2, :2].reshape(5, 4)) ** 2)
