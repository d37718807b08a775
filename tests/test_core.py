import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilab import core
from unilab.core import (
    BistochasticMatrix,
    MatrixClass,
    chain_link_feasible,
    classify,
    q_of,
    q_values,
)
from unilab.unitary import NotUnistochasticError, reconstruct


def _simplex_point(simplex, raw):
    """b from one simplex of the triangulation and five raw vertex weights.

    The weights are normalized to sum to 1 (all zero picks the first
    vertex); zero weights put the point on a face, an edge or a vertex of
    the polytope, where Q <= 0.
    """
    total = sum(raw)
    weights = [w / total for w in raw] if total > 0.0 else [1.0, 0.0, 0.0, 0.0, 0.0]
    verts = [core._VERTEX_B[name] for name in core._SIMPLEX_VERTICES[simplex]]
    return tuple(sum(w * v[i] for w, v in zip(weights, verts)) for i in range(4))


def feasible_floats():
    """Strategy producing b vectors inside the polytope, built without filtering."""
    weight = st.floats(min_value=0.0, max_value=1.0)
    return st.builds(_simplex_point, st.integers(0, 2), st.tuples(*[weight] * 5))


def random_b(rng, n):
    """Uniform feasible b vectors by rejection from the unit box."""
    out = np.empty((0, 4))
    while len(out) < n:
        cand = rng.random((4 * n, 4))
        out = np.concatenate([out, cand[core.feasible_b_mask(cand)]])
    return out[:n]


# ---------------------------------------------------------------------------
# Q itself


def test_q_at_the_landmarks():
    assert q_of(core.SCHUR) == -1.0 / 16.0
    assert math.isclose(q_of(core.W), 1.0 / 27.0, abs_tol=1e-15)
    assert q_of(core.IDENTITY) == 0.0
    for name in ("P", "P2", "P12", "P13", "P23"):
        assert q_of(core.NAMED_MATRICES[name]) == 0.0


def test_q_range_on_random_sample():
    rng = np.random.default_rng(7)
    q = q_values(random_b(rng, 200_000))
    assert q.min() >= -1.0 / 16.0 - 1e-12
    assert q.max() <= 1.0 / 27.0 + 1e-12


def test_q_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    pts = random_b(rng, 50)
    for row in pts:
        assert q_values(row) == q_of(row)


def test_q_invariant_under_all_72_symmetries():
    rng = np.random.default_rng(13)
    for row in random_b(rng, 25):
        m = core.matrix_from_b(row)
        q0 = q_values(row)
        images = set()
        for rp in itertools.permutations(range(3)):
            for cp in itertools.permutations(range(3)):
                for mat in (m[np.ix_(rp, cp)], m[np.ix_(rp, cp)].T):
                    images.add(mat.tobytes())
                    assert math.isclose(q_of(mat), q0, rel_tol=0, abs_tol=1e-12)
        # generic matrices really do have 72 distinct images
        if len(np.unique(np.round(m, 12))) == 9:
            assert len(images) == 72


# ---------------------------------------------------------------------------
# data model


def test_matrix_construction_checks_sums_and_signs():
    with pytest.raises(ValueError):
        BistochasticMatrix(np.full((3, 3), 0.5))
    with pytest.raises(ValueError):
        BistochasticMatrix([[1.1, -0.1, 0], [0, 1, 0], [-0.1, 0.1, 1]])
    # NaN sums compare False against SUM_ATOL, so non-finite entries need their own check
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            BistochasticMatrix([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, bad]])
    # rounding noise just below zero is clamped
    eps = -1e-14
    m = BistochasticMatrix([[1 - eps, eps, 0], [eps, 1 - eps, 0], [0, 0, 1]])
    assert m.entries.min() == 0.0


def test_bvector_rejects_points_outside_polytope():
    with pytest.raises(ValueError, match="B13"):
        BistochasticMatrix.from_b((0.9, 0.9, 0.0, 0.0))  # B13 = -0.8
    with pytest.raises(ValueError, match="B33"):
        BistochasticMatrix.from_b((0.2, 0.2, 0.2, 0.2))  # B33 = -0.2
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            BistochasticMatrix.from_b((0.25, bad, 0.25, 0.25))
    with pytest.raises(ValueError, match="4 values"):
        BistochasticMatrix.from_b([0.3, 0.3, 0.3])
    BistochasticMatrix.from_b((0.25, 0.25, 0.25, 0.25))  # fine


def test_bvec_round_trip():
    b = (0.3, 0.4, 0.2, 0.1)
    assert tuple(BistochasticMatrix.from_b(b).entries[:2, :2].ravel().tolist()) == b


def test_named_matrices_are_verbatim():
    np.testing.assert_array_equal(core.P.entries, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    np.testing.assert_array_equal(core.P2.entries, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(core.P12.entries, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    np.testing.assert_array_equal(core.P13.entries, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    np.testing.assert_array_equal(core.P23.entries, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    np.testing.assert_array_equal(core.P2.entries, core.P.entries @ core.P.entries)
    np.testing.assert_array_equal(
        core.SCHUR.entries, (core.P.entries + core.P2.entries) / 2
    )
    # W is the average of either triangle of permutation vertices
    np.testing.assert_allclose(
        core.W.entries,
        (core.P.entries + core.P2.entries + core.IDENTITY.entries) / 3,
    )
    np.testing.assert_allclose(
        core.W.entries,
        (core.P12.entries + core.P13.entries + core.P23.entries) / 3,
    )


# ---------------------------------------------------------------------------
# the one intake of the scalar functions


_FORM_CASES = {
    "W": (1 / 3, 1 / 3, 1 / 3, 1 / 3),
    "interior": (0.3, 0.4, 0.2, 0.35),
    "zero-entry": (0.5, 0.5, 0.25, 0.25),  # B13 = 0 and Q = 0
    "schur": (0.0, 0.5, 0.5, 0.0),  # Q < 0
}


@pytest.mark.parametrize("b", _FORM_CASES.values(), ids=list(_FORM_CASES))
def test_every_input_form_gives_the_same_result(b):
    mat = BistochasticMatrix.from_b(b)
    forms = [mat, b, np.array(b), np.array(mat.entries)]
    for f in (classify, q_of, core.link_lengths, core.entropy,
              lambda x: core.generalized_entropy(x, 2.0)):
        first, *rest = [f(x) for x in forms]
        assert all(r == first for r in rest)
    if q_of(mat) < 0.0:
        for x in forms:
            with pytest.raises(NotUnistochasticError):
                reconstruct(x)
        return
    first, *rest = [reconstruct(x) for x in forms]
    for r in rest:
        assert r.unitary.entries.tobytes() == first.unitary.entries.tobytes()
        assert (r.phases, r.degenerate) == (first.phases, first.degenerate)


def test_the_intake_rejects_other_shapes():
    for bad in ([0.3, 0.3, 0.3], np.ones((2, 3)), np.ones((3, 3, 1)), 0.5):
        for f in (classify, q_of, core.link_lengths, core.entropy, reconstruct):
            with pytest.raises(ValueError, match="3x3 matrix or a 4-vector"):
                f(bad)


# ---------------------------------------------------------------------------
# classification and the chain of links


def test_classify_trichotomy():
    assert classify(core.W).classification is MatrixClass.UNISTOCHASTIC
    assert classify(core.SCHUR).classification is MatrixClass.NOT_UNISTOCHASTIC
    for name in ("identity", "P", "P2", "P12", "P13", "P23"):
        v = classify(core.NAMED_MATRICES[name])
        assert v.classification is MatrixClass.ORTHOSTOCHASTIC
        assert v.q_value == 0.0


def test_verdict_carries_q_and_links():
    v = classify(core.SCHUR)
    assert v.q_value == -1.0 / 16.0
    assert v.link_lengths == (0.0, 0.0, 0.5)

    # equal-diagonal orthostochastic point: the links close only flat
    v = classify(BistochasticMatrix.from_b((0.25, 0.25, 0.25, 0.25)))
    assert v.classification is MatrixClass.ORTHOSTOCHASTIC
    assert v.link_lengths == (0.25, 0.25, 0.5)
    assert chain_link_feasible(v.link_lengths)


def test_link_lengths_use_third_row_of_the_matrix():
    m = BistochasticMatrix.from_b((0.3, 0.25, 0.2, 0.35))
    l1, l2, l3 = core.link_lengths(m)
    assert math.isclose(l1, math.sqrt(0.3 * 0.25))
    assert math.isclose(l2, math.sqrt(0.2 * 0.35))
    assert math.isclose(l3, math.sqrt(m.entries[2, 0] * m.entries[2, 1]))


def test_chain_link_edge_cases():
    with pytest.raises(ValueError):
        chain_link_feasible([])
    with pytest.raises(ValueError):
        chain_link_feasible([0.1, -0.2])
    assert chain_link_feasible([0.5])is False
    assert chain_link_feasible([0.0])
    assert chain_link_feasible([0.3, 0.3])  # folds back on itself
    assert chain_link_feasible([0.3, 0.2]) is False
    assert chain_link_feasible([0.3, 0.1, 0.2])  # tight triangle closes
    assert chain_link_feasible([0.2, 0.3, 0.2, 0.6])
    assert chain_link_feasible([0.1, 0.1, 0.1, 0.9]) is False


@settings(max_examples=300, deadline=None)
@given(feasible_floats())
def test_chain_closure_iff_q_nonnegative(b):
    q = q_of(b)
    if abs(q) < 1e-9:
        return  # boundary band: float or exact versions may disagree
    m = BistochasticMatrix.from_b(b)
    assert chain_link_feasible(core.link_lengths(m)) == (q > 0)


def test_chain_closure_iff_q_nonnegative_bulk():
    rng = np.random.default_rng(17)
    pts = random_b(rng, 100_000)
    q = q_values(pts)
    keep = np.abs(q) > 1e-9
    for row, qi in zip(pts[keep][:2000], q[keep][:2000]):
        m = BistochasticMatrix.from_b(row)
        assert chain_link_feasible(core.link_lengths(m)) == (qi > 0)


# ---------------------------------------------------------------------------
# entropies


def test_entropy_landmarks():
    assert core.entropy(core.IDENTITY) == 0.0
    assert core.entropy(core.P) == 0.0
    assert math.isclose(core.entropy(core.W), math.log(3), rel_tol=1e-15)


def test_entropy_range_and_vectorization():
    rng = np.random.default_rng(23)
    pts = random_b(rng, 10_000)
    s = core.entropy_values(pts)
    assert s.min() >= 0.0 and s.max() <= math.log(3) + 1e-15
    assert math.isclose(s[0], core.entropy(BistochasticMatrix.from_b(pts[0])))


def test_generalized_entropy_values_and_limits():
    with pytest.raises(ValueError):
        core.generalized_entropy(core.W, -0.5)
    # q = 0 counts the support
    assert core.generalized_entropy(core.IDENTITY, 0.0) == 0.0
    assert math.isclose(core.generalized_entropy(core.W, 0.0), 2.0)
    # q = 2 on W: (1/3) (3 - 9/9) = 2/3
    assert math.isclose(core.generalized_entropy(core.W, 2.0), 2.0 / 3.0)
    # q = 1 is the Shannon limit, approached continuously
    m = BistochasticMatrix.from_b((0.3, 0.4, 0.2, 0.1))
    s1 = core.generalized_entropy(m, 1.0)
    assert s1 == core.entropy(m)
    for q in (1.0 - 1e-7, 1.0 + 1e-7):
        assert math.isclose(core.generalized_entropy(m, q), s1, abs_tol=1e-6)


def test_generalized_entropy_vectorized_matches_scalar():
    rng = np.random.default_rng(29)
    pts = random_b(rng, 64)
    for q in (0.0, 0.5, 2.0, 3.7):
        vals = core.generalized_entropy_values(pts, q)
        m = BistochasticMatrix.from_b(pts[0])
        assert math.isclose(vals[0], core.generalized_entropy(m, q), rel_tol=1e-14)


def _stacked_entropy(b, q):
    """The entropies as computed on a stacked (n, 3, 3) entries array."""
    e = core.matrix_from_b(b)
    pos = np.where(e > 0.0, e, 1.0)
    if q == 1.0:
        return -np.where(e > 0.0, e * np.log(pos), 0.0).sum(axis=(-2, -1)) / 3.0
    return (e - np.where(e > 0.0, pos**q, 0.0)).sum(axis=(-2, -1)) / (3.0 * (q - 1.0))


def test_entropy_kernels_match_stacked_formula_and_scalar():
    rng = np.random.default_rng(31)
    interior = random_b(rng, 2000)
    faces = random_b(rng, 2000)
    faces[np.arange(len(faces)), rng.integers(0, 4, len(faces))] = 0.0
    faces = faces[core.feasible_b_mask(faces)]
    assert len(faces) > 100
    assert ((core.matrix_from_b(faces) == 0.0).any(axis=(-2, -1))).all()
    landmarks = np.array([m.entries[:2, :2].ravel() for m in (core.IDENTITY, core.P, core.W, core.SCHUR)])
    pts = np.concatenate([interior, faces, landmarks])
    matrices = [BistochasticMatrix.from_b(row) for row in pts]
    for q in (1.0, 0.0, 0.5, 2.0, 3.0):
        if q == 1.0:
            vals = core.entropy_values(pts)
            scalar = [core.entropy(m) for m in matrices]
        else:
            vals = core.generalized_entropy_values(pts, q)
            scalar = [core.generalized_entropy(m, q) for m in matrices]
        np.testing.assert_allclose(vals, _stacked_entropy(pts, q), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(vals, scalar)
    # a permutation has entropy +0.0, never -0.0, in both kernels and for every q
    perms = (core.IDENTITY, core.P, core.P2, core.P12, core.P13, core.P23)
    perm_b = np.array([m.entries[:2, :2].ravel() for m in perms])
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        batch = core.entropy_values(perm_b) if q == 1.0 else core.generalized_entropy_values(perm_b, q)
        scalar = [core.entropy(m) if q == 1.0 else core.generalized_entropy(m, q) for m in perms]
        for v in [*batch.tolist(), *scalar]:
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, (q, v)


# ---------------------------------------------------------------------------
# polytope geometry


def test_triangulation_volume_is_exact():
    assert core.triangulation_simplex_volumes() == (
        Fraction(1, 24),
        Fraction(1, 24),
        Fraction(1, 24),
    )
    assert core.birkhoff_b_volume() == Fraction(1, 8)
    assert core.birkhoff_volume_triangulation() == 9.0 / 8.0


def test_embedding_gram_data():
    np.testing.assert_array_equal(
        core.embedding_gram_matrix(),
        [[4, 2, 2, 1], [2, 4, 1, 2], [2, 1, 4, 2], [1, 2, 2, 4]],
    )
    assert core.embedding_gram_determinant() == 81
    assert core.embedding_jacobian() == 9


def test_gram_matrix_agrees_with_pairwise_vertex_distances():
    # the embedding scale can be cross-checked against any two vertices:
    # |B(b) - B(b')|_F^2 = (b - b') G (b - b')^T
    g = core.embedding_gram_matrix()
    rng = np.random.default_rng(31)
    pts = random_b(rng, 16)
    for u, v in zip(pts[:8], pts[8:]):
        d = u - v
        lhs = np.sum((core.matrix_from_b(u) - core.matrix_from_b(v)) ** 2)
        assert math.isclose(lhs, d @ g @ d, rel_tol=1e-12, abs_tol=1e-15)


def test_ball_around_w_is_unistochastic():
    rng = np.random.default_rng(37)
    pts = random_b(rng, 100_000)
    w = core.W.entries[:2, :2].ravel()
    g = core.embedding_gram_matrix().astype(float)
    d = pts - w
    dist2 = np.einsum("ni,ij,nj->n", d, g, d)
    inside = dist2 <= core.MAX_BALL_RADIUS**2
    assert inside.sum() > 1000
    assert q_values(pts[inside]).min() >= 0.0
    # and the radius is sharp: slightly larger balls poke outside
    shell = (dist2 > core.MAX_BALL_RADIUS**2) & (
        dist2 < (1.02 * core.MAX_BALL_RADIUS) ** 2
    )
    assert q_values(pts[shell]).min() < 0.0


# ---------------------------------------------------------------------------
# product coordinates


def test_product_coordinates_reproduce_q():
    # Q = -(1-b1)^2 (x^2 - 4 b1 s t (1-s)(1-t)), the identity sample_mu_k draws by
    rng = np.random.default_rng(41)
    b1, s, t, x = rng.random((4, 200))
    x = 2.0 * x - 1.0
    batch = core.b_from_product_coords(b1, s, t, x)
    np.testing.assert_allclose(batch[:, 1:3], np.column_stack([s, t]) * (1 - b1)[:, None],
                               rtol=1e-15)
    want = -((1 - b1) ** 2) * (x * x - 4 * b1 * s * t * (1 - s) * (1 - t))
    np.testing.assert_allclose(q_values(batch), want, rtol=1e-12, atol=1e-14)
    # one array call gives the scalar results exactly
    scalar = [core.b_from_product_coords(*p) for p in zip(b1, s, t, x)]
    np.testing.assert_array_equal(batch, np.array(scalar))


def test_product_coordinate_edge_point():
    # on the b1 = 1/2, s = t = 0 edge the lowest feasible x, -1/2, is the
    # deepest non-unistochastic point, a permutation of the Schur matrix
    b = core.b_from_product_coords(0.5, 0.0, 0.0, -0.5)
    assert tuple(b.tolist()) == (0.5, 0.0, 0.0, 0.5)
    assert q_of(b) == -1.0 / 16.0
