import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilab import core
from unilab.unitary import (
    AngleParams,
    NotUnistochasticError,
    ReconstructionResult,
    Unitary3,
    dephase_canonical,
    from_angles,
    jarlskog,
    jarlskog_from_angles,
    reconstruct,
    to_bistochastic,
)

F3 = np.array(
    [
        [1, 1, 1],
        [1, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)],
        [1, np.exp(4j * np.pi / 3), np.exp(2j * np.pi / 3)]],
) / np.sqrt(3)

quarter = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
full = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def angle_tuples():
    return st.tuples(quarter, quarter, quarter, full).map(lambda a: AngleParams(*a))


# ---------------------------------------------------------------------------
# construction and the angle chart


def test_unitary3_rejects_non_unitary():
    with pytest.raises(ValueError):
        Unitary3(np.ones((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        Unitary3(np.eye(3) * (1 + 1e-8))
    u = Unitary3(np.eye(3) * (1 + 1e-12))
    assert u.defect <= 1e-10


def test_angle_params_validation_and_wrapping():
    with pytest.raises(ValueError):
        AngleParams(-0.1, 0, 0, 0)
    with pytest.raises(ValueError):
        AngleParams(0, math.pi / 2 + 1e-3, 0, 0)
    assert AngleParams(0, 0, 0, 3 * math.pi).delta == pytest.approx(math.pi)
    assert AngleParams(0, 0, 0, -math.pi).delta == math.pi
    assert AngleParams(0, 0, 0, 0.5).delta == 0.5


def test_from_angles_at_zero_is_diag_1_m1_m1():
    u = from_angles(AngleParams(0, 0, 0, 0))
    np.testing.assert_array_equal(u.entries, np.diag([1, -1, -1]).astype(complex))


@settings(max_examples=200, deadline=None)
@given(angle_tuples())
def test_from_angles_is_unitary_with_real_border(p):
    u = from_angles(p)
    assert u.defect <= 1e-13
    assert np.all(u.entries[0].imag == 0) and np.all(u.entries[:, 0].imag == 0)
    assert np.all(u.entries[0].real >= 0) and np.all(u.entries[:, 0].real >= 0)


@settings(max_examples=200, deadline=None)
@given(angle_tuples())
def test_squared_moduli_of_angle_chart(p):
    b = to_bistochastic(from_angles(p)).entries
    c12, s12 = math.cos(p.theta12), math.sin(p.theta12)
    c13, s13 = math.cos(p.theta13), math.sin(p.theta13)
    c23, s23 = math.cos(p.theta23), math.sin(p.theta23)
    assert b[0, 0] == pytest.approx(c12**2, abs=1e-14)
    assert b[0, 1] == pytest.approx(s12**2 * c13**2, abs=1e-14)
    assert b[1, 0] == pytest.approx(s12**2 * c23**2, abs=1e-14)
    expected_b4 = (
        c12**2 * c13**2 * c23**2
        + s13**2 * s23**2
        + 2 * c12 * c13 * c23 * s13 * s23 * math.cos(p.delta)
    )
    assert b[1, 1] == pytest.approx(expected_b4, abs=1e-14)


# ---------------------------------------------------------------------------
# the Jarlskog invariant


def test_jarlskog_of_fourier_matrix():
    assert jarlskog(Unitary3(F3)) == pytest.approx(math.sqrt(3) / 18, rel=1e-14)
    assert math.sqrt(3) / 18 == pytest.approx(1 / (6 * math.sqrt(3)), rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(angle_tuples())
def test_jarlskog_closed_form_matches_direct(p):
    assert jarlskog_from_angles(p) == pytest.approx(
        jarlskog(from_angles(p)), abs=1e-14
    )


@settings(max_examples=200, deadline=None)
@given(angle_tuples())
def test_jarlskog_bound_and_q_relation(p):
    u = from_angles(p)
    j = jarlskog(u)
    assert abs(j) <= 1 / (6 * math.sqrt(3)) + 1e-15
    q = core.q_of(to_bistochastic(u))
    assert j * j == pytest.approx(q / 4, abs=1e-13)


def test_jarlskog_vanishes_without_phase():
    for delta in (0.0, math.pi):
        p = AngleParams(0.5, 0.6, 0.7, delta)
        assert jarlskog(from_angles(p)) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_flat_matrix_gives_fourier():
    res = reconstruct(core.W)
    assert isinstance(res, ReconstructionResult)
    assert not res.degenerate
    np.testing.assert_allclose(res.unitary.entries, F3, atol=1e-14)
    third = 2 * math.pi / 3
    assert res.phi22 == pytest.approx(third, abs=1e-14)
    assert res.phi33 == pytest.approx(third, abs=1e-14)
    assert res.phi32 == pytest.approx(-third, abs=1e-14)
    assert res.phi23 == pytest.approx(-third, abs=1e-14)


def test_reconstruct_rejects_schur_with_its_q():
    with pytest.raises(NotUnistochasticError) as info:
        reconstruct(core.SCHUR)
    assert info.value.q_value == -1 / 16


def test_reconstruct_identity_and_permutations():
    res = reconstruct(core.IDENTITY)
    assert res.degenerate
    np.testing.assert_array_equal(res.unitary.entries.real, np.diag([1, -1, -1]))
    for name in ("P", "P2", "P12", "P13", "P23"):
        res = reconstruct(core.NAMED_MATRICES[name])
        assert res.degenerate
        assert res.unitary.defect <= 1e-14
        np.testing.assert_array_equal(
            np.abs(res.unitary.entries) ** 2, core.NAMED_MATRICES[name].entries
        )
        assert set(res.phases) <= {0.0, math.pi}


def test_reconstruct_flat_orthostochastic_point():
    res = reconstruct((0.25, 0.25, 0.25, 0.25))
    assert res.degenerate
    r = math.sqrt(0.5)
    expected = np.array([[0.5, 0.5, r], [0.5, 0.5, -r], [r, -r, 0.0]])
    np.testing.assert_allclose(res.unitary.entries.real, expected, atol=1e-15)
    assert res.unitary.defect <= 1e-14


def test_reconstruct_degenerate_with_a_zero_in_every_position():
    # |R12(a) R23(c)|^2 has B31 = 0; row and column permutations move the
    # zero to each of the nine places, B13 = 0 (no help from row 1) included
    rng = np.random.default_rng(61)
    for a, c in rng.uniform(0.1, 1.4, (40, 2)):
        ca, sa, cc, sc = math.cos(a), math.sin(a), math.cos(c), math.sin(c)
        o = np.array([[ca, -sa * cc, sa * sc], [sa, ca * cc, -ca * sc], [0.0, sc, cc]])
        for rp in itertools.permutations(range(3)):
            for cp in itertools.permutations(range(3)):
                b = (o * o)[np.ix_(rp, cp)]
                res = reconstruct(b)
                assert res.degenerate
                assert res.unitary.defect <= 1e-10
                np.testing.assert_allclose(np.abs(res.unitary.entries) ** 2, b, atol=1e-10)


@pytest.mark.parametrize("b", [(1 - 2 * eps, eps, eps, 0.5 - eps) for eps in (5e-11, 1e-9, 1e-7, 1e-6)]
                         + [(1 - eps, eps / 2, eps / 2, 0.3) for eps in (1e-10, 1e-8, 1e-6)])
def test_reconstruct_near_block_diagonal_orthostochastic(b):
    # |Q| <= Q_CLASS_TOL only because entries of order eps are small: the
    # links do not close tightly, so the real sign rule has no witness here
    assert core.classify(b).classification is core.MatrixClass.ORTHOSTOCHASTIC
    res = reconstruct(b)
    assert res.unitary.defect <= 1e-10
    np.testing.assert_allclose(np.abs(res.unitary.entries) ** 2, core.matrix_from_b(b),
                               rtol=0, atol=1e-10)
    assert jarlskog(res.unitary) ** 2 == pytest.approx(core.q_of(b) / 4, abs=1e-12)


def generic_feasible_b():
    # product coordinates with x kept strictly inside the Q > 0 window, so
    # nearly every draw is interior unistochastic
    interior = st.floats(min_value=0.02, max_value=0.98, allow_nan=False)

    def build(b1, s, t, xi):
        rho = math.sqrt(4 * b1 * s * t * (1 - s) * (1 - t))
        # and inside the x interval where all nine entries are nonnegative
        lo = max(-(1 - s) * (1 - t) - b1 * s * t, -s * t - b1 * (1 - s) * (1 - t), -rho)
        hi = min(s * (1 - t) + b1 * t * (1 - s), t * (1 - s) + b1 * s * (1 - t), rho)
        return core.b_from_product_coords(b1, s, t, lo + xi * (hi - lo))

    return st.builds(build, interior, interior, interior, interior).filter(
        lambda b: core.q_of(b) > 1e-9
    )


@settings(max_examples=300, deadline=None)
@given(generic_feasible_b())
def test_reconstruct_round_trip_and_sign_conventions(b):
    res = reconstruct(b)
    assert not res.degenerate
    u = res.unitary.entries
    back = to_bistochastic(res.unitary).entries
    np.testing.assert_allclose(back, core.matrix_from_b(b), atol=1e-13)
    # fixed half-plane for each phase
    assert u[1, 1].imag > 0 and u[2, 1].imag < 0
    assert u[1, 2].imag < 0 and u[2, 2].imag > 0
    assert 0 < res.phi22 < math.pi and 0 < res.phi33 < math.pi
    assert -math.pi < res.phi32 < 0 and -math.pi < res.phi23 < 0
    j = jarlskog(res.unitary)
    assert j >= 0
    assert j * j == pytest.approx(core.q_of(b) / 4, abs=1e-13)


def test_reconstruct_accepts_arrays_and_matrices():
    b = (1 / 3, 1 / 3, 1 / 3, 1 / 3)
    r1 = reconstruct(b)
    r2 = reconstruct(np.array(b))
    r3 = reconstruct(core.W)
    r4 = reconstruct(core.W.entries)
    for other in (r2, r3, r4):
        np.testing.assert_allclose(r1.unitary.entries, other.unitary.entries, atol=1e-15)


# ---------------------------------------------------------------------------
# dephasing


def test_dephase_fixes_border_and_is_idempotent():
    rng = np.random.default_rng(19)
    p = AngleParams(0.4, 0.7, 1.1, -2.0)
    u = from_angles(p)
    rows = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
    cols = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
    scrambled = Unitary3(rows[:, None] * u.entries * cols[None, :])
    fixed = dephase_canonical(scrambled)
    np.testing.assert_allclose(fixed.entries, u.entries, atol=1e-13)
    again = dephase_canonical(fixed)
    np.testing.assert_allclose(again.entries, fixed.entries, atol=1e-15)


def test_dephase_handles_zero_entries():
    # zeros in the first row or column block some of the rephasing freedoms;
    # the guarantee is only about the border, and it must still hold
    u = dephase_canonical(Unitary3(1j * core.P.entries.astype(complex)))
    assert np.all(np.abs(u.entries[0].imag) <= 1e-15)
    assert np.all(np.abs(u.entries[:, 0].imag) <= 1e-15)
    assert np.all(u.entries[0].real >= 0) and np.all(u.entries[:, 0].real >= 0)
    np.testing.assert_allclose(np.abs(u.entries), core.P.entries, atol=1e-15)


def test_reconstruct_agrees_with_dephasing_when_j_positive():
    rng = np.random.default_rng(43)
    found = 0
    while found < 25:
        p = AngleParams(*rng.uniform(0.1, math.pi / 2 - 0.1, 3), rng.uniform(-3, 3))
        u = from_angles(p)
        j = jarlskog(u)
        if abs(j) < 1e-3:
            continue
        found += 1
        res = reconstruct(to_bistochastic(u))
        target = dephase_canonical(u).entries
        if j < 0:
            target = target.conj()
        np.testing.assert_allclose(res.unitary.entries, target, atol=1e-10)
