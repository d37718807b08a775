"""Unitary 3x3 matrices and their bistochastic shadows.

The map U -> B with B_ij = |U_ij|^2 sends U(3) onto the unistochastic
subset of the bistochastic polytope.  This module provides the standard
angle parametrization of that map, the Jarlskog invariant J (the common
imaginary part, up to sign, of the products U_i1j1 U_i2j2 conj(U_i1j2)
conj(U_i2j1)), and the inverse construction: given an unistochastic B,
rebuild a unitary preimage with first row and first column real and
nonnegative and J >= 0.

The reconstruction works through the two unitarity triangles attached to
column pairs (1,2) and (1,3).  Their interior angles fix the four free
phases up to complex conjugation, which the J >= 0 convention resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Q_CLASS_TOL, BistochasticMatrix, _as_matrix, _q_poly, link_lengths

__all__ = [
    "UNITARITY_ATOL",
    "DEGENERACY_ENTRY_TOL",
    "Unitary3",
    "AngleParams",
    "ReconstructionResult",
    "NotUnistochasticError",
    "from_angles",
    "to_bistochastic",
    "jarlskog",
    "jarlskog_values",
    "jarlskog_from_angles",
    "reconstruct",
    "dephase_canonical",
]

#: largest allowed deviation of U* U from the identity (entrywise)
UNITARITY_ATOL = 1e-10
#: entries at or below this make the unitarity triangles collapse and send
#: the reconstruction down its degenerate branch
DEGENERACY_ENTRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Unitary3:
    """A 3x3 complex matrix validated to be unitary within UNITARITY_ATOL."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {arr.shape}")
        defect = _defect(arr)
        if not defect <= UNITARITY_ATOL:
            raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def defect(self) -> float:
        return float(_defect(self.entries))

    def __array__(self, dtype=None, copy=None):
        arr = self.entries
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return np.array(arr) if copy else arr


def _defect(u: np.ndarray) -> float:
    """Largest entry of |U* U - I|."""
    return np.max(np.abs(u.conj().T @ u - np.eye(3)))


def _wrap_angle(x: float) -> float:
    """Map x into (-pi, pi]."""
    w = math.remainder(float(x), 2.0 * math.pi)
    return math.pi if w <= -math.pi else w


@dataclass(frozen=True)
class AngleParams:
    """Mixing angles theta12, theta13, theta23 in [0, pi/2] and a phase delta.

    delta is wrapped into (-pi, pi] on construction; the angles themselves
    must already lie in their quarter-circle range.
    """

    theta12: float
    theta13: float
    theta23: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("theta12", "theta13", "theta23"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= math.pi / 2.0 + 1e-12:
                raise ValueError(f"{name} = {v} outside [0, pi/2]")
            object.__setattr__(self, name, min(v, math.pi / 2.0))
        object.__setattr__(self, "delta", _wrap_angle(self.delta))


class NotUnistochasticError(ValueError):
    """Raised when a matrix with Q < 0 is handed to the reconstruction."""

    def __init__(self, q_value: float):
        self.q_value = q_value
        super().__init__(
            f"matrix is not unistochastic (Q = {q_value:.6g} < 0); "
            "no unitary preimage exists"
        )


@dataclass(frozen=True)
class ReconstructionResult:
    """A unitary preimage of a unistochastic matrix.

    phi22 and phi32 are the phases of the second column, phi23 and phi33
    those of the third; the first row and column are real nonnegative.  In
    the generic case phi22 in (0, pi), phi32, phi23 in (-pi, 0) and
    phi33 in (0, pi), which makes J >= 0.  Degenerate inputs (any vanishing
    entry, or Q = 0) yield phases in {0, pi} and set the flag.
    """

    unitary: Unitary3
    phi22: float
    phi32: float
    phi23: float
    phi33: float
    degenerate: bool

    @property
    def phases(self) -> tuple[float, float, float, float]:
        return (self.phi22, self.phi32, self.phi23, self.phi33)


def from_angles(params: AngleParams) -> Unitary3:
    """Unitary matrix of the given angles, real first row and column.

    At all angles zero the matrix is diag(1, -1, -1).
    """
    c12, s12 = math.cos(params.theta12), math.sin(params.theta12)
    c13, s13 = math.cos(params.theta13), math.sin(params.theta13)
    c23, s23 = math.cos(params.theta23), math.sin(params.theta23)
    ph = complex(math.cos(params.delta), math.sin(params.delta))
    u = np.array(
        [
            [c12, s12 * c13, s12 * s13],
            [
                s12 * c23,
                -c12 * c13 * c23 - ph * s13 * s23,
                ph * c13 * s23 - c12 * c23 * s13,
            ],
            [
                s12 * s23,
                ph * c23 * s13 - c12 * c13 * s23,
                -c12 * s13 * s23 - ph * c13 * c23,
            ],
        ],
        dtype=complex,
    )
    return Unitary3(u)


def to_bistochastic(u: Unitary3) -> BistochasticMatrix:
    """The entrywise squared-modulus image of u."""
    return BistochasticMatrix(np.abs(np.asarray(u, dtype=complex)) ** 2)


def jarlskog(u: Unitary3) -> float:
    """J = Im(U11 U22 conj(U12) conj(U21)).

    Every choice of two rows and two columns gives the same value up to
    sign; J^2 = Q/4 for the squared-modulus image.  |J| <= 1/(6 sqrt(3)).
    """
    return float(jarlskog_values(u))


def jarlskog_values(us) -> np.ndarray:
    """Vectorized J over a batch of unitaries, shape (..., 3, 3) -> (...).

    Reads only the upper-left 2x2 block, so the first two columns,
    shape (..., 3, 2), are enough.
    """
    e = np.asarray(us, dtype=complex)
    return (
        e[..., 0, 0] * e[..., 1, 1] * e[..., 0, 1].conj() * e[..., 1, 0].conj()
    ).imag


def jarlskog_from_angles(params: AngleParams) -> float:
    """Closed form -c12 c13 c23 s12^2 s13 s23 sin(delta)."""
    c12, s12 = math.cos(params.theta12), math.sin(params.theta12)
    c13, s13 = math.cos(params.theta13), math.sin(params.theta13)
    c23, s23 = math.cos(params.theta23), math.sin(params.theta23)
    return -c12 * c13 * c23 * s12 * s12 * s13 * s23 * math.sin(params.delta)


def dephase_canonical(u: Unitary3) -> Unitary3:
    """Strip the 5 rephasing degrees of freedom.

    Multiplies columns and then rows by unit phases so the first row and
    first column become real and nonnegative.  Entries that are exactly
    zero keep phase 1.
    """
    arr = np.asarray(u, dtype=complex)
    col_phase = np.exp(-1j * np.angle(arr[0, :]))
    arr = arr * col_phase[None, :]
    row_phase = np.exp(-1j * np.angle(arr[:, 0]))
    row_phase[0] = 1.0
    arr = arr * row_phase[:, None]
    return Unitary3(arr)


def _acos_clipped(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def _loewdin_polish(m: np.ndarray) -> np.ndarray:
    """Nearest unitary in Frobenius norm: M (M* M)^(-1/2)."""
    w, v = np.linalg.eigh(m.conj().T @ m)
    inv_root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return m @ inv_root


def _witness(u: np.ndarray) -> Unitary3:
    """u as a Unitary3, Loewdin-polished first if its defect exceeds UNITARITY_ATOL."""
    if _defect(u) > UNITARITY_ATOL:
        u = _loewdin_polish(u)
    return Unitary3(u)


def reconstruct(b) -> ReconstructionResult:
    """Build a unitary preimage of a unistochastic matrix.

    Takes any matrix form that unilab.core lists; NaN or inf entries raise
    ValueError, and Q < -Q_CLASS_TOL raises NotUnistochasticError with the
    offending Q attached.

    Generic case: the four phases are interior angles of the two unitarity
    triangles on column pairs (1,2) and (1,3), signed so that
    Im U22 > 0, Im U32 < 0, Im U23 < 0, Im U33 > 0, hence J >= 0.  Taking
    the matrix of the flat vector b = (1/3, 1/3, 1/3, 1/3) returns the
    Fourier matrix: phi22 = phi33 = 2 pi / 3, phi32 = phi23 = -2 pi / 3.

    Degenerate case (an entry at or below DEGENERACY_ENTRY_TOL, or
    |Q| <= Q_CLASS_TOL): the triangles are flat, the preimage can be taken
    real orthogonal, and the phases are 0 or pi.  The sign pattern comes
    from the tight link inequality on column pair (1,2) and orthogonality
    of the first two rows.  When no entry vanishes and that real matrix is
    not unitary within UNITARITY_ATOL, the small |Q| comes from small
    entries, not from flat triangles, and the generic case runs instead.
    """
    mat = _as_matrix(b)
    b1, b2, b13, b3, b4, b23, b31, b32, b33 = e = mat.entries.ravel().tolist()
    q = _q_poly(b1, b2, b3, b4)
    if q < -Q_CLASS_TOL:
        raise NotUnistochasticError(q)
    zero_entry = min(e) <= DEGENERACY_ENTRY_TOL
    if zero_entry or q <= Q_CLASS_TOL:
        result = _reconstruct_degenerate(mat, zero_entry)
        if result is not None:
            return result

    # column pair (1, 2): links sqrt(b1 b2), sqrt(b3 b4), sqrt(b31 b32)
    phi22 = _acos_clipped((b31 * b32 - b1 * b2 - b3 * b4) / (2.0 * math.sqrt(b1 * b2 * b3 * b4)))
    phi32 = -_acos_clipped((b3 * b4 - b1 * b2 - b31 * b32) / (2.0 * math.sqrt(b1 * b2 * b31 * b32)))
    # column pair (1, 3)
    phi23 = -_acos_clipped((b31 * b33 - b1 * b13 - b3 * b23) / (2.0 * math.sqrt(b1 * b3 * b13 * b23)))
    phi33 = _acos_clipped((b3 * b23 - b1 * b13 - b31 * b33) / (2.0 * math.sqrt(b1 * b13 * b31 * b33)))

    root = np.sqrt(mat.entries)
    phases = np.array([[0.0, 0.0, 0.0], [0.0, phi22, phi23], [0.0, phi32, phi33]])
    # a nearly flat triangle is the conditioning corner that _witness polishes
    u = root * np.exp(1j * phases)
    return ReconstructionResult(_witness(u), phi22, phi32, phi23, phi33, False)


def _reconstruct_degenerate(mat: BistochasticMatrix,
                            zero_entry: bool) -> ReconstructionResult | None:
    """The real witness of the sign rule, or None when it is not one.

    A tiny |Q| without a vanishing entry need not mean flat triangles: with
    entries of order eps, Q is of order eps^2 whatever the phases, and the
    links may not close tightly.  The sign rule then fails by far more than
    UNITARITY_ATOL, and the generic formulas apply.
    """
    e = mat.entries
    m = np.sqrt(e)
    links = link_lengths(mat)
    # the tight closure L_i = L_j + L_k dictates which two links point the
    # same way; the first maximal link takes the plus sign
    sigma = np.ones((3, 3))
    sigma[1:, 1] = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0))[int(np.argmax(links))]

    def neg_sign(x: float) -> float:
        return -1.0 if x >= 0.0 else 1.0

    # rows 1,2 and rows 1,3 orthogonality fix the third column; when only
    # B13 of that column vanishes, row 1 says nothing about it and rows 2,3
    # fix the sign of the third entry relative to the second
    sigma[1, 2] = neg_sign(m[0, 0] * m[1, 0] + sigma[1, 1] * m[0, 1] * m[1, 1])
    if e[0, 2] <= DEGENERACY_ENTRY_TOL < min(e[1, 2], e[2, 2]):
        rows23 = m[1, 0] * m[2, 0] + sigma[1, 1] * sigma[2, 1] * m[1, 1] * m[2, 1]
        sigma[2, 2] = sigma[1, 2] * neg_sign(rows23)
    else:
        sigma[2, 2] = neg_sign(m[0, 0] * m[2, 0] + sigma[2, 1] * m[0, 1] * m[2, 1])

    # kept real until Unitary3, so any polishing runs in real arithmetic
    u = sigma * m
    if not zero_entry and _defect(u) > UNITARITY_ATOL:
        return None
    phi = [0.0 if s > 0 else math.pi for s in (sigma[1, 1], sigma[2, 1], sigma[1, 2], sigma[2, 2])]
    return ReconstructionResult(_witness(u), *phi, True)
