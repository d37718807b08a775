"""Bistochastic matrices of order three.

A 3x3 bistochastic matrix is determined by its upper-left 2x2 minor, written
as the vector b = (b1, b2, b3, b4):

    B(b) = [ b1           b2           1-b1-b2
             b3           b4           1-b3-b4
             1-b1-b3      1-b2-b4      b1+b2+b3+b4-1 ]

The polynomial

    Q(b) = 4*b1*b2*b3*b4 - (b1+b2+b3+b4-1 - b1*b4 - b2*b3)**2

equals sixteen times the squared area of the unitarity triangle built from
any pair of rows or columns of a would-be unitary preimage.  Its sign decides
everything: Q > 0 means B is unistochastic (B_ij = |U_ij|**2 for some unitary
U), Q = 0 means orthostochastic (a real orthogonal preimage exists), and
Q < 0 means no preimage exists at all.  On the whole polytope Q ranges over
[-1/16, 1/27]; the minimum is attained at the Schur matrix (P + P^2)/2 and
the maximum at the flat matrix W.

The scalar functions of one matrix (q_of, classify, link_lengths, entropy,
generalized_entropy and unitary.reconstruct) take any matrix form: a
BistochasticMatrix, a 4-vector b or a 3x3 array, validated once.
NaN or infinite entries, entries below -ENTRY_ATOL, sums off by more than
SUM_ATOL and any other shape raise ValueError.

This module holds the data model, the Q test and chain-link test, entropies,
the named special matrices, and the geometry of the polytope itself
(triangulation volume, the embedding Gram determinant, and the product
coordinates that the mu_k sampler draws in).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analytic import check_q

__all__ = [
    "ENTRY_ATOL",
    "SUM_ATOL",
    "Q_CLASS_TOL",
    "Q_MIN",
    "Q_MAX",
    "MAX_BALL_RADIUS",
    "BistochasticMatrix",
    "MatrixClass",
    "UnistochasticityVerdict",
    "q_of",
    "q_values",
    "classify",
    "link_lengths",
    "chain_link_feasible",
    "entropy",
    "entropy_values",
    "generalized_entropy",
    "generalized_entropy_values",
    "matrix_from_b",
    "feasible_b_mask",
    "birkhoff_volume_triangulation",
    "birkhoff_b_volume",
    "triangulation_simplex_volumes",
    "embedding_gram_matrix",
    "embedding_gram_determinant",
    "embedding_jacobian",
    "b_from_product_coords",
    "W",
    "SCHUR",
    "IDENTITY",
    "P",
    "P2",
    "P12",
    "P13",
    "P23",
    "NAMED_MATRICES",
]

#: entries in [-ENTRY_ATOL, 0) are treated as rounding noise and clamped to 0
ENTRY_ATOL = 1e-12
#: row and column sums must match 1 within this tolerance on construction
SUM_ATOL = 1e-10
#: |Q| at or below this classifies as the orthostochastic boundary
Q_CLASS_TOL = 1e-12

Q_MIN = -1.0 / 16.0
Q_MAX = 1.0 / 27.0

#: radius of the largest ball around W (Hilbert-Schmidt metric) that fits
#: inside the unistochastic set
MAX_BALL_RADIUS = math.sqrt(2.0) / 3.0


def _nine_entries(b1, b2, b3, b4):
    """The nine matrix entries of B(b), broadcasting over array arguments."""
    return (
        b1,
        b2,
        1.0 - b1 - b2,
        b3,
        b4,
        1.0 - b3 - b4,
        1.0 - b1 - b3,
        1.0 - b2 - b4,
        b1 + b2 + b3 + b4 - 1.0,
    )


def _b_entries(b) -> tuple:
    """The nine entries of B(b) for b arrays of shape (..., 4), each of shape (...)."""
    return _nine_entries(*np.moveaxis(np.asarray(b, dtype=float), -1, 0))


def matrix_from_b(b) -> np.ndarray:
    """Assemble the full 3x3 entries array from b, shape (..., 4) -> (..., 3, 3)."""
    entries = np.stack(_b_entries(b), axis=-1)
    return entries.reshape(entries.shape[:-1] + (3, 3))


def feasible_b_mask(b) -> np.ndarray:
    """Boolean mask over b arrays of shape (..., 4): all nine entries >= 0."""
    return functools.reduce(np.minimum, _b_entries(b)) >= 0.0


@dataclass(frozen=True, eq=False)
class BistochasticMatrix:
    """A 3x3 matrix with nonnegative entries and unit row and column sums."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {arr.shape}")
        e = arr.ravel().tolist()
        for i, x in enumerate(e):
            if not 0.0 < x < math.inf:
                # rounding noise from |U_ij|**2 style constructions is
                # clamped; real negativity, NaN and infinity are errors
                if not -ENTRY_ATOL <= x <= 0.0:
                    raise ValueError(f"entry B{i // 3 + 1}{i % 3 + 1} = {x:.3e} is negative or not finite")
                e[i] = 0.0
        rows = [sum(e[i:i + 3]) for i in (0, 3, 6)]
        cols = [sum(e[j::3]) for j in (0, 1, 2)]
        if max(abs(s - 1.0) for s in rows + cols) > SUM_ATOL:
            raise ValueError(
                f"row sums {rows} / column sums {cols} deviate from 1 "
                f"by more than {SUM_ATOL:g}"
            )
        arr = np.array(e).reshape(3, 3)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_entries(cls, entries) -> "BistochasticMatrix":
        """Build from a 3x3 array; sums off by more than SUM_ATOL raise."""
        return cls(entries)

    @classmethod
    def from_b(cls, b) -> "BistochasticMatrix":
        """Build B(b) from the four free entries b = (b1, b2, b3, b4)."""
        arr = np.asarray(b, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"b needs 4 values (b1, b2, b3, b4), got shape {arr.shape}")
        return cls(matrix_from_b(arr))

    def __array__(self, dtype=None, copy=None):
        arr = self.entries
        if dtype is not None:
            arr = arr.astype(dtype)
        return np.array(arr) if copy else arr


def _as_matrix(x) -> BistochasticMatrix:
    """The one intake of the scalar functions (see the module docstring)."""
    if isinstance(x, BistochasticMatrix):
        return x
    arr = np.asarray(x, dtype=float)
    if arr.shape == (3, 3):
        return BistochasticMatrix(arr)
    if arr.shape == (4,):
        return BistochasticMatrix(matrix_from_b(arr))
    raise ValueError(f"expected a 3x3 matrix or a 4-vector b, got shape {arr.shape}")


class MatrixClass(enum.Enum):
    UNISTOCHASTIC = "Unistochastic"
    ORTHOSTOCHASTIC = "Orthostochastic"
    NOT_UNISTOCHASTIC = "NotUnistochastic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class UnistochasticityVerdict:
    """Outcome of the unistochasticity decision for one matrix."""

    q_value: float
    classification: MatrixClass
    link_lengths: tuple[float, float, float]


def _q_poly(b1, b2, b3, b4):
    return 4.0 * b1 * b2 * b3 * b4 - (b1 + b2 + b3 + b4 - 1.0 - b1 * b4 - b2 * b3) ** 2


def q_of(b) -> float:
    """Q(b) = 4 b1 b2 b3 b4 - (b1+b2+b3+b4-1 - b1 b4 - b2 b3)^2.

    Equals 16 A^2 where A is the (possibly imaginary) area of the unitarity
    triangle, and 4 J^2 in terms of the Jarlskog invariant of any unitary
    preimage.  Lies in [-1/16, 1/27] for every bistochastic b.  Any matrix
    form; NaN or inf entries raise ValueError.
    """
    e = _as_matrix(b).entries.ravel().tolist()
    return _q_poly(e[0], e[1], e[3], e[4])


def q_values(b) -> np.ndarray:
    """Vectorized Q over an array of b vectors, shape (..., 4) -> (...)."""
    return _q_poly(*np.moveaxis(np.asarray(b, dtype=float), -1, 0))


def link_lengths(B) -> tuple[float, float, float]:
    """Link lengths of the unitarity triangle built from columns 1 and 2.

    Row j contributes the link |U_j1| |U_j2| = sqrt(B_j1 B_j2), so the triple
    is (sqrt(b1 b2), sqrt(b3 b4), sqrt(B31 B32)).  Any matrix form; NaN or
    inf entries raise ValueError.
    """
    e = _as_matrix(B).entries.ravel().tolist()
    return (math.sqrt(e[0] * e[1]), math.sqrt(e[3] * e[4]), math.sqrt(e[6] * e[7]))


def classify(B) -> UnistochasticityVerdict:
    """Decide whether B is unistochastic from the sign of Q.

    Any matrix form; NaN or inf entries raise ValueError.  |Q| <= Q_CLASS_TOL
    is reported as Orthostochastic: Q is a degree-4 polynomial in entries
    bounded by 1, so an absolute 1e-12 band sits safely above double rounding
    and far below any geometric separation of interest.
    """
    mat = _as_matrix(B)
    q = q_of(mat)
    if q > Q_CLASS_TOL:
        cls = MatrixClass.UNISTOCHASTIC
    elif q < -Q_CLASS_TOL:
        cls = MatrixClass.NOT_UNISTOCHASTIC
    else:
        cls = MatrixClass.ORTHOSTOCHASTIC
    return UnistochasticityVerdict(q, cls, link_lengths(mat))


def chain_link_feasible(lengths: Sequence[float]) -> bool:
    """Can segments of the given lengths be closed into a polygon?

    True iff the largest length does not exceed the sum of all others, the
    closure condition for the chain of links |U_j1| |U_j2| formed by a pair
    of columns of a unitary matrix.  For three links this is the triangle
    inequality.
    """
    ls = [float(x) for x in lengths]
    if not ls:
        raise ValueError("chain_link_feasible needs at least one length")
    if any(x < 0.0 or not math.isfinite(x) for x in ls):
        raise ValueError("link lengths must be finite and nonnegative")
    return 2.0 * max(ls) <= sum(ls)


def _entropy_of(entries) -> np.ndarray:
    """-(1/3) sum e ln e over nine entry arrays, with 0 ln 0 := 0.

    The scalar functions pass nine one-element rows, so they run the batch
    arithmetic and give == results.  Both entropy kernels add 0.0 last,
    which turns a zero sum's -0.0 into 0.0 and leaves every other value as
    it is.
    """
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in entries:
            # e ln e is nan at 0 and at rounding noise below it; both count 0
            total = total + np.where(e > 0.0, e * np.log(e), 0.0)
    return -total / 3.0 + 0.0


def _generalized_entropy_of(entries, q: float) -> np.ndarray:
    """(1/(3(q-1))) sum (e - e^q) over nine entry arrays; q = 1 is the Shannon limit."""
    q = check_q(q)
    if q == 1.0:
        return _entropy_of(entries)
    total = 0.0
    with np.errstate(invalid="ignore"):
        for e in entries:
            # 0**q is 0 for the purpose of these sums even at q = 0 (the q -> 0
            # entropy counts the support), which differs from numpy's 0.0**0.0 == 1.0
            total = total + (e - np.where(e > 0.0, e**q, 0.0))
    return total / (3.0 * (q - 1.0)) + 0.0


def entropy(B) -> float:
    """Shannon entropy S(B) = -(1/3) sum_ij B_ij ln B_ij, with 0 ln 0 := 0.

    Ranges from 0 (permutation matrices) to ln 3 (the flat matrix W).  Any
    matrix form; NaN or inf entries raise ValueError.
    """
    return float(_entropy_of(_as_matrix(B).entries.reshape(9, 1))[0])


def entropy_values(b) -> np.ndarray:
    """Vectorized entropy over b arrays of shape (..., 4)."""
    return _entropy_of(_b_entries(b))


def generalized_entropy(B, q: float) -> float:
    """Tsallis-type entropy S_q(B) = (1/(3(q-1))) sum_ij (B_ij - B_ij^q).

    Defined for q >= 0; at q = 1 it returns the Shannon entropy, its limit.
    Any matrix form; NaN or inf entries raise ValueError.
    """
    return float(_generalized_entropy_of(_as_matrix(B).entries.reshape(9, 1), q)[0])


def generalized_entropy_values(b, q: float) -> np.ndarray:
    """Vectorized S_q over b arrays of shape (..., 4)."""
    return _generalized_entropy_of(_b_entries(b), q)


# ---------------------------------------------------------------------------
# named matrices


def _bmat(rows) -> BistochasticMatrix:
    return BistochasticMatrix.from_entries(rows)


IDENTITY = _bmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
#: the cyclic permutation (1 -> 2 -> 3 -> 1) acting on rows
P = _bmat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
P2 = _bmat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
P12 = _bmat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
P13 = _bmat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
P23 = _bmat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
#: flat (van der Waerden) matrix, the center of the polytope; Q(W) = 1/27
W = _bmat([[1 / 3] * 3] * 3)
#: Schur's matrix (P + P^2)/2, the farthest point from the unistochastic set;
#: Q = -1/16
SCHUR = _bmat([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])

NAMED_MATRICES: dict[str, BistochasticMatrix] = {
    "identity": IDENTITY,
    "P": P,
    "P2": P2,
    "P12": P12,
    "P13": P13,
    "P23": P23,
    "W": W,
    "schur": SCHUR,
}


# ---------------------------------------------------------------------------
# polytope geometry, exact where it can be


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    det = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        if m[0][j] != 0:
            det += sign * m[0][j] * _det_fraction(minor)
        sign = -sign
    return det


# b coordinates (B11, B12, B21, B22) of the six permutation vertices
_VERTEX_B = {
    "P": (0, 1, 0, 0),
    "P2": (0, 0, 1, 0),
    "identity": (1, 0, 0, 1),
    "P12": (0, 1, 1, 0),
    "P13": (0, 0, 0, 1),
    "P23": (1, 0, 0, 0),
}

# the polytope splits into three 4-simplices: the equilateral triangle
# (P, P2, identity) joined with each side of the opposite triangle
_SIMPLEX_VERTICES = (
    ("P", "P2", "identity", "P12", "P13"),
    ("P", "P2", "identity", "P13", "P23"),
    ("P", "P2", "identity", "P12", "P23"),
)


def triangulation_simplex_volumes() -> tuple[Fraction, Fraction, Fraction]:
    """Exact b-coordinate volumes of the three simplices (each 1/24)."""
    vols = []
    for names in _SIMPLEX_VERTICES:
        verts = [[Fraction(x) for x in _VERTEX_B[n]] for n in names]
        edges = [[v[i] - verts[0][i] for i in range(4)] for v in verts[1:]]
        vols.append(abs(_det_fraction(edges)) / Fraction(math.factorial(4)))
    return tuple(vols)


def birkhoff_b_volume() -> Fraction:
    """Exact volume 1/8 of the polytope in b coordinates (Lebesgue on R^4)."""
    return sum(triangulation_simplex_volumes(), Fraction(0))


def embedding_gram_matrix() -> np.ndarray:
    """Gram matrix of the four coordinate directions of b -> B(b) in R^9."""
    basis = (matrix_from_b(np.eye(4)) - matrix_from_b(np.zeros(4))).reshape(4, 9)
    return np.rint(basis @ basis.T).astype(int)


def embedding_gram_determinant() -> int:
    """Exact determinant (81) of the embedding Gram matrix."""
    g = embedding_gram_matrix()
    m = [[Fraction(int(x)) for x in row] for row in g]
    det = _det_fraction(m)
    assert det.denominator == 1
    return int(det)


def embedding_jacobian() -> int:
    """Volume scale factor 9 = sqrt(81) of the affine embedding into R^9."""
    det = embedding_gram_determinant()
    root = math.isqrt(det)
    assert root * root == det
    return root


def birkhoff_volume_triangulation() -> float:
    """4-volume 9/8 of the polytope as a subset of R^9.

    Computed exactly: the three simplex volumes (rational determinants) sum
    to 1/8 in b coordinates, and the embedding multiplies volumes by 9.
    """
    return float(embedding_jacobian() * birkhoff_b_volume())


# ---------------------------------------------------------------------------
# product coordinates


def b_from_product_coords(b1, s, t, x) -> np.ndarray:
    """b = (b1, s(1-b1), t(1-b1), (1-s)(1-t) + b1 s t + x), shape (..., 4).

    In these coordinates Q = -(1-b1)^2 (x^2 - 4 b1 s t (1-s)(1-t)), which
    makes mu_k factorize (see unilab.sampling).  Broadcasts over array
    arguments.
    """
    b4 = (1.0 - s) * (1.0 - t) + b1 * s * t + x
    return np.stack(np.broadcast_arrays(b1, s * (1.0 - b1), t * (1.0 - b1), b4), axis=-1)
