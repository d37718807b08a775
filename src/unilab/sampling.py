"""Random sampling of unitary matrices and bistochastic vectors.

Three families of measures:

* Haar on U(3), realized by Gram-Schmidt on complex Gaussian matrices with
  the positive-diagonal normalization that makes the factorization unique.
* The one-parameter family mu_k (k > 1/2) on the unistochastic set.  In the
  product coordinates b2 = s(1-b1), b3 = t(1-b1),
  b4 = (1-s)(1-t) + b1 s t + 2 r sqrt(b1 s t (1-s)(1-t)) the measure
  factorizes: b1 ~ Beta(k, 2k), s and t ~ Beta(k, k) independently, and
  (1+r)/2 ~ Beta(k-1/2, k-1/2).  k = 1 is the Haar pushforward; k = 3/2 is
  the flat (Lebesgue) measure on the unistochastic set.
* The flat measure on the whole bistochastic polytope, sampled exactly
  from its triangulation into three 4-simplices of equal b-volume 1/24:
  pick a simplex uniformly, then take uniform-spacing (Dirichlet(1,...,1))
  weights on its five vertices.  Each draw reads one row of five uniforms,
  so the first n draws do not depend on n or on the block size.

Streams are Philox counter-based generators addressed by (seed, index), so
any stream can be split into child streams deterministically and without
consuming state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analytic import check_k
from .core import _SIMPLEX_VERTICES, _VERTEX_B, b_from_product_coords, feasible_b_mask

__all__ = [
    "DEFAULT_SEED",
    "MeasureSpec",
    "RngStream",
    "sample_haar_unitary",
    "sample_mu_k",
    "sample_flat_b3",
    "sample_b",
    "pushforward_b",
]

#: default root seed used by the command line tools
DEFAULT_SEED = 75193

_SPLIT_BASE = 2**32


@dataclass(frozen=True)
class MeasureSpec:
    """One of the supported measures: Haar on U(3), mu_k, or flat on the polytope."""

    kind: str
    k: Optional[float] = None

    _KINDS = ("haar", "mu", "flat")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}; pick from {self._KINDS}")
        if self.kind == "mu":
            object.__setattr__(self, "k", check_k(self.k))
        elif self.k is not None:
            raise ValueError(f"measure {self.kind!r} takes no k parameter")

    @classmethod
    def haar(cls) -> "MeasureSpec":
        return cls("haar")

    @classmethod
    def mu(cls, k: float) -> "MeasureSpec":
        return cls("mu", k)

    @classmethod
    def flat_b3(cls) -> "MeasureSpec":
        return cls("flat")

    @property
    def label(self) -> str:
        if self.kind == "mu":
            return f"mu_{self.k:g}"
        return {"haar": "haar", "flat": "flat_b3"}[self.kind]


HAAR = MeasureSpec.haar()
FLAT_B3 = MeasureSpec.flat_b3()


@dataclass(frozen=True, eq=False)
class RngStream:
    """A deterministic random stream addressed by (seed, index).

    seed = 0 asks for fresh OS entropy; the drawn value is recorded in the
    seed field so the stream and all of its children stay reproducible
    within the run.  The generator is created lazily and is stateful: treat
    each stream as a single consumable sequence and use split for
    independent work.
    """

    seed: int
    index: int = 0
    _gen: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        seed = int(self.seed)
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if seed == 0:
            entropy = np.random.SeedSequence().entropy
            seed = int(entropy) % (2**63 - 1) + 1
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "index", int(self.index))

    @property
    def generator(self) -> np.random.Generator:
        if not self._gen:
            seq = np.random.SeedSequence([self.seed, self.index])
            self._gen.append(np.random.Generator(np.random.Philox(seq)))
        return self._gen[0]

    def split(self, n: int) -> tuple["RngStream", ...]:
        """n child streams; pure, does not touch this stream's generator."""
        base = self.index * _SPLIT_BASE
        return tuple(RngStream(self.seed, base + i + 1) for i in range(n))


def _as_generator(stream) -> np.random.Generator:
    if isinstance(stream, RngStream):
        return stream.generator
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected RngStream or numpy Generator, got {type(stream).__name__}")


def _haar_columns(stream, n: int, m: int) -> np.ndarray:
    """The first m columns of n Haar unitaries, shape (n, 3, m) complex.

    Draws the whole 3x3 Ginibre matrix, real parts first, so the stream is
    consumed the same way for every m and the columns do not depend on m.
    """
    g = _as_generator(stream)
    re = g.standard_normal((n, 3, 3))
    im = g.standard_normal((n, 3, 3))
    q = np.empty((n, 3, m), dtype=complex)
    for j in range(m):
        v = re[:, :, j] + 1j * im[:, :, j]
        for _ in range(2):  # reorthogonalize once: kills ill-conditioned draws
            for i in range(j):
                proj = np.sum(q[:, :, i].conj() * v, axis=1, keepdims=True)
                v -= proj * q[:, :, i]
        q[:, :, j] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return q


def sample_haar_unitary(stream, n: int) -> np.ndarray:
    """n Haar-distributed unitaries, shape (n, 3, 3) complex.

    Gram-Schmidt on a complex Ginibre matrix; normalizing each pivot to a
    positive real number picks the unique QR representative, which is what
    makes the output exactly Haar.
    """
    return _haar_columns(stream, n, 3)


def sample_mu_k(stream, n: int, k: float) -> np.ndarray:
    """n draws of b = (b1, b2, b3, b4) from mu_k, shape (n, 4).

    Requires a finite k > 1/2.  k = 1 reproduces the Haar pushforward,
    k = 3/2 the flat measure on the unistochastic set.
    """
    k = check_k(k)
    g = _as_generator(stream)
    b1 = g.beta(k, 2.0 * k, size=n)
    s = g.beta(k, k, size=n)
    t = g.beta(k, k, size=n)
    r = 2.0 * g.beta(k - 0.5, k - 0.5, size=n) - 1.0
    b = b_from_product_coords(b1, s, t, 2.0 * r * np.sqrt(b1 * s * t * (1.0 - s) * (1.0 - t)))
    b[:, 3] = np.clip(b[:, 3], 0.0, 1.0)
    return b


#: rows of uniforms drawn per block, which keeps memory flat in n
_FLAT_BLOCK = 65536

# b-vectors of the five vertices of each simplex of the triangulation
_SIMPLEX_B = np.array([[_VERTEX_B[v] for v in names] for names in _SIMPLEX_VERTICES], dtype=float)


def sample_flat_b3(stream, n: int) -> np.ndarray:
    """n draws from the flat measure on the polytope, shape (n, 4).

    Exact, with no rejection: each draw reads one row of five uniforms.  The
    first picks one of the three equal-volume simplices as floor(3u); the
    other four, sorted, cut [0, 1] into five spacings, which are uniform
    (Dirichlet(1,...,1)) barycentric weights on that simplex's vertices.
    Rows consume the stream in order, so the first n points do not depend on
    how many were requested or on the block size.  The rows go through
    feasible_b_mask as a guard: it drops only points that rounding puts
    outside the polytope, and the loop draws their replacements.
    """
    g = _as_generator(stream)
    chunks = [np.empty((0, 4))]
    have = 0
    while have < n:
        u = g.random((min(_FLAT_BLOCK, n - have), 5))
        spacings = np.diff(np.sort(u[:, 1:], axis=1), axis=1, prepend=0.0, append=1.0)
        verts = _SIMPLEX_B[(3.0 * u[:, 0]).astype(np.intp)]
        # vertex coordinates are 0 or 1, and each is 1 at two vertices of a
        # simplex at most, so each sum rounds once whatever order einsum uses
        cand = np.einsum("nk,nkj->nj", spacings, verts)
        keep = cand[feasible_b_mask(cand)]
        chunks.append(keep)
        have += len(keep)
    return np.concatenate(chunks)


def pushforward_b(u: np.ndarray) -> np.ndarray:
    """b = (|U11|^2, |U12|^2, |U21|^2, |U22|^2) of unitaries u, shape (n, 3, m >= 2) -> (n, 4)."""
    return (np.abs(u[:, :2, :2]) ** 2).reshape(len(u), 4)


def sample_b(spec: MeasureSpec, stream, n: int) -> np.ndarray:
    """Draw n b-vectors from the given measure (Haar draws push forward)."""
    if spec.kind == "haar":
        return pushforward_b(_haar_columns(stream, n, 2))
    if spec.kind == "mu":
        return sample_mu_k(stream, n, spec.k)
    return sample_flat_b3(stream, n)
