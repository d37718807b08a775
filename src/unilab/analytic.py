"""Closed forms for the measure family mu_k and the Jarlskog statistics.

Everything here is exact mathematics evaluated in floating point: the
normalization constants h_k, volumes, entropy averages, moments of Q, and
the distribution of x = sqrt(27 Q) (equivalently of |J| = x / (6 sqrt(3)))
under mu_k.  The distribution functions are power series with logarithmic
terms near x = 0 and plain power series near x = 1; each evaluation
reports which branch ran, how many terms it used, and a truncation bound.

Every such series has the shape

    sum_n (p_n + r_n L) z0 z^n

with L a logarithm of the argument (zero for the plain series).  Each
series is one cached coefficient table (p, r), keyed by k where it depends
on k, and one engine, _sum_series, adds the terms up on Python floats and
stops at the first term below tol/10 after scaling.

Throughout, a_n denotes the squared-normalized hypergeometric coefficients

    a_n = (1/3)_n (2/3)_n / (n!)^2,

and A_n = 2 psi(n+1) - psi(n+1/3) - psi(n+2/3), which telescopes to
3 ln 3 - sum_{j=n+1}^{3n} 3/j and decays to zero.

The gamma family needs no library beyond the standard one: ln Gamma is
math.lgamma, and psi and psi' are two float kernels, _psi and _trigamma,
that lift the argument to 10 or more by recurrence and then sum the
Bernoulli asymptotic series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "SeriesEvaluation",
    "ClosedFormTable",
    "check_k",
    "check_q",
    "pochhammer",
    "h_k",
    "volume_ratio",
    "closed_form_table",
    "mean_entropy_mu",
    "mean_generalized_entropy_mu",
    "mean_generalized_entropy_b3",
    "b3_q_integrals",
    "q_moments",
    "density_absj",
    "cdf_absj",
    "ABSJ_MAX",
]

#: |J| ranges over [0, 1/(6 sqrt(3))]; the maximum is attained at the flat matrix
ABSJ_MAX = 1.0 / (6.0 * math.sqrt(3.0))

_X_SCALE = 6.0 * math.sqrt(3.0)  # x = sqrt(27 Q) = 6 sqrt(3) |J|
_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi
_MAX_TERMS = 600


@dataclass(frozen=True)
class SeriesEvaluation:
    """A numeric result together with how it was obtained.

    method is "series-near-0" or "series-near-1": which expansion of the
    function's argument ran.  error_bound is an upper bound on the
    truncation error, not a statistical estimate.
    """

    value: float
    method: str
    terms_used: int
    error_bound: float


@dataclass(frozen=True)
class ClosedFormTable:
    """The headline constants of mu_k in one row."""

    k: float
    h_k: float
    volume: float
    mean_entropy: float
    mean_j2: float


# ---------------------------------------------------------------------------
# gamma-family primitives


def check_k(k) -> float:
    """k as a float, if the measure mu_k exists for it: finite and k > 1/2.

    The r factor of mu_k is Beta(k-1/2, k-1/2), which needs k > 1/2; an
    infinite k has no density.  Raises ValueError otherwise.
    """
    if k is None or not 0.5 < float(k) < math.inf:
        raise ValueError(f"mu_k needs a finite k > 0.5, got k = {k}")
    return float(k)


def check_q(q) -> float:
    """q as a float, if it is a generalized entropy order: finite and q >= 0.

    Shared by the entropies S_q, their averages and their Monte Carlo
    statistic.  Raises ValueError otherwise.
    """
    if q is None or not 0.0 <= float(q) < math.inf:
        raise ValueError(f"the generalized entropy needs a finite order q >= 0, got q = {q}")
    return float(q)


def _check_count(n, name: str) -> int:
    """n as an int, if it is a nonnegative integer (an integral float counts)."""
    if not (n >= 0 and n % 1 == 0):
        raise ValueError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


#: B_2, B_4, ..., B_16: the Bernoulli numbers of the psi and psi' series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_PSI_COEFFS = tuple(b / (2 * m) for m, b in enumerate(_BERNOULLI, 1))
#: both series are summed at arguments at or above this, reached by recurrence
_SERIES_FROM = 10.0


def _lgamma(x: float) -> float:
    """ln Gamma(x) for x > 0; math.inf where it overflows a float (x above about 2.5e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _psi(x: float) -> float:
    """psi(x) for x > 0 (Abramowitz & Stegun 6.3.5 and 6.3.18; DLMF 5.11.2).

    The recurrence psi(x) = psi(x+1) - 1/x lifts x to y >= 10, where

        psi(y) = ln y - 1/(2y) - sum_{m=1}^{8} B_2m / (2m y^2m).

    For real y > 0 the truncation error is smaller than the first omitted
    term, |B_18| / (18 y^18) < 3.1e-18 at y >= 10.
    """
    shift = 0.0
    while x < _SERIES_FROM:
        shift += 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_PSI_COEFFS):
        series = series * t + c
    return math.log(x) - 0.5 / x - t * series - shift


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0 (Abramowitz & Stegun 6.4.6 and 6.4.12; DLMF 5.15.8).

    The recurrence psi'(x) = psi'(x+1) + 1/x^2 lifts x to y >= 10, where

        psi'(y) = 1/y + 1/(2y^2) + sum_{m=1}^{8} B_2m / y^(2m+1).

    For real y > 0 the truncation error is smaller than the first omitted
    term, |B_18| / y^19 < 5.5e-18 at y >= 10, under 6e-17 of psi'(y) > 1/y.
    """
    shift = 0.0
    while x < _SERIES_FROM:
        r = 1.0 / x  # not 1/(x x), which underflows to a division by zero
        shift += r * r
        x += 1.0
    t = 1.0 / (x * x)
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = series * t + b
    return (1.0 + 0.5 / x + t * series) / x + shift


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1) for x > 0, integer n >= 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x}")
    out = 1.0
    for i in range(_check_count(n, "n")):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# the series engine and its coefficient tables


_Table = tuple[tuple[float, ...], tuple[float, ...]]


def _sum_series(table: _Table, z0: float, z: float, scale: float, tol: float,
                log: float = 0.0) -> tuple[float, float, int]:
    """Sum of (p_n + r_n log) z0 z^n over the table (p, r), term by term.

    Stops at the first term with |scale * term| < tol/10, which is still
    added, or after _MAX_TERMS terms.  Returns (sum, bound, terms used);
    bound = |scale * last term| |z| / (1 - |z|) is the geometric tail that
    each series here reports for the scaled sum.
    """
    p, r = table
    cut = tol / 10.0
    total = 0.0
    zn = z0
    for n in range(len(p)):
        term = (p[n] + r[n] * log) * zn
        total += term
        if abs(scale * term) < cut:
            break
        zn *= z
    return total, abs(scale * term) * abs(z) / (1.0 - abs(z)), n + 1


def _plain(p) -> _Table:
    """Table of a series without a logarithmic part."""
    p = tuple(p)
    return p, (0.0,) * len(p)


@lru_cache(maxsize=1)
def _a_coeffs() -> tuple[float, ...]:
    """a_n = (1/3)_n (2/3)_n / (n!)^2 by recurrence."""
    a = [1.0]
    for n in range(_MAX_TERMS - 1):
        a.append(a[-1] * (1.0 / 3.0 + n) * (2.0 / 3.0 + n) / ((n + 1.0) ** 2))
    return tuple(a)


@lru_cache(maxsize=1)
def _A_coeffs() -> tuple[float, ...]:
    """A_n = 2 psi(n+1) - psi(n+1/3) - psi(n+2/3) = 3 ln 3 - sum_{j=n+1}^{3n} 3/j."""
    vals = [3.0 * math.log(3.0)]
    for n in range(1, _MAX_TERMS):
        # going n-1 -> n adds j in {3n-2, 3n-1, 3n} to the sum, removes j = n
        vals.append(
            vals[-1]
            - 3.0 / (3.0 * n - 2.0)
            - 3.0 / (3.0 * n - 1.0)
            - 1.0 / n
            + 3.0 / n
        )
    return tuple(vals)


@lru_cache(maxsize=1)
def _g_coeffs() -> tuple[float, ...]:
    """g_p of 2F1(1/3,2/3;1;v) (1-v)^(-1/2) = sum_p g_p v^p, all positive."""
    a = _a_coeffs()
    half = [1.0]  # (1/2)_j / j!
    for j in range(_MAX_TERMS - 1):
        half.append(half[-1] * (0.5 + j) / (j + 1.0))
    return tuple(sum(a[n] * half[p - n] for n in range(p + 1)) for p in range(_MAX_TERMS))


@lru_cache(maxsize=1)
def _f0_near0_table() -> _Table:
    """I(x^2) = (sqrt(3)/pi) sum_n a_n x^(2n+1)/(2n+1) (A_n + 2/(2n+1) - 2 ln x)."""
    a, A = _a_coeffs(), _A_coeffs()
    return (
        tuple(a[n] / (2 * n + 1) * (A[n] + 2.0 / (2 * n + 1)) for n in range(_MAX_TERMS)),
        tuple(-2.0 * a[n] / (2 * n + 1) for n in range(_MAX_TERMS)),
    )


@lru_cache(maxsize=1)
def _f0_near1_table() -> _Table:
    """3 - I(x^2) = sum_p g_p V^(p+1)/(p+1), V = 1 - x^2."""
    return _plain(g / (p + 1) for p, g in enumerate(_g_coeffs()))


@lru_cache(maxsize=32)
def _cdf0_table(k: float) -> _Table:
    """The CDF series below x = 1/2: sum_n w_n (c_n - 2 ln x) x^(2n+1).

    w_n = a_n / ((2n+1)(n+k)) and c_n = A_n + 2/(2n+1) + 1/(n+k).
    """
    a, A = _a_coeffs(), _A_coeffs()
    w = [a[n] / ((2 * n + 1) * (n + k)) for n in range(_MAX_TERMS)]
    c = [A[n] + 2.0 / (2 * n + 1) + 1.0 / (n + k) for n in range(_MAX_TERMS)]
    return tuple(x * y for x, y in zip(w, c)), tuple(-2.0 * x for x in w)


@lru_cache(maxsize=32)
def _cdf1_table(k: float) -> _Table:
    """tau_r/(r+1), r >= 1, with 1 - F0(x) = c_k (k-1/2) sum_r tau_r V^(r+1)/(r+1)."""
    g = _g_coeffs()
    shifted = [1.0]  # (3/2-k)_j / j!
    for j in range(_MAX_TERMS - 1):
        shifted.append(shifted[-1] * (1.5 - k + j) / (j + 1))
    tau = [sum(g[m - 1] / m * shifted[r - m] for m in range(1, r + 1))
           for r in range(1, _MAX_TERMS + 1)]
    return _plain(t / (r + 2) for r, t in enumerate(tau))


# ---------------------------------------------------------------------------
# normalization constants, volumes, moments


def _ln_h(k: float) -> float:
    return math.log(math.pi) + 3.0 * _lgamma(k) - math.log(2.0 * k - 1.0) - _lgamma(3.0 * k)


def h_k(k: float) -> float:
    """h_k = pi Gamma(k)^3 / ((2k-1) Gamma(3k)), the mu_k normalization.

    h_1 = pi/2, h_{3/2} = pi^2/105, h_2 = pi/360.  Needs k > 1/2.
    """
    k = check_k(k)
    return math.exp(_ln_h(k))


def volume_ratio() -> float:
    """Volume of the unistochastic set over the volume of the polytope.

    The unistochastic set has flat volume 9 h_{3/2}, the whole polytope
    9/8, so the ratio is 8 h_{3/2} = 8 pi^2 / 105, about 0.752.
    """
    return 8.0 * h_k(1.5)


def q_moments(k: float, n: int) -> float:
    """<Q^n> under mu_k, equal to h_{k+n} / h_k.

    Closed form 3^(-3n) (k-1/2) ((k)_n)^2 / ((k+n-1/2) (k+1/3)_n (k+2/3)_n).
    <Q>_1 = 1/180, <Q>_{3/2} = 3/286; n = 0 gives exactly 1.
    """
    k = check_k(k)
    n = _check_count(n, "the moment order")
    if n == 0:
        return 1.0
    return math.exp(_ln_h(k + n) - _ln_h(k))


def mean_entropy_mu(k: float) -> float:
    """<S> under mu_k: psi(3k+1) - psi(k+1).

    5/6 at k = 1, 286/315 at k = 3/2, 19/20 at k = 2.
    """
    k = check_k(k)
    return _psi(3.0 * k + 1.0) - _psi(k + 1.0)


def mean_generalized_entropy_mu(k: float, q: float) -> float:
    """<S_q> under mu_k: (1/(q-1)) (1 - 3 Gamma(k+q) Gamma(3k) / (Gamma(k) Gamma(3k+q))).

    Continuous across q = 1 where it equals the entropy average; evaluated
    there by its quadratic Taylor development to dodge the 0/0.
    """
    k = check_k(k)
    q = check_q(q)
    if abs(q - 1.0) < 1e-6:
        a = _psi(k + 1.0) - _psi(3.0 * k + 1.0)  # G'(1)
        b = _trigamma(k + 1.0) - _trigamma(3.0 * k + 1.0)  # G''(1)
        return -a - 0.5 * (b + a * a) * (q - 1.0)
    g = (
        math.log(3.0)
        + _lgamma(k + q)
        - _lgamma(k)
        + _lgamma(3.0 * k)
        - _lgamma(3.0 * k + q)
    )
    return -math.expm1(g) / (q - 1.0)


def mean_generalized_entropy_b3(q: float) -> float:
    """<S_q> under the flat polytope measure: 2/(q+1) + 4/(q+2) - 9/(q+3) + 4/(q+4).

    A single rational function of q, already continuous at q = 1 where it
    equals 53/60; 2 at q = 0 and 8/15 at q = 2.
    """
    q = check_q(q)
    return 2.0 / (q + 1.0) + 4.0 / (q + 2.0) - 9.0 / (q + 3.0) + 4.0 / (q + 4.0)


def b3_q_integrals() -> tuple[float, float, float]:
    """(<Q>, <Q^2>, sigma_Q) under the flat polytope measure.

    <Q> = 1/168, <Q^2> = 1/5940, so sigma_Q = sqrt(1/5940 - 1/28224),
    about 0.01153.
    """
    m1 = 1.0 / 168.0
    m2 = 1.0 / 5940.0
    return m1, m2, math.sqrt(m2 - m1 * m1)


def closed_form_table(k: float) -> ClosedFormTable:
    """The constants of mu_k: h_k, embedded volume 9 h_k, <S>, <J^2>.

    <J^2> = <Q>/4 = h_(k+1) / (4 h_k); at k = 3/2 the volume field is the
    flat 4-volume of the unistochastic set, 9 pi^2 / 105.
    """
    k = float(k)
    return ClosedFormTable(
        k=k,
        h_k=h_k(k),
        volume=9.0 * h_k(k),
        mean_entropy=mean_entropy_mu(k),
        mean_j2=q_moments(k, 1) / 4.0,
    )


# ---------------------------------------------------------------------------
# the distribution of x = sqrt(27 Q) and of |J|


@lru_cache(maxsize=32)
def _c_k(k: float) -> float:
    return math.exp(_lgamma(k + 1.0 / 3.0) + _lgamma(k + 2.0 / 3.0) - 2.0 * _lgamma(k))


def _x_from_y(y: float) -> float:
    y = float(y)
    if not -1e-15 <= y <= ABSJ_MAX * (1.0 + 1e-12):
        raise ValueError(f"|J| values live in [0, {ABSJ_MAX:.17g}], got {y}")
    return min(max(y, 0.0) * _X_SCALE, 1.0)


def _f0_near0(k: float, x: float, tol: float) -> SeriesEvaluation:
    """f0(x) = 2 c_k (k-1/2) x^(2k-2) (3 - I(x^2)) via the log series, x <= 1/2."""
    if x == 0.0 and k < 1.0:
        # f0 behaves like 6 c_k (k-1/2) x^(2k-2), which diverges for k < 1
        return SeriesEvaluation(math.inf, "series-near-0", 1, 0.0)
    pref = 2.0 * _c_k(k) * (k - 0.5) * x ** (2.0 * k - 2.0)
    if x == 0.0:
        return SeriesEvaluation(3.0 * pref, "series-near-0", 1, 0.0)
    scale = pref * _SQRT3_OVER_PI
    total, bound, n = _sum_series(_f0_near0_table(), x, x * x, scale, tol, math.log(x))
    return SeriesEvaluation(pref * (3.0 - _SQRT3_OVER_PI * total), "series-near-0", n, bound)


def _f0_near1(k: float, x: float, tol: float) -> SeriesEvaluation:
    """f0 via 3 - I(x^2) = sum_p g_p V^(p+1)/(p+1), V = 1 - x^2 < 3/4."""
    pref = 2.0 * _c_k(k) * (k - 0.5) * x ** (2.0 * k - 2.0)
    v = 1.0 - x * x
    total, bound, n = _sum_series(_f0_near1_table(), v, v, pref, tol)
    return SeriesEvaluation(pref * total, "series-near-1", n, bound)


def density_absj(k: float, y: float, tol: float = 1e-14) -> SeriesEvaluation:
    """Density of |J| under mu_k at y in [0, 1/(6 sqrt(3))].

    Equal to 6 sqrt(3) f0(6 sqrt(3) y) where f0 is the density of
    x = sqrt(27 Q).  At k = 1 the density starts at 8 pi for y -> 0 and
    falls to zero at the endpoint.  Near y = 0 it behaves like y^(2k-2),
    so at y = 0 it is 0 for k > 1 and math.inf for k < 1.
    """
    k = check_k(k)
    x = _x_from_y(y)
    inner = (_f0_near0 if x <= 0.5 else _f0_near1)(k, x, tol / _X_SCALE)
    return SeriesEvaluation(
        _X_SCALE * inner.value, inner.method, inner.terms_used, _X_SCALE * inner.error_bound
    )


def _cdf_near0(k: float, x: float, tol: float) -> SeriesEvaluation:
    """F0(x) = 2 c_k (k-1/2) x^(2k-1) (3/(2k-1) - (sqrt(3)/(2 pi)) sum_n w_n (c_n - 2 ln x) x^(2n+1))."""
    if x == 0.0:
        return SeriesEvaluation(0.0, "series-near-0", 1, 0.0)
    pref = 2.0 * _c_k(k) * (k - 0.5) * x ** (2.0 * k - 1.0)
    scale = pref * _SQRT3_OVER_PI / 2.0
    total, bound, n = _sum_series(_cdf0_table(k), x, x * x, scale, tol, math.log(x))
    value = pref * (3.0 / (2.0 * k - 1.0) - _SQRT3_OVER_PI / 2.0 * total)
    return SeriesEvaluation(value, "series-near-0", n, bound)


def _cdf_near1(k: float, x: float, tol: float) -> SeriesEvaluation:
    """F0(x) = 1 - c_k (k-1/2) sum_r tau_r V^(r+1)/(r+1), V = 1 - x^2 < 3/4."""
    scale = _c_k(k) * (k - 0.5)
    v = 1.0 - x * x
    total, bound, n = _sum_series(_cdf1_table(k), v * v, v, scale, tol)
    return SeriesEvaluation(1.0 - scale * total, "series-near-1", n, bound)


def cdf_absj(k: float, y: float, tol: float = 1e-14) -> SeriesEvaluation:
    """P(|J| <= y) under mu_k, for y in [0, 1/(6 sqrt(3))].

    Series around x = 0 below x = 1/2 (with the x^(2k-1) ln x structure),
    series in V = 1 - x^2 above; F(0) = 0 and F at the right endpoint is
    exactly 1.
    """
    k = check_k(k)
    x = _x_from_y(y)
    return (_cdf_near0 if x <= 0.5 else _cdf_near1)(k, x, tol)
