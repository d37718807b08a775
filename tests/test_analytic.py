import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import dblquad, quad
from scipy.special import hyp2f1

from unilab import analytic as an
from unilab import core
from unilab.analytic import (
    ABSJ_MAX,
    b3_q_integrals,
    cdf_absj,
    closed_form_table,
    density_absj,
    h_k,
    mean_entropy_mu,
    mean_generalized_entropy_b3,
    mean_generalized_entropy_mu,
    pochhammer,
    q_moments,
    volume_ratio,
)
from unilab.estimators import Statistic

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# gamma-family primitives


def test_digamma_log_gamma_pochhammer_values():
    assert an._psi(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-14)
    assert an._psi(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14)
    assert an._lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert an._lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(0.5, 2) == 0.75
    assert pochhammer(7.3, 0) == 1.0


def gamma_family_points():
    """20,000 log-uniform points on [1e-6, 1e6], a grid on [0.5, 60] and the zeros.

    The zeros are psi's at 1.4616... and ln Gamma's at 1 and 2, where only
    an absolute error can be asked for.
    """
    rng = np.random.default_rng(8)
    near = np.linspace(-1e-3, 1e-3, 201)
    return np.concatenate([
        np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 20_000)),
        np.linspace(0.5, 60.0, 1_000),
        1.4616321449683623 + near, 1.0 + near, 2.0 + near,
    ])


@pytest.mark.parametrize("ours, scipys", [
    (an._psi, special.psi),
    (an._trigamma, lambda x: special.polygamma(1, x)),
    (an._lgamma, special.gammaln),
], ids=["psi", "trigamma", "log_gamma"])
def test_gamma_family_matches_scipy(ours, scipys):
    xs = gamma_family_points()
    got = np.array([ours(x) for x in xs.tolist()])
    want = scipys(xs)
    err = np.abs(got - want)
    large = np.abs(want) >= 1.0
    assert np.all(err[large] <= 1e-14 * np.abs(want[large])), xs[large][np.argmax(err[large])]
    assert np.all(err[~large] <= 1e-14), xs[~large][np.argmax(err[~large])]


def test_gamma_family_at_the_ends_of_the_floats():
    # math.lgamma raises OverflowError from about 2.5e305; the value is inf
    assert an._lgamma(1e308) == math.inf
    assert an._lgamma(2.5e305) == pytest.approx(2.5e305 * (math.log(2.5e305) - 1), rel=1e-12)
    assert an._psi(1e308) == pytest.approx(math.log(1e308), rel=1e-15)
    assert an._psi(1e-300) == pytest.approx(-1e300, rel=1e-15)
    # 1/x^2 overflows before x^2 underflows to a division by zero
    assert an._trigamma(1e-200) == math.inf
    assert an._trigamma(1e308) == pytest.approx(1e-308, rel=1e-15)


def test_gamma_primitives_reject_bad_domains():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pochhammer(bad, 2)
    with pytest.raises(ValueError):
        pochhammer(-2.0, 3)
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)
    with pytest.raises(ValueError):
        pochhammer(1.0, 2.5)


# ---------------------------------------------------------------------------
# constants of the measure family


def test_h_k_special_values():
    assert h_k(1.0) == pytest.approx(math.pi / 2, rel=1e-14)
    assert h_k(1.5) == pytest.approx(math.pi**2 / 105, rel=1e-14)
    assert h_k(2.0) == pytest.approx(math.pi / 360, rel=1e-14)
    with pytest.raises(ValueError):
        h_k(0.5)
    with pytest.raises(ValueError):
        h_k(math.inf)


def test_volume_ratio():
    assert volume_ratio() == pytest.approx(8 * math.pi**2 / 105, rel=1e-14)


def test_q_moments_known_values_and_dual_route():
    assert q_moments(1.0, 1) == pytest.approx(1 / 180, rel=1e-13)
    assert q_moments(1.5, 1) == pytest.approx(3 / 286, rel=1e-13)
    assert q_moments(2.0, 0) == 1.0
    # the h-ratio route must equal the explicit product formula
    for k in (0.75, 1.0, 1.5, 2.0, 3.3):
        for n in (1, 2, 3, 4):
            explicit = (
                27.0**-n
                * (k - 0.5)
                * pochhammer(k, n) ** 2
                / ((k + n - 0.5) * pochhammer(k + 1 / 3, n) * pochhammer(k + 2 / 3, n))
            )
            assert q_moments(k, n) == pytest.approx(explicit, rel=1e-12)
    with pytest.raises(ValueError):
        q_moments(0.4, 1)
    with pytest.raises(ValueError):
        q_moments(1.0, -1)


def test_mean_j2_values():
    assert q_moments(1.0, 1) / 4 == pytest.approx(1 / 720, rel=1e-13)
    assert q_moments(1.5, 1) / 4 == pytest.approx(3 / 1144, rel=1e-13)


def test_closed_form_table():
    t = closed_form_table(1.5)
    assert t.k == 1.5
    assert t.h_k == pytest.approx(math.pi**2 / 105, rel=1e-14)
    assert t.volume == pytest.approx(9 * math.pi**2 / 105, rel=1e-14)
    assert t.mean_entropy == pytest.approx(286 / 315, rel=1e-13)
    assert t.mean_j2 == pytest.approx(3 / 1144, rel=1e-13)
    for k in (0.8, 1.0, 2.0, 4.0):
        t = closed_form_table(k)
        assert t.mean_j2 == pytest.approx(h_k(k + 1) / (4 * h_k(k)), rel=1e-12)


# ---------------------------------------------------------------------------
# entropy averages


def test_mean_entropy_mu_rationals():
    assert mean_entropy_mu(1.0) == pytest.approx(5 / 6, rel=1e-13)
    assert mean_entropy_mu(1.5) == pytest.approx(286 / 315, rel=1e-13)
    assert mean_entropy_mu(2.0) == pytest.approx(19 / 20, rel=1e-13)
    with pytest.raises(ValueError):
        mean_entropy_mu(0.3)


def test_mean_generalized_entropy_mu_closed_forms():
    for q in (0.0, 0.5, 2.0, 3.0, 7.5):
        assert mean_generalized_entropy_mu(1.0, q) == pytest.approx(
            (q + 4) / ((q + 1) * (q + 2)), rel=1e-12
        )
        assert mean_generalized_entropy_mu(1.5, q) == pytest.approx(
            2 * (4 * q * q + 34 * q + 105) / ((2 * q + 3) * (2 * q + 5) * (2 * q + 7)),
            rel=1e-12,
        )
    assert mean_generalized_entropy_mu(1.5, 2.0) == pytest.approx(6 / 11, rel=1e-13)
    with pytest.raises(ValueError):
        mean_generalized_entropy_mu(1.0, -0.2)


def test_mean_generalized_entropy_mu_is_continuous_at_1():
    for k in (1.0, 1.5, 2.0):
        center = mean_entropy_mu(k)
        assert mean_generalized_entropy_mu(k, 1.0) == pytest.approx(center, rel=1e-13)
        for eps in (1e-8, -1e-8, 1e-7, -1e-7):
            assert mean_generalized_entropy_mu(k, 1.0 + eps) == pytest.approx(
                center, abs=1e-6
            )
    # both evaluation branches agree with the k = 1 closed form near the seam
    for q in (1.0 - 1.1e-6, 1.0 - 9.9e-7, 1.0 + 9.9e-7, 1.0 + 1.1e-6):
        exact = (q + 4) / ((q + 1) * (q + 2))
        assert mean_generalized_entropy_mu(1.0, q) == pytest.approx(exact, abs=1e-9)


def test_mean_generalized_entropy_b3():
    assert mean_generalized_entropy_b3(1.0) == pytest.approx(53 / 60, rel=1e-14)
    assert mean_generalized_entropy_b3(0.0) == pytest.approx(2.0, rel=1e-14)
    assert mean_generalized_entropy_b3(2.0) == pytest.approx(8 / 15, rel=1e-14)
    with pytest.raises(ValueError):
        mean_generalized_entropy_b3(-1.0)


def b3_marginal_integral(f):
    """Integral of f(b1, b2) over the polytope, by the flat measure's (b1, b2) marginal.

    The weight b1 b2 + (b1 + b2)(1 - b1 - b2) on the triangle b1, b2 >= 0,
    b1 + b2 <= 1 is the volume of the (b3, b4) slice; f = 1 gives 1/8.
    """
    value, _ = dblquad(lambda b2, b1: f(b1, b2) * (b1 * b2 + (b1 + b2) * (1 - b1 - b2)),
                       0.0, 1.0, 0.0, lambda b1: 1.0 - b1, epsabs=1e-13, epsrel=1e-13)
    return value


def test_b3_integral_normalization_and_marginals():
    # the first-row marginal: volume 1/8, int b1 db = 1/24, int b1^2 db = 7/360
    assert b3_marginal_integral(lambda b1, b2: 1.0) == pytest.approx(1 / 8, abs=1e-12)
    assert b3_marginal_integral(lambda b1, b2: b1) == pytest.approx(1 / 24, abs=1e-12)
    assert b3_marginal_integral(lambda b1, b2: b1 * b1) == pytest.approx(7 / 360, abs=1e-12)
    # every entry has the law of b1, so <S> = -3 <b1 ln b1> = 53/60
    s = b3_marginal_integral(lambda b1, b2: -3 * b1 * math.log(b1) if b1 > 0 else 0.0)
    assert 8 * s == pytest.approx(mean_generalized_entropy_b3(1.0), abs=1e-9)


_NON_FINITE_PARAMETERS = {
    "cdf_absj-y-nan": lambda: cdf_absj(1.0, math.nan),
    "density_absj-y-nan": lambda: density_absj(1.0, math.nan),
    "generalized_entropy-q-nan": lambda: core.generalized_entropy(core.W, math.nan),
    "generalized_entropy_values-q-inf": lambda: core.generalized_entropy_values([0.25] * 4, math.inf),
    "mean_generalized_entropy_b3-q-nan": lambda: mean_generalized_entropy_b3(math.nan),
    "mean_generalized_entropy_mu-q-inf": lambda: mean_generalized_entropy_mu(1.0, math.inf),
    "mean_generalized_entropy_mu-q-nan": lambda: mean_generalized_entropy_mu(1.0, math.nan),
    "statistic-q-inf": lambda: Statistic.generalized_entropy(math.inf),
    "q_moments-n-inf": lambda: q_moments(1.0, math.inf),
    "q_moments-n-nan": lambda: q_moments(1.0, math.nan),
    "pochhammer-n-inf": lambda: pochhammer(1.0, math.inf),
}


@pytest.mark.parametrize("call", _NON_FINITE_PARAMETERS.values(), ids=list(_NON_FINITE_PARAMETERS))
def test_non_finite_parameters_raise_value_error(call):
    # each of these once returned NaN, or raised OverflowError
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# the flat polytope measure


def test_b3_q_integrals():
    m1, m2, sigma = b3_q_integrals()
    assert m1 == 1 / 168
    assert m2 == 1 / 5940
    assert sigma == pytest.approx(math.sqrt(1 / 5940 - 1 / 168**2), rel=1e-15)
    assert sigma == pytest.approx(0.0115290645478, rel=1e-10)


# ---------------------------------------------------------------------------
# the distribution of |J|


def test_density_absj_boundary_values():
    assert density_absj(1.0, 0.0).value == pytest.approx(8 * math.pi, rel=1e-13)
    assert density_absj(1.0, ABSJ_MAX).value == pytest.approx(0.0, abs=1e-12)
    assert density_absj(1.5, 0.0).value == 0.0
    # for k < 1 the density diverges like y^(2k-2)
    assert density_absj(0.8, 0.0).value == math.inf
    assert density_absj(0.8, 1e-300).value > 1e100
    with pytest.raises(ValueError):
        density_absj(1.0, -0.01)
    with pytest.raises(ValueError):
        density_absj(1.0, ABSJ_MAX * 1.01)
    with pytest.raises(ValueError):
        density_absj(0.5, 0.01)


def test_density_absj_integrates_to_one():
    for k in (1.0, 1.5, 2.0):
        val, _ = quad(lambda y: density_absj(k, y).value, 0, ABSJ_MAX, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_lemma_integral_is_three():
    # int_0^1 2F1(1/3, 2/3; 1; 1-t) t^(-1/2) dt, regularized by t = u^2: the
    # I(1) = 3 behind the "3 - I(x^2)" of the density and CDF series
    val, _ = quad(lambda u: 2.0 * hyp2f1(1 / 3, 2 / 3, 1, 1 - u * u), 0, 1, limit=200)
    assert val == pytest.approx(3.0, abs=1e-8)


def test_cdf_absj_endpoints_and_domain():
    ys = np.linspace(0.0, ABSJ_MAX, 257)
    for k in (0.8, 1.0, 1.5, 2.0):
        assert cdf_absj(k, 0.0).value == 0.0
        assert cdf_absj(k, ABSJ_MAX).value == 1.0
        # monotone on a grid, as the KS bound of the acceptance tests assumes
        assert (np.diff([cdf_absj(k, y).value for y in ys.tolist()]) >= 0).all()
    with pytest.raises(ValueError):
        cdf_absj(1.0, ABSJ_MAX * 1.01)
    with pytest.raises(ValueError):
        cdf_absj(0.45, 0.01)


def test_cdf_absj_matches_quadrature_of_density():
    for k in (1.0, 1.5, 2.0):
        for frac in (0.15, 0.45, 0.55, 0.85):
            y = frac * ABSJ_MAX
            ref, _ = quad(lambda t: density_absj(k, t).value, 0, y, limit=300)
            assert cdf_absj(k, y).value == pytest.approx(ref, abs=5e-9)


def test_cdf_absj_printed_small_x_truncations():
    # k = 1 in the x variable, x = 6 sqrt(3) y:
    # F0 = (4 pi sqrt(3)/9) x - (2/9) (-ln(x^2/27) (x^2 + x^4/27 + 2 x^6/243)
    #                                + 3 x^2 - (4/81) x^4 - (127/7290) x^6) + O(x^8 ln x)
    for x in (0.02, 0.05, 0.1):
        lg = -math.log(x * x / 27)
        expected = 4 * math.pi * math.sqrt(3) / 9 * x - (2 / 9) * (
            lg * (x**2 + x**4 / 27 + 2 * x**6 / 243)
            + 3 * x**2
            - 4 / 81 * x**4
            - 127 / 7290 * x**6
        )
        got = cdf_absj(1.0, x / (6 * math.sqrt(3))).value
        assert got == pytest.approx(expected, abs=2e-3 * x**8 * lg + 1e-15)
    # k = 3/2:
    # F0 = (70/27) x^2 {3/2 - (sqrt(3)/2pi) (-ln(x^2/27)((2/3)x + (4/135)x^3)
    #                                        + (16/9)x - (86/2025)x^3)} + O(x^7 ln x)
    for x in (0.02, 0.05, 0.1):
        lg = -math.log(x * x / 27)
        expected = (70 / 27) * x**2 * (
            1.5
            - math.sqrt(3) / (2 * math.pi) * (
                lg * (2 / 3 * x + 4 / 135 * x**3) + 16 / 9 * x - 86 / 2025 * x**3
            )
        )
        got = cdf_absj(1.5, x / (6 * math.sqrt(3))).value
        assert got == pytest.approx(expected, abs=x**7 * lg + 1e-15)


def test_cdf_absj_printed_y_truncations():
    # the same truncations written in y with x = 6 sqrt(3) y
    for y in (1e-4, 1e-3, 5e-3):
        lg = math.log(4 * y * y)
        p1 = 8 * math.pi * y + (
            24 * lg * (y**2 + 4 * y**4 + 96 * y**6) - 72 * y**2 + 128 * y**4 + 24384 / 5 * y**6
        )
        assert cdf_absj(1.0, y).value == pytest.approx(p1, abs=1e5 * y**8 * abs(lg) + 1e-16)
        p32 = 420 * y**2 - 4480 / math.pi * y**3 + 1680 / math.pi * y**3 * lg
        assert cdf_absj(1.5, y).value == pytest.approx(p32, abs=1e7 * y**5 * abs(lg) + 1e-16)


def test_cdf_absj_branch_agreement():
    # both series, evaluated at their shared point x = 1/2
    y_split = 0.5 / (6 * math.sqrt(3))
    for k in (0.8, 1.0, 1.5, 2.0, 5.0):
        small = an._cdf_near0(k, 0.5, 1e-15)
        large = an._cdf_near1(k, 0.5, 1e-15)
        assert small.value == pytest.approx(large.value, abs=5e-15)
        assert small.method == "series-near-0"
        assert large.method == "series-near-1"
        assert cdf_absj(k, y_split * 0.999).method == "series-near-0"
        assert cdf_absj(k, y_split * 1.001).method == "series-near-1"


def test_density_absj_branch_agreement():
    # the density of x from both series at x = 1/2
    y_split = 0.5 / (6 * math.sqrt(3))
    for k in (0.8, 1.0, 1.5, 2.0, 5.0):
        small = an._f0_near0(k, 0.5, 1e-15)
        large = an._f0_near1(k, 0.5, 1e-15)
        assert small.value == pytest.approx(large.value, abs=5e-15)
        assert small.method == "series-near-0"
        assert large.method == "series-near-1"
        assert density_absj(k, y_split * 0.999).method == "series-near-0"
        assert density_absj(k, y_split * 1.001).method == "series-near-1"


def test_error_bounds_are_honest():
    # tighten the tolerance and confirm the reported bound covers the shift
    for k in (1.0, 1.5):
        for y in (0.1 * ABSJ_MAX, 0.4 * ABSJ_MAX, 0.8 * ABSJ_MAX):
            loose = cdf_absj(k, y, tol=1e-6)
            tight = cdf_absj(k, y, tol=1e-15)
            assert abs(loose.value - tight.value) <= loose.error_bound + 1e-15
            assert loose.terms_used <= tight.terms_used


def test_ckm_scale_values():
    y_obs = 3.08e-5
    p1 = cdf_absj(1.0, y_obs).value
    assert 7.3e-4 <= p1 <= 8.2e-4
    assert p1 == pytest.approx(7.735786755425e-4, rel=1e-10)
    assert cdf_absj(1.0, 1e-4).value == pytest.approx(2.5085e-3, rel=1e-2)
    p32 = cdf_absj(1.5, y_obs).value
    assert p32 == pytest.approx(3.98e-7, rel=2e-2)
    assert p32 == pytest.approx(3.980841760298e-7, rel=1e-10)


def test_likelihood_ratio_at_observed_j():
    # Haar against the flat polytope measure: mu_3/2 carries an extra
    # sqrt(Q) = 2|J| against mu_1, h_3/2 / h_1 = 2 pi/105, and the volume
    # ratio is 8 h_3/2, so the density ratio is exactly 1/(8 pi y)
    def ratio(y):
        return density_absj(1.0, y).value / (volume_ratio() * density_absj(1.5, y).value)

    r = ratio(3.08e-5)
    assert 1080 <= r <= 1320
    assert r == pytest.approx(1291.84207, rel=1e-6)
    for y in (1e-8, 1e-6, 3.08e-5, 1e-3, 0.03, 0.09):
        assert ratio(y) == pytest.approx(1 / (8 * math.pi * y), rel=1e-12)
