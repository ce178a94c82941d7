import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen.lfun import (
    FunctionalEquation,
    LeadingValue,
    RatFunc,
    functional_equation,
    leading_laurent,
    local_factor,
    ord_at,
    strip_S,
)
from degen.qlinalg import Mat
import oracles
from oracles import random_marked_ratfunc, series_leading

F = Fraction


def zeta(q: int) -> RatFunc:
    """Complete zeta of the rational function field: 1/((1-t)(1-qt))."""
    return RatFunc.make([1], [1, -(1 + q), q])


class TestLocalFactor:
    def test_rank_one(self):
        f = local_factor(Mat.from_rows([[5]]), 1)
        assert f == RatFunc.make([1], [1, -5])

    def test_weil_polynomial_of_elliptic_type(self):
        # companion matrix of t^2 - a t + q gives 1 - a t + q t^2
        a, q = 2, 5
        f = local_factor(Mat.from_rows([[0, -q], [1, a]]), 1)
        assert f == RatFunc.make([1], [1, -a, q])

    def test_degree_spreading(self):
        f = local_factor(Mat.from_rows([[3]]), 2)
        assert f == RatFunc.make([1], [1, 0, -3])

    def test_empty_matrix_gives_one(self):
        f = local_factor(Mat.zero(0, 0), 1)
        assert f == RatFunc.make([1], [1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_char_poly_matches_mat_oracle(self, n, data):
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=data.draw(st.sampled_from([1, 6, 97])))
        frob = Mat.from_rows([[data.draw(entry) for _ in range(n)] for _ in range(n)], cols=n)
        assert local_factor(frob, 1) == RatFunc.make([1], oracles.mat_char_poly_det(frob))


class TestOrdAndLeading:
    def test_zeta_at_zero(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            z = zeta(q)
            assert ord_at(z, q, 0) == -1
            lead = leading_laurent(z, q, 0)
            assert lead == LeadingValue(order=-1, coeff=F(-1, q - 1), logpow=-1)

    def test_zeta_at_one(self):
        q = 3
        z = zeta(q)
        assert ord_at(z, q, 1) == -1

    def test_good_reduction_no_zero_at_zero(self):
        # 1 - a t + q t^2 never vanishes at t = 1 in the Weil range
        for q in (2, 3, 4, 5):
            for a in range(-4, 5):
                if a * a <= 4 * q:
                    f = local_factor(Mat.from_rows([[0, -q], [1, a]]), 1)
                    assert ord_at(f, q, 0) == 0

    def test_simple_zero(self):
        q = 2
        f = RatFunc.make([-1, 1], [1])  # t - 1
        lead = leading_laurent(f, q, 0)
        assert lead == LeadingValue(order=1, coeff=F(-1), logpow=1)

    def test_against_series_oracle_frozen_cases(self):
        q = 3
        cases = [
            (RatFunc.make([-1, 1], [1, -q]), 0),           # (t-1)/(1-qt)
            (zeta(q), 1),
            (RatFunc.make([1], [F(1, q) * -1, 1]), 1),     # 1/(t - 1/q)
            (RatFunc.make([-q, 1], [1]), -1),              # t - q at t0 = q
        ]
        for f, a in cases:
            lead = leading_laurent(f, q, a)
            assert (lead.order, lead.coeff, lead.logpow) == series_leading(
                f.num, f.den, q, a
            )

    def test_against_series_oracle_random(self):
        rng = random.Random(77)
        for _ in range(25):
            q = rng.choice([2, 3, 5])
            f = random_marked_ratfunc(rng, q)
            for a in (0, 1, -1):
                lead = leading_laurent(f, q, a)
                assert (lead.order, lead.coeff, lead.logpow) == series_leading(
                    f.num, f.den, q, a
                )

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            ord_at(RatFunc.make([0], [1]), 2, 0)


class TestProducts:
    def test_product_and_strip_roundtrip(self):
        q = 5
        f1 = local_factor(Mat.from_rows([[q]]), 1)
        f2 = local_factor(Mat.from_rows([[0, -q], [1, 1]]), 2)
        one = RatFunc.make([1], [1])
        total = one / strip_S(one, [f1, f2])
        assert total == f1 * f2
        assert strip_S(total, [f1, f2]) == one
        assert strip_S(total, [f2]) == f1

    @settings(max_examples=30)
    @given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
    def test_ord_is_additive(self, e1, e2):
        q = 2
        base = RatFunc.make([-1, 1], [1])  # t - 1
        f = RatFunc.make([1], [1])
        for _ in range(abs(e1)):
            f = f * base if e1 > 0 else f / base
        g = RatFunc.make([1], [1, -q])
        for _ in range(abs(e2)):
            g = g * RatFunc.make([F(-1, q), 1], [1])
        prod = f * g
        assert ord_at(prod, q, 0) == ord_at(f, q, 0) + ord_at(g, q, 0)
        lf, lg, lp = (
            leading_laurent(f, q, 0),
            leading_laurent(g, q, 0),
            leading_laurent(prod, q, 0),
        )
        assert lp.coeff == lf.coeff * lg.coeff
        assert lp.logpow == lf.logpow + lg.logpow


class TestFunctionalEquation:
    def test_zeta_reflection(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            z = zeta(q)
            fe = functional_equation(z, q, weight_w=1)
            assert fe == FunctionalEquation(sign=1, alpha=1, beta=2)

    def test_non_symmetric_function(self):
        f = RatFunc.make([1, 1], [1, 0, 0, 5])
        assert functional_equation(f, 5, 1) is None

    def test_sign_minus_one(self):
        # f = 1 - q t^2 has f(1/(qt)) = -q^{-1} t^{-2} f(t)
        q = 5
        f = RatFunc.make([1, 0, -q], [1])
        fe = functional_equation(f, q, 1)
        assert fe == FunctionalEquation(sign=-1, alpha=-1, beta=-2)

    def test_monomial_recognition_with_alpha(self):
        # f = t: f(1/(qt)) = 1/(q t) = q^{-1} t^{-2} * f(t)
        f = RatFunc.make([0, 1], [1])
        fe = functional_equation(f, 3, 1)
        assert fe == FunctionalEquation(sign=1, alpha=-1, beta=-2)


# ---------------------------------------------------------------------------
# Differential tests: the integer polynomial arithmetic against the Fraction
# Euclid it replaced (tests/oracles.py), on zero and constant polynomials,
# shared factors, non-monic inputs, negative twists and denominators as
# large as those of a many-place global L-function.

# 13^24 is the size of the coefficients of prod_v (1 - a_v t + 13 t^2) over
# 24 places; 2^61 - 1 is a large prime field.
DENOMINATORS = (1, 2, 3, 12, 13**24, 2**61 - 1)
coeffs = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50) | st.integers(min_value=-(13**24), max_value=13**24),
    st.sampled_from(DENOMINATORS),
)
polys = st.lists(coeffs, min_size=0, max_size=5)
nonzero_polys = polys.filter(lambda p: any(p))


def _pair(f: RatFunc):
    return (f.num, f.den)


@st.composite
def ratfuncs(draw):
    """num/den sharing a random common factor, as given (not yet reduced)."""
    common = draw(nonzero_polys)
    num = oracles.frac_mul(oracles.frac_trim(draw(polys)), oracles.frac_trim(common))
    den = oracles.frac_mul(oracles.frac_trim(draw(nonzero_polys)), oracles.frac_trim(common))
    return num, den


def _marked(draw, q: int) -> RatFunc:
    """A function with zeros or poles of chosen order at t = q^{-a}, a in -2..2."""
    f = RatFunc.make(*draw(ratfuncs()))
    for a in range(-2, 3):
        e = draw(st.integers(min_value=-2, max_value=2))
        lin = RatFunc.make([-Fraction(q) ** (-a), 1], [1])
        for _ in range(abs(e)):
            f = f * lin if e > 0 else f / lin
    return f


class TestAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(ratfuncs())
    def test_make(self, nd):
        num, den = nd
        f = RatFunc.make(num, den)
        assert _pair(f) == oracles.frac_make(num, den)
        assert all(type(c) is Fraction for c in f.num + f.den)

    def test_make_edge_cases(self):
        for num, den in [([], [1]), ([0, 0], [5]), ([3], [6]), ([F(1, 2)], [F(-4, 3), 0])]:
            assert _pair(RatFunc.make(num, den)) == oracles.frac_make(num, den)
        with pytest.raises(ZeroDivisionError):
            RatFunc.make([1], [0, 0])

    @settings(max_examples=100, deadline=None)
    @given(ratfuncs(), ratfuncs())
    def test_mul_and_div(self, a, b):
        f, g = RatFunc.make(*a), RatFunc.make(*b)
        fo, go = oracles.frac_make(*a), oracles.frac_make(*b)
        assert _pair(f * g) == oracles.frac_make(
            oracles.frac_mul(fo[0], go[0]), oracles.frac_mul(fo[1], go[1])
        )
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                f / g
        else:
            assert _pair(f / g) == oracles.frac_make(
                oracles.frac_mul(fo[0], go[1]), oracles.frac_mul(fo[1], go[0])
            )

    @settings(max_examples=60, deadline=None)
    @given(ratfuncs(), st.lists(ratfuncs(), max_size=4))
    def test_strip_S(self, g, factors):
        fs = [RatFunc.make(*x) for x in factors]
        if any(f.is_zero() for f in fs):
            with pytest.raises(ZeroDivisionError):
                strip_S(RatFunc.make(*g), fs)
            return
        want = oracles.frac_strip_S(oracles.frac_make(*g), [_pair(f) for f in fs])
        assert _pair(strip_S(RatFunc.make(*g), fs)) == want

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from([2, 3, 4, 13]))
    def test_ord_and_leading(self, data, q):
        f = _marked(data.draw, q)
        if f.is_zero():
            return
        for a in range(-3, 4):
            order, coeff = oracles.frac_leading(_pair(f), q, a)
            assert ord_at(f, q, a) == order
            assert leading_laurent(f, q, a) == LeadingValue(order, coeff, order)

    @settings(max_examples=80, deadline=None)
    @given(ratfuncs(), st.sampled_from([2, 3, 5, 13]), st.integers(min_value=-2, max_value=3))
    def test_functional_equation(self, nd, q, w):
        f = RatFunc.make(*nd)
        got = functional_equation(f, q, w)
        want = oracles.frac_functional_equation(_pair(f), q, w)
        assert (got and (got.sign, got.alpha, got.beta)) == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 13]),
        st.lists(st.integers(min_value=-4, max_value=4), max_size=6),
        st.integers(min_value=-2, max_value=2),
    )
    def test_functional_equation_of_self_dual_products(self, q, a_vs, shift):
        # zeta times elliptic factors 1/(1 - a t + q t^2), times t^shift
        f = zeta(q) * RatFunc.make([0] * max(shift, 0) + [1], [0] * max(-shift, 0) + [1])
        for a_v in a_vs:
            f = f * RatFunc.make([1], [1, -a_v, q])
        got = functional_equation(f, q, 1)
        assert got is not None
        assert (got.sign, got.alpha, got.beta) == oracles.frac_functional_equation(
            _pair(f), q, 1
        )

    def test_many_places_like_the_benchmark(self):
        # 24 elliptic places over F_13 stripped from the complete zeta
        q, a_vs = 13, [(3 * i) % 15 - 7 for i in range(24)]
        locals_ = [RatFunc.make([1], [1, -a_v, q]) for a_v in a_vs]
        z = zeta(q)
        for f in locals_:
            z = z * f
        lam = strip_S(z, locals_)
        assert lam == zeta(q)
        assert _pair(lam) == oracles.frac_strip_S(_pair(z), [_pair(f) for f in locals_])
        assert functional_equation(z, q, 1) == FunctionalEquation(1, 25, 50)


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_make_agrees_with_sympy_cancel(nd):
    sympy = pytest.importorskip("sympy")
    num, den = nd
    t = sympy.Symbol("t")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(p))

    cancelled = sympy.cancel(expr(num) / expr(den))
    n_expr, d_expr = sympy.fraction(cancelled)
    n_poly, d_poly = sympy.Poly(n_expr, t), sympy.Poly(d_expr, t)
    lead = d_poly.LC()
    n_coeffs = [sympy.Rational(c) / lead for c in reversed(n_poly.all_coeffs())]
    d_coeffs = [sympy.Rational(c) / lead for c in reversed(d_poly.all_coeffs())]
    f = RatFunc.make(num, den)
    assert [Fraction(int(c.p), int(c.q)) for c in n_coeffs] == list(f.num)
    assert [Fraction(int(c.p), int(c.q)) for c in d_coeffs] == list(f.den)
