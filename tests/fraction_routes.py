"""The Fraction routes that the integer form of exact rationals replaced,
kept as the references tests/test_lfun.py and tests/test_bundle.py
compare the library against: ``lfun``'s rational functions held as
Fraction coefficients between calls (``split_*``) and the bundle reader's
scalar parse returning a Fraction for every p/q (``fraction_rational``).
Beside them, the conductor's t-power folded into Z as a polynomial
(``folded_conductor``), the route the global checks took before they kept
the conductor as two exponents; tests/test_workbench.py compares them.

Kept in a module of its own that nothing else imports: the benchmark's
workload set-up imports ``fixtures`` and, through it, ``oracles``, and so
pays for whatever those modules hold.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from degen.bundle import _EXPONENT, MAX_DECIMAL_EXPONENT, Bundle, GlobalL, _NotANumber
from degen.lfun import RatFunc, _gcd, _mul, _primitive, _quo
from degen.qlinalg import Mat

FPoly = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# The Fraction route that ``lfun``'s integer form replaced: a rational
# function held as the Fraction coefficients (num, den) with den monic,
# split into a Fraction scalar and a primitive integer polynomial at every
# call and multiplied as integer polynomials.  The integer helpers are the
# library's own; what this route keeps is the Fraction form between calls.


def split_coeffs(p) -> tuple[Fraction, list[int]]:
    """Rational coefficients as (scalar, primitive integer polynomial)."""
    fs = [Fraction(x) for x in p]
    den = 1
    for x in fs:
        den = den * x.denominator // gcd(den, x.denominator)
    c, ints = _primitive([x.numerator * (den // x.denominator) for x in fs])
    return Fraction(c, den), ints


def _split_product(polys) -> list[Fraction]:
    scale, out = Fraction(1), [1]
    for p in polys:
        c, ints = split_coeffs(p)
        scale, out = scale * c, _mul(out, ints)
    return [scale * x for x in out]


def split_make(num, den) -> tuple[FPoly, FPoly]:
    """num/den reduced: one gcd, cofactors by exact division, monic den."""
    sn, n = split_coeffs(num)
    sd, d = split_coeffs(den)
    if not d:
        raise ZeroDivisionError("zero denominator")
    if not n:
        return (Fraction(0),), (Fraction(1),)
    g = _gcd(n, d)
    if len(g) > 1:
        n, d = _quo(n, g), _quo(d, g)
    lead = d[-1]
    scale = sn / (sd * lead)
    return tuple(scale * c for c in n), tuple(Fraction(c, lead) for c in d)


def split_mul(f, g) -> tuple[FPoly, FPoly]:
    return split_make(_split_product([f[0], g[0]]), _split_product([f[1], g[1]]))


def split_div(f, g) -> tuple[FPoly, FPoly]:
    if not any(g[0]):
        raise ZeroDivisionError("division by the zero function")
    return split_make(_split_product([f[0], g[1]]), _split_product([f[1], g[0]]))


def split_strip_S(g, factors) -> tuple[FPoly, FPoly]:
    if any(not any(f[0]) for f in factors):
        raise ZeroDivisionError("division by the zero function")
    return split_make(
        _split_product([g[0], *(f[1] for f in factors)]),
        _split_product([g[1], *(f[0] for f in factors)]),
    )


def split_local_factor(frob: Mat, deg_v: int) -> tuple[FPoly, FPoly]:
    """1 / det(I - frob t^deg_v), the determinant as Fraction coefficients
    c_k(N) / den^k of Faddeev-LeVerrier on the integer numerator N."""
    n = frob.rows
    coeffs = [Fraction(1)]
    m = [[0] * n for _ in range(n)]
    c = scale = 1
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        prod = []
        for row in frob._data:
            acc = [0] * n
            for j, x in row:
                acc = [a + x * y for a, y in zip(acc, m[j])]
            prod.append(acc)
        m = prod
        c = -sum(m[i][i] for i in range(n)) // k
        scale *= frob._den
        coeffs.append(Fraction(c, scale))
    spread = [Fraction(0)] * ((len(coeffs) - 1) * deg_v + 1)
    for k, c in enumerate(coeffs):
        spread[k * deg_v] = c
    return split_make([1], spread)


def _split_root(q: int, a: int) -> tuple[int, int]:
    return (1, q**a) if a >= 0 else (q ** (-a), 1)


def _split_strip_root(p: list[int], r: int, s: int) -> tuple[int, list[int]]:
    """(m, p / (s t - r)^m) by synthetic division from the top alone."""
    m = 0
    while len(p) > 1:
        quo = [0] * (len(p) - 1)
        carry = 0
        for i in range(len(p) - 1, 0, -1):
            carry, rem = divmod(p[i] + r * carry, s)
            if rem:
                return m, p
            quo[i - 1] = carry
        if p[0] + r * carry:
            return m, p
        p = quo
        m += 1
    return m, p


def _split_eval(p: list[int], r: int, s: int) -> Fraction:
    acc, spow = 0, 1
    for c in reversed(p):
        acc = acc * r + c * spow
        spow *= s
    return Fraction(acc, spow // s) if p else Fraction(0)


def split_ord_at(f, q: int, a: int) -> int:
    r, s = _split_root(q, a)
    n, d = split_coeffs(f[0])[1], split_coeffs(f[1])[1]
    return _split_strip_root(n, r, s)[0] - _split_strip_root(d, r, s)[0]


def split_leading_laurent(f, q: int, a: int) -> tuple[int, Fraction, int]:
    """(order, coeff, logpow) of the leading term at s = a."""
    r, s = _split_root(q, a)
    (cn, n), (cd, d) = split_coeffs(f[0]), split_coeffs(f[1])
    mn, n = _split_strip_root(n, r, s)
    md, d = _split_strip_root(d, r, s)
    order = mn - md
    coeff = cn / cd * Fraction(-r) ** order * _split_eval(n, r, s) / _split_eval(d, r, s)
    return order, coeff, order


def split_functional_equation(f, q: int, w: int):
    """(sign, alpha, beta) by the reduced ratio of the reversed and the
    plain function, or None."""
    if not any(f[0]):
        return None
    c = Fraction(q) ** w
    cr, cs = c.numerator, c.denominator
    n, d = split_coeffs(f[0])[1], split_coeffs(f[1])[1]

    def reverse_scaled(p):
        deg = len(p) - 1
        return [p[deg - i] * cr**i * cs ** (deg - i) for i in range(deg + 1)]

    shift = len(d) - len(n)
    mono = [0] * abs(shift) + [1]
    rat_num = _mul(reverse_scaled(n), d)
    rat_den = _mul(reverse_scaled(d), n)
    if shift >= 0:
        rat_num = _mul(rat_num, mono)
    else:
        rat_den = _mul(rat_den, mono)
    scale = Fraction(cr) ** shift
    num, den = split_make([scale * x for x in rat_num], rat_den)
    num_terms = [(k, co) for k, co in enumerate(num) if co != 0]
    den_terms = [(k, co) for k, co in enumerate(den) if co != 0]
    if len(num_terms) != 1 or len(den_terms) != 1:
        return None
    (kn, cn), (kd, cd) = num_terms[0], den_terms[0]
    r = cn / cd
    sign = 1 if r > 0 else -1
    r = abs(r)
    alpha = 0
    while r > 1:
        if r % q != 0:
            return None
        r /= q
        alpha += 1
    while r < 1:
        rq = r * q
        if rq > 1:
            return None
        r = rq
        alpha -= 1
    if r != 1:
        return None
    return sign, alpha, kn - kd


# ---------------------------------------------------------------------------
# The bundle reader's scalar parse before it kept p/q as an integer pair.


def fraction_rational(value):
    """The bundle reader's scalar parse before it kept p/q as an integer
    pair: an int for an integer or its text, else a Fraction; errors are
    ``bundle._NotANumber``."""
    if isinstance(value, str):
        if "/" not in value:
            try:
                return int(value)
            except ValueError:
                pass
        else:
            num, _, den = value.partition("/")
            if value.isascii() and den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit():
                try:
                    num, den = int(num), int(den)
                except ValueError:
                    pass
                else:
                    if den:
                        return Fraction(num, den)
        exponent = re.search(_EXPONENT, value)
        if exponent is not None:
            try:
                too_big = abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT
            except ValueError:
                too_big = True
            if too_big:
                raise _NotANumber(
                    f"decimal exponent in {value[:40]!r} exceeds "
                    f"{MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _NotANumber(f"bad rational {value!r}") from exc
    if isinstance(value, bool):
        raise _NotANumber("booleans are not numbers")
    if isinstance(value, int):
        return value
    raise _NotANumber("expected a rational as string or integer")


# ---------------------------------------------------------------------------
# The global checks' conductor before they kept it as two exponents.


def folded_conductor(b: Bundle) -> Bundle:
    """``b`` with its conductor's t^beta multiplied into Z as a polynomial,
    z * t^beta or z * (1 / t^-beta) through ``RatFunc.make``, and
    (alpha, 0) left as the conductor, for the q-power to scale leading
    values."""
    g = b.global_l
    if g is None or g.conductor is None:
        return b
    alpha, beta = g.conductor
    power = [0] * abs(beta) + [1]
    z = g.z * (RatFunc.make(power, [1]) if beta >= 0 else RatFunc.make([1], power))
    global_l = GlobalL(z=z, weight_w=g.weight_w, conductor=(alpha, 0))
    return Bundle(b.params, b.fibres, b.places, b.motivic, global_l, b.integral)
