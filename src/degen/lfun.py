"""Exact L-function arithmetic over function fields.

An L-function here is a rational function of t = q^{-s} with Fraction
coefficients; the arithmetic on it runs on integer polynomials.  Local
Euler factors come from Frobenius matrices via the Faddeev-LeVerrier
characteristic polynomial, so no factorization or floating point is
involved anywhere.  Vanishing orders and leading Taylor
coefficients at integer points s = a are exact: since
t - q^{-a} = q^{-a}(e^{-u} - 1) with u = log(q)(s - a), a zero of order d
in t contributes a leading term

    coeff * log(q)^d * (s - a)^d,   coeff = g(q^{-a}) * (-q^{-a})^d,

where g = Z / (t - q^{-a})^d.  Leading values are therefore carried as a
pair (exact rational, power of log q).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .qlinalg import Mat, _Record, _set

__all__ = [
    "RatFunc",
    "LeadingValue",
    "FunctionalEquation",
    "local_factor",
    "ord_at",
    "leading_laurent",
    "strip_S",
    "functional_equation",
    "MAX_RENDERED_BITS",
]

Poly = tuple[Fraction, ...]  # ascending coefficients

# Arithmetic runs on integer polynomials: lists of ascending int
# coefficients without trailing zeros, [] being zero.  A polynomial with
# Fraction coefficients is a Fraction scalar times a primitive one (content
# 1, positive leading coefficient).  By Gauss's lemma products of
# primitive polynomials are primitive, and when a primitive polynomial
# divides an integer one over Q the quotient is integral, so every
# division below is exact integer division.
IPoly = list[int]


def _primitive(p: Sequence[int]) -> tuple[int, IPoly]:
    """(c, p / c) with p / c primitive; c carries the sign of the lead."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return 0, []
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return c, [x // c for x in p]


def _split(p: Sequence) -> tuple[Fraction, IPoly]:
    """Rational coefficients as (scalar, primitive integer polynomial)."""
    fs = [Fraction(x) for x in p]
    den = lcm(*(x.denominator for x in fs)) if fs else 1
    c, ints = _primitive([x.numerator * (den // x.denominator) for x in fs])
    return Fraction(c, den), ints


def _mul(a: IPoly, b: IPoly) -> IPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prem(a: IPoly, b: IPoly) -> IPoly:
    """The remainder of c*a by b for some nonzero integer c (b nonzero)."""
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        c = a[-1]
        g = gcd(c, lb)
        fa, fb = lb // g, c // g
        k = len(a) - len(b)
        a = [x * fa for x in a]
        for i, y in enumerate(b):
            a[k + i] -= fb * y
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd(a: IPoly, b: IPoly) -> IPoly:
    """Primitive gcd of two primitive polynomials (primitive remainder sequence)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))[1]
    return a


def _quo(a: IPoly, b: IPoly) -> IPoly:
    """a / b for a primitive b that divides a exactly."""
    a = list(a)
    lb, nb = b[-1], len(b)
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + nb - 1] // lb
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q


def _eval(p: IPoly, r: int, s: int) -> Fraction:
    """p(r/s) for s > 0, by Horner on the homogenised polynomial."""
    acc, spow = 0, 1
    for c in reversed(p):
        acc = acc * r + c * spow
        spow *= s
    return Fraction(acc, spow // s) if p else Fraction(0)


def _product(polys: Iterable[Sequence]) -> list[Fraction]:
    """Product of rational polynomials, multiplied as integer ones."""
    scale, out = Fraction(1), [1]
    for p in polys:
        c, ints = _split(p)
        scale, out = scale * c, _mul(out, ints)
    return [scale * x for x in out]


class RatFunc(_Record):
    """Reduced rational function of t; gcd(num, den) = 1 and den is monic."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        _set(self, "num", num)
        _set(self, "den", den)

    @staticmethod
    def make(num: Sequence, den: Sequence) -> "RatFunc":
        """num/den reduced: one gcd, cofactors by exact division, monic den."""
        sn, n = _split(num)
        sd, d = _split(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        if not n:
            return RatFunc((Fraction(0),), (Fraction(1),))
        g = _gcd(n, d)
        if len(g) > 1:
            n, d = _quo(n, g), _quo(d, g)
        lead = d[-1]
        scale = sn / (sd * lead)
        return RatFunc(tuple(scale * c for c in n), tuple(Fraction(c, lead) for c in d))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(
            _product([self.num, other.num]), _product([self.den, other.den])
        )

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc.make(
            _product([self.num, other.den]), _product([self.den, other.num])
        )

    def __repr__(self) -> str:
        def side(p):
            return "+".join(
                f"{c}t^{k}" if k else str(c) for k, c in enumerate(p) if c != 0
            ) or "0"

        return f"RatFunc({side(self.num)})/({side(self.den)})"


# A rendered coefficient has at most this many bits in its numerator and
# in its denominator, so at most 4215 decimal digits each: below the 4300
# digits past which Python refuses to convert an int to a string.
MAX_RENDERED_BITS = 14_000


class LeadingValue(_Record):
    """Leading term coeff * log(q)^logpow * (s - a)^order of an expansion."""

    __slots__ = _fields = ("order", "coeff", "logpow")

    def __init__(self, order: int, coeff: Fraction, logpow: int):
        self._assign(order, coeff, logpow)

    def render(self, line: str) -> str:
        """``coeff*log(q)^logpow``; ``line`` names the report line that
        shows it in the error raised when the coefficient is too large."""
        c = self.coeff
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > MAX_RENDERED_BITS:
            raise ValueError(
                f"{line}: the leading coefficient at s = params.a needs {bits} bits, "
                f"past the {MAX_RENDERED_BITS}-bit limit on a printed value; "
                "lower |params.a|"
            )
        return f"{c}*log(q)^{self.logpow}"


class FunctionalEquation(_Record):
    """Lambda(1/(q^w t)) = sign * q^alpha * t^beta * Lambda(t)."""

    __slots__ = _fields = ("sign", "alpha", "beta")

    def __init__(self, sign: int, alpha: int, beta: int):
        self._assign(sign, alpha, beta)


def _char_poly_det(frob: Mat) -> list[Fraction]:
    """Coefficients of det(I - frob * u), ascending in u (Faddeev-LeVerrier).

    With frob = N / den for the integer numerator N, the k-th coefficient
    is c_k(N) / den^k.  Faddeev-LeVerrier on N stays in the integers:
    M_k = N (M_{k-1} + c_{k-1} I) and c_k = -tr(M_k) / k, a division that is
    exact because N's characteristic polynomial has integer coefficients.
    """
    n = frob.rows
    if frob.cols != n:
        raise ValueError("Frobenius matrix must be square")
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
    return coeffs


def local_factor(frob: Mat, deg_v: int) -> RatFunc:
    """Local Euler factor 1 / det(I - frob * t^{deg_v}) as a RatFunc."""
    if deg_v < 1:
        raise ValueError("place degree must be positive")
    p = _char_poly_det(frob)
    spread = [Fraction(0)] * ((len(p) - 1) * deg_v + 1)
    for k, c in enumerate(p):
        spread[k * deg_v] = c
    return RatFunc.make([1], spread)


def _root(q: int, a: int) -> tuple[int, int]:
    """t0 = q^{-a} as (r, s) with t0 = r / s; s*t - r is the linear factor."""
    return (1, q**a) if a >= 0 else (q ** (-a), 1)


def _strip_root(p: IPoly, r: int, s: int) -> tuple[int, IPoly]:
    """(m, p / (s t - r)^m) for the largest m; p is a nonzero integer polynomial.

    Synthetic division from the top: p_i = s q_{i-1} - r q_i.  Since
    s t - r is primitive, it divides p exactly iff every step divides
    exactly and the constant term closes.
    """
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


def ord_at(f: RatFunc, q: int, a: int) -> int:
    """Order of vanishing at s = a, i.e. at t = q^{-a} (poles negative)."""
    if f.is_zero():
        raise ValueError("order of the zero function is undefined")
    r, s = _root(q, a)
    n, d = _split(f.num)[1], _split(f.den)[1]
    return _strip_root(n, r, s)[0] - _strip_root(d, r, s)[0]


def leading_laurent(f: RatFunc, q: int, a: int) -> LeadingValue:
    """Exact leading term of f at s = a as coeff * log(q)^d * (s-a)^d.

    With f = c (s t - r)^d * n/m, n(t0) m(t0) != 0 and t0 = r/s, the
    leading term in t - t0 is c s^d n(t0)/m(t0), so coeff, which is that
    times (-t0)^d, equals c (-r)^d n(t0)/m(t0).
    """
    if f.is_zero():
        raise ValueError("leading term of the zero function is undefined")
    r, s = _root(q, a)
    (cn, n), (cd, d) = _split(f.num), _split(f.den)
    mn, n = _strip_root(n, r, s)
    md, d = _strip_root(d, r, s)
    order = mn - md
    coeff = cn / cd * Fraction(-r) ** order * _eval(n, r, s) / _eval(d, r, s)
    return LeadingValue(order=order, coeff=coeff, logpow=order)


def strip_S(global_l: RatFunc, local_factors: Iterable[RatFunc]) -> RatFunc:
    """Remove the Euler factors at the bad places from a complete L-function.

    All factors are multiplied in first and the result is reduced once.
    """
    factors = list(local_factors)
    if any(f.is_zero() for f in factors):
        raise ZeroDivisionError("division by the zero function")
    return RatFunc.make(
        _product([global_l.num, *(f.den for f in factors)]),
        _product([global_l.den, *(f.num for f in factors)]),
    )


def _reverse_scaled(p: IPoly, cr: int, cs: int) -> IPoly:
    # cs^deg * p(1/(c t)) * (c t)^deg with c = cr/cs: coefficient i is
    # p_{deg-i} cr^i cs^{deg-i}
    deg = len(p) - 1
    return [p[deg - i] * cr**i * cs ** (deg - i) for i in range(deg + 1)]


def functional_equation(lam: RatFunc, q: int, weight_w: int) -> FunctionalEquation | None:
    """Match Lambda(1/(q^w t)) against sign * q^alpha * t^beta * Lambda(t).

    Returns None when the ratio is not an exact monomial of that shape.
    """
    if lam.is_zero():
        return None
    c = Fraction(q) ** weight_w
    cr, cs = c.numerator, c.denominator
    n, d = _split(lam.num)[1], _split(lam.den)[1]
    # lam(1/(ct)) / lam(t) = (ct)^shift * rev(n) d / (rev(d) n) * cs^shift,
    # shift = deg d - deg n; the scalars of lam cancel and c^shift cs^shift
    # is cr^shift
    shift = len(d) - len(n)
    mono = [0] * abs(shift) + [1]
    rat_num = _mul(_reverse_scaled(n, cr, cs), d)
    rat_den = _mul(_reverse_scaled(d, cr, cs), n)
    if shift >= 0:
        rat_num = _mul(rat_num, mono)
    else:
        rat_den = _mul(rat_den, mono)
    scale = Fraction(cr) ** shift
    ratio = RatFunc.make([scale * x for x in rat_num], rat_den)
    num_terms = [(k, co) for k, co in enumerate(ratio.num) if co != 0]
    den_terms = [(k, co) for k, co in enumerate(ratio.den) if co != 0]
    if len(num_terms) != 1 or len(den_terms) != 1:
        return None
    (kn, cn), (kd, cd) = num_terms[0], den_terms[0]
    beta = kn - kd
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
    return FunctionalEquation(sign=sign, alpha=alpha, beta=beta)
