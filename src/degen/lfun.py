"""Exact L-function arithmetic over function fields.

An L-function here is a rational function of t = q^{-s} with rational
coefficients, held as integers: a reduced scalar a/b times n/d, where n
and d are coprime primitive integer polynomials and d's leading
coefficient is positive.  Every operation runs on that form; the
``Fraction`` coefficients of ``RatFunc.num`` and ``.den`` and
``LeadingValue.coeff`` are views built on demand.  Local Euler factors
come from Frobenius matrices via the Faddeev-LeVerrier characteristic
polynomial, so no factorization or floating point is involved anywhere.
Vanishing orders and leading Taylor coefficients at integer points
s = a are exact: since t - q^{-a} = q^{-a}(e^{-u} - 1) with
u = log(q)(s - a), a zero of order d in t contributes a leading term

    coeff * log(q)^d * (s - a)^d,   coeff = g(q^{-a}) * (-q^{-a})^d,

where g = Z / (t - q^{-a})^d.  Leading values are therefore carried as a
pair (exact rational, power of log q).
"""

from __future__ import annotations

from math import gcd, lcm

from .qlinalg import Mat, _ratio, _ratio_text, _Record, _set

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
    "TooLarge",
]

# Arithmetic runs on integer polynomials: sequences of ascending int
# coefficients without trailing zeros, empty being zero.  A polynomial with
# rational coefficients is a rational scalar times a primitive one (content
# 1, positive leading coefficient).  By Gauss's lemma products of
# primitive polynomials are primitive, and when a primitive polynomial
# divides an integer one over Q the quotient is integral, so every
# division below is exact integer division.
IPoly = list[int]

_INT = frozenset({int})


def _primitive(p) -> tuple[int, IPoly]:
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


def _split(p) -> tuple[int, int, IPoly]:
    """Rational coefficients as (c, m, n) with p = (c / m) * n, m > 0 and n
    primitive.  A coefficient is an int, a Fraction or a reduced pair
    (numerator, denominator > 0)."""
    if {*map(type, p)} <= _INT:
        c, n = _primitive(p)
        return c, 1, n
    pairs = [x if type(x) is tuple else _ratio(x) for x in p]
    m = lcm(*[d for _, d in pairs])
    c, n = _primitive([x * (m // d) for x, d in pairs])
    return c, m, n


def _scaled(c: int, p: IPoly) -> IPoly:
    return p if c == 1 else [c * x for x in p]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator (den != 0)."""
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def _mul(a, b) -> IPoly:
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


def _low(p) -> int:
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    k = 0
    while not p[k]:
        k += 1
    return k


def _cofactor(p, k: int, r: int, s: int) -> int:
    """s^(deg p - k) p(r/s) / (r/s)^k for a nonzero p whose lowest nonzero
    coefficient is at k: the sum of p_i r^(i-k) s^(deg p - i)."""
    acc, spow = 0, 1
    for c in reversed(p[k:]):
        acc = acc * r + c * spow
        spow *= s
    return acc


def _valuation_cap(p, k: int, a: int, g: int) -> int:
    """g times an upper bound on v_l(C) / f, for the cofactor C of p at
    t0 = q^-a (see ``_cofactor``), q = l^f a power of the prime l and
    g = q.bit_length() - 1; no value of C is built.

    A nonzero x has v_l(x) / f <= log_q |x| < x.bit_length() / g.  C is
    p's end coefficient (the top one for a > 0, the lowest for a < 0)
    modulo q^|a|, so it has that coefficient's valuation when the bound
    on it stays below |a|.  Otherwise |C| <= |p|_1 q^(|a| (deg p - k)).
    """
    end = (p[-1] if a > 0 else p[k]).bit_length()
    if a and end <= abs(a) * g:
        return end
    return _l1_bits(p) + abs(a) * (len(p) - 1 - k) * g


def _size_floor(p, k: int, a: int, g: int) -> int:
    """A lower bound on the bits of the cofactor N of p at t0 = q^-a,
    g = q.bit_length() - 1; no value of N is built.

    N is p's lowest (a > 0) or top (a < 0) coefficient times T^(deg p - k),
    T = q^|a|, plus terms of at most |p|_1 T^(deg p - k - 1) in all, so
    |N| >= T^(deg p - k - 1) once T > |p|_1.
    """
    span = len(p) - 1 - k
    if span and abs(a) * g >= _l1_bits(p):
        return (span - 1) * abs(a) * g + 1
    return 1


def _l1_bits(p) -> int:
    """Bits of the sum of |p_i|, a bound on those of every norm of p."""
    return sum(map(abs, p)).bit_length()


class RatFunc(_Record):
    """Reduced rational function of t: the scalar a/b times n/d.

    a/b is in lowest terms with b > 0; n and d are coprime primitive
    integer polynomials (tuples, ascending) with positive leading
    coefficients.  The zero function is 0/1 times ()/(1,).  ``num`` and
    ``den`` are the coefficients as Fractions with den monic, built on
    each call.
    """

    __slots__ = _fields = ("_a", "_b", "_n", "_d")

    def __init__(self, _a: int, _b: int, _n: tuple[int, ...], _d: tuple[int, ...]):
        _set(self, "_a", _a)
        _set(self, "_b", _b)
        _set(self, "_n", _n)
        _set(self, "_d", _d)

    @staticmethod
    def make(num, den) -> "RatFunc":
        """num/den reduced: one gcd, cofactors by exact division.  The
        coefficients are ints, Fractions or reduced (numerator,
        denominator > 0) pairs."""
        cn, mn, n = _split(num)
        cd, md, d = _split(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        if not n:
            return RatFunc(0, 1, (), (1,))
        g = _gcd(n, d)
        if len(g) > 1:
            n, d = _quo(n, g), _quo(d, g)
        return RatFunc(*_reduced(cn * md, mn * cd), tuple(n), tuple(d))

    @property
    def num(self) -> tuple:
        from fractions import Fraction

        if not self._a:
            return (Fraction(0),)
        scale = self._b * self._d[-1]
        return tuple(Fraction(self._a * c, scale) for c in self._n)

    @property
    def den(self) -> tuple:
        from fractions import Fraction

        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._d)

    def _texts(self) -> tuple[list[str], list[str]]:
        """The coefficients of ``num`` and ``den`` as ``str`` writes them."""
        lead = self._d[-1]
        scale = self._b * lead
        num = [_ratio_text(self._a * c, scale) for c in self._n] if self._a else ["0"]
        return num, [_ratio_text(c, lead) for c in self._d]

    def is_zero(self) -> bool:
        return not self._a

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(
            _scaled(self._a * other._a, _mul(self._n, other._n)),
            _scaled(self._b * other._b, _mul(self._d, other._d)),
        )


# A rendered coefficient has at most this many bits in its numerator and
# in its denominator, so at most 4215 decimal digits each: below the 4300
# digits past which Python refuses to convert an int to a string.
MAX_RENDERED_BITS = 14_000


class TooLarge(ValueError):
    """A leading coefficient of more than MAX_RENDERED_BITS bits, refused
    on report line ``line``, with ``lower`` the input to lower.  ``bits``
    is its size or, when ``bound``, a lower bound on it taken before it
    was built."""

    def __init__(self, bits: int, line: str = "leading value", lower: str = "|params.a|",
                 bound: bool = False):
        needs = f"at least {bits}" if bound else bits
        super().__init__(
            f"{line}: the leading coefficient at s = params.a needs {needs} bits, "
            f"past the {MAX_RENDERED_BITS}-bit limit on a printed value; lower {lower}"
        )
        self.bits, self.bound = bits, bound


class LeadingValue(_Record):
    """Leading term coeff * log(q)^logpow * (s - a)^order of an expansion.

    coeff is held as a reduced numerator and a positive denominator; the
    ``coeff`` Fraction is a view built on each call.
    """

    __slots__ = ("order", "_num", "_den", "logpow")
    _fields = ("order", "coeff", "logpow")

    def __init__(self, order: int, coeff, logpow: int):
        self._set_ints(order, *_ratio(coeff), logpow)

    @classmethod
    def from_ints(cls, order: int, num: int, den: int, logpow: int) -> "LeadingValue":
        """The LeadingValue of coefficient num/den (den != 0)."""
        lv = object.__new__(cls)
        lv._set_ints(order, num, den, logpow)
        return lv

    def _set_ints(self, order: int, num: int, den: int, logpow: int) -> None:
        num, den = _reduced(num, den)
        _set(self, "order", order)
        _set(self, "_num", num)
        _set(self, "_den", den)
        _set(self, "logpow", logpow)

    @property
    def coeff(self):
        from fractions import Fraction

        return Fraction(self._num, self._den)

    @property
    def ratio(self) -> tuple[int, int]:
        """coeff as its reduced (numerator, denominator > 0)."""
        return self._num, self._den

    def render(self, line: str, lower: str = "|params.a|") -> str:
        """``coeff*log(q)^logpow``; ``line`` names the report line that
        shows it, and ``lower`` the input to lower, in the error raised
        when the coefficient is too large."""
        bits = max(self._num.bit_length(), self._den.bit_length())
        if bits > MAX_RENDERED_BITS:
            raise TooLarge(bits, line, lower)
        return f"{_ratio_text(self._num, self._den)}*log(q)^{self.logpow}"


class FunctionalEquation(_Record):
    """Lambda(1/(q^w t)) = sign * q^alpha * t^beta * Lambda(t)."""

    __slots__ = _fields = ("sign", "alpha", "beta")

    def __init__(self, sign: int, alpha: int, beta: int):
        self._assign(sign, alpha, beta)


def _char_poly_det(frob: Mat) -> tuple[IPoly, int]:
    """(p, m) with det(I - frob * u) = p(u) / m, p ascending in u
    (Faddeev-LeVerrier).

    With frob = N / den for the integer numerator N, the k-th coefficient
    is c_k(N) / den^k, so p_k = c_k(N) den^(n-k) and m = den^n.
    Faddeev-LeVerrier on N stays in the integers: M_k = N (M_{k-1} +
    c_{k-1} I) and c_k = -tr(M_k) / k, a division that is exact because
    N's characteristic polynomial has integer coefficients.
    """
    n = frob.rows
    if frob.cols != n:
        raise ValueError("Frobenius matrix must be square")
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    c = 1
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
        coeffs.append(c)
    den = frob._den
    if den == 1:
        return coeffs, 1
    return [c * den ** (n - k) for k, c in enumerate(coeffs)], den**n


def local_factor(frob: Mat, deg_v: int) -> RatFunc:
    """Local Euler factor 1 / det(I - frob * t^{deg_v}) as a RatFunc."""
    if deg_v < 1:
        raise ValueError("place degree must be positive")
    p, m = _char_poly_det(frob)
    spread = [0] * ((len(p) - 1) * deg_v + 1)
    for k, c in enumerate(p):
        spread[k * deg_v] = c
    return RatFunc.make([m], spread)


def _root(q: int, a: int) -> tuple[int, int]:
    """t0 = q^{-a} as (r, s) with t0 = r / s; s*t - r is the linear factor."""
    return (1, q**a) if a >= 0 else (q ** (-a), 1)


def _strip_root(p, r: int, s: int) -> tuple[int, IPoly]:
    """(m, p / (s t - r)^m) for the largest m; p is a nonzero integer
    polynomial, r and s coprime and nonzero.

    The t-power that divides p is set aside.  By the rational root
    theorem s t - r can divide what is left only if s divides its top
    coefficient and r its constant one.  Then synthetic division from the
    top: p_i = s q_{i-1} - r q_i; since s t - r is primitive, it divides p
    exactly iff every step divides exactly and the constant term closes.
    """
    k = _low(p)
    p = p[k:]
    m = 0
    while len(p) > 1 and not p[-1] % s and not p[0] % r:
        quo = [0] * (len(p) - 1)
        carry = 0
        for i in range(len(p) - 1, 0, -1):
            carry, rem = divmod(p[i] + r * carry, s)
            if rem:
                break
            quo[i - 1] = carry
        else:
            if not p[0] + r * carry:
                p = quo
                m += 1
                continue
        break
    return m, [0] * k + list(p)


def ord_at(f: RatFunc, q: int, a: int) -> int:
    """Order of vanishing at s = a, i.e. at t = q^{-a} (poles negative)."""
    if f.is_zero():
        raise ValueError("order of the zero function is undefined")
    r, s = _root(q, a)
    return _strip_root(f._n, r, s)[0] - _strip_root(f._d, r, s)[0]


def leading_laurent(f: RatFunc, q: int, a: int, alpha: int = 0) -> LeadingValue:
    """Exact leading term of q^alpha f at s = a as coeff * log(q)^d * (s-a)^d,
    for a prime power q.

    With f = c (s t - r)^d * n/m, n(t0) m(t0) != 0 and t0 = r/s, the
    leading term in t - t0 is c s^d n(t0)/m(t0), so coeff, which is that
    times (-t0)^d q^alpha, equals c (-r)^d n(t0)/m(t0) q^alpha.

    r and s are powers of q (one of them 1), so every power of q in coeff
    is gathered into one exponent e beside the cofactors N and M of n and
    m (``_cofactor``).  Before N, M or q^e is built, two lower bounds on
    the bits of the reduced coefficient are taken, and past
    MAX_RENDERED_BITS, where ``render`` would refuse it, TooLarge is
    raised instead:

    * from its l-adic valuation v_l, for the prime l with q = l^f: the
      reduced coefficient has l^|v_l| in its numerator or its
      denominator, and v_l is e f plus at most the valuations of c's
      numerator and N, minus at most those of c's denominator and M
      (``_valuation_cap``);
    * from its size: the bits of the unreduced numerator and denominator
      (``_size_floor``) less those of a bound on their gcd.  That gcd
      divides c's numerator and denominator, the l-parts of N and M, and
      gcd(N, M), which divides the resultant of n and m with their
      t-powers removed, since N and M are the values of those as binary
      forms at the coprime pair (r, s).
    """
    if f.is_zero():
        raise ValueError("leading term of the zero function is undefined")
    r, s = _root(q, a)
    mn, n = _strip_root(f._n, r, s)
    md, d = _strip_root(f._d, r, s)
    order = mn - md
    kn, kd = _low(n), _low(d)
    # coeff = (-1)^order c (N / M) q^e
    e = alpha + (-a * (order + kn - kd) if a < 0 else a * (len(d) - len(n)))
    g = q.bit_length() - 1
    cap_n, cap_d = _valuation_cap(n, kn, a, g), _valuation_cap(d, kd, a, g)
    by_valuation = max(e * g - f._b.bit_length() - cap_d, -e * g - f._a.bit_length() - cap_n)
    # |resultant| <= |n|_2^deg(m) |m|_2^deg(n), and the l-part of N is
    # below q^(cap_n / g), so of at most 2 cap_n + 1 bits
    shared = (
        f._a.bit_length() + f._b.bit_length() + 2 * (cap_n + cap_d + 1)
        + (len(d) - 1 - kd) * _l1_bits(n) + (len(n) - 1 - kn) * _l1_bits(d)
    )
    by_size = max(
        f._a.bit_length() + _size_floor(n, kn, a, g) + max(e, 0) * g,
        f._b.bit_length() + _size_floor(d, kd, a, g) + max(-e, 0) * g,
    ) - 1 - shared
    bits = max(by_valuation + 1, by_size, 1)
    if bits > MAX_RENDERED_BITS:
        raise TooLarge(bits, bound=True)
    num = f._a * _cofactor(n, kn, r, s)
    den = f._b * _cofactor(d, kd, r, s)
    if order % 2:
        num = -num
    if e > 0:
        num *= q**e
    elif e < 0:
        den *= q**-e
    return LeadingValue.from_ints(order, num, den, order)


def strip_S(global_l: RatFunc, local_factors) -> RatFunc:
    """Remove the Euler factors at the bad places from a complete L-function.

    All factors are multiplied in first and the result is reduced once.
    """
    factors = list(local_factors)
    if any(f.is_zero() for f in factors):
        raise ZeroDivisionError("division by the zero function")
    a, b, num, den = global_l._a, global_l._b, list(global_l._n), list(global_l._d)
    for f in factors:
        a *= f._b
        b *= f._a
        num = _mul(num, f._d)
        den = _mul(den, f._n)
    return RatFunc.make(_scaled(a, num), _scaled(b, den))


def _reciprocal(p, k: int, cr: int, cs: int) -> bool:
    """Whether p / t^k is fixed up to a constant by the reversal
    p' -> t^deg(p') p'(1/(c t)), c = cr/cs: p_{D-j} c^j p_k = p_D p_{k+j}
    for every j, D the degree of p.

    At the last j that reads p_k^2 cr^(D-k) = p_D^2 cs^(D-k), and cr, cs
    are coprime, so cr^(D-k) divides p_D^2 and cs^(D-k) divides p_k^2:
    powers too large for that fail before any is built.
    """
    top, low, span = p[-1], p[k], len(p) - 1 - k
    for base, bound in ((cr, top), (cs, low)):
        if base > 1 and span * (base.bit_length() - 1) > 2 * bound.bit_length():
            return False
    crj = csj = 1
    for j in range(span + 1):
        if p[-1 - j] * crj * low != top * p[k + j] * csj:
            return False
        crj *= cr
        csj *= cs
    return True


def _log(num: int, den: int, q: int) -> int | None:
    """e with num / den = q^e for positive num and den, or None."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if num != 1 and den != 1:
        return None
    x, sign = (num, 1) if den == 1 else (den, -1)
    e = 0
    while x > 1:
        x, rem = divmod(x, q)
        if rem:
            return None
        e += 1
    return sign * e


def functional_equation(lam: RatFunc, q: int, weight_w: int) -> FunctionalEquation | None:
    """Match Lambda(1/(q^w t)) against sign * q^alpha * t^beta * Lambda(t).

    Returns None when the ratio is not an exact monomial of that shape.

    With Lambda = c t^kn n'/(t^kd d') and n'(0) d'(0) != 0, put
    R_p(t) = t^D p(1/(ct)) c^D for p of degree D, c = q^w.  Then
    Lambda(1/(ct)) / Lambda(t) = (ct)^(Dd - Dn) R_n d / (R_d n), and as n,
    d are coprime so are R_n, R_d and n', d': the ratio is a monomial
    exactly when R_n = K_n n' and R_d = K_d d', with K_p = p_D / p_k.  The
    scalar of Lambda cancels; the ratio is (K_n/K_d) c^(Dd - Dn) times
    t^(Dd - Dn + kd - kn).
    """
    if lam.is_zero():
        return None
    cr, cs = (q**weight_w, 1) if weight_w >= 0 else (1, q ** -weight_w)
    n, d = lam._n, lam._d
    kn, kd = _low(n), _low(d)
    if not (_reciprocal(n, kn, cr, cs) and _reciprocal(d, kd, cr, cs)):
        return None
    dn, dd = len(n) - 1, len(d) - 1
    num, den = n[-1] * d[kd], n[kn] * d[-1]
    e = _log(abs(num), abs(den), q)
    if e is None:
        return None
    return FunctionalEquation(
        sign=1 if (num > 0) == (den > 0) else -1,
        alpha=e + weight_w * (dd - dn),
        beta=dd - dn + kd - kn,
    )
