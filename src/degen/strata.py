"""Stratum combinatorics of a strict normal crossings fibre.

A fibre descriptor lists the closed strata Y_I (I a strictly increasing
tuple of component indices), an exact Chow table dim CH^p(Y_I, j) keyed by
(stratum, codim, higher index), and the raw unsigned restriction and Gysin
blocks of the inclusions delta(u): Y_I -> Y_{I minus its u-th index}.
Levels Y^{(r)} are disjoint unions over |I| = r in lexicographic order,
and the two signed maps are assembled blockwise:

    gamma = sum_u (-1)^{u-1} delta(u)_*   (level r -> r-1, codim p -> p+1)
    rho   = sum_u (-1)^{u-1} delta(u)^*   (level r -> r+1, codim fixed)

The ambient model itself (level 0) is excluded throughout.  A complex
built from a fibre squares to zero exactly when the sign identities it
rests on hold: gamma.gamma, rho.rho, the anticommutator
gamma.rho+rho.gamma, and the i^*i_* hinges ii.gamma (out of level 2) and
rho.ii (on level 1).  identity_holds() decides each once per fibre,
require_identity() names a failing one in a DescriptorError, and
validate() reports the first three wherever they avoid level 0.

A stratum may be disconnected (several double points sharing the same
index set); its Chow space then just has higher dimension, which is how
the 2-gon carries two nodes on the single stratum (1, 2).

Everything derived from a fibre (strata by level, the graded spaces with
their offsets, gamma, rho, i^*i_*, products of its maps, the verdicts of
its sign identities and the twist rows of the monodromy complex) is
computed once, on first use, and kept in a private index on the fibre.
A fibre is therefore not edited once any of its maps has been built.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .qlinalg import Mat, _placed, _Record, _set

__all__ = [
    "DescriptorError",
    "Stratum",
    "GradedSpace",
    "Fibre",
    "block_shape",
    "level_one_dims",
    "ii_shape",
    "build_level",
    "gamma",
    "rho",
    "composite",
    "compose_ii",
    "ii_map",
    "identity_holds",
    "require_identity",
    "validate",
    "ValidationReport",
    "generator_ngon",
    "generator_smooth",
    "is_prime_power",
    "MAX_PRIME_POWER",
]

Stratum = tuple[int, ...]


class DescriptorError(ValueError):
    """A fibre descriptor violates a structural rule."""


# Miller-Rabin with these twelve bases is deterministic for n < 2^64
# (Jaeschke 1993; Sorenson and Webster 2015 extend it to 3.18e23), so field
# sizes q and q_v are accepted up to this bound and no further.
MAX_PRIME_POWER = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _WITNESSES, for odd n > 37 below MAX_PRIME_POWER."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(n: int) -> bool:
    """n = p^k for a prime p and k >= 1; n may not exceed MAX_PRIME_POWER.

    A prime factor p <= 37 is found by division (n is then a power of p);
    otherwise every prime factor exceeds 37, so n = r^k needs 41^k <= n,
    and each exact integer k-th root r is tested with Miller-Rabin.
    """
    if n > MAX_PRIME_POWER:
        raise ValueError("exceeds the largest field size 2^64")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    k = 1
    while 41**k <= n:
        r = _iroot(n, k)
        if r**k == n and _is_prime(r):
            return True
        k += 1
    return False


def _check_stratum(s: Sequence[int], components: int) -> Stratum:
    t = tuple(map(int, s))
    if not t:
        raise DescriptorError("empty stratum index")
    if list(t) != sorted(set(t)):
        raise DescriptorError(f"stratum indices not strictly increasing: {t}")
    if t[0] < 1 or t[-1] > components:
        raise DescriptorError(f"stratum {t} uses component outside 1..{components}")
    return t


class GradedSpace(_Record):
    """Q-vector space attached to one level: ordered strata with dimensions.

    ``total`` and the offsets are derived from ``pieces`` and take no part
    in ``==``, ``hash`` or ``repr``.
    """

    _fields = ("level", "codim", "j", "pieces")
    __slots__ = (*_fields, "_at", "total")

    def __init__(self, level: int, codim: int, j: int, pieces: tuple[tuple[Stratum, int], ...]):
        self._assign(level, codim, j, pieces)
        at = {}
        off = 0
        for s, d in pieces:
            at[s] = (off, d)
            off += d
        _set(self, "_at", at)
        _set(self, "total", off)

    def offset(self, stratum: Stratum) -> int:
        return self._at[stratum][0]

    def dim_of(self, stratum: Stratum) -> int:
        return self._at.get(stratum, (0, 0))[1]


class Fibre(_Record):
    """Combinatorial model of one semistable special fibre.

    Unlike the other records a fibre is mutable and unhashable; its private
    index of derived maps takes no part in ``==`` or ``repr``.
    """

    _fields = (
        "components", "dim_y", "q_v", "strata", "chow", "pushforward", "pullback",
        "ii_matrices", "higher_chow",
    )
    __slots__ = (*_fields, "_index")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        components: int,
        dim_y: int,
        q_v: int,
        strata: tuple[Stratum, ...],
        chow: dict[tuple[Stratum, int, int], int],
        pushforward: dict[tuple[Stratum, int, int, int], Mat],
        pullback: dict[tuple[Stratum, int, int, int], Mat],
        ii_matrices: dict[tuple[int, int], Mat] | None = None,
        higher_chow: dict[tuple[int, int], int] | None = None,
    ):
        self._assign(
            components, dim_y, q_v, strata, chow, pushforward, pullback,
            {} if ii_matrices is None else ii_matrices,
            {} if higher_chow is None else higher_chow,
        )
        self._index = None  # a _FibreIndex once a map is built
        if self.components < 1:
            raise DescriptorError("fibre needs at least one component")
        if self.dim_y < 0:
            raise DescriptorError("negative fibre dimension")
        if self.q_v > MAX_PRIME_POWER:
            raise DescriptorError("q_v exceeds the largest field size 2^64")
        if not is_prime_power(self.q_v):
            raise DescriptorError(f"q_v = {self.q_v} is not a prime power")
        seen = set()
        cleaned = []
        for s in self.strata:
            t = _check_stratum(s, self.components)
            if len(t) > self.dim_y + 1:
                raise DescriptorError(
                    f"stratum {t} deeper than the fibre dimension allows"
                )
            if t in seen:
                raise DescriptorError(f"duplicate stratum {t}")
            seen.add(t)
            cleaned.append(t)
        for i in range(1, self.components + 1):
            if (i,) not in seen:
                raise DescriptorError(f"component ({i},) missing from the strata list")
        for t in cleaned:
            for k in range(len(t)):
                sub = t[:k] + t[k + 1 :]
                if sub and sub not in seen:
                    raise DescriptorError(
                        f"strata not downward closed: {t} present but {sub} missing"
                    )
        self.strata = tuple(sorted(cleaned))
        for (s, p, j), d in self.chow.items():
            if s not in seen:
                raise DescriptorError(f"chow entry references unknown stratum {s}")
            if p < 0 or d < 0:
                raise DescriptorError(f"bad chow entry at {(s, p, j)}")
        for kind, blocks in (("pushforward", self.pushforward), ("pullback", self.pullback)):
            for key, m in blocks.items():
                rows, cols = block_shape(self.chow, kind, key)
                if (m.rows, m.cols) != (rows, cols):
                    raise DescriptorError(
                        f"{kind} block {key} has shape {m.rows}x{m.cols}, expected {rows}x{cols}"
                    )
        if self.ii_matrices:
            level_one = level_one_dims(self.chow)
            for (p, j), m in self.ii_matrices.items():
                _require_ii_shape(level_one, p, j, m)

    def chow_dim(self, stratum: Stratum, p: int, j: int = 0) -> int:
        return self.chow.get((tuple(stratum), p, j), 0)

    def level_strata(self, r: int) -> tuple[Stratum, ...]:
        return _index(self).levels.get(r, ())

    @property
    def max_level(self) -> int:
        return max(_index(self).levels, default=0)

    def observed_js(self) -> tuple[int, ...]:
        return tuple(sorted({j for (_, _, j) in self.chow}))


class _FibreIndex:
    """What a fibre's maps are built from, filled in on first use."""

    def __init__(self, f: Fibre):
        levels: dict[int, list[Stratum]] = {}
        for s in f.strata:
            levels.setdefault(len(s), []).append(s)
        self.levels = {r: tuple(ss) for r, ss in levels.items()}
        self.spaces: dict[tuple[int, int, int], GradedSpace] = {}
        self.maps: dict[tuple[str, int, int, int], Mat] = {}
        self.verdicts: dict[tuple[str, int, int, int], bool] = {}
        self.twist_rows: dict = {}  # star -> monodromy.TwistRow, kept by total_rows
        self.products: dict = {}  # (id, id) -> (outer, inner, outer * inner)


def _index(f: Fibre) -> _FibreIndex:
    if f._index is None:
        f._index = _FibreIndex(f)
    return f._index


def _removed(s: Stratum, u: int) -> Stratum:
    if not 1 <= u <= len(s):
        raise DescriptorError(f"position {u} out of range for stratum {s}")
    return s[: u - 1] + s[u:]


def block_shape(chow: Mapping, kind: str, key: tuple[Stratum, int, int, int]) -> tuple[int, int]:
    """(rows, cols) that the Chow table ``chow`` asks of the raw block
    ``key`` = (I, u, p, j) of ``kind``: a "pushforward" block maps
    CH^p(Y_I, j) to CH^{p+1}(Y_I', j), a "pullback" block CH^p(Y_I', j) to
    CH^p(Y_I, j), where I' is I without its u-th index."""
    s, u, p, j = key
    other = _removed(s, u)
    if kind == "pushforward":
        return chow.get((other, p + 1, j), 0), chow.get((s, p, j), 0)
    return chow.get((s, p, j), 0), chow.get((other, p, j), 0)


def level_one_dims(chow: Mapping) -> dict[tuple[int, int], int]:
    """dim CH^p(Y^{(1)}, j) for each (p, j), read off the Chow table
    ``chow``: level one is the disjoint union of the one-index strata."""
    dims: dict[tuple[int, int], int] = {}
    for (s, p, j), d in chow.items():
        if len(s) == 1:
            dims[p, j] = dims.get((p, j), 0) + d
    return dims


def ii_shape(level_one: Mapping, p: int, j: int) -> tuple[int, int]:
    """(rows, cols) of the i^*i_* matrix at (p, j), which maps
    CH^p(Y^{(1)}, j) to CH^{p+1}(Y^{(1)}, j), given ``level_one`` =
    level_one_dims(chow)."""
    return level_one.get((p + 1, j), 0), level_one.get((p, j), 0)


def _require_ii_shape(level_one: Mapping, p: int, j: int, m: Mat) -> None:
    rows, cols = ii_shape(level_one, p, j)
    if (m.rows, m.cols) != (rows, cols):
        raise DescriptorError(
            f"ii matrix at codim {p}, j {j} has shape {m.rows}x{m.cols}, expected {rows}x{cols}"
        )


def build_level(f: Fibre, r: int, p: int, j: int = 0) -> GradedSpace:
    """CH^p(Y^{(r)}, j) as an ordered direct sum over |I| = r (lex order)."""
    spaces = _index(f).spaces
    key = (r, p, j)
    space = spaces.get(key)
    if space is None:
        pieces = ()
        if r >= 1:
            dims = ((s, f.chow_dim(s, p, j)) for s in f.level_strata(r))
            pieces = tuple((s, d) for s, d in dims if d > 0)
        space = spaces[key] = GradedSpace(r, p, j, pieces)
    return space


def gamma(f: Fibre, r: int, p: int, j: int = 0) -> Mat:
    """Signed Gysin map CH^p(Y^{(r)}, j) -> CH^{p+1}(Y^{(r-1)}, j)."""
    return _assemble(f, r, p, j, mode="push")


def rho(f: Fibre, r: int, p: int, j: int = 0) -> Mat:
    """Signed restriction map CH^p(Y^{(r)}, j) -> CH^p(Y^{(r+1)}, j)."""
    return _assemble(f, r, p, j, mode="pull")


def _assemble(f: Fibre, r: int, p: int, j: int, mode: str) -> Mat:
    """The signed block map out of CH^p(Y^{(r)}, j), built once per fibre.

    Each raw block lands, signed, at the offsets of its (target, source)
    pair of strata; ``qlinalg._placed`` sums them at a cost that follows
    the nonzeros.
    """
    maps = _index(f).maps
    key = (mode, r, p, j)
    if key in maps:
        return maps[key]
    push = mode == "push"
    src = build_level(f, r, p, j)
    tgt = build_level(f, r - 1, p + 1, j) if push else build_level(f, r + 1, p, j)
    deep, shallow = (src, tgt) if push else (tgt, src)
    raw, kind = (f.pushforward, "pushforward") if push else (f.pullback, "pullback")
    placed: list[tuple[int, int, Mat, int]] = []  # (row offset, column offset, block, sign)
    # walk the deeper level's strata I; removing position u lands in the shallower one
    for stratum, _ in deep.pieces:
        for u in range(1, len(stratum) + 1):
            other = _removed(stratum, u)
            if not shallow.dim_of(other):
                continue
            block = raw.get((stratum, u, p, j))
            if block is None:
                raise DescriptorError(
                    f"missing {kind} block for stratum {stratum}, "
                    f"position {u}, codim {p}, j {j}"
                )
            at = (shallow.offset(other), deep.offset(stratum))
            row, col = at if push else at[::-1]
            placed.append((row, col, block, (-1) ** (u - 1)))
    maps[key] = _placed(tgt.total, src.total, placed)
    return maps[key]


def composite(f: Fibre, *factors: Mat) -> Mat:
    """The product of ``factors`` left to right, each pair multiplied once per fibre."""
    products = _index(f).products
    m, *rest = factors
    for g in rest:
        key = (id(m), id(g))
        if key not in products:  # holding both factors keeps their ids unique
            products[key] = (m, g, m * g)
        m = products[key][2]
    return m


def compose_ii(f: Fibre, p: int, j: int = 0) -> Mat:
    """The composite gamma(level 2) . rho(level 1): CH^p(Y^{(1)}) -> CH^{p+1}(Y^{(1)}).

    This is the convenience normalization of i^* i_* used when no explicit
    matrix is supplied; the opposite order rho . gamma lives one level up
    and is exposed through validate()'s anticommutator checks instead.
    """
    return composite(f, gamma(f, 2, p, j), rho(f, 1, p, j))


def ii_map(f: Fibre, p: int, j: int = 0) -> Mat:
    """i^* i_*: CH^p(Y^{(1)}, j) -> CH^{p+1}(Y^{(1)}, j), explicit or composed."""
    maps = _index(f).maps
    key = ("ii", 1, p, j)
    if key not in maps:
        explicit = f.ii_matrices.get((p, j))
        if explicit is not None:
            # checked again here: a fibre's ii_matrices may change after it is built
            _require_ii_shape(level_one_dims(f.chow), p, j, explicit)
            maps[key] = explicit
        else:
            maps[key] = compose_ii(f, p, j)
    return maps[key]


# Each sign identity says that a composite out of CH^p(Y^{(r)}, j) is
# zero: the sum of outer * inner over these (outer, inner) factor pairs.
_IDENTITIES = {
    "gamma.gamma": lambda f, r, p, j: ((gamma(f, r - 1, p + 1, j), gamma(f, r, p, j)),),
    "rho.rho": lambda f, r, p, j: ((rho(f, r + 1, p, j), rho(f, r, p, j)),),
    "gamma.rho+rho.gamma": lambda f, r, p, j: (
        (gamma(f, r + 1, p, j), rho(f, r, p, j)), (rho(f, r - 1, p + 1, j), gamma(f, r, p, j)),
    ),
    "ii.gamma": lambda f, r, p, j: ((ii_map(f, p + 1, j), gamma(f, r, p, j)),),
    "rho.ii": lambda f, r, p, j: ((rho(f, r, p + 1, j), ii_map(f, p, j)),),
}


def identity_holds(f: Fibre, kind: str, r: int, p: int, j: int = 0) -> bool:
    """Does the identity ``kind`` hold out of CH^p(Y^{(r)}, j)?  Decided once
    per fibre, with no map built out of a zero space and no product taken
    of a pair with a zero factor."""
    verdicts = _index(f).verdicts
    key = (kind, r, p, j)
    if key not in verdicts:
        pairs = _IDENTITIES[kind](f, r, p, j) if build_level(f, r, p, j).total else ()
        terms = [a * b for a, b in pairs if not (a.is_zero() or b.is_zero())]
        verdicts[key] = not terms or sum(terms[1:], terms[0]).is_zero()
    return verdicts[key]


def require_identity(f: Fibre, kind: str, r: int, p: int, j: int = 0) -> None:
    """identity_holds(), or DescriptorError naming the identity that fails."""
    if not identity_holds(f, kind, r, p, j):
        raise DescriptorError(f"{kind} != 0 at level {r}, codim {p}, j {j}")


class ValidationReport(_Record):
    """``failures`` lists (identity, r, p, j) for each identity that fails."""

    __slots__ = _fields = ("failures", "checked")

    def __init__(self, failures: tuple[tuple[str, int, int, int], ...], checked: int):
        self._assign(failures, checked)

    @property
    def ok(self) -> bool:
        return not self.failures


# The identities validate() reports, each with the lowest source level at
# which it avoids level 0: gamma^2 needs two steps down to stay positive,
# rho^2 is safe from level 1 up (overshooting the deepest stratum just hits
# zero spaces), and the anticommutator needs level >= 2 so that the
# rho-after-gamma route never passes through the ambient model.
_VALIDATED = (("gamma.gamma", 3), ("rho.rho", 1), ("gamma.rho+rho.gamma", 2))


def validate(f: Fibre) -> ValidationReport:
    """Check the sign identities wherever they avoid the excluded level 0."""
    failures = []
    checked = 0
    js = f.observed_js() or (0,)
    max_r = f.max_level
    for j in js:
        for p in range(0, f.dim_y + 2):
            for kind, low in _VALIDATED:
                for r in range(low, max_r + 1):
                    if build_level(f, r, p, j).total:
                        checked += 1
                        if not identity_holds(f, kind, r, p, j):
                            failures.append((kind, r, p, j))
    return ValidationReport(tuple(failures), checked)


# ---------------------------------------------------------------------------
# Built-in generators.


def generator_ngon(n: int, q_v: int) -> Fibre:
    """Cycle of n rational curves (the Kodaira I_n shape).

    For n = 2 the two nodes share the stratum (1, 2), which then carries a
    two-dimensional CH^0.
    """
    if n < 2:
        raise DescriptorError("an n-gon needs at least two components")
    comps = list(range(1, n + 1))
    node_pairs: list[Stratum] = []
    for i in range(1, n):
        node_pairs.append((i, i + 1))
    node_pairs.append((1, n) if n > 2 else (1, 2))
    # count nodes per index pair (only n = 2 collapses)
    counts: dict[Stratum, int] = {}
    for pair in node_pairs:
        counts[pair] = counts.get(pair, 0) + 1
    strata: list[Stratum] = [(i,) for i in comps] + sorted(counts)
    chow: dict[tuple[Stratum, int, int], int] = {}
    for i in comps:
        chow[((i,), 0, 0)] = 1
        chow[((i,), 1, 0)] = 1
    for pair, c in counts.items():
        chow[(pair, 0, 0)] = c
    push: dict[tuple[Stratum, int, int, int], Mat] = {}
    pull: dict[tuple[Stratum, int, int, int], Mat] = {}
    for pair, c in counts.items():
        ones_row = Mat.from_rows([[1] * c], cols=c)
        ones_col = Mat.from_rows([[1]] * c, cols=1)
        for u in (1, 2):
            push[(pair, u, 0, 0)] = ones_row
            pull[(pair, u, 0, 0)] = ones_col
    return Fibre(
        components=n,
        dim_y=1,
        q_v=q_v,
        strata=tuple(strata),
        chow=chow,
        pushforward=push,
        pullback=pull,
    )


def generator_smooth(dims: Mapping[tuple[int, int], int], dim_y: int, q_v: int) -> Fibre:
    """Smooth fibre: one component, no deeper strata, given Chow dimensions."""
    chow = {((1,), p, j): d for (p, j), d in dims.items() if d > 0}
    return Fibre(
        components=1,
        dim_y=dim_y,
        q_v=q_v,
        strata=((1,),),
        chow=chow,
        pushforward={},
        pullback={},
    )
