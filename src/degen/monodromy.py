"""Monodromy double complex of a semistable fibre and its mapping cone.

The triple-indexed space K^{i,j,k} is CH^{(i+j-2k+n)/2}(Y^{(2k-i+1)}) when
k >= max(0, i), the parity works out and the level is positive, and zero
otherwise (n = dim_y).  Three maps act on it:

    d' = rho:        (i, j, k) -> (i+1, j+1, k+1)   restriction, level up
    d'' = -gamma:    (i, j, k) -> (i+1, j+1, k)     Gysin, level down
    N = identity:    (i, j, k) -> (i+2, j, k+1)     same level, shifted twist

The sign rule of d' + d'' lives in ``_total_block`` (rho one level up,
-gamma one level down).  No complex is multiplied out to see d.d = 0:
each block of it is a sign identity of the fibre, which ``total_rows``
and ``build_C`` require (``strata.require_identity``).

For a fixed twist index "star", the degree-q slice along the diagonal
(i, j) = (q - 2*star, q - n) is a cochain complex under d' + d'' (the
"total row").  Solving the side conditions for codim p and level r, the
row at star holds CH^p(Y^{(r)}) in degree q = 2p + r - 1 for
max(0, star - r + 1) <= p <= star and q <= 2n + 2, so ``total_rows``
reads it straight off the levels 1..max_level.

N is the identity on each level summand that the row A at star shares
with the row B at star - 1 (max(0, star - r + 1) <= p <= star - 1); both
rows take their blocks from ``_total_block``, so N d = d N block by block.
Cone(N), A^q + B^{q-1} under (da, Na - db), holds an identity block from
each shared A^q(r, p) to its copy in B^q.  ``cone_of_N`` cancels these
pairs in increasing degree by the Gaussian elimination lemma (Kaczynski,
Mrozek, Slusarek 1998; Skoldberg 2006), a homotopy equivalence: a block e
from w to z of that degree becomes e - g.d, g from A^q(r, p) to z and d
from w to B^q(r, p).  Blocks are kept as signed products, multiplied out
only if they survive.  What survives is A's p = star and B's p = star - r,
one summand a degree: C's spaces, with rho as in C, +gamma for C's -gamma
and the hinge -gamma.rho, C's -i^*i_* when that is composed.  Maps equal
up to sign have equal ranks, so ``check_quasi_iso`` ranks the reduced cone
only where a space or a differential of it is not C's up to sign.
"""

from __future__ import annotations

from .qlinalg import Mat, _placed, _Record, rank
from .strata import Fibre, build_level, composite, gamma, ii_map, require_identity, rho

__all__ = [
    "CochainComplex",
    "cohomology_dims",
    "TwistRow",
    "total_rows",
    "cone_of_N",
    "build_C",
    "QuasiIsoResult",
    "check_quasi_iso",
]


class CochainComplex(_Record):
    """Finitely supported cochain complex; absent degrees are zero, and
    ``diffs[q]`` maps degree q to degree q + 1."""

    __slots__ = _fields = ("dims", "diffs")

    def __init__(self, dims: dict[int, int], diffs: dict[int, Mat]):
        self._assign(dims, diffs)

    def dim(self, q: int) -> int:
        return self.dims.get(q, 0)

    def diff(self, q: int) -> Mat:
        d = self.diffs.get(q)
        if d is None:
            return Mat.zero(self.dim(q + 1), self.dim(q))
        return d

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(q for q, d in self.dims.items() if d > 0))


def cohomology_dims(c: CochainComplex) -> dict[int, int]:
    """Nonzero cohomology dimensions, assuming d.d = 0 holds; each
    differential is ranked once."""
    ranks = {q: rank(d) for q, d in c.diffs.items()}
    h = {q: c.dim(q) - ranks.get(q, 0) - ranks.get(q - 1, 0) for q in c.support()}
    return {q: d for q, d in h.items() if d}


# The identity a d.d block of a twist row is, by its level gap; levels
# further apart in one degree have no path between them.
_ROW_IDENTITIES = {2: "rho.rho", 0: "gamma.rho+rho.gamma", -2: "gamma.gamma"}
# The identity d.d is in the small complex, by the level steps of its two maps.
_SMALL_IDENTITIES = {(-1, -1): "gamma.gamma", (-1, 0): "ii.gamma", (0, 1): "rho.ii",
                     (1, 1): "rho.rho"}


def _total_block(f: Fibre, r: int, t: int, p: int) -> tuple[int, Mat]:
    """Block of d' + d'' from CH^p at level r to level t as (sign, map): rho
    one level up, -gamma one level down (levels further apart: zero)."""
    return (1, rho(f, r, p)) if t == r + 1 else (-1, gamma(f, r, p))


# ---------------------------------------------------------------------------
# Total rows along (i, j) = (q - 2 star, q - n) and the cone of N.


class TwistRow(_Record):
    """One twist's diagonal row of the double complex, totalized over k:
    ``summands`` maps each degree q to its ((level, dim), ...)."""

    __slots__ = _fields = ("star", "summands")

    def __init__(self, star: int, summands: dict[int, tuple[tuple[int, int], ...]]):
        self._assign(star, summands)


def total_rows(f: Fibre, star: int) -> TwistRow:
    """The star-th row's summands, once the sign identities its d.d = 0
    rests on hold."""
    # the window |i|, |j|, |k| <= n + 2 around K cuts only through j = q - n,
    # as |i|, k < r <= n + 1 and q >= 0; the cut q <= 2n + 2 drops nothing
    # but Chow codims past the dimension of their stratum
    top = 2 * f.dim_y + 2
    found: dict[int, list[tuple[int, int]]] = {}
    for r in range(1, f.max_level + 1):
        for p in range(max(0, star - r + 1), min(star, (top + 1 - r) // 2) + 1):
            d = build_level(f, r, p).total
            if d:
                found.setdefault(2 * p + r - 1, []).append((r, d))
    summands = {q: tuple(found[q]) for q in sorted(found)}
    for q, src in summands.items():
        for r, _ in src:
            for t, _ in summands.get(q + 2, ()):
                kind = _ROW_IDENTITIES.get(t - r)
                if kind:
                    require_identity(f, kind, r, (q + 1 - r) // 2)
    return TwistRow(star, summands)


def cone_of_N(f: Fibre, star: int) -> CochainComplex:
    """Cone(N) from the row at star to the row at star - 1, with each pair
    of shared summands cancelled: a complex homotopy equivalent to it."""
    # a summand is (cone degree, side, level), side 0 in row A and 1 in row B
    dims = {}
    for side, row in enumerate((total_rows(f, star), total_rows(f, star - 1))):
        for q, levels in row.summands.items():
            dims.update(((q + side, side, r), d) for r, d in levels)
    blocks: dict[tuple, list[tuple]] = {}  # (target, source) -> [(sign, factor, ...)]
    for q, side, r in dims:  # D = (da, Na - db)
        for t in (r - 1, r + 1):
            if (q + 1, side, t) in dims:
                sign, blk = _total_block(f, r, t, (q - side + 1 - r) // 2)
                blocks[(q + 1, side, t), (q, side, r)] = [((1 - 2 * side) * sign, blk)]
        if side == 0 and (q + 1, 1, r) in dims:
            blocks[(q + 1, 1, r), (q, 0, r)] = [(1, Mat.identity(dims[q, 0, r]))]
    for x, y in sorted((w, z) for z, w in blocks if w[1] < z[1]):  # N's blocks
        if blocks[y, x] != [(1, Mat.identity(dims[x]))]:
            continue  # never met: no correction lands between a pair's summands
        outs = [(z, g) for (z, w), g in blocks.items() if w == x and z != y]
        ins = [(w, d) for (z, w), d in blocks.items() if z == y and w != x]
        blocks = {k: t for k, t in blocks.items() if x not in k and y not in k}
        for z, g in outs:
            for w, d in ins:  # e -= g.d
                blocks.setdefault((z, w), []).extend(
                    (-sg * sd, *fg, *fd) for sg, *fg in g for sd, *fd in d
                )
        del dims[x], dims[y]
    at: dict[int, dict] = {}  # degree -> {survivor: offset}
    size: dict[int, int] = {}
    for u in sorted(dims):
        at.setdefault(u[0], {})[u] = size.get(u[0], 0)
        size[u[0]] = size.get(u[0], 0) + dims[u]
    placed: dict[int, list] = {}
    for (z, w), t in blocks.items():  # every block left joins two survivors
        placed.setdefault(w[0], []).extend(
            (at[z[0]][z], at[w[0]][w], composite(f, *fs), s) for s, *fs in t
        )
    return CochainComplex(size, {q: _placed(size[q + 1], size[q], b) for q, b in placed.items()})


# ---------------------------------------------------------------------------
# The short explicit complex quasi-isomorphic to the cone.


def build_C(f: Fibre, star: int) -> CochainComplex:
    """Explicit small complex matching Cone(N) for this twist.

    Degrees m in [star, 2 star - 1] carry CH^{m-star}(Y^{(2 star - m)})
    with differential -gamma; from degree 2 star on it is CH^{star} of
    increasing levels with differential rho; the hinge between the two
    branches is -i^*i_* on the first level.  Only levels 1..max_level
    can be nonzero, so those are the ones visited, whatever star is.
    """
    top = f.max_level
    # (degree, codim, level) in increasing degree: the -gamma branch walks
    # the level down to 1 at degree 2 star - 1, the rho branch back up
    spaces = [(2 * star - r, star - r, r) for r in range(min(star, top), 0, -1)]
    if star >= 0:
        spaces += [(2 * star + r - 1, star, r) for r in range(1, top + 1)]
    for (_, p, r), (_, _, mid), (_, _, t) in zip(spaces, spaces[1:], spaces[2:]):
        require_identity(f, _SMALL_IDENTITIES[mid - r, t - mid], r, p)
    dims = {m: d for m, p, r in spaces if (d := build_level(f, r, p).total)}
    diffs = {}
    for (m, p, r), (_, _, t) in zip(spaces, spaces[1:]):
        if m not in dims and m + 1 not in dims:
            continue
        sign, blk = (-1, ii_map(f, star - 1)) if m == 2 * star - 1 else _total_block(f, r, t, p)
        diffs[m] = blk if sign > 0 else -blk
    return CochainComplex(dims, diffs)


class QuasiIsoResult(_Record):
    __slots__ = _fields = ("star", "cone_cohomology", "small_cohomology")

    def __init__(self, star: int, cone_cohomology: dict[int, int],
                 small_cohomology: dict[int, int]):
        self._assign(star, cone_cohomology, small_cohomology)

    @property
    def ok(self) -> bool:
        return self.cone_cohomology == self.small_cohomology


def check_quasi_iso(f: Fibre, star: int) -> QuasiIsoResult:
    """Compare the cohomology of Cone(N) with that of the small complex C,
    ranking the reduced cone only where it is not C up to signs."""
    cone, small = cone_of_N(f, star), build_C(f, star)
    h = cohomology_dims(small)
    same = cone.dims == small.dims and all(
        (d := cone.diff(q)) == (c := small.diff(q)) or d == -c
        for q in cone.diffs.keys() | small.diffs.keys()
    )
    return QuasiIsoResult(star, h if same else cohomology_dims(cone), h)
