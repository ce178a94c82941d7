"""Monodromy double complex of a semistable fibre and its mapping cone.

The triple-indexed space K^{i,j,k} is CH^{(i+j-2k+n)/2}(Y^{(2k-i+1)}) when
k >= max(0, i), the parity works out and the level is positive, and zero
otherwise (n = dim_y).  Three maps act on it:

    d' = rho:        (i, j, k) -> (i+1, j+1, k+1)   restriction, level up
    d'' = -gamma:    (i, j, k) -> (i+1, j+1, k)     Gysin, level down
    N = identity:    (i, j, k) -> (i+2, j, k+1)     same level, shifted twist

The sign rule of d' + d'' lives in ``_total_block`` (rho one level up,
-gamma one level down); ``total_rows`` and ``build_C`` take blocks from it.
Neither multiplies out d.d: each block of it is a sign identity of the
fibre, which they require (``strata.require_identity``).

For a fixed twist index "star", the degree-q slice along the diagonal
(i, j) = (q - 2*star, q - n) is a cochain complex under d' + d'' (the
"total row").  Solving the side conditions for codim p and level r, the
row at star holds CH^p(Y^{(r)}) in degree q = 2p + r - 1 for
max(0, star - r + 1) <= p <= star and q <= 2n + 2, so ``total_rows``
reads it straight off the levels 1..max_level.  N is a degree-zero chain map from the row at
star to the row at star - 1, given by identity blocks on the shared level
summands.  The cohomology of Cone(N) computes the v-adic weight spectral
bookkeeping, and it agrees with a short explicit complex built from gamma,
i^*i_* and rho (check_quasi_iso verifies the agreement instance by
instance).  Both rows take their blocks from ``_total_block``, so
N d = d N holds block by block and is not checked.
"""

from __future__ import annotations

from .qlinalg import Mat, _Record, rank
from .strata import Fibre, _index, build_level, gamma, ii_map, require_identity, rho

__all__ = [
    "CochainComplex",
    "cohomology_dims",
    "mapping_cone",
    "TwistRow",
    "total_rows",
    "cone_of_N",
    "build_C",
    "QuasiIsoResult",
    "check_quasi_iso",
]


class CochainComplex(_Record):
    """Finitely supported cochain complex; absent degrees are zero.

    ``diffs[q]`` maps degree q to degree q + 1.
    """

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
    out = {}
    for q in c.support():
        h = c.dim(q) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        if h:
            out[q] = h
    return out


def mapping_cone(
    f_maps: dict[int, Mat], source: CochainComplex, target: CochainComplex
) -> CochainComplex:
    """Cone of a chain map f: Cone^q = A^q + B^{q-1}, D(a,b) = (da, fa - db).
    f d = d f is taken as given; an absent degree of ``f_maps`` is zero."""
    dims, diffs = {}, {}
    for q in set(source.dims) | {q + 1 for q in target.dims}:
        dims[q] = source.dim(q) + target.dim(q - 1)
        diffs[q] = Mat.block(
            [[source.diff(q), None], [f_maps.get(q), -target.diff(q - 1)]],
            [source.dim(q + 1), target.dim(q)], [source.dim(q), target.dim(q - 1)],
        )
    return CochainComplex({q: d for q, d in dims.items() if d}, diffs)


# The identity a d.d block of a twist row is, by its level gap; levels
# further apart in one degree have no path between them.
_ROW_IDENTITIES = {2: "rho.rho", 0: "gamma.rho+rho.gamma", -2: "gamma.gamma"}
# The identity d.d is in the small complex, by the level steps of its two maps.
_SMALL_IDENTITIES = {(-1, -1): "gamma.gamma", (-1, 0): "ii.gamma", (0, 1): "rho.ii",
                     (1, 1): "rho.rho"}


def _total_block(f: Fibre, r: int, t: int, p: int) -> Mat | None:
    """Block of d' + d'' from CH^p at level r to level t: rho one level up,
    -gamma one level down, None (a zero block) otherwise."""
    if t == r + 1:
        return rho(f, r, p)
    if t == r - 1:
        return -gamma(f, r, p)
    return None


# ---------------------------------------------------------------------------
# Total rows along (i, j) = (q - 2 star, q - n) and the cone of N.


class TwistRow(_Record):
    """One twist's diagonal row of the double complex, totalized over k.

    ``summands`` maps each degree q to its ((level, dim), ...).
    """

    __slots__ = _fields = ("star", "summands", "complex")

    def __init__(
        self, star: int, summands: dict[int, tuple[tuple[int, int], ...]],
        complex: CochainComplex,
    ):
        self._assign(star, summands, complex)

    def levels_at(self, q: int) -> tuple[tuple[int, int], ...]:
        return self.summands.get(q, ())


def total_rows(f: Fibre, star: int) -> TwistRow:
    """Realize the star-th row as an explicit cochain complex, once per
    fibre and star; a row whose identities fail is not kept."""
    rows: dict[int, TwistRow] = _index(f).twist_rows
    row = rows.get(star)
    if row is None:
        row = rows[star] = _build_row(f, star)
    return row


def _build_row(f: Fibre, star: int) -> TwistRow:
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
    dims = {q: sum(d for _, d in s) for q, s in summands.items()}
    diffs = {}
    for q, src in summands.items():
        tgt = summands.get(q + 1, ())
        if not tgt:
            continue
        grid = [
            [_total_block(f, sr, tr, (q + 1 - sr) // 2) for sr, _ in src] for tr, _ in tgt
        ]
        diffs[q] = Mat.block(grid, [d for _, d in tgt], [d for _, d in src])
    return TwistRow(star, summands, CochainComplex(dims, diffs))


def cone_of_N(source_row: TwistRow, target_row: TwistRow) -> CochainComplex:
    """Cone of the monodromy chain map from the row at star to star - 1."""
    if target_row.star != source_row.star - 1:
        raise ValueError("monodromy connects twist star to star - 1")
    n_maps = {}
    degrees = set(source_row.summands) | set(target_row.summands)
    for q in degrees:
        src = source_row.levels_at(q)
        tgt = target_row.levels_at(q)
        if not src or not tgt:
            continue
        grid = [[Mat.identity(sd) if tr == sr else None for sr, sd in src] for tr, _ in tgt]
        n_maps[q] = Mat.block(grid, [d for _, d in tgt], [d for _, d in src])
    # N is the identity on shared summands, so N d = d N block by block;
    # with both rows' identities decided, D.D = 0 needs no product
    return mapping_cone(n_maps, source_row.complex, target_row.complex)


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
        if m == 2 * star - 1:
            diffs[m] = -ii_map(f, star - 1)
        else:
            diffs[m] = _total_block(f, r, t, p)
    return CochainComplex(dims, diffs)


class QuasiIsoResult(_Record):
    __slots__ = _fields = ("star", "focus_q", "cone_cohomology", "small_cohomology")

    def __init__(
        self, star: int, focus_q: int, cone_cohomology: dict[int, int],
        small_cohomology: dict[int, int],
    ):
        self._assign(star, focus_q, cone_cohomology, small_cohomology)

    @property
    def ok(self) -> bool:
        return self.cone_cohomology == self.small_cohomology


def check_quasi_iso(f: Fibre, q: int, star: int) -> QuasiIsoResult:
    """Compare cohomology of Cone(N) with the explicit small complex."""
    cone = cone_of_N(total_rows(f, star), total_rows(f, star - 1))
    small = build_C(f, star)
    return QuasiIsoResult(
        star=star,
        focus_q=q,
        cone_cohomology=cohomology_dims(cone),
        small_cohomology=cohomology_dims(small),
    )
