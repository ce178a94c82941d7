"""Independent oracles the test suite checks the library against.

Everything here is deliberately written along different lines than the
implementation: dense Fraction grids for matrix arithmetic and
elimination, Euclid over Fraction polynomials for rational functions,
Smith forms with their unimodular transforms by elementary operations,
group orders by coset enumeration, Laurent leading terms by truncated
power series in u = L*(s - a), cochain complexes with known cohomology by
conjugating direct sums of elementary pieces, bundle text by json's
own indent encoder over the dense entries.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd, lcm

from degen.qlinalg import (
    AbGroupMap,
    FPAbelianGroup,
    Mat,
    Row,
    _Record,
    _cancel,
    _primitive,
    _reduced,
    rank,
    solve,
)


# ---------------------------------------------------------------------------
# Dense Fraction linear algebra: the grid-of-Fractions routines that the
# sparse integer core in ``degen.qlinalg`` replaced, kept as the reference
# it is compared against.  A matrix here is a tuple of row tuples of
# Fractions, the shape of ``Mat.entries``.

Grid = tuple[tuple[Fraction, ...], ...]


def dense_add(a: Grid, b: Grid) -> Grid:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_scale(a: Grid, c) -> Grid:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def dense_transpose(a: Grid, cols: int) -> Grid:
    return tuple(tuple(row[j] for row in a) for j in range(cols))


def dense_mul(a: Grid, b: Grid, inner: int, cols: int) -> Grid:
    bt = dense_transpose(b, cols)
    assert all(len(row) == inner for row in a)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a
    )


def dense_rank(a: Grid, cols: int) -> int:
    """Bareiss elimination on an integer-scaled copy, first nonzero pivot."""
    rows = []
    for row in a:
        mult = 1
        for x in row:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        rows.append([int(x * mult) for x in row])
    nr = len(rows)
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, cols):
                rows[i][j] = (rows[i][j] * rows[r][c] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
        if r == nr:
            break
    return r


def dense_rref(a: Grid, cols: int) -> tuple[Grid, tuple[int, ...]]:
    """Gauss-Jordan over Fractions: reduced row echelon form and pivots."""
    rows = [list(row) for row in a]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def dense_kernel_basis(a: Grid, cols: int) -> Grid:
    """Columns e_f - sum_i R[i][f] e_{p_i}, one per free column f."""
    r, pivots = dense_rref(a, cols)
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return dense_transpose(tuple(tuple(v) for v in basis), cols)


def dense_solve(a: Grid, b: Grid, a_cols: int, b_cols: int) -> Grid | None:
    aug = tuple(ra + rb for ra, rb in zip(a, b))
    r, pivots = dense_rref(aug, a_cols + b_cols)
    if any(p >= a_cols for p in pivots):
        return None
    sol = [[Fraction(0)] * b_cols for _ in range(a_cols)]
    for i, p in enumerate(pivots):
        sol[p] = list(r[i][a_cols:])
    return tuple(tuple(row) for row in sol)


def dense_quotient_projection(modulo: Grid, rows: int, cols: int) -> Grid:
    r, pivots = dense_rref(dense_transpose(modulo, cols), rows)
    out = []
    for f in (j for j in range(rows) if j not in pivots):
        row = [Fraction(0)] * rows
        row[f] = Fraction(1)
        for i, p in enumerate(pivots):
            row[p] = -r[i][f]
        out.append(tuple(row))
    return tuple(out)


def dense_quotient_dim(vectors: Grid, modulo: Grid, v_cols: int, m_cols: int) -> int:
    stacked = tuple(rm + rv for rm, rv in zip(modulo, vectors))
    return dense_rank(stacked, m_cols + v_cols) - dense_rank(modulo, m_cols)


def residue_reduction(modulo: Mat) -> Mat:
    """Ambient endomorphism sending v to its canonical representative mod
    the column span of ``modulo``: v minus sum_i v[p_i] * (reduced echelon
    row i of the span), so the result is zero at every pivot p_i and
    equivalent vectors get equal outputs.  The projector that cycle classes
    were once reduced by; ``degen.qlinalg.residues`` must agree with it."""
    n = modulo.rows
    r, pivots = dense_rref(dense_transpose(modulo.entries, modulo.cols), n)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for row, p in zip(r, pivots):
        for i in range(n):
            out[i][p] -= row[i]
    return Mat.from_rows(out, cols=n)


# ---------------------------------------------------------------------------
# The sparse elimination that reduced inside its forward loop: the
# ``_eliminate(m, reduce, limit)`` that ``degen.qlinalg`` replaced by a
# flag-free forward pass plus back-substitution, with rref, kernels,
# solving and residues on top of it as they were.  The library must give
# the identical Mats.


def flagged_eliminate(
    m: Mat, reduce: bool, limit: int | None = None
) -> tuple[list[int], list[dict[int, int]], list[dict[int, int]]]:
    """Columns before ``limit`` (default: all) left to right, the sparsest
    row as pivot; with ``reduce`` every earlier pivot row is cleared at
    the new pivot column as well.  Returns the pivot columns, the pivot
    rows and the remaining nonzero rows."""
    active = [_primitive(dict(row)) for row in m._data if row]
    pivots: list[int] = []
    done: list[dict[int, int]] = []
    for c in range(m.cols if limit is None else limit):
        if not active:
            break
        hits = [i for i, row in enumerate(active) if c in row]
        if not hits:
            continue
        k = min(hits, key=lambda i: len(active[i]))
        prow = active[k]
        p = prow[c]
        touched = [active[i] for i in hits if i != k]
        if reduce:
            touched += [row for row in done if c in row]
        for row in touched:
            _cancel(row, prow, c, p)
            if row:
                _primitive(row)
        active = [row for i, row in enumerate(active) if i != k and row]
        pivots.append(c)
        done.append(prow)
    return pivots, done, active


def _over_pivots(done: list[dict[int, int]], pivots: list[int]) -> tuple[int, list[dict[int, int]]]:
    den = 1
    for row, p in zip(done, pivots):
        den = lcm(den, row[p])
    return den, [
        {j: x * (den // row[p]) for j, x in row.items()} for row, p in zip(done, pivots)
    ]


def flagged_rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    pivots, done, _ = flagged_eliminate(m, reduce=True)
    den, rows = _over_pivots(done, pivots)
    data = [tuple(sorted(row.items())) for row in rows]
    data += [()] * (m.rows - len(data))
    return _reduced(m.rows, m.cols, den, tuple(data)), tuple(pivots)


def flagged_kernel_basis(m: Mat) -> Mat:
    pivots, done, _ = flagged_eliminate(m, reduce=True)
    den, rows = _over_pivots(done, pivots)
    pivset = set(pivots)
    free = {f: k for k, f in enumerate(j for j in range(m.cols) if j not in pivset)}
    data: list[Row] = [()] * m.cols
    for f, k in free.items():
        data[f] = ((k, den),)
    for p, row in zip(pivots, rows):
        data[p] = tuple((free[j], -x) for j, x in sorted(row.items()) if j != p)
    return _reduced(m.cols, len(free), den, tuple(data))


def flagged_solve(a: Mat, b: Mat) -> Mat | None:
    n = a.cols
    pivots, done, rest = flagged_eliminate(Mat.hstack([a, b]), reduce=True, limit=n)
    if rest:
        return None
    den, rows = _over_pivots(done, pivots)
    data: list[Row] = [()] * n
    for p, row in zip(pivots, rows):
        data[p] = tuple((j - n, x) for j, x in sorted(row.items()) if j >= n)
    return _reduced(n, b.cols, den, tuple(data))


def flagged_residues(vectors: Mat, modulo: Mat) -> Mat:
    pivots, done, _ = flagged_eliminate(modulo.transpose(), reduce=False)
    cols = []
    for col in vectors.transpose()._data:
        v = dict(col)
        scale = 1
        for c, prow in zip(pivots, done):
            if c in v:
                scale *= _cancel(v, prow, c, prow[c])
        cols.append((v, scale))
    den = lcm(*[s for _, s in cols])
    data = tuple(tuple(sorted((j, x * (den // s)) for j, x in v.items())) for v, s in cols)
    return _reduced(vectors.cols, vectors.rows, vectors._den * den, data).transpose()


# ---------------------------------------------------------------------------
# The scanning elimination: ``_eliminate`` and ``_reduced_rows`` of
# ``degen.qlinalg`` as they were before rows were filed by leading column.
# The forward pass scans every remaining row at every column and rebuilds
# the remaining list; back-substitution clears each pivot column from all
# the rows above it.  The library must return the identical pivot
# columns, pivot rows and reduced rows.


def scanning_eliminate(m: Mat) -> tuple[list[int], list[dict[int, int]]]:
    active = [_primitive(dict(row)) for row in m._data if row]
    pivots: list[int] = []
    done: list[dict[int, int]] = []
    for c in range(m.cols):
        if not active:
            break
        hits = [i for i, row in enumerate(active) if c in row]
        if not hits:
            continue
        k = min(hits, key=lambda i: len(active[i]))
        prow = active[k]
        p = prow[c]
        for i in hits:
            row = active[i]
            if row is not prow:
                _cancel(row, prow, c, p)
                if row:
                    _primitive(row)
        active = [row for i, row in enumerate(active) if i != k and row]
        pivots.append(c)
        done.append(prow)
    return pivots, done


def scanning_reduced_rows(m: Mat) -> tuple[list[int], int, list[dict[int, int]]]:
    pivots, done = scanning_eliminate(m)
    for k in range(len(done) - 1, 0, -1):
        c, prow = pivots[k], done[k]
        p = prow[c]
        for row in done[:k]:
            if c in row:
                _cancel(row, prow, c, p)
                _primitive(row)
    den = 1
    for row, p in zip(done, pivots):
        den = lcm(den, row[p])
    return pivots, den, [
        {j: x * (den // row[p]) for j, x in row.items()} for row, p in zip(done, pivots)
    ]


def det_int(m: list[list[int]]) -> int:
    """Cofactor-expansion determinant for the small matrices used in tests."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_int(minor)
    return total


def column(values) -> Mat:
    """A one-column Mat."""
    return Mat.from_rows([[v] for v in values], cols=1)


def apply(m: Mat, vec) -> tuple[Fraction, ...]:
    """m times a plain vector, as a plain tuple of Fractions."""
    return tuple(row[0] for row in (m * column(vec)).entries)


class SmithForm(_Record):
    """d = u @ a @ v with u, v unimodular and d diagonal, d_1 | d_2 | ..."""

    __slots__ = _fields = ("u", "d", "v")

    def __init__(self, u, d, v):
        self._assign(u, d, v)

    @property
    def diag(self) -> tuple[int, ...]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diag if x != 0)


def smith_with_transforms(a) -> SmithForm:
    """Smith normal form d = u @ a @ v with both unimodular transforms, by
    elementary row and column operations on the whole matrix.

    Deterministic: the pivot is the smallest-magnitude nonzero entry of
    the remaining block, earliest position on ties.  The divisibility
    chain is enforced inside the main loop: a pivot is only accepted once
    it divides every entry of the remaining block.
    """
    m = [list(map(int, row)) for row in a]
    nr = len(m)
    nc = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, f):  # row i -= f * row j
        m[i] = [x - f * y for x, y in zip(m[i], m[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col i -= f * col j
        for row in m + v:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m + v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(m[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                row_op(i, t, m[i][t] // m[t][t])
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                col_op(j, t, m[t][j] // m[t][t])
                if m[t][j]:
                    dirty = True
        if dirty:
            continue  # nonzero remainders are smaller than the pivot; re-pick
        offender = next(
            (i for i in range(t + 1, nr) for j in range(t + 1, nc) if m[i][j] % m[t][t]),
            None,
        )
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row in and redo
            continue
        t += 1

    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            for row in m + v:
                row[i] = -row[i]

    return SmithForm(
        tuple(tuple(r) for r in u), tuple(tuple(r) for r in m), tuple(tuple(r) for r in v)
    )


def int_rows(m: Mat) -> list[list[int]]:
    """The dense rows of an integer Mat as lists of int, read off ``entries``."""
    entries = m.entries
    assert all(x.denominator == 1 for row in entries for x in row)
    return [[int(x) for x in row] for row in entries]


def _int_inverse(u: tuple[tuple[int, ...], ...]) -> Mat:
    n = len(u)
    inv = solve(Mat.from_rows(u, cols=n), Mat.identity(n))
    assert inv is not None
    assert all(x.denominator == 1 for row in inv.entries for x in row)
    return inv


def group_elements(g: FPAbelianGroup) -> list[tuple[int, ...]]:
    """Coset representatives of a finite group with square nonsingular relations."""
    if g.generators == 0:
        return [()]
    sf = smith_with_transforms(int_rows(g.relations))
    diag = sf.diag
    assert len(diag) == g.generators and all(d != 0 for d in diag)
    uinv = _int_inverse(sf.u)
    return [
        tuple(int(v) for v in apply(uinv, coords))
        for coords in itertools.product(*(range(d) for d in diag))
    ]


def in_relation_lattice(g: FPAbelianGroup, vec) -> bool:
    """vec lies in the column lattice of g's relations: u vec is divisible
    by the Smith diagonal, and zero where the diagonal is."""
    sf = smith_with_transforms(int_rows(g.relations))
    diag = sf.diag
    uv = apply(Mat.from_rows(sf.u, cols=g.generators), vec)
    return all(
        (x % diag[i] == 0) if i < len(diag) and diag[i] else x == 0
        for i, x in enumerate(uv)
    )


def transform_group_order(g: FPAbelianGroup) -> int | None:
    """Order of g from its Smith form with transforms, None when infinite."""
    sf = smith_with_transforms(int_rows(g.relations))
    if sf.rank < g.generators:
        return None
    out = 1
    for x in sf.diag:
        out *= x
    return out


def brute_kernel_order(f: AbGroupMap) -> int:
    count = 0
    for x in group_elements(f.source):
        fx = tuple(int(v) for v in apply(f.matrix, x))
        if in_relation_lattice(f.target, fx):
            count += 1
    return count


def brute_cokernel_order(f: AbGroupMap) -> int:
    tgt = f.target
    if tgt.generators == 0:
        return 1
    sf = smith_with_transforms(int_rows(tgt.relations))
    diag = sf.diag
    u = Mat.from_rows(sf.u, cols=tgt.generators)

    def canon(vec):
        return tuple(int(v) % d for v, d in zip(apply(u, vec), diag))

    image = {canon(tuple(int(v) for v in apply(f.matrix, x))) for x in group_elements(f.source)}
    order = 1
    for d in diag:
        order *= d
    return order // len(image)


def transform_orders(f: AbGroupMap) -> tuple[int | None, int | None]:
    """(kernel order, cokernel order) read off transform-carrying Smith forms.

    The cokernel comes from the diagonal of [M | R_t].  The preimage
    lattice K = {x : M x in L(R_t)} is the x-part of the columns of that
    form's v over its zero diagonal; a Z-basis of K is the nonzero columns
    of K v' for the v' of a second Smith form; ker f = K / L(R_s) is read
    off a third form, of the coordinates of R_s in that basis.
    """
    ga, gb = f.source.generators, f.target.generators
    if gb == 0:
        coker, kgens = 1, [[int(i == j) for j in range(ga)] for i in range(ga)]
    else:
        sf = smith_with_transforms(
            [m + t for m, t in zip(int_rows(f.matrix), int_rows(f.target.relations))]
        )
        diag = sf.diag
        coker = None
        if sf.rank == gb:
            coker = 1
            for x in diag[:gb]:
                coker *= x
        free = [j for j in range(len(sf.v)) if j >= len(diag) or diag[j] == 0]
        kgens = [[sf.v[i][j] for j in free] for i in range(ga)]
    if ga == 0:
        return 1, coker
    width = len(kgens[0])
    if width == 0:
        return 1, coker
    vk = Mat.from_rows(kgens, cols=width) * Mat.from_rows(smith_with_transforms(kgens).v, cols=width)
    basis = [c for c in vk.columns() if not c.is_zero()]
    if not basis:
        return 1, coker
    coords = solve(Mat.hstack(basis), f.source.relations)
    assert coords is not None
    sf = smith_with_transforms(int_rows(coords))
    if sf.rank < len(basis):
        return None, coker
    out = 1
    for x in sf.diag[: len(basis)]:
        out *= x
    return out, coker


def random_finite_group(rng: random.Random, max_order: int = 64) -> FPAbelianGroup:
    """A finite group presented by a random square nonsingular relation matrix."""
    while True:
        g = rng.randint(1, 3)
        rel = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(g)]
        d = abs(det_int(rel))
        if 0 < d <= max_order:
            return FPAbelianGroup.make(g, rel)


def random_group_map(rng: random.Random, a: FPAbelianGroup, b: FPAbelianGroup) -> AbGroupMap:
    """A random homomorphism built in Smith coordinates, then pulled back."""
    sfa = smith_with_transforms(int_rows(a.relations))
    sfb = smith_with_transforms(int_rows(b.relations))
    da, db = sfa.diag, sfb.diag
    h = [
        [rng.randint(-2, 2) * (db[j] // gcd(db[j], da[i])) for i in range(a.generators)]
        for j in range(b.generators)
    ]
    ub_inv = _int_inverse(sfb.u)
    ua = Mat.from_rows(sfa.u, cols=a.generators)
    m = ub_inv * Mat.from_rows(h, cols=a.generators) * ua
    return AbGroupMap.make(a, b, int_rows(m))


# ---------------------------------------------------------------------------
# Prime powers by trial division, the check that ``strata.is_prime_power``
# (integer roots plus Miller-Rabin) replaced.


def trial_prime_power(n: int) -> bool:
    """n = p^k (p prime, k >= 1) by trial division up to sqrt(n)."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


# ---------------------------------------------------------------------------
# Fraction polynomial arithmetic: the Euclid-over-Q routines that the
# integer polynomial arithmetic in ``degen.lfun`` replaced, kept as the
# reference it is compared against.  A polynomial is a tuple of Fraction
# coefficients in ascending order; a rational function is a (num, den)
# pair, reduced with a monic denominator as ``RatFunc`` stores it.

FPoly = tuple[Fraction, ...]


def frac_trim(p) -> FPoly:
    out = [Fraction(x) for x in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (Fraction(0),)


def _fis_zero(p: FPoly) -> bool:
    return all(c == 0 for c in p)


def frac_mul(a: FPoly, b: FPoly) -> FPoly:
    if _fis_zero(a) or _fis_zero(b):
        return (Fraction(0),)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_trim(out)


def frac_divmod(a: FPoly, b: FPoly) -> tuple[FPoly, FPoly]:
    if _fis_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = list(frac_trim(a))
    b = frac_trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while not _fis_zero(tuple(a)) and len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a = list(frac_trim(a))
    return frac_trim(q), frac_trim(a)


def frac_gcd(a: FPoly, b: FPoly) -> FPoly:
    """Monic gcd by Euclid over Q; (0,) when both are zero."""
    a, b = frac_trim(a), frac_trim(b)
    while not _fis_zero(b):
        a, b = b, frac_divmod(a, b)[1]
    if _fis_zero(a):
        return (Fraction(0),)
    return tuple(c / a[-1] for c in a)


def ratfunc_div(f, g):
    """f / g for ``RatFunc``s: f times the reciprocal that ``RatFunc.make``
    builds from g's Fraction coefficients, so ZeroDivisionError when g is
    the zero function."""
    from degen.lfun import RatFunc

    return f * RatFunc.make(g.den, g.num)


def frac_eval(p: FPoly, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def frac_make(num, den) -> tuple[FPoly, FPoly]:
    """num/den reduced, with a monic denominator."""
    n, d = frac_trim(num), frac_trim(den)
    if _fis_zero(d):
        raise ZeroDivisionError("zero denominator")
    if _fis_zero(n):
        return (Fraction(0),), (Fraction(1),)
    g = frac_gcd(n, d)
    n, d = frac_divmod(n, g)[0], frac_divmod(d, g)[0]
    lead = d[-1]
    return tuple(c / lead for c in n), tuple(c / lead for c in d)


def frac_strip_S(f: tuple[FPoly, FPoly], factors) -> tuple[FPoly, FPoly]:
    """f divided by each factor in turn, reducing after every division."""
    num, den = f
    for fn, fd in factors:
        num, den = frac_make(frac_mul(num, fd), frac_mul(den, fn))
    return num, den


def _frac_multiplicity(p: FPoly, t0: Fraction) -> tuple[int, FPoly]:
    count = 0
    while not _fis_zero(p) and frac_eval(p, t0) == 0:
        p = frac_divmod(p, (-t0, Fraction(1)))[0]
        count += 1
    return count, p


def frac_leading(f: tuple[FPoly, FPoly], q: int, a: int) -> tuple[int, Fraction]:
    """(order, leading coefficient) at s = a; the log power equals the order."""
    t0 = Fraction(q) ** (-a)
    mn, num = _frac_multiplicity(f[0], t0)
    md, den = _frac_multiplicity(f[1], t0)
    d = mn - md
    return d, frac_eval(num, t0) / frac_eval(den, t0) * (-t0) ** d


def frac_functional_equation(f: tuple[FPoly, FPoly], q: int, w: int):
    """(sign, alpha, beta) with f(1/(q^w t)) = sign q^alpha t^beta f(t), or None."""
    num, den = f
    if _fis_zero(num):
        return None
    c = Fraction(q) ** w

    def reverse_scaled(p):
        deg = len(p) - 1
        return frac_trim(p[deg - i] * c**i for i in range(deg + 1))

    shift = (len(den) - 1) - (len(num) - 1)
    rat_num = frac_mul(reverse_scaled(num), den)
    rat_den = frac_mul(reverse_scaled(den), num)
    mono = (Fraction(0),) * abs(shift) + (c ** abs(shift),)
    if shift >= 0:
        rat_num = frac_mul(rat_num, mono)
    else:
        rat_den = frac_mul(rat_den, mono)
    rn, rd = frac_make(rat_num, rat_den)
    nt = [(k, x) for k, x in enumerate(rn) if x != 0]
    dt = [(k, x) for k, x in enumerate(rd) if x != 0]
    if len(nt) != 1 or len(dt) != 1:
        return None
    r = nt[0][1] / dt[0][1]
    sign = 1 if r > 0 else -1
    r = abs(r)
    alpha = 0
    while r.numerator % q == 0:
        r /= q
        alpha += 1
    while r.denominator % q == 0:
        r *= q
        alpha -= 1
    if r != 1:
        return None
    return sign, alpha, nt[0][0] - dt[0][0]


def mat_char_poly_det(frob: Mat) -> list[Fraction]:
    """det(I - frob * u) ascending in u, by Faddeev-LeVerrier on ``Mat``
    products and the dense trace, the route ``lfun`` took before it ran
    on integer numerator rows."""
    n = frob.rows
    coeffs = [Fraction(1)]
    m = Mat.zero(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = frob * (m + Mat.identity(n).scale(c))
        c = -Fraction(sum(m.entries[i][i] for i in range(n)), k)
        coeffs.append(c)
    return coeffs


# ---------------------------------------------------------------------------
# Laurent expansion oracle for rational functions of t = q^{-s}.
#
# Near s = a put u = log(q) * (s - a); then t = t0 * exp(-u) with t0 = q^{-a}.
# Expanding numerator and denominator of Z(t) as series in u gives the order
# and the leading coefficient of Z at s = a as exact rationals: if
# Z = c_d u^d + ..., the leading term of Z in (s - a) is c_d log(q)^d (s-a)^d.

_TRUNC = 20


def _exp_series(scale: Fraction, terms: int = _TRUNC) -> list[Fraction]:
    # series of exp(scale * u)
    out = [Fraction(1)]
    fact = 1
    power = Fraction(1)
    for k in range(1, terms):
        fact *= k
        power *= scale
        out.append(power / fact)
    return out


def _series_mul(a: list[Fraction], b: list[Fraction], terms: int = _TRUNC) -> list[Fraction]:
    out = [Fraction(0)] * terms
    for i, x in enumerate(a[:terms]):
        if x == 0:
            continue
        for j, y in enumerate(b[: terms - i]):
            out[i + j] += x * y
    return out


def _poly_series_at(coeffs: list[Fraction], t0: Fraction, terms: int = _TRUNC) -> list[Fraction]:
    # series in u of P(t0 * exp(-u)) for P with the given ascending coefficients
    neg_exp = _exp_series(Fraction(-1), terms)
    out = [Fraction(0)] * terms
    tk_exp = [Fraction(1)] + [Fraction(0)] * (terms - 1)  # exp(-k u), starting k=0
    t0k = Fraction(1)
    for c in coeffs:
        if c != 0:
            for i in range(terms):
                out[i] += c * t0k * tk_exp[i]
        t0k *= t0
        tk_exp = _series_mul(tk_exp, neg_exp, terms)
    return out


def series_leading(
    num: list[Fraction], den: list[Fraction], q: int, a: int
) -> tuple[int, Fraction, int]:
    """(order, coefficient, log power) of num/den in t at s = a via u-series.

    The leading term of the function near s = a is
    coefficient * (log q)^{log_power} * (s - a)^{order}.
    """
    t0 = Fraction(1, q) ** a
    ns = _poly_series_at(num, t0)
    ds = _poly_series_at(den, t0)
    nv = next((i for i, x in enumerate(ns) if x != 0), None)
    dv = next((i for i, x in enumerate(ds) if x != 0), None)
    assert nv is not None and dv is not None, "series truncation too short"
    order = nv - dv
    coeff = ns[nv] / ds[dv]
    return order, coeff, order


def random_marked_ratfunc(rng: random.Random, q: int):
    """Random rational function with prescribed-order behaviour at t = 1, 1/q, q.

    Built multiplicatively from linear markers and benign extra factors, so
    the true order at each marker is the chosen exponent by construction.
    """
    from degen.lfun import RatFunc

    f = RatFunc.make([rng.choice([1, 2, -1, Fraction(1, 2)])], [1])
    markers = [Fraction(1), Fraction(1, q), Fraction(q)]
    for t0 in markers:
        e = rng.randint(-2, 2)
        lin = RatFunc.make([-t0, 1], [1])
        for _ in range(abs(e)):
            f = f * lin if e > 0 else ratfunc_div(f, lin)
    if rng.random() < 0.5:
        f = f * RatFunc.make([Fraction(-2, 3), 1], [1])
    if rng.random() < 0.5:
        f = f * RatFunc.make([1], [1, 1, 1])  # no roots at the markers
    return f


# ---------------------------------------------------------------------------
# Random cochain complexes with known cohomology.
#
# Start from a direct sum of elementary pieces in fixed degrees: identity
# two-term complexes 0 -> Q -> Q -> 0 (no cohomology) and singletons Q in
# one degree (one dimension of cohomology).  Conjugating each degree by an
# invertible matrix preserves d^2 = 0 and all cohomology dimensions.


def random_invertible(rng: random.Random, n: int) -> Mat:
    while True:
        m = Mat.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)],
            cols=n,
        )
        if rank(m) == n:
            return m


def random_known_complex(
    rng: random.Random, lo: int = -2, hi: int = 4
) -> tuple[dict[int, int], dict[int, Mat], dict[int, int]]:
    """Return (dims, differentials, cohomology dims) for a random complex.

    differentials[k] maps degree k to degree k+1.
    """
    degrees = list(range(lo, hi + 1))
    dims = {k: 0 for k in degrees}
    # slots[k] lists, per basis vector in degree k, where it maps:
    # ("id", target_index_in_k+1) or ("zero",)
    id_pairs: dict[int, list[tuple[int, int]]] = {k: [] for k in degrees}
    coh = {k: 0 for k in degrees}
    for _ in range(rng.randint(0, 6)):
        k = rng.choice(degrees)
        if k + 1 <= hi and rng.random() < 0.6:
            src = dims[k]
            tgt = dims[k + 1]
            dims[k] += 1
            dims[k + 1] += 1
            id_pairs[k].append((src, tgt))
        else:
            dims[k] += 1
            coh[k] += 1
    diffs: dict[int, Mat] = {}
    for k in degrees[:-1]:
        d = Mat.zero(dims[k + 1], dims[k])
        if id_pairs[k]:
            rows = [list(r) for r in d.entries]
            for src, tgt in id_pairs[k]:
                rows[tgt][src] = Fraction(1)
            d = Mat.from_rows(rows, cols=dims[k])
        diffs[k] = d
    # conjugate: new_d_k = P_{k+1} d_k P_k^{-1}
    ps = {k: random_invertible(rng, dims[k]) for k in degrees}
    p_invs = {k: solve(ps[k], Mat.identity(dims[k])) for k in degrees}
    out_diffs = {}
    for k in degrees[:-1]:
        out_diffs[k] = ps[k + 1] * diffs[k] * p_invs[k]
    return dims, out_diffs, coh


# ---------------------------------------------------------------------------
# The small complex of ``monodromy.build_C`` built degree by degree: every
# degree m in [star, 2 star + dim_y + 1] is visited, whatever the fibre's
# levels.  ``build_C`` now walks the fibre's levels instead; this is the
# reference it is compared against.


def degree_walk_build_C(f, star: int):
    from degen.monodromy import CochainComplex
    from degen.strata import build_level, gamma, ii_map, rho

    n = f.dim_y
    dims = {}
    spaces = {}
    lo = star
    hi = 2 * star + n + 1
    for m in range(lo, hi + 1):
        if m <= 2 * star - 1:
            p, r = m - star, 2 * star - m
        else:
            p, r = star, m - 2 * star + 1
        if p < 0 or r < 1:
            continue
        d = build_level(f, r, p).total
        if d:
            dims[m] = d
        spaces[m] = (p, r, d)
    diffs = {}
    for m in range(lo, hi):
        if m not in spaces or (m + 1) not in spaces:
            continue
        p, r, d = spaces[m]
        _, _, d2 = spaces[m + 1]
        if d == 0 and d2 == 0:
            continue
        if m <= 2 * star - 2:
            diffs[m] = gamma(f, r, p).scale(-1)
        elif m == 2 * star - 1:
            diffs[m] = ii_map(f, star - 1).scale(-1)
        else:
            diffs[m] = rho(f, r, p)
    return CochainComplex(dims, diffs)


# ---------------------------------------------------------------------------
# The full mapping cone of N, which ``monodromy.cone_of_N`` no longer
# assembles: each twist row as an explicit complex, its blocks taken from
# ``monodromy._total_block``, and the cone of the identity blocks between
# the rows at star and star - 1.  ``cone_of_N`` cancels N's identity blocks
# instead; this is the reference it is compared against.


def mapping_cone(f_maps: dict, source, target):
    """Cone of a chain map f: Cone^q = A^q + B^{q-1}, D(a,b) = (da, fa - db).
    f d = d f is taken as given; an absent degree of ``f_maps`` is zero."""
    from degen.monodromy import CochainComplex

    dims, diffs = {}, {}
    for q in set(source.dims) | {q + 1 for q in target.dims}:
        dims[q] = source.dim(q) + target.dim(q - 1)
        diffs[q] = Mat.block(
            [[source.diff(q), None], [f_maps.get(q), -target.diff(q - 1)]],
            [source.dim(q + 1), target.dim(q)], [source.dim(q), target.dim(q - 1)],
        )
    return CochainComplex({q: d for q, d in dims.items() if d}, diffs)


def row_complex(f, row):
    """The twist row ``row`` of ``f`` as a cochain complex under d' + d''."""
    from degen.monodromy import CochainComplex, _total_block

    dims = {q: sum(d for _, d in s) for q, s in row.summands.items()}
    diffs = {}
    for q, src in row.summands.items():
        tgt = row.summands.get(q + 1, ())
        if not tgt:
            continue
        signed = [[_total_block(f, sr, tr, (q + 1 - sr) // 2) if abs(tr - sr) == 1 else None
                   for sr, _ in src] for tr, _ in tgt]
        grid = [[b and (b[1] if b[0] > 0 else -b[1]) for b in row] for row in signed]
        diffs[q] = Mat.block(grid, [d for _, d in tgt], [d for _, d in src])
    return CochainComplex(dims, diffs)


def cone_pieces(f, source_row, target_row):
    """(N's maps by degree, source complex, target complex) of the cone of
    N from the row at star to the row at star - 1."""
    if target_row.star != source_row.star - 1:
        raise ValueError("monodromy connects twist star to star - 1")
    n_maps = {}
    for q in set(source_row.summands) | set(target_row.summands):
        src = source_row.summands.get(q, ())
        tgt = target_row.summands.get(q, ())
        if not src or not tgt:
            continue
        grid = [[Mat.identity(sd) if tr == sr else None for sr, sd in src] for tr, _ in tgt]
        n_maps[q] = Mat.block(grid, [d for _, d in tgt], [d for _, d in src])
    return n_maps, row_complex(f, source_row), row_complex(f, target_row)


def full_cone_of_N(f, source_row, target_row):
    """The full cone of the monodromy chain map from the row at star to
    star - 1."""
    return mapping_cone(*cone_pieces(f, source_row, target_row))


# ---------------------------------------------------------------------------
# The twist rows of ``monodromy.total_rows`` read off the window
# |i|, |j|, |k| <= bound of the triple-indexed complex K^{i,j,k}: each piece
# from its indices, each row by probing every (q, k) the window holds.
# ``total_rows`` reads the rows straight off the levels instead; this is
# the reference it is compared against.


def window_codim_level(f, bound: int, i: int, j: int, k: int):
    """(codim, level) of K^{i,j,k} in the window, or None when the piece is
    zero: outside the window, k < max(0, i), level below 1, odd parity or
    negative codim."""
    if max(abs(i), abs(j), abs(k)) > bound or k < max(0, i):
        return None
    r = 2 * k - i + 1
    num = i + j - 2 * k + f.dim_y
    if r < 1 or num % 2 or num < 0:
        return None
    return num // 2, r


def windowed_row_summands(f, star: int, bound: int) -> dict:
    """{q: ((level, dim), ...)} of the row at star: the nonzero pieces on
    the diagonal (i, j) = (q - 2 star, q - dim_y), levels ascending."""
    from degen.strata import build_level

    out = {}
    for q in range(f.dim_y - bound, f.dim_y + bound + 1):
        found = []
        for k in range(-bound, bound + 1):  # the level 2k - i + 1 ascends with k
            pl = window_codim_level(f, bound, q - 2 * star, q - f.dim_y, k)
            if pl is not None:
                p, r = pl
                d = build_level(f, r, p).total
                if d:
                    found.append((r, d))
        if found:
            out[q] = tuple(found)
    return out


# ---------------------------------------------------------------------------
# The Fraction routes that the integer parse, the integer block assembly
# and the rank-once cohomology replaced: ``_number`` decoding every
# non-integer string with ``Fraction``, ``_assemble`` summing signed
# blocks entry by entry in a dict of Fractions, and ``cohomology_dims``
# ranking both differentials at every degree.


def fraction_number(value, where: str):
    """A rational from JSON: int() first, else Fraction(value), with the
    decimal-exponent limit."""
    from degen.bundle import _EXPONENT, MAX_DECIMAL_EXPONENT, BundleError

    if isinstance(value, bool):
        raise BundleError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        exponent = re.search(_EXPONENT, value)
        if exponent is not None:
            try:
                too_big = abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT
            except ValueError:
                too_big = True
            if too_big:
                raise BundleError(
                    f"{where}: decimal exponent in {value[:40]!r} exceeds "
                    f"{MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BundleError(f"{where}: bad rational {value!r}") from exc
    raise BundleError(f"{where}: expected a rational as string or integer")


def fraction_assemble(f, r: int, p: int, j: int, mode: str) -> Mat:
    """gamma ("push") or rho ("pull") out of CH^p(Y^{(r)}, j), summed entry
    by entry as Fractions, without the fibre's map index."""
    from degen.strata import build_level

    src = build_level(f, r, p, j)
    if mode == "push":
        tgt = build_level(f, r - 1, p + 1, j)
        blocks = f.pushforward
        outer, inner = src, tgt
    else:
        tgt = build_level(f, r + 1, p, j)
        blocks = f.pullback
        outer, inner = tgt, src
    grid = [[Fraction(0)] * src.total for _ in range(tgt.total)]
    for stratum, _ in outer.pieces:
        for u in range(1, len(stratum) + 1):
            other = stratum[: u - 1] + stratum[u:]
            if inner.dim_of(other) == 0:
                continue
            block = blocks[(stratum, u, p, j)]
            if mode == "push":
                r0, c0 = tgt.offset(other), src.offset(stratum)
            else:
                r0, c0 = tgt.offset(stratum), src.offset(other)
            for i, row in enumerate(block.entries):
                for k, x in enumerate(row):
                    grid[r0 + i][c0 + k] += (-1) ** (u - 1) * x
    return Mat.from_rows(grid, cols=src.total)


def fraction_ii_map(f, p: int, j: int = 0) -> Mat:
    """i^*i_* from the explicit matrix, else gamma . rho of fraction_assemble."""
    explicit = f.ii_matrices.get((p, j))
    if explicit is not None:
        return explicit
    return fraction_assemble(f, 2, p, j, "push") * fraction_assemble(f, 1, p, j, "pull")


def two_rank_cohomology_dims(c) -> dict[int, int]:
    """dim - rank(d^q) - rank(d^{q-1}) at every degree of the support."""
    out = {}
    for q in c.support():
        h = c.dim(q) - rank(c.diff(q)) - rank(c.diff(q - 1))
        if h:
            out[q] = h
    return out


def euler_characteristic(c) -> int:
    """Alternating sum of the dimensions of a cochain complex."""
    return sum((-1) ** q * d for q, d in c.dims.items())


# ---------------------------------------------------------------------------
# The checks ``monodromy`` ran on every complex before the fibre's sign
# identities decided them: d.d multiplied out in every degree, and f d = d f
# for a chain map f.  An absent differential or map is zero.


def squares_to_zero(c) -> bool:
    """Has every differential its shape, and is d.d = 0 in every degree?"""
    if any((d.rows, d.cols) != (c.dim(q + 1), c.dim(q)) for q, d in c.diffs.items()):
        return False
    return all((c.diff(q + 1) * c.diff(q)).is_zero() for q in c.support())


def is_chain_map(f_maps: dict, source, target) -> bool:
    """Has every map of ``f_maps`` its shape, and is f d = d f in every degree?"""
    def f_at(q):
        m = f_maps.get(q)
        return Mat.zero(target.dim(q), source.dim(q)) if m is None else m

    if any((m.rows, m.cols) != (target.dim(q), source.dim(q)) for q, m in f_maps.items()):
        return False
    return all(
        f_at(q + 1) * source.diff(q) == target.diff(q) * f_at(q)
        for q in set(source.dims) | set(target.dims)
    )


# ---------------------------------------------------------------------------
# The route ``bundle.dumps`` replaced: json's pure-Python indent encoder,
# over entry strings read off the dense ``Mat.entries`` view.


def json_text(data) -> str:
    """Canonical bundle text of a JSON tree, by ``json.dumps``."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def dense_entry_strings(m: Mat) -> list[str]:
    """The entries of m in row-major order, as ``str`` of their Fractions."""
    return [str(x) for row in m.entries for x in row]


def dense_dumps(b) -> str:
    """``bundle.dumps(b)`` by the old route: every matrix's entries off the
    dense view, and the text by ``json.dumps``."""
    from unittest import mock  # imports asyncio, so not at module level

    from degen import bundle

    with mock.patch.object(bundle, "_entry_strings", dense_entry_strings):
        return json_text(bundle._bundle_to_json(b))


# ---------------------------------------------------------------------------
# The command line: the argparse parser that ``degen.cli._parse`` replaced,
# kept verbatim as the reference grammar.  argparse (and the gettext it
# loads) is imported here, not at module level, so importing the oracles
# costs the benchmark's workload set-up nothing.


def argparse_parser():
    """The old ``degen`` parser: ``parse_args`` exits 3 on a usage error
    and 0 after printing help."""
    import argparse

    from degen.bundle import MAX_TWIST
    from degen.workbench import CONJECTURES

    class _Parser(argparse.ArgumentParser):
        """argparse exits with 2 on usage errors; we reserve 2 for
        inconclusive runs, so remap to 3."""

        def error(self, message):
            self.exit(3, f"{self.prog}: error: {message}\n")

    def _twist(text: str) -> int:
        """An integer no larger than MAX_TWIST in magnitude, as params.a/q_coh."""
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if abs(value) > MAX_TWIST:
            raise argparse.ArgumentTypeError(f"exceeds {MAX_TWIST} in magnitude")
        return value

    def _build_parser() -> _Parser:
        parser = _Parser(
            prog="degen",
            description="Exact checks for semistable degenerations: fibre "
            "identities, monodromy complexes, and L-function leading values.",
        )
        parser.add_argument(
            "--tsv",
            action="store_true",
            help="machine-readable output: check, place, verdict, value",
        )
        parser.add_argument(
            "--strict",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="reject unknown keys in bundle files (default: on)",
        )
        sub = parser.add_subparsers(dest="command", required=True)

        p = sub.add_parser("validate", help="check the sign identities of every fibre")
        p.add_argument("file")

        p = sub.add_parser(
            "dim-theorem",
            help="compare group dimensions with local L-factor vanishing orders",
        )
        p.add_argument("file")
        p.add_argument("--q", type=_twist, default=None, help="cohomological degree")
        p.add_argument("--a", type=_twist, default=None, help="twist")

        p = sub.add_parser("check", help="run one of the conjecture checks")
        p.add_argument("conjecture", choices=CONJECTURES)
        p.add_argument("file")

        p = sub.add_parser(
            "complex", help="build the small complex and report its cohomology"
        )
        p.add_argument("file")
        p.add_argument("--q", type=int, default=None, help="degree to report")
        p.add_argument("--star", type=int, default=None, help="twist of the complex")

        p = sub.add_parser(
            "quasi-iso",
            help="compare Cone(N) cohomology with the small complex",
        )
        p.add_argument("file")
        p.add_argument(
            "--star",
            type=int,
            default=None,
            help="single twist (default: sweep 0..dim+2)",
        )

        p = sub.add_parser("example", help="write a built-in example bundle")
        p.add_argument("name")
        p.add_argument(
            "params",
            nargs="*",
            metavar="key=value",
            help="integer parameters, e.g. q=3 or n=5",
        )
        p.add_argument("-o", "--output", default=None, help="output path (default: <name>.json)")

        return parser

    return _build_parser()
