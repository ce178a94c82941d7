"""Exact linear algebra over Q and Z.

A rational matrix ``Mat`` holds integer numerators over one positive
common denominator (the layout of FLINT's ``fmpq_mat``), and keeps the
numerators sparse: each row is a tuple of ``(column, numerator)`` pairs
in increasing column order, with zeros left out.  The form is reduced:
the denominator shares no factor with all numerators together, and it is
1 for a zero matrix.  Equal matrices therefore have equal fields, and
``==`` and ``hash`` compare them directly.  Products, sums, scaling,
transposes, stacking and zero tests cost time in proportion to the
nonzero entries and use integer arithmetic only.  A scalar goes in as
anything with ``numerator`` and ``denominator`` (an int or a Fraction);
``entries`` is a dense ``Fraction`` view, built on demand, and the only
place this module builds a Fraction.

One assembler, ``_placed``, builds every matrix made of other matrices:
``hstack``, ``block`` and ``+`` work out where their operands go and
hand it signed blocks at offsets, which it sums over the lcm of their
denominators.  Its cost follows the nonzeros of the blocks, not the size
of the grid they sit in.

Rank, reduced row echelon form, kernels, solving, quotient projections
and residues modulo a span all go through one fraction-free sparse
forward elimination (``_eliminate``), which takes no options.  Columns
are taken left to right, each remaining row filed under its leading
column: the rows filed under a column are those with a nonzero there,
the sparsest is the pivot, and the others are updated, divided by their
content (the gcd of their entries), so coefficients stay as small as the
row space allows, and filed again.  Rank counts the pivot rows, and
residues clear pivot columns with them as they are; rref, kernels and
solving back-substitute them in one bottom-up pass (``_reduced_rows``).
The reduced row echelon form of a matrix and the residue of a vector are
unique, so every basis and every coordinate system read off them is
canonical: the same input always yields the identical output object.

On integer Mats (denominator 1) sit finitely presented abelian groups,
with exact kernel and cokernel orders for maps between them.  Each order
is the index of a full-rank integer lattice: one Bareiss elimination
gives its rank and a modulus that the lattice contains times Z^rank, and
the product of the diagonal of a Hermite basis taken modulo it is the
index.  Those two routines read a Mat's dense rows (``_int_rows``);
nothing else of this layer leaves ``Mat``.  No elementary divisor is
computed on its own, and no unimodular transform is built.  Orders are
returned as ``int`` when finite and ``None`` when the group has positive
rank.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from math import gcd, lcm

__all__ = [
    "Mat",
    "rank",
    "rref",
    "kernel_basis",
    "solve",
    "quotient_projection",
    "residues",
    "FPAbelianGroup",
    "AbGroupMap",
    "kernel_cokernel_orders",
]

# One sparse row: (column, numerator) pairs, columns increasing, no zeros.
Row = tuple[tuple[int, int], ...]

# Sets an attribute of a record past its frozen __setattr__.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable value classes.

    A subclass stores its fields in ``__slots__``, names the ones that
    make up its value in ``_fields`` (in constructor order), and sets
    them in its own ``__init__``, with ``_assign`` or, where construction
    is hot, ``_set``.  ``==`` compares those fields, between instances of
    one class only; ``hash`` and ``repr`` are those of the field tuple and
    ``Class(field=value, ...)``, and assigning or deleting any attribute
    raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def _ratio(x) -> tuple[int, int]:
    """An exact scalar, an int or a Fraction, as its reduced (numerator,
    denominator)."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"not an exact scalar: {x!r}") from None


def _scalar(x) -> int | tuple[int, int]:
    """An exact scalar as an int when it is integral, else as its reduced
    (numerator, denominator) pair."""
    if type(x) is int:
        return x
    p, q = _ratio(x)
    return p if q == 1 else (p, q)


def _from_scalars(rows: int, cols: int, items: list[list[tuple[int, int | tuple[int, int]]]]) -> "Mat":
    """Mat from sorted nonzero (column, scalar) rows, each scalar an int or
    a reduced (numerator, denominator > 0) pair.

    The denominator is the lcm of the pairs' denominators, so the result
    is reduced without a gcd pass.  A pair becomes an integer even when
    the lcm is 1 (every pair integral).
    """
    den = 1
    integral = True  # every entry an int
    for row in items:
        for _, x in row:
            if type(x) is not int:
                integral = False
                den = lcm(den, x[1])
    if integral:
        data = tuple(map(tuple, items))
    else:
        data = tuple([
            tuple([
                (j, x * den if type(x) is int else x[0] * (den // x[1]))
                for j, x in row
            ])
            for row in items
        ])
    return Mat(rows, cols, den, data)


def _reduced(rows: int, cols: int, den: int, data: tuple[Row, ...]) -> "Mat":
    """Mat from integer rows over ``den`` > 0, dividing out a common factor."""
    if den != 1:
        g = den
        for row in data:
            if row:
                g = gcd(g, *[x for _, x in row])
                if g == 1:
                    break
        if g != 1:
            den //= g
            data = tuple(tuple((j, x // g) for j, x in row) for row in data)
    return Mat(rows, cols, den, data)


def _placed(rows: int, cols: int, blocks: list[tuple[int, int, "Mat", int]]) -> "Mat":
    """The rows x cols sum of signed blocks, each given as (row offset,
    column offset, block, sign), over the lcm of their denominators.

    Every Mat built from other Mats comes from here.  Entries where blocks
    overlap are summed; the cost follows the nonzeros, not the number of
    (absent) zero blocks.
    """
    den = lcm(*[b._den for _, _, b, _ in blocks])
    acc: list[dict[int, int]] = [{} for _ in range(rows)]
    for r0, c0, b, sign in blocks:
        f = sign * (den // b._den)
        for i, brow in enumerate(b._data, r0):
            if brow:
                out = acc[i]
                for j, x in brow:
                    j += c0
                    out[j] = out.get(j, 0) + f * x
    data = tuple(tuple(sorted((j, x) for j, x in row.items() if x)) for row in acc)
    return _reduced(rows, cols, den, data)


class Mat(_Record):
    """Immutable rational matrix: sparse integer rows over one denominator.

    Build one with the static constructors; ``_den`` and ``_data`` are
    the canonical form described in the module docstring.
    """

    __slots__ = _fields = ("rows", "cols", "_den", "_data")

    def __init__(self, rows: int, cols: int, _den: int, _data: tuple[Row, ...]):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_den", _den)
        _set(self, "_data", _data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        """Build from an iterable of rows; ``cols`` disambiguates 0-row shapes."""
        items = []
        width = None
        for row in rows:
            vals = [_scalar(x) for x in row]
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError(f"ragged rows: widths {width} and {len(vals)}")
            items.append([(j, x) for j, x in enumerate(vals) if x])
        if width is None:
            width = 0 if cols is None else cols
        return _from_scalars(len(items), width, items)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        return Mat(rows, cols, 1, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, 1, tuple(((i, 1),) for i in range(n)))

    @staticmethod
    def hstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("hstack of nothing")
        r = blocks[0].rows
        if any(b.rows != r for b in blocks):
            raise ValueError("hstack: row counts differ")
        return Mat.block([blocks], [r], [b.cols for b in blocks])

    @staticmethod
    def block(grid: Sequence[Sequence["Mat | None"]], row_dims: Sequence[int], col_dims: Sequence[int]) -> "Mat":
        """Assemble from a grid of optional blocks; ``None`` means a zero block.

        The blocks go to ``_placed`` at their offsets, so the cost follows
        their nonzeros, not the number of blocks in the grid.
        """
        r0s = list(accumulate(row_dims, initial=0))
        c0s = list(accumulate(col_dims, initial=0))
        placed = []
        for bi, (r0, rdim) in enumerate(zip(r0s, row_dims)):
            for bj, (c0, cdim) in enumerate(zip(c0s, col_dims)):
                blk = grid[bi][bj]
                if blk is None:
                    continue
                if blk.rows != rdim or blk.cols != cdim:
                    raise ValueError(
                        f"block ({bi},{bj}) has shape {blk.rows}x{blk.cols}, "
                        f"expected {rdim}x{cdim}"
                    )
                placed.append((r0, c0, blk, 1))
        return _placed(r0s[-1], c0s[-1], placed)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense view: a tuple of row tuples of Fractions, built on each
        call.  In the package only ``__iter__`` reads it; it is the
        ``Fraction`` edge of the API, and imports ``fractions`` on first
        use."""
        from fractions import Fraction

        zero = Fraction(0)
        den = self._den
        out = []
        for row in self._data:
            dense = [zero] * self.cols
            for j, x in row:
                dense[j] = Fraction(x, den)
            out.append(tuple(dense))
        return tuple(out)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return _placed(self.rows, self.cols, [(0, 0, self, 1), (0, 0, other, 1)])

    def __neg__(self) -> "Mat":
        return Mat(
            self.rows, self.cols, self._den,
            tuple(tuple((j, -x) for j, x in row) for row in self._data),
        )

    def scale(self, c) -> "Mat":
        p, q = _ratio(c)
        if p == 0:
            return Mat.zero(self.rows, self.cols)
        data = self._data if p == 1 else tuple(
            tuple((j, x * p) for j, x in row) for row in self._data
        )
        return _reduced(self.rows, self.cols, self._den * q, data)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        brows = other._data
        data = []
        for row in self._data:
            acc: dict[int, int] = {}
            for k, a in row:
                for j, b in brows[k]:
                    acc[j] = acc.get(j, 0) + a * b
            data.append(tuple(sorted([(j, x) for j, x in acc.items() if x])))
        return _reduced(self.rows, other.cols, self._den * other._den, tuple(data))

    def transpose(self) -> "Mat":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row:
                cols[j].append((i, x))
        return Mat(self.cols, self.rows, self._den, tuple(map(tuple, cols)))

    def columns(self) -> list["Mat"]:
        out = []
        for col in self.transpose()._data:
            data: list[Row] = [()] * self.rows
            for i, x in col:
                data[i] = ((0, x),)
            out.append(_reduced(self.rows, 1, self._den, tuple(data)))
        return out

    def __iter__(self):
        """The rows of ``entries``, each ``cols`` long.  No code in the
        package iterates a Mat; ``perfbench/tracejob.py`` counts the cells of
        the integral map by its rows, so this stays until it reads
        ``rows * cols``.  It makes ``Mat.from_rows(m)`` a copy of ``m``."""
        return iter(self.entries)

    def is_zero(self) -> bool:
        return not any(self._data)

    def __repr__(self) -> str:  # compact, for test failure messages
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        text, cols = _entry_strings(self), self.cols
        body = "; ".join(" ".join(text[i : i + cols]) for i in range(0, len(text), cols))
        return f"Mat[{body}]"


def _ratio_text(p: int, q: int) -> str:
    """The text ``str(Fraction(p, q))`` gives, for q > 0, without the
    Fraction: the reduced n/d, or n when d is 1."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _entry_strings(m: Mat) -> list[str]:
    """The entries of m in row-major order as the text ``str`` gives their
    Fractions: "0" off the sparse rows, the reduced n/d (or n) on them."""
    den, cols = m._den, m.cols
    out = ["0"] * (m.rows * cols)
    for base, row in zip(range(0, len(out), cols or 1), m._data):
        for j, x in row:
            out[base + j] = str(x) if den == 1 else _ratio_text(x, den)
    return out


# ---------------------------------------------------------------------------
# The one elimination behind rank, rref, kernels, solving, quotients and
# residues.


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by its content, in place."""
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _cancel(row: dict[int, int], prow: dict[int, int], c: int, p: int) -> int:
    """row := (p * row - row[c] * prow) / g in place, with g = +-gcd(p, row[c])
    signed like p; clears column c and returns p / g > 0, the factor that
    multiplied row."""
    a = row.pop(c)
    g = gcd(p, a) if p > 0 else -gcd(p, a)
    mp, ma = p // g, a // g
    if mp != 1:
        for j in row:
            row[j] *= mp
    for j, x in prow.items():
        if j != c:
            y = row.get(j, 0) - ma * x
            if y:
                row[j] = y
            else:
                del row[j]
    return mp


def _eliminate(m: Mat) -> tuple[list[int], list[dict[int, int]]]:
    """Fraction-free sparse forward elimination on the integer rows of ``m``.

    Each remaining row is filed under its leading column, and columns are
    taken left to right, so the rows filed under a column are those with
    a nonzero there.  The sparsest of them, the earliest row of ``m`` on
    ties, is the pivot; every other one is combined with it to clear the
    column, divided by its content and filed again.  Returns the pivot columns
    and the pivot rows: primitive integer rows as column -> value dicts,
    each zero before its pivot column, so an echelon basis of the row
    space.  Rank counts them, ``_residues`` clears columns with them as
    they are, and ``_reduced_rows`` back-substitutes them.
    """
    filed: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for i, row in enumerate(m._data):
        if row:
            filed.setdefault(row[0][0], []).append((i, _primitive(dict(row))))
    pivots: list[int] = []
    done: list[dict[int, int]] = []
    for c in range(m.cols):
        if not filed:
            break
        hits = filed.pop(c, None)
        if hits is None:
            continue
        _, prow = min(hits, key=lambda hit: (len(hit[1]), hit[0]))
        p = prow[c]
        for i, row in hits:
            if row is not prow:
                _cancel(row, prow, c, p)
                if row:
                    filed.setdefault(min(_primitive(row)), []).append((i, row))
        pivots.append(c)
        done.append(prow)
    return pivots, done


def _reduced_rows(m: Mat) -> tuple[list[int], int, list[dict[int, int]]]:
    """The reduced row echelon form of ``m``: its pivot columns, a common
    denominator, and the numerator rows over it, each holding the
    denominator at its pivot.

    ``_eliminate``'s pivot rows are back-substituted in one bottom-up
    pass: each clears the later pivot columns it holds with the rows below
    it, which are already reduced and so zero at every other pivot column,
    and is divided by its content again.
    """
    pivots, done = _eliminate(m)
    below: dict[int, dict[int, int]] = {}  # pivot column -> reduced row
    for c, row in zip(reversed(pivots), reversed(done)):
        for j in row.keys() & below.keys():
            _cancel(row, below[j], j, below[j][j])
            _primitive(row)
        below[c] = row
    den = 1
    for row, p in zip(done, pivots):
        den = lcm(den, row[p])
    return pivots, den, [
        {j: x * (den // row[p]) for j, x in row.items()} for row, p in zip(done, pivots)
    ]


def rank(m: Mat) -> int:
    """Rank over Q."""
    return len(_eliminate(m)[0])


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    pivots, den, rows = _reduced_rows(m)
    data = [tuple(sorted(row.items())) for row in rows]
    data += [()] * (m.rows - len(data))
    return _reduced(m.rows, m.cols, den, tuple(data)), tuple(pivots)


def kernel_basis(m: Mat) -> Mat:
    """Canonical basis of the right kernel, one column per free variable.

    The basis vector for free column f has entry 1 at f and the negated
    reduced column above the pivots, the standard echelon-form kernel.
    """
    pivots, den, rows = _reduced_rows(m)
    pivset = set(pivots)
    free = {f: k for k, f in enumerate(j for j in range(m.cols) if j not in pivset)}
    data: list[Row] = [()] * m.cols
    for f, k in free.items():
        data[f] = ((k, den),)
    for p, row in zip(pivots, rows):
        data[p] = tuple((free[j], -x) for j, x in sorted(row.items()) if j != p)
    return _reduced(m.cols, len(free), den, tuple(data))


def solve(a: Mat, b: Mat) -> Mat | None:
    """One rational solution of a X = b (columnwise), or None if inconsistent.

    ``[a | b]`` is reduced over all its columns; the system is
    inconsistent exactly when a pivot lands in b's columns.  Free
    variables are set to zero, so the solution is canonical.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    n = a.cols
    pivots, den, rows = _reduced_rows(Mat.hstack([a, b]))
    if pivots and pivots[-1] >= n:
        return None
    data: list[Row] = [()] * n
    for p, row in zip(pivots, rows):
        data[p] = tuple((j - n, x) for j, x in sorted(row.items()) if j >= n)
    return _reduced(n, b.cols, den, tuple(data))


def quotient_projection(modulo: Mat) -> Mat:
    """Canonical projection of the ambient space onto coordinates for
    ``Q^n / span(columns of modulo)``.

    Returns a (n - rank) x n matrix whose kernel is exactly the span: the
    row for each non-pivot position f of the echelon form of the span is
    e_f minus the reduced column at f placed on the pivots, so the
    projection is the transposed kernel basis of ``modulo^T``.
    """
    return kernel_basis(modulo.transpose()).transpose()


def _residues(vectors: Mat, pivots: list[int], done: list[dict[int, int]]) -> Mat:
    """``residues`` of ``vectors`` modulo the span whose transpose
    ``_eliminate`` gave ``pivots`` and ``done``."""
    cols = []  # (integer column, its scale): the residue is column / (scale * den)
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


def residues(vectors: Mat, modulo: Mat) -> Mat:
    """The canonical representative of each column of ``vectors`` modulo
    the column span of ``modulo``: the one vector of its coset that is zero
    at every pivot column of the echelon form of that span.

    One forward elimination of ``modulo`` transposed gives the pivot rows;
    each is zero before its pivot, so clearing the pivots of a column in
    increasing order leaves the cleared ones zero.  The rank of the
    residues is the dimension of the image of span(vectors) in the
    quotient by span(modulo).
    """
    if vectors.rows != modulo.rows:
        raise ValueError("ambient dimensions differ")
    return _residues(vectors, *_eliminate(modulo.transpose()))


# ---------------------------------------------------------------------------
# Integer matrices and finitely presented abelian groups.


def _int_mat(m, rows: int, cols: int | None = None) -> Mat:
    """The integer Mat whose rows are ``m``: ``rows`` of them, each of
    ``cols`` entries when that is given, else all of one length.  An entry
    that is not an int (a bool, a float, a Fraction) is a ValueError naming
    its row and column."""
    out = [list(row) for row in m]
    for i, row in enumerate(out):
        if not {*map(type, row)} <= {int}:
            j, x = next((j, x) for j, x in enumerate(row) if type(x) is not int)
            raise ValueError(f"integer matrix entry ({i}, {j}) is {x!r}, not an int")
    if len(out) != rows:
        raise ValueError("integer matrix has wrong number of rows")
    widths = {*map(len, out)}
    if cols is None:  # relations: one column per relation, however many
        if len(widths) > 1:
            raise ValueError("ragged relations matrix")
        cols = widths.pop() if widths else 0
    elif widths - {cols}:
        raise ValueError("integer matrix has ragged or wrong-width rows")
    return Mat(rows, cols, 1, tuple([tuple([(j, x) for j, x in enumerate(r) if x]) for r in out]))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _bareiss(m: Mat) -> tuple[int, list[int]]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Columns are taken left to right, and a column's pivot is its entry of
    least magnitude among the remaining rows.  After k pivots, remaining
    entry (i, j) is the (k+1)-minor on the pivot rows and row i and on the
    pivot columns and column j.  Returns (modulus, pivot rows); the rank r
    is the number of pivots.  The modulus is the gcd of the last pivot row,
    whose entries are r-minors (the last pivot among them), so it is
    nonzero and the gcd of all r-minors divides it.  It is 1 when r = 0.  When r is the row count, the column lattice contains
    modulus * Z^r, by the adjugates of the r x r minors.
    """
    rows = [(i, row) for i, row in enumerate(_int_rows(m)) if any(row)]
    prev = modulus = 1
    prows: list[int] = []
    for c in range(m.cols):
        # each remaining row holds its columns from c on; earlier ones are zero
        if not rows:
            break
        hits = [k for k, (_, row) in enumerate(rows) if row[0]]
        if not hits:
            rows = [(i, row[1:]) for i, row in rows]
            continue
        i0, top = rows.pop(min(hits, key=lambda k: abs(rows[k][1][0])))
        p, tail = top[0], top[1:]
        modulus = gcd(*top)
        step = []
        for i, row in rows:
            x = row[0]
            if x:
                new = [(p * y - x * z) // prev for y, z in zip(row[1:], tail)]
            elif p == prev:
                new = row[1:]
            else:
                new = [p * y // prev for y in row[1:]]
            if any(new):
                step.append((i, new))
        rows, prev = step, p
        prows.append(i0)
    return modulus, prows


def _hermite_mod(gens: list[list[int]], e: int, mod: int) -> list[list[int]]:
    """A lower triangular basis, as columns, of the lattice in Z^e spanned
    by ``gens``, which must contain mod * Z^e.

    Hermite normal form modulo the determinant (Domich, Kannan and
    Trotter 1987; Cohen, "A Course in Computational Algebraic Number
    Theory", Algorithm 2.4.8), row by row from the top: extended-gcd steps
    gather row i of the generators into one column, whose gcd g with the
    running modulus R is the diagonal entry.  The lattice's part below row
    i then contains (R/g) Z^(e-i-1), so R becomes R/g and every entry stays
    reduced modulo it.
    """
    basis = []
    work = [c for c in ([x % mod for x in g] for g in gens) if any(c)]
    for i in range(e):
        piv = None
        rest = []
        for col in work:
            if not col[i]:
                rest.append(col)
            elif piv is None:
                piv = col
            else:
                a, b = piv[i], col[i]
                g, s, t = _xgcd(a, b)
                ag, bg = a // g, b // g
                other = [(ag * y - bg * x) % mod for x, y in zip(piv, col)]
                piv = [(s * x + t * y) % mod for x, y in zip(piv, col)]
                if any(other):
                    rest.append(other)
        g, s, _ = _xgcd(piv[i] if piv else 0, mod)
        h = [s * x % mod for x in piv] if piv else [0] * e
        h[i] = g
        basis.append(h)
        mod //= g
        work = [c for c in ([x % mod for x in col] for col in rest) if any(c)]
    return basis


def _rank_and_index(m: Mat) -> tuple[int, int | None]:
    """Rank of the lattice spanned by the columns of ``m``, and its index
    in Z^rows when that rank is the row count, else None.

    The index is the product of the diagonal of the lattice's Hermite basis,
    taken modulo the ``_bareiss`` modulus.  When the columns are independent
    too, the matrix is square, its last pivot row is the one entry +-det and
    the modulus is the index; a modulus of 1 is an index of 1.
    """
    modulus, prows = _bareiss(m)
    r = len(prows)
    if r < m.rows:
        return r, None
    if r == m.cols or modulus == 1:
        return r, modulus
    index = 1
    for i, h in enumerate(_hermite_mod(_int_rows(m.transpose()), r, modulus)):
        index *= h[i]
    return r, index


def _int_rows(m: Mat) -> list[list[int]]:
    """Dense integer rows of a Mat with integer entries."""
    if m._den != 1:
        raise ValueError("not an integer matrix")
    out = [[0] * m.cols for _ in range(m.rows)]
    for row, data in zip(out, m._data):
        for j, x in data:
            row[j] = x
    return out


def _relation_basis(rel: Mat) -> Mat:
    """A matrix whose columns are a Z-basis of the lattice spanned by the
    columns of ``rel``: ``rel`` itself when they are independent.

    Otherwise take the Hermite basis H, modulo the ``_bareiss`` modulus, of
    the lattice on the pivot rows I, where the projection is injective, and
    lift it back as rel X for a solution X of rel[I, :] X = H.
    """
    modulus, prows = _bareiss(rel)
    e = len(prows)
    if e == rel.cols:
        return rel
    on_pivots = Mat(e, rel.cols, 1, tuple(rel._data[i] for i in sorted(prows)))
    h = _hermite_mod(_int_rows(on_pivots.transpose()), e, modulus)
    h = Mat.from_rows(h, cols=e).transpose()
    if e == rel.rows:
        return h
    return rel * solve(on_pivots, h)


class FPAbelianGroup(_Record):
    """Z^generators modulo the column span of the integer matrix
    ``relations``, one row per generator and one column per relation."""

    __slots__ = _fields = ("relations",)

    def __init__(self, relations: Mat):
        self._assign(relations)

    @staticmethod
    def make(generators: int, relations) -> "FPAbelianGroup":
        return FPAbelianGroup(_int_mat(relations, generators))

    @property
    def generators(self) -> int:
        return self.relations.rows


class AbGroupMap(_Record):
    """Map between finitely presented abelian groups, given on generators
    (``matrix`` is target.generators x source.generators), checked when
    built to send source relations into target relations.

    ``relation_coords`` is the ``_relation_coords`` of that check; it takes
    no part in ``==``, ``hash`` or ``repr``, and unpickling takes it again.
    """

    __slots__ = ("source", "target", "matrix", "relation_coords")
    _fields = ("source", "target", "matrix")

    def __init__(self, source: FPAbelianGroup, target: FPAbelianGroup, matrix: Mat):
        self._assign(source, target, matrix)
        _set(self, "relation_coords", _relation_coords(self))

    @staticmethod
    def make(source: FPAbelianGroup, target: FPAbelianGroup, matrix) -> "AbGroupMap":
        """The map of the nested int lists ``matrix``."""
        return AbGroupMap(source, target, _int_mat(matrix, target.generators, source.generators))


def _relation_coords(f: AbGroupMap) -> tuple[Mat, Mat, Mat]:
    """(R_s', R_t', N): Z-bases R_s', R_t' of the lattices the source and
    the target relations span, as columns, and the integer N with
    R_t' N = M R_s'.

    R_t' has independent columns, so N is unique when it exists, and it is
    integral exactly when the lattice contains the image M R_s of the
    source relations; otherwise ValueError.
    """
    rs = _relation_basis(f.source.relations)
    rt = _relation_basis(f.target.relations)
    n = solve(rt, f.matrix * rs)
    if n is None or n._den != 1:
        raise ValueError("matrix does not send source relations into target relations")
    return rs, rt, n


def kernel_cokernel_orders(f: AbGroupMap) -> tuple[int | None, int | None]:
    """Exact orders of ker(f) and of coker(f) = target / (image + target
    relations), each None when that group has positive rank, as indices of
    full-rank lattices.

    With R_s', R_t' and N from ``f.relation_coords`` (s' and e columns),
    the columns of b = [M | R_t'] span im f plus the target relations, so
    the cokernel is finite iff b has full row rank, and its order is then
    the index of b's column lattice.  The mapping cone a = [R_s'; -N]
    followed by b has b a = 0 and first homology ker_Z(b) / im(a) = ker f.
    ker_Z(b) is saturated of rank g_s + e - rank b and a has s' independent
    columns, so ker f is finite iff s' equals that rank, and its order is
    then the product of a's elementary divisors: the index of a's row
    lattice in Z^s'.
    """
    rs, rt, n = f.relation_coords
    b = Mat.hstack([f.matrix, rt])
    rank_b, coker = _rank_and_index(b)
    if rs.cols != b.cols - rank_b:
        return None, coker
    return _rank_and_index(Mat.hstack([rs.transpose(), -n.transpose()]))[1], coker
