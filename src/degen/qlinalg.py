"""Exact linear algebra over Q and Z.

A rational matrix ``Mat`` holds integer numerators over one positive
common denominator (the layout of FLINT's ``fmpq_mat``), and keeps the
numerators sparse: each row is a tuple of ``(column, numerator)`` pairs
in increasing column order, with zeros left out.  The form is reduced:
the denominator shares no factor with all numerators together, and it is
1 for a zero matrix.  Equal matrices therefore have equal fields, and
``==`` and ``hash`` compare them directly.  Products, sums, scaling,
transposes, stacking and zero tests cost time in proportion to the
nonzero entries and use integer arithmetic only; ``entries`` is a dense
``Fraction`` view, built on demand.

Rank, reduced row echelon form, kernels, solving and quotient
projections all go through one fraction-free sparse elimination
(``_eliminate``).  Columns are taken left to right.  The pivot is the
sparsest remaining row with a nonzero in the column, only rows with a
nonzero there are updated, and every updated row is divided by its
content (the gcd of its entries), so coefficients stay as small as the
row space allows.  The reduced row echelon form of a matrix is unique,
so every basis and every coordinate system read off it is canonical:
the same input always yields the identical output object.

Integer matrices (plain nested lists/tuples of int) get a Smith normal
form with unimodular transforms, and on top of that finitely presented
abelian groups with exact kernel and cokernel orders for maps between
them.  Orders are returned as ``int`` when finite and ``None`` when the
group has positive rank.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Mat",
    "rank",
    "rref",
    "kernel_basis",
    "solve",
    "quotient_projection",
    "quotient_dim",
    "SmithForm",
    "smith_normal_form",
    "FPAbelianGroup",
    "AbGroupMap",
    "kernel_order",
    "cokernel_order",
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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact scalar: {x!r}")


def _scalar(x) -> int | Fraction:
    """An exact scalar as an int when it is integral, else a Fraction."""
    if isinstance(x, int):
        return int(x)
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


def _from_scalars(rows: int, cols: int, items: list[list[tuple[int, int | Fraction]]]) -> "Mat":
    """Mat from sorted nonzero (column, scalar) rows.

    The denominator is the lcm of the entries' reduced denominators, so
    the result is reduced without a gcd pass.
    """
    den = 1
    for row in items:
        for _, x in row:
            if type(x) is not int:
                den = lcm(den, x.denominator)
    if den == 1:
        data = tuple(tuple(row) for row in items)
    else:
        data = tuple(
            tuple(
                (j, x * den if type(x) is int else x.numerator * (den // x.denominator))
                for j, x in row
            )
            for row in items
        )
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


def _stack(cols: int, bands: list[tuple[int, list["Mat"]]]) -> "Mat":
    """Assemble bands of side-by-side blocks, given top to bottom as
    (height, blocks left to right), over the lcm of their denominators.

    Each block is reduced and a zero block has denominator 1, so the
    result is reduced as well.
    """
    den = 1
    for _, blocks in bands:
        for b in blocks:
            den = lcm(den, b._den)
    data: list[Row] = []
    for height, blocks in bands:
        if len(blocks) == 1 and blocks[0]._den == den:
            data.extend(blocks[0]._data)
            continue
        for i in range(height):
            row: list[tuple[int, int]] = []
            c0 = 0
            for b in blocks:
                f = den // b._den
                row.extend((c0 + j, x * f) for j, x in b._data[i])
                c0 += b.cols
            data.append(tuple(row))
    return Mat(sum(h for h, _ in bands), cols, den, tuple(data))


def _combine(a: "Mat", b: "Mat", sign: int) -> "Mat":
    """a + sign * b."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in addition")
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    data = []
    for ra, rb in zip(a._data, b._data):
        if not rb:
            row = ra if fa == 1 else tuple((j, x * fa) for j, x in ra)
        elif not ra:
            row = tuple((j, x * fb) for j, x in rb)
        else:
            acc = {j: x * fa for j, x in ra}
            for j, x in rb:
                acc[j] = acc.get(j, 0) + x * fb
            row = tuple(sorted((j, x) for j, x in acc.items() if x))
        data.append(row)
    return _reduced(a.rows, a.cols, den, tuple(data))


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
    def sparse(rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "Mat":
        """Build from a mapping (row, column) -> scalar; absent entries are zero."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        items: list[list] = [[] for _ in range(rows)]
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            x = _scalar(x)
            if x:
                items[i].append((j, x))
        for row in items:
            row.sort(key=lambda e: e[0])
        return _from_scalars(rows, cols, items)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        return Mat(rows, cols, 1, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, 1, tuple(((i, 1),) for i in range(n)))

    @staticmethod
    def column(values: Sequence) -> "Mat":
        return Mat.from_rows([[v] for v in values], cols=1)

    @staticmethod
    def hstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("hstack of nothing")
        r = blocks[0].rows
        if any(b.rows != r for b in blocks):
            raise ValueError("hstack: row counts differ")
        return _stack(sum(b.cols for b in blocks), [(r, blocks)])

    @staticmethod
    def vstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("vstack of nothing")
        c = blocks[0].cols
        if any(b.cols != c for b in blocks):
            raise ValueError("vstack: column counts differ")
        return _stack(c, [(b.rows, [b]) for b in blocks])

    @staticmethod
    def block(grid: Sequence[Sequence["Mat | None"]], row_dims: Sequence[int], col_dims: Sequence[int]) -> "Mat":
        """Assemble from a grid of optional blocks; ``None`` means a zero block."""
        bands = []
        for bi, rdim in enumerate(row_dims):
            blocks = []
            for bj, cdim in enumerate(col_dims):
                blk = grid[bi][bj]
                if blk is None:
                    blk = Mat.zero(rdim, cdim)
                elif blk.rows != rdim or blk.cols != cdim:
                    raise ValueError(
                        f"block ({bi},{bj}) has shape {blk.rows}x{blk.cols}, "
                        f"expected {rdim}x{cdim}"
                    )
                blocks.append(blk)
            bands.append((rdim, blocks))
        return _stack(sum(col_dims), bands)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense view: a tuple of row tuples of Fractions, built on each call."""
        zero = Fraction(0)
        den = self._den
        out = []
        for row in self._data:
            dense = [zero] * self.cols
            for j, x in row:
                dense[j] = Fraction(x, den)
            out.append(tuple(dense))
        return tuple(out)

    def nonzeros(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries as a mapping (row, column) -> value."""
        den = self._den
        return {(i, j): Fraction(x, den) for i, row in enumerate(self._data) for j, x in row}

    def __add__(self, other: "Mat") -> "Mat":
        return _combine(self, other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return _combine(self, other, -1)

    def __neg__(self) -> "Mat":
        return Mat(
            self.rows, self.cols, self._den,
            tuple(tuple((j, -x) for j, x in row) for row in self._data),
        )

    def scale(self, c) -> "Mat":
        c = _frac(c)
        if c == 0:
            return Mat.zero(self.rows, self.cols)
        p = c.numerator
        data = self._data if p == 1 else tuple(
            tuple((j, x * p) for j, x in row) for row in self._data
        )
        return _reduced(self.rows, self.cols, self._den * c.denominator, data)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        brows = other._data
        data = []
        for row in self._data:
            if len(row) == 1:
                k, a = row[0]
                data.append(brows[k] if a == 1 else tuple((j, a * b) for j, b in brows[k]))
                continue
            acc: dict[int, int] = {}
            for k, a in row:
                for j, b in brows[k]:
                    acc[j] = acc.get(j, 0) + a * b
            data.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
        return _reduced(self.rows, other.cols, self._den * other._den, tuple(data))

    def transpose(self) -> "Mat":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row:
                cols[j].append((i, x))
        return Mat(self.cols, self.rows, self._den, tuple(map(tuple, cols)))

    def col(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")
        out = [Fraction(0)] * self.rows
        for i, row in enumerate(self._data):
            for k, x in row:
                if k >= j:
                    if k == j:
                        out[i] = Fraction(x, self._den)
                    break
        return tuple(out)

    def columns(self) -> list["Mat"]:
        out = []
        for col in self.transpose()._data:
            data: list[Row] = [()] * self.rows
            for i, x in col:
                data[i] = ((0, x),)
            out.append(_reduced(self.rows, 1, self._den, tuple(data)))
        return out

    def is_zero(self) -> bool:
        return not any(self._data)

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Multiply onto a plain vector, returning a plain tuple."""
        v = [_frac(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            Fraction(sum(x * v[j] for j, x in row), self._den) for row in self._data
        )

    def __repr__(self) -> str:  # compact, for test failure messages
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{body}]"


# ---------------------------------------------------------------------------
# The one elimination behind rank, rref, kernels, solving and quotients.


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by its content, in place."""
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _cancel(row: dict[int, int], prow: dict[int, int], c: int, p: int) -> None:
    """row := (p * row - row[c] * prow) / content, in place; clears column c."""
    a = row.pop(c)
    g = gcd(p, a)
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
    if row:
        _primitive(row)


def _eliminate(
    m: Mat, reduce: bool, limit: int | None = None
) -> tuple[list[int], list[dict[int, int]], list[dict[int, int]]]:
    """Fraction-free sparse elimination on the integer rows of ``m``.

    Columns before ``limit`` (default: all) are taken left to right.  The
    pivot of a column is the sparsest remaining row with a nonzero there,
    earliest on ties; every other remaining row with a nonzero there, and
    with ``reduce`` every earlier pivot row too, is combined with it to
    clear the column and divided by its content.  Returns the pivot
    columns, the pivot rows (primitive integer rows as column -> value
    dicts; with ``reduce`` each is zero at every other pivot column, so
    it is its reduced echelon row times its pivot entry), and the
    remaining nonzero rows, which live at or past ``limit``.
    """
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
        active = [row for i, row in enumerate(active) if i != k and row]
        pivots.append(c)
        done.append(prow)
    return pivots, done, active


def _over_pivots(done: list[dict[int, int]], pivots: list[int]) -> tuple[int, list[dict[int, int]]]:
    """A common denominator for the rows divided by their pivot entries,
    and the numerators over it: each returned row holds the denominator
    at its pivot."""
    den = 1
    for row, p in zip(done, pivots):
        den = lcm(den, row[p])
    return den, [
        {j: x * (den // row[p]) for j, x in row.items()} for row, p in zip(done, pivots)
    ]


def rank(m: Mat) -> int:
    """Rank over Q."""
    return len(_eliminate(m, reduce=False)[0])


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    pivots, done, _ = _eliminate(m, reduce=True)
    den, rows = _over_pivots(done, pivots)
    data = [tuple(sorted(row.items())) for row in rows]
    data += [()] * (m.rows - len(data))
    return _reduced(m.rows, m.cols, den, tuple(data)), tuple(pivots)


def kernel_basis(m: Mat) -> Mat:
    """Canonical basis of the right kernel, one column per free variable.

    The basis vector for free column f has entry 1 at f and the negated
    reduced column above the pivots, the standard echelon-form kernel.
    """
    pivots, done, _ = _eliminate(m, reduce=True)
    den, rows = _over_pivots(done, pivots)
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

    Free variables are set to zero, so the solution is canonical.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    n = a.cols
    pivots, done, rest = _eliminate(Mat.hstack([a, b]), reduce=True, limit=n)
    if rest:
        return None
    den, rows = _over_pivots(done, pivots)
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


def quotient_dim(vectors: Mat, modulo: Mat | None = None) -> int:
    """Dimension of the image of span(vectors) in the quotient by span(modulo)."""
    if modulo is None:
        return rank(vectors)
    if vectors.rows != modulo.rows:
        raise ValueError("ambient dimensions differ")
    return rank(Mat.hstack([modulo, vectors])) - rank(modulo)


# ---------------------------------------------------------------------------
# Integer matrices and finitely presented abelian groups.

IntMatrix = list[list[int]]


def _as_int_matrix(m, rows: int | None = None, cols: int | None = None) -> list[list[int]]:
    out = [list(map(int, row)) for row in m]
    if rows is not None and len(out) != rows:
        raise ValueError("integer matrix has wrong number of rows")
    if out and cols is not None and any(len(r) != cols for r in out):
        raise ValueError("integer matrix has ragged or wrong-width rows")
    return out


IntRows = tuple[tuple[int, ...], ...]


class SmithForm(_Record):
    """d = u @ a @ v with u, v unimodular and d diagonal, d_1 | d_2 | ...

    A transform the caller did not ask for is the empty tuple.
    """

    __slots__ = _fields = ("u", "d", "v")

    def __init__(self, u: IntRows, d: IntRows, v: IntRows):
        self._assign(u, d, v)

    @property
    def diag(self) -> tuple[int, ...]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diag if x != 0)


def _imat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a, *, _keep: str = "uv") -> SmithForm:
    """Smith normal form by elementary row/column operations.

    Deterministic: the pivot is the smallest-magnitude nonzero entry of
    the remaining block, earliest position on ties.  The divisibility
    chain is enforced inside the main loop: a pivot is only accepted once
    it divides every entry of the remaining block.

    ``_keep`` names the transforms to accumulate ("u", "v", both or
    neither); callers in this module ask only for what they read, since
    the transforms' entries grow far beyond those of d.
    """
    m = _as_int_matrix(a)
    nr = len(m)
    nc = len(m[0]) if m else 0
    u = _identity_rows(nr) if "u" in _keep else None
    v = _identity_rows(nc) if "v" in _keep else None

    def row_op(i, j, f):  # row i -= f * row j
        m[i] = [x - f * y for x, y in zip(m[i], m[j])]
        if u is not None:
            u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col i -= f * col j
        for row in m if v is None else m + v:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            if u is not None:
                u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in m if v is None else m + v:
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
        # pivot must divide the rest of the block for the divisor chain
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row in and redo
            continue
        t += 1

    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            for row in m if v is None else m + v:
                row[i] = -row[i]

    return SmithForm(
        tuple(tuple(r) for r in u or ()),
        tuple(tuple(r) for r in m),
        tuple(tuple(r) for r in v or ()),
    )


class FPAbelianGroup(_Record):
    """Z^generators modulo the column span of ``relations``
    (generators x number of relations)."""

    __slots__ = _fields = ("generators", "relations")

    def __init__(self, generators: int, relations: IntRows):
        self._assign(generators, relations)

    @staticmethod
    def make(generators: int, relations) -> "FPAbelianGroup":
        rel = _as_int_matrix(relations, rows=generators)
        width = len(rel[0]) if rel else 0
        for r in rel:
            if len(r) != width:
                raise ValueError("ragged relations matrix")
        return FPAbelianGroup(generators, tuple(tuple(r) for r in rel))

    @property
    def relation_count(self) -> int:
        return len(self.relations[0]) if self.relations else 0

    def order(self) -> int | None:
        """Group order, or None when the rank is positive."""
        if self.generators == 0:
            return 1
        sf = smith_normal_form(self.relations, _keep="")
        if sf.rank < self.generators:
            return None
        out = 1
        for x in sf.diag[: self.generators]:
            out *= x
        return out


def _lattice_basis(gens: list[list[int]]) -> list[list[int]]:
    """Columns forming a Z-basis of the column lattice of ``gens``."""
    if not gens:
        return []
    sf = smith_normal_form(gens, _keep="v")
    # gens @ v has columns u_inv @ d; nonzero ones are independent
    gv = _imat_mul(gens, [list(r) for r in sf.v])
    cols = []
    for j in range(len(gv[0]) if gv else 0):
        col = [gv[i][j] for i in range(len(gv))]
        if any(col):
            cols.append(col)
    return [list(r) for r in zip(*cols)] if cols else [[] for _ in gens]


def _quotient_order_of_lattices(big: list[list[int]], small: list[list[int]]) -> int | None:
    """Order of (lattice spanned by big) / (lattice spanned by small).

    Assumes the small lattice is contained in the big one.
    """
    basis = _lattice_basis(big)
    nb = len(basis[0]) if basis and basis[0] else 0
    if nb == 0:
        return 1
    bmat = Mat.from_rows(basis, cols=nb)
    smat = Mat.from_rows(small, cols=len(small[0]) if small else 0)
    coeff = solve(bmat, smat)
    if coeff is None:
        raise ValueError("small lattice not contained in big lattice")
    coeff_int = [[int(x) if x.denominator == 1 else None for x in row] for row in coeff.entries]
    if any(x is None for row in coeff_int for x in row):
        raise ValueError("small lattice not contained in big lattice")
    sf = smith_normal_form(coeff_int, _keep="")
    if sf.rank < nb:
        return None
    out = 1
    for x in sf.diag[:nb]:
        out *= x
    return out


class AbGroupMap(_Record):
    """Map between finitely presented abelian groups, given on generators
    (``matrix`` is target.generators x source.generators)."""

    __slots__ = _fields = ("source", "target", "matrix")

    def __init__(self, source: FPAbelianGroup, target: FPAbelianGroup, matrix: IntRows):
        self._assign(source, target, matrix)

    @staticmethod
    def make(source: FPAbelianGroup, target: FPAbelianGroup, matrix) -> "AbGroupMap":
        m = _as_int_matrix(matrix, rows=target.generators, cols=source.generators)
        f = AbGroupMap(source, target, tuple(tuple(r) for r in m))
        if not f._compatible():
            raise ValueError("matrix does not send source relations into target relations")
        return f

    def _compatible(self) -> bool:
        if self.source.relation_count == 0:
            return True
        img = _imat_mul([list(r) for r in self.matrix], [list(r) for r in self.source.relations])
        tg = self.target
        for j in range(len(img[0]) if img else 0):
            col = [[img[i][j]] for i in range(len(img))]
            if not _column_in_lattice(col, [list(r) for r in tg.relations], tg.generators):
                return False
        return True


def _column_in_lattice(col: list[list[int]], rel: list[list[int]], n: int) -> bool:
    if n == 0:
        return True
    if not rel or not rel[0]:
        return all(c[0] == 0 for c in col)
    sf = smith_normal_form(rel, _keep="u")
    uc = _imat_mul([list(r) for r in sf.u], col)
    diag = sf.diag
    for i in range(n):
        x = uc[i][0]
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if x != 0:
                return False
        elif x % d != 0:
            return False
    return True


def _target_smith(f: AbGroupMap, keep: str) -> SmithForm | None:
    """Smith form of [M | R_target], or None when the target has no generators.

    Its columns span im(f) + target relations, and its integer kernel
    projects onto the preimage of the target relations.
    """
    if f.target.generators == 0:
        return None
    rb = [list(r) for r in f.target.relations]
    stacked = [list(row) + (rb[i] if rb else []) for i, row in enumerate(f.matrix)]
    return smith_normal_form(stacked, _keep=keep)


def _kernel_order(f: AbGroupMap, sf: SmithForm | None) -> int | None:
    """ker(f) = K / source relations, K read off the v of ``_target_smith``."""
    ga = f.source.generators
    if ga == 0:
        return 1
    if sf is None:  # everything maps to 0; K is all of Z^ga
        kgens = _identity_rows(ga)
    else:
        width = len(sf.v)
        diag = sf.diag
        kcols = [
            [row[j] for row in sf.v]
            for j in range(width)
            if j >= len(diag) or diag[j] == 0
        ]
        kgens = [[c[i] for c in kcols] for i in range(ga)]
    return _quotient_order_of_lattices(kgens, [list(r) for r in f.source.relations])


def _cokernel_order(f: AbGroupMap, sf: SmithForm | None) -> int | None:
    """coker(f) = target / (image + target relations), from the diagonal."""
    gb = f.target.generators
    if sf is None:
        return 1
    if sf.rank < gb:
        return None
    out = 1
    for x in sf.diag[:gb]:
        out *= x
    return out


def kernel_order(f: AbGroupMap) -> int | None:
    """Exact order of ker(f), or None when the kernel has positive rank.

    The preimage lattice K = { x : M x lies in the target relation lattice }
    is the x-projection of the integer kernel of [M | R_target]; the kernel
    of f is K modulo the source relation lattice.
    """
    if f.source.generators == 0:
        return 1
    return _kernel_order(f, _target_smith(f, "v"))


def cokernel_order(f: AbGroupMap) -> int | None:
    """Exact order of coker(f) = target / (image + target relations)."""
    return _cokernel_order(f, _target_smith(f, ""))


def kernel_cokernel_orders(f: AbGroupMap) -> tuple[int | None, int | None]:
    """(kernel_order(f), cokernel_order(f)) from one Smith form."""
    sf = _target_smith(f, "v")
    return _kernel_order(f, sf), _cokernel_order(f, sf)
