import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen.qlinalg import (
    AbGroupMap,
    FPAbelianGroup,
    Mat,
    _eliminate,
    _rank_and_index,
    _reduced_rows,
    kernel_basis,
    kernel_cokernel_orders,
    quotient_projection,
    rank,
    residues,
    rref,
    solve,
)
from oracles import (
    brute_cokernel_order,
    brute_kernel_order,
    column,
    dense_add,
    dense_entry_strings,
    dense_kernel_basis,
    dense_mul,
    dense_quotient_dim,
    dense_quotient_projection,
    dense_rank,
    dense_rref,
    dense_scale,
    dense_solve,
    dense_transpose,
    det_int,
    flagged_kernel_basis,
    flagged_residues,
    flagged_rref,
    flagged_solve,
    in_relation_lattice,
    int_rows,
    random_finite_group,
    random_group_map,
    random_invertible,
    residue_reduction,
    scanning_eliminate,
    scanning_reduced_rows,
    smith_with_transforms,
    transform_group_order,
    transform_orders,
)

F = Fraction


def mat(rows):
    return Mat.from_rows(rows)


def group_order(g):
    """Order of g, None when infinite: the cokernel of the map into g from
    the trivial group."""
    trivial = FPAbelianGroup.make(0, [])
    return kernel_cokernel_orders(AbGroupMap.make(trivial, g, [[] for _ in range(g.generators)]))[1]


fractions_st = st.fractions(
    min_value=-6, max_value=6, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[draw(fractions_st) for _ in range(c)] for _ in range(r)]
    return Mat.from_rows(rows, cols=c)


def _mm(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


@st.composite
def group_maps(draw):
    """A homomorphism of finitely presented groups, often with free parts
    and with dependent, zero or missing relation columns.

    The target relations span the image of the source relations (each
    column or a divisor of it, mixed with other columns) plus random and
    dependent columns, so the map is well defined by construction.
    """
    small = st.integers(-4, 4)
    ga, gb, ns = (draw(st.integers(0, 3)) for _ in range(3))
    rs = [[draw(small) for _ in range(ns)] for _ in range(ga)]
    m = [[draw(small) for _ in range(ga)] for _ in range(gb)]
    image = [list(c) for c in zip(*_mm(m, rs))] if gb else []
    extra = [[draw(small) for _ in range(gb)] for _ in range(draw(st.integers(0, 2)))]
    cols = []
    for col in image:
        g = gcd(*col)
        cols.append([x // g for x in col] if g > 1 and draw(st.booleans()) else col)
    for x in extra:
        if cols and draw(st.booleans()):
            i, k = draw(st.integers(0, len(cols) - 1)), draw(small)
            cols[i] = [a + k * b for a, b in zip(cols[i], x)]
        cols.append(x)
    for _ in range(draw(st.integers(0, 2))):
        if cols:
            i, j = draw(st.integers(0, len(cols) - 1)), draw(st.integers(0, len(cols) - 1))
            k, l = draw(small), draw(small)
            cols.append([k * a + l * b for a, b in zip(cols[i], cols[j])])
    cols = [cols[i] for i in draw(st.permutations(range(len(cols))))]
    rt = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(gb)]
    return AbGroupMap.make(FPAbelianGroup.make(ga, rs), FPAbelianGroup.make(gb, rt), m)


@st.composite
def integer_matrices(draw, max_dim=6):
    """Integer matrices of every shape up to max_dim, 0-sized ones included,
    often rank-deficient: a product of two random factors through a
    narrower middle dimension."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max_dim))
    small = st.integers(-5, 5)
    left = [[draw(small) for _ in range(k)] for _ in range(r)]
    right = [[draw(small) for _ in range(c)] for _ in range(k)]
    scale = draw(st.sampled_from([1, 1, 2, 6, 12]))
    return [[scale * x for x in row] for row in _mm(left, right)] if k else [[0] * c for _ in range(r)]


class TestMat:
    def test_shapes_and_blocks(self):
        a = Mat.identity(2)
        b = Mat.zero(2, 3)
        h = Mat.hstack([a, b])
        assert (h.rows, h.cols) == (2, 5)
        g = Mat.block([[a, None], [None, a]], [2, 2], [2, 2])
        assert g == Mat.identity(4)

    def test_empty_product(self):
        a = Mat.zero(0, 3)
        b = Mat.zero(3, 2)
        assert (a * b).rows == 0 and (a * b).cols == 2
        c = Mat.zero(2, 0) * Mat.zero(0, 4)
        assert c == Mat.zero(2, 4)

    def test_block_shape_mismatch(self):
        with pytest.raises(ValueError):
            Mat.block([[Mat.identity(2)]], [2], [3])


class TestRankKernel:
    def test_triangle_gysin_matrix(self):
        # columns are the three nodes of a triangle of curves, rows the
        # components; each node maps to e_j - e_i
        g = mat([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
        assert rank(g) == 2
        k = kernel_basis(g)
        assert k.cols == 1
        assert k == column([1, -1, 1])

    def test_rref_pivots(self):
        m = mat([[0, 2, 1], [0, 4, 2]])
        r, pivots = rref(m)
        assert pivots == (1,)
        assert r.entries[0] == (F(0), F(1), F(1, 2))

    def test_solve_inconsistent(self):
        a = mat([[1, 0], [1, 0]])
        b = column([1, 2])
        assert solve(a, b) is None

    def test_solve_underdetermined(self):
        a = mat([[1, 1]])
        b = column([3])
        x = solve(a, b)
        assert x is not None
        assert a * x == b

    @settings(max_examples=60)
    @given(matrices())
    def test_rank_nullity(self, m):
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        if k.cols:
            assert (m * k).is_zero()
        assert rank(m.transpose()) == rank(m)

    @settings(max_examples=40)
    @given(matrices())
    def test_quotient_projection_kills_subspace(self, m):
        p = quotient_projection(m)
        assert p.rows == m.rows - rank(m)
        if m.cols:
            assert (p * m).is_zero()
        assert rank(p) == p.rows

    @settings(max_examples=40)
    @given(matrices())
    def test_quotient_dim_of_full_space(self, m):
        n = m.rows
        assert rank(residues(Mat.identity(n), m)) == n - rank(m)


def rank_and_index(rows, cols):
    """``_rank_and_index`` of the integer matrix with these rows and ``cols`` columns."""
    return _rank_and_index(Mat.from_rows(rows, cols=cols))


def oracle_rank_and_index(rows):
    """The oracle's rank and, at full row rank, the product of its diagonal."""
    sf = smith_with_transforms(rows)
    index = 1
    for x in sf.diag[: sf.rank]:
        index *= x
    return sf.rank, index if sf.rank == len(rows) else None


class TestSmith:
    """``_rank_and_index`` against the oracle's Smith forms with transforms."""

    def test_diag_2_3(self):
        assert smith_with_transforms([[2, 0], [0, 3]]).diag == (1, 6)
        assert rank_and_index([[2, 0], [0, 3]], 2) == (2, 6)
        # a dependent column leaves the lattice, and so the index, alone
        assert rank_and_index([[2, 0, 2], [0, 3, 3]], 3) == (2, 6)

    def test_zero_matrix(self):
        assert rank_and_index([[0, 0], [0, 0]], 2) == (0, None)

    def test_empty(self):
        assert rank_and_index([], 0) == (0, 1)
        assert rank_and_index([], 3) == (0, 1)
        assert rank_and_index([[], []], 0) == (0, None)

    @pytest.mark.parametrize("build, where, entry", [
        (lambda: FPAbelianGroup.make(1, [[Fraction(3, 2)]]), "(0, 0)", "Fraction(3, 2)"),
        (lambda: FPAbelianGroup.make(1, [[2.9]]), "(0, 0)", "2.9"),
        (lambda: FPAbelianGroup.make(2, [[Fraction(1, 2), 0], [0, 2.5]]), "(0, 0)", "Fraction(1, 2)"),
        (lambda: AbGroupMap.make(
            FPAbelianGroup.make(2, [[], []]), FPAbelianGroup.make(2, [[], []]), [[2, 0], [0, 2.5]]
        ), "(1, 1)", "2.5"),
        (lambda: FPAbelianGroup.make(1, [[1, True]]), "(0, 1)", "True"),
        (lambda: AbGroupMap.make(
            FPAbelianGroup.make(1, [[]]), FPAbelianGroup.make(1, [[]]), [[1.0]]
        ), "(0, 0)", "1.0"),
    ])
    def test_non_integer_entries_are_named_not_truncated(self, build, where, entry):
        with pytest.raises(ValueError, match=rf"entry {re.escape(where)} is {re.escape(entry)}, not an int"):
            build()

    @settings(max_examples=80)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_reconstruction_and_chain(self, rows):
        # the oracle's transforms rebuild its diagonal, which is a divisor
        # chain, and its rank and index are those of the lattice
        sf = smith_with_transforms(rows)
        u = [list(r) for r in sf.u]
        v = [list(r) for r in sf.v]
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        # u @ a @ v == d
        prod = _mm(_mm(u, rows), v)
        assert prod == [list(r) for r in sf.d]
        diag = sf.diag
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        # off-diagonal must vanish
        for i, row in enumerate(sf.d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        assert rank_and_index(rows, len(rows[0])) == oracle_rank_and_index(rows)

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_diagonal_matches_oracle(self, rows):
        # square, wide, tall and rank-deficient inputs; the transpose turns
        # a tall input of full column rank into a wide one with an index
        cols = len(rows[0]) if rows else 0
        for m, width in ((rows, cols), ([list(c) for c in zip(*rows)], len(rows))):
            assert rank_and_index(m, width) == oracle_rank_and_index(m)

    @settings(max_examples=60, deadline=None)
    @given(integer_matrices())
    def test_diagonal_matches_sympy(self, rows):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix

        nc = len(rows[0]) if rows else 0
        want = [abs(int(x)) for x in normalforms.invariant_factors(
            Matrix(len(rows), nc, [x for r in rows for x in r]), domain=ZZ
        ) if x]
        index = 1
        for x in want:
            index *= x
        assert rank_and_index(rows, nc) == (len(want), index if len(want) == len(rows) else None)

    def test_modulus_pass_on_a_large_block(self):
        # a 12x12 matrix of determinant 432, which is its Bareiss modulus and
        # its index; beside three more columns from its own span, the index
        # comes from the Hermite basis modulo 432 instead
        rng = random.Random(7)
        n = 12
        left, right = (
            [[int(i == j) + (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)],
            [[int(i == j) + (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)],
        )
        diag = [[0] * n for _ in range(n)]
        for i, x in enumerate([1] * 9 + [2, 6, 36]):
            diag[i][i] = x
        rows = _mm(_mm(left, diag), right)
        assert smith_with_transforms(rows).diag == (1,) * 9 + (2, 6, 36)
        assert rank_and_index(rows, n) == (n, 432)
        extra = _mm(rows, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(n)])
        assert rank_and_index([r + x for r, x in zip(rows, extra)], n + 3) == (n, 432)


class TestGroupOrders:
    @settings(max_examples=200, deadline=None)
    @given(group_maps())
    def test_orders_match_transform_oracle(self, f):
        want = transform_orders(f)
        assert kernel_cokernel_orders(f) == want
        assert group_order(f.source) == transform_group_order(f.source)

    def test_identity_and_zero_maps_on_dependent_relations(self):
        # the kernel order needs a basis of the target relation lattice;
        # a basis of a smaller lattice makes the identity fail to solve
        rng = random.Random(11)
        trivial = FPAbelianGroup.make(0, [])
        for _ in range(300):
            n, r = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(n + 1, n + 4)
            rel = _mm(
                [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)],
                [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)],
            )
            b = FPAbelianGroup.make(n, rel)
            identity = AbGroupMap.make(b, b, [[int(i == j) for j in range(n)] for i in range(n)])
            assert kernel_cokernel_orders(identity) == (1, 1)
            into = AbGroupMap.make(trivial, b, [[] for _ in range(n)])
            order = transform_group_order(b)
            assert kernel_cokernel_orders(into) == (1, order)
            assert kernel_cokernel_orders(AbGroupMap.make(b, trivial, [])) == (order, 1)

    @settings(max_examples=100, deadline=None)
    @given(group_maps(), st.data())
    def test_compatibility_matches_lattice_membership(self, f, data):
        # move one entry of the matrix; it stays a map iff every column of
        # M R_s still lies in the target relation lattice
        if not f.matrix.rows or not f.matrix.cols:
            return
        i = data.draw(st.integers(0, f.matrix.rows - 1))
        j = data.draw(st.integers(0, f.matrix.cols - 1))
        m = int_rows(f.matrix)
        m[i][j] += data.draw(st.integers(1, 3))
        image = _mm(m, int_rows(f.source.relations))
        ok = all(in_relation_lattice(f.target, col) for col in zip(*image))
        if ok:
            AbGroupMap.make(f.source, f.target, m)
        else:
            with pytest.raises(ValueError):
                AbGroupMap.make(f.source, f.target, m)

    def test_square_nonsingular_map_takes_no_hermite_basis(self, monkeypatch):
        # the last Bareiss pivot of [M] is +-det M, which is the index
        from degen import qlinalg

        calls = []
        real = qlinalg._hermite_mod
        monkeypatch.setattr(qlinalg, "_hermite_mod", lambda *a: calls.append(a) or real(*a))
        rng = random.Random(22)
        seen = 0
        while seen < 30:
            k = rng.randint(1, 8)
            m = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
            if not det_int(m):
                continue
            seen += 1
            free = FPAbelianGroup.make(k, [[] for _ in range(k)])
            f = AbGroupMap.make(free, free, m)
            assert kernel_cokernel_orders(f) == transform_orders(f) == (1, abs(det_int(m)))
        assert calls == []

    def test_mod4_to_mod2(self):
        a = FPAbelianGroup.make(1, [[4]])
        b = FPAbelianGroup.make(1, [[2]])
        f = AbGroupMap.make(a, b, [[1]])
        assert kernel_cokernel_orders(f) == (2, 1)

    def test_multiplication_by_3_on_z(self):
        z = FPAbelianGroup.make(1, [[]])
        f = AbGroupMap.make(z, z, [[3]])
        assert kernel_cokernel_orders(f) == (1, 3)

    def test_zero_map_on_z_is_infinite_both_ways(self):
        z = FPAbelianGroup.make(1, [[]])
        f = AbGroupMap.make(z, z, [[0]])
        assert kernel_cokernel_orders(f) == (None, None)

    def test_mod6_to_mod4_times_2(self):
        a = FPAbelianGroup.make(1, [[6]])
        b = FPAbelianGroup.make(1, [[4]])
        f = AbGroupMap.make(a, b, [[2]])
        assert kernel_cokernel_orders(f) == (3, 2)

    def test_unit_boundary_shape(self):
        # (Z/(q-1)) + Z -> Z killing torsion, onto: kernel q-1, cokernel 1
        q = 4
        src = FPAbelianGroup.make(2, [[q - 1], [0]])
        tgt = FPAbelianGroup.make(1, [[]])
        f = AbGroupMap.make(src, tgt, [[0, 1]])
        assert kernel_cokernel_orders(f) == (q - 1, 1)

    def test_incompatible_matrix_rejected(self):
        a = FPAbelianGroup.make(1, [[2]])
        b = FPAbelianGroup.make(1, [[4]])
        message = "matrix does not send source relations into target relations"
        with pytest.raises(ValueError, match=message):
            AbGroupMap.make(a, b, [[1]])
        # a map built directly is checked as it is built, not when its
        # orders are first asked for
        with pytest.raises(ValueError, match=message):
            AbGroupMap(a, b, Mat.from_rows([[1]]))

    def test_group_order(self):
        assert group_order(FPAbelianGroup.make(2, [[2, 0], [0, 5]])) == 10
        assert group_order(FPAbelianGroup.make(1, [[]])) is None
        assert group_order(FPAbelianGroup.make(0, [])) == 1

    def test_against_enumeration(self):
        rng = random.Random(20260815)
        for _ in range(60):
            a = random_finite_group(rng)
            b = random_finite_group(rng)
            f = random_group_map(rng, a, b)
            assert kernel_cokernel_orders(f) == (brute_kernel_order(f), brute_cokernel_order(f))


# ---------------------------------------------------------------------------
# The sparse integer core against the dense Fraction routines it replaced.

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def incidence(draw, r, c):
    """Sparse signed incidence pattern: at most two entries +-1 per column."""
    grid = [[0] * c for _ in range(r)]
    for j in range(c):
        if r:
            for i in draw(st.lists(st.integers(0, r - 1), max_size=2, unique=True)):
                grid[i][j] = draw(st.sampled_from([-1, 1]))
    return Mat.from_rows(grid, cols=c)


def cycle_grid(n):
    """The signed incidence of an n-gon: edge j runs from vertex j to j + 1."""
    grid = [[0] * n for _ in range(n)]
    for j in range(n):
        grid[j][j] -= 1
        grid[(j + 1) % n][j] += 1
    return grid


def star_grid(n):
    """The signed incidence of a star with n leaves: edge j joins the hub,
    vertex 0, to leaf j + 1."""
    grid = [[0] * n for _ in range(n + 1)]
    for j in range(n):
        grid[0][j], grid[j + 1][j] = 1, -1
    return grid


@st.composite
def unit_triangular_product(draw, n):
    """A dense invertible rational matrix: unit lower times unit upper."""
    def tri(lower):
        return tuple(
            tuple(
                F(1) if i == j else (draw(small_fractions) if (j < i) == lower else F(0))
                for j in range(n)
            )
            for i in range(n)
        )

    return dense_mul(tri(True), tri(False), n, n)


@st.composite
def conjugated_dense(draw, r, c):
    """An incidence pattern seen through random rational changes of basis
    on both sides, multiplied out densely by the oracle."""
    s = draw(incidence(r, c)).entries
    left = draw(unit_triangular_product(r))
    right = draw(unit_triangular_product(c))
    return Mat.from_rows(dense_mul(dense_mul(left, s, r, c), right, c, c), cols=c)


def shaped(r, c):
    return st.one_of(incidence(r, c), conjugated_dense(r, c))


def assert_matches_dense_oracle(a: Mat, b: Mat, a2: Mat, s: Fraction) -> None:
    """a is r x k, b is k x c, a2 is r x k; every operation agrees with the oracle."""
    (r, k), c = (a.rows, a.cols), b.cols
    ga, gb, ga2 = a.entries, b.entries, a2.entries
    assert len(ga) == r and all(len(row) == k for row in ga)
    assert (a * b).entries == dense_mul(ga, gb, k, c)
    assert (a + a2).entries == dense_add(ga, ga2)
    assert (a + -a2).entries == dense_add(ga, dense_scale(ga2, -1))
    assert (-a).entries == dense_scale(ga, -1)
    assert a.scale(s).entries == dense_scale(ga, s)
    assert a.transpose().entries == dense_transpose(ga, k)
    assert a.is_zero() == all(x == 0 for row in ga for x in row)
    columns = dense_transpose(ga, k)
    assert [m.entries for m in a.columns()] == [tuple((x,) for x in col) for col in columns]
    # the assemblers lay blocks of unlike denominators out on dense grids
    gab = dense_mul(ga, gb, k, c)
    assert Mat.hstack([a, a2]).entries == tuple(x + y for x, y in zip(ga, ga2))
    assert Mat.block([[a], [a2], [Mat.zero(0, k)]], [r, r, 0], [k]).entries == ga + ga2
    zeros = (F(0),) * k
    assert Mat.block([[a, a * b], [None, b]], [r, k], [k, c]).entries == tuple(
        x + y for x, y in zip(ga, gab)
    ) + tuple(zeros + y for y in gb)
    # equality and hashing are structural on the canonical form
    for again in (Mat.from_rows(ga, cols=k), a + Mat.zero(r, k), a.scale(3).scale(F(1, 3))):
        assert again == a and hash(again) == hash(a)
    assert (a == a2) == (ga == ga2)
    assert rank(a) == dense_rank(ga, k)
    red, pivots = rref(a)
    assert (red.entries, pivots) == dense_rref(ga, k)
    assert kernel_basis(a).entries == dense_kernel_basis(ga, k)
    assert quotient_projection(a).entries == dense_quotient_projection(ga, r, k)
    assert rank(residues(a2, a)) == dense_quotient_dim(ga2, ga, k, k)
    for rhs in (a2, a * b):  # a2 may be inconsistent, a * b never is
        x = solve(a, rhs)
        want = dense_solve(ga, rhs.entries, k, rhs.cols)
        assert (x.entries if x is not None else None) == want
    assert solve(a, a * b) is not None


class TestAgainstDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_operations_match(self, data):
        r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a = data.draw(shaped(r, k))
        b = data.draw(shaped(k, c))
        a2 = data.draw(st.one_of(shaped(r, k), st.just(a)))
        assert_matches_dense_oracle(a, b, a2, data.draw(small_fractions))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(matrices(), st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
        lambda shape: shaped(*shape))))
    def test_repr_reads_the_dense_view(self, m):
        # repr formats from the sparse rows, as the bundle writer does
        if not (m.rows and m.cols):
            assert repr(m) == f"Mat({m.rows}x{m.cols})"
            return
        text = dense_entry_strings(m)
        rows = (text[i : i + m.cols] for i in range(0, len(text), m.cols))
        assert repr(m) == "Mat[" + "; ".join(map(" ".join, rows)) + "]"

    @pytest.mark.parametrize("r,k,c", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (4, 4, 4)])
    def test_empty_and_square_shapes(self, r, k, c):
        rng = random.Random(r * 100 + k * 10 + c)

        def rand(rows, cols):
            return Mat.from_rows(
                [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )

        assert_matches_dense_oracle(rand(r, k), rand(k, c), rand(r, k), F(-2, 3))

    def test_ngon_incidence_matches(self):
        # the Gysin matrix of a 9-gon and its Laplacian-like square
        g = Mat.from_rows(cycle_grid(9))
        assert_matches_dense_oracle(g, g.transpose(), g.transpose(), F(5, 7))


class TestInternalConstructors:
    """The constructors that build a Mat's integer rows directly."""

    def test_integral_fractions_become_integers(self):
        from degen.qlinalg import _from_scalars

        m = _from_scalars(2, 3, [[(0, (2, 1)), (2, -3)], [(1, (2, 1))]])
        assert m == mat([[2, 0, -3], [0, 2, 0]])
        assert m == Mat.from_rows([[F(4, 2), 0, F(-3)], [0, F(6, 3), 0]])
        assert all(type(x) is int for row in m._data for _, x in row)
        assert rank(m) == 2 and rank(m.scale(F(1, 2)) + -m) == 2

    def test_placed_blocks_that_cancel_are_reduced(self):
        from degen.qlinalg import _placed

        a, b = mat([[F(1, 3), F(2, 3)]]), mat([[F(2, 3), F(1, 3)]])
        m = _placed(2, 3, [(0, 0, a, 1), (0, 0, b, 1), (1, 1, a, 1), (1, 1, a, -1)])
        assert m == mat([[1, 1, 0], [0, 0, 0]]) and m._den == 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_placed_blocks_sum_like_padded_matrices(self, data):
        from degen.qlinalg import _placed

        rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        blocks, grid = [], [[F(0)] * cols for _ in range(rows)]
        for _ in range(data.draw(st.integers(1, 4))):  # blocks may overlap
            br, bc = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
            b = Mat.from_rows([[data.draw(fractions_st) for _ in range(bc)] for _ in range(br)], cols=bc)
            r0 = data.draw(st.integers(0, rows - b.rows))
            c0 = data.draw(st.integers(0, cols - b.cols))
            sign = data.draw(st.sampled_from((1, -1)))
            blocks.append((r0, c0, b, sign))
            for i, row in enumerate(b.entries):
                for j, x in enumerate(row):
                    grid[r0 + i][c0 + j] += sign * x
        want = Mat.from_rows(grid, cols=cols)
        got = _placed(rows, cols, blocks)
        assert got == want
        assert got._den == want._den and got._data == want._data


@st.composite
def dense_rational(draw, r, c):
    """Every entry drawn, most of them nonzero, with small denominators."""
    return Mat.from_rows([[draw(fractions_st) for _ in range(c)] for _ in range(r)], cols=c)


class TestResidues:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_match_the_projector_oracle(self, data):
        # sparse incidence (pivots -1 and 1), conjugated rational and dense
        # inputs; an empty or dependent span, and no vectors at all
        n, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
        kinds = lambda r, cols: st.one_of(shaped(r, cols), dense_rational(r, cols))
        modulo = data.draw(kinds(n, k))
        if k and data.draw(st.booleans()):
            modulo = Mat.hstack([modulo, modulo * data.draw(kinds(k, 2))])
        vectors = data.draw(kinds(n, c))
        got = residues(vectors, modulo)
        assert got == residue_reduction(modulo) * vectors
        assert residues(got, modulo) == got

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="ambient dimensions differ"):
            residues(Mat.zero(3, 1), Mat.zero(2, 1))


class TestAgainstFlaggedElimination:
    """The forward pass plus back-substitution gives the Mats that the
    elimination reducing inside its loop (``oracles.flagged_eliminate``)
    gave, on sparse incidence, conjugated and dense rational inputs."""

    @staticmethod
    def assert_agree(a: Mat, x: Mat, rhs: Mat, vectors: Mat) -> None:
        """a is r x k, x is k x c, rhs and vectors have r rows."""
        assert rref(a) == flagged_rref(a)
        assert kernel_basis(a) == flagged_kernel_basis(a)
        for b in (a * x, rhs):  # consistent, then most often not
            assert solve(a, b) == flagged_solve(a, b)
        assert solve(a, a * x) is not None
        assert residues(vectors, a) == flagged_residues(vectors, a)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rref_kernel_solve_and_residues(self, data):
        r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
        kinds = lambda rows, cols: st.one_of(shaped(rows, cols), dense_rational(rows, cols))
        self.assert_agree(
            data.draw(kinds(r, k)), data.draw(kinds(k, c)), data.draw(kinds(r, c)),
            data.draw(kinds(r, c)),
        )

    @pytest.mark.parametrize("r,k,c", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)])
    def test_empty_shapes(self, r, k, c):
        rng = random.Random(r * 100 + k * 10 + c)

        def rand(rows, cols):
            return Mat.from_rows(
                [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )

        self.assert_agree(rand(r, k), rand(k, c), rand(r, c), rand(r, c))

    def test_upper_triangular_needs_back_substitution(self):
        a = mat([[2, 1, 3], [0, 3, 1], [0, 0, 5]])
        assert rref(a) == (Mat.identity(3), (0, 1, 2)) == flagged_rref(a)
        b = column([1, 2, 3])
        assert solve(a, b) == flagged_solve(a, b) and a * solve(a, b) == b
        assert solve(mat([[1, 1], [0, 0]]), column([1, 1])) is None


@st.composite
def elimination_inputs(draw):
    """Sparse incidence, sparse integer and dense rational matrices, and
    cycles and stars either way round; half of them seen through random
    integer changes of basis on both sides, with zero rows and zero columns
    slipped in and, half the time, every row scaled by a rational.  0 x n
    and n x 0 shapes are among them."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("incidence", "sparse", "dense", "cycle", "star")))
    if kind in ("cycle", "star"):
        n = draw(st.integers(0, 12))
        grid, c = (cycle_grid if kind == "cycle" else star_grid)(n), n
        if draw(st.booleans()):
            grid, c = [list(col) for col in zip(*grid)], len(grid)
    else:
        r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        if kind == "incidence":
            grid = draw(incidence(r, c)).entries
        elif kind == "sparse":
            grid = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(c)] for _ in range(r)]
        else:
            grid = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)]
    r = len(grid)
    if draw(st.booleans()):
        left, right = random_invertible(rng, r).entries, random_invertible(rng, c).entries
        grid = dense_mul(dense_mul(left, grid, r, c), right, c, c)
    grid = [list(row) for row in grid]
    for _ in range(draw(st.integers(0, 2))):
        grid.insert(rng.randint(0, len(grid)), [0] * c)
    for _ in range(draw(st.integers(0, 2))):
        j = rng.randint(0, c)
        grid = [row[:j] + [0] + row[j:] for row in grid]
        c += 1
    if draw(st.booleans()):
        for row in grid:
            s = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            row[:] = [x * s for x in row]
    return Mat.from_rows(grid, cols=c)


class TestAgainstScanningElimination:
    """Rows filed by leading column and the one-pass back-substitution give
    the pivot columns, pivot rows and reduced rows that the elimination
    scanning every row at every column gave (``oracles.scanning_eliminate``
    and ``scanning_reduced_rows``)."""

    @staticmethod
    def assert_agree(m: Mat) -> None:
        assert _eliminate(m) == scanning_eliminate(m)
        assert _reduced_rows(m) == scanning_reduced_rows(m)

    @settings(max_examples=500, deadline=None)
    @given(elimination_inputs())
    def test_pivots_pivot_rows_and_reduced_rows(self, m):
        self.assert_agree(m)

    @pytest.mark.parametrize("r,c", [(0, 0), (0, 4), (4, 0), (3, 3)])
    def test_empty_and_zero_shapes(self, r, c):
        self.assert_agree(Mat.zero(r, c))

    @pytest.mark.parametrize("grid", [cycle_grid(60), star_grid(40)], ids=["60-gon", "40-leaf star"])
    def test_large_cycles_and_stars(self, grid):
        m = Mat.from_rows(grid)
        self.assert_agree(m)
        self.assert_agree(m.transpose())
