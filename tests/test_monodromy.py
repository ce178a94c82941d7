import random

import pytest

from degen.monodromy import (
    CochainComplex,
    ComplexError,
    build_C,
    build_K,
    check_quasi_iso,
    cohomology_dims,
    cone_of_N,
    d_doubleprime,
    d_prime,
    euler_characteristic,
    mapping_cone,
    n_op,
    total_rows,
)
from degen.qlinalg import Mat
from degen.strata import gamma, generator_ngon, generator_smooth, rho
from fixtures import simplex_surface
from oracles import random_known_complex


def triangle():
    return generator_ngon(3, 5)


class TestKPieces:
    def test_piece_dims(self):
        kc = build_K(triangle())
        assert kc.piece_dim(-1, 0, 0) == 3  # CH^0 of the three nodes
        assert kc.piece_dim(0, 1, 0) == 3   # CH^1 of the three components
        assert kc.piece_dim(0, -1, 0) == 3  # CH^0 of the three components
        assert kc.piece_dim(2, 1, 1) == 0   # killed by the side condition
        assert kc.piece_dim(-1, -1, 0) == 0  # parity fails

    def test_side_condition_shapes(self):
        kc = build_K(triangle())
        # source CH^0(Y^(2)) is alive, target is cut off: zero-row matrix
        d2 = d_doubleprime(kc, (1, 0, 1))
        assert (d2.rows, d2.cols) == (0, 3)

    def test_d_doubleprime_is_minus_gamma(self):
        f = triangle()
        kc = build_K(f)
        d2 = d_doubleprime(kc, (-1, 0, 0))
        assert d2 == gamma(f, 2, 0).scale(-1)

    def test_d_prime_is_rho(self):
        f = triangle()
        kc = build_K(f)
        d1 = d_prime(kc, (0, -1, 0))
        assert d1 == rho(f, 1, 0)

    def test_n_is_identity_block(self):
        kc = build_K(triangle())
        n = n_op(kc, (-1, 0, 0))
        assert n == Mat.identity(3)

    def test_bound_clips(self):
        kc = build_K(triangle(), bound=0)
        assert kc.piece_dim(-1, 0, 0) == 0


class TestRowsAndCone:
    def test_triangle_tate_row(self):
        kc = build_K(triangle())
        row = total_rows(kc, 1)
        assert row.complex.dims == {1: 3, 2: 3}
        assert row.levels_at(1) == ((2, 3),)
        assert row.levels_at(2) == ((1, 3),)
        assert row.complex.diff(1) == gamma(triangle(), 2, 0).scale(-1)

    def test_triangle_weight_zero_row(self):
        kc = build_K(triangle())
        row = total_rows(kc, 0)
        assert row.complex.dims == {0: 3, 1: 3}
        assert row.complex.diff(0) == rho(triangle(), 1, 0)

    def test_triangle_cone_golden_values(self):
        kc = build_K(triangle())
        cone = cone_of_N(total_rows(kc, 1), total_rows(kc, 0))
        assert cone.dims == {1: 6, 2: 6}
        assert cohomology_dims(cone) == {1: 1, 2: 1}

    def test_cone_requires_adjacent_stars(self):
        kc = build_K(triangle())
        with pytest.raises(ValueError, match="star - 1"):
            cone_of_N(total_rows(kc, 1), total_rows(kc, 1))

    def test_ngon_dual_graph_row(self):
        f = generator_ngon(5, 2)
        kc = build_K(f)
        cone = cone_of_N(total_rows(kc, 0), total_rows(kc, -1))
        # the cone over the zero row reduces to the dual graph complex of a cycle
        assert cohomology_dims(cone) == {0: 1, 1: 1}


class TestSmallComplex:
    def test_triangle_tate_small_complex(self):
        f = triangle()
        c = build_C(f, 1)
        assert c.dims == {1: 3, 2: 3}
        assert cohomology_dims(c) == {1: 1, 2: 1}

    def test_smooth_two_spots(self):
        f = generator_smooth({(0, 0): 1, (1, 0): 1}, dim_y=1, q_v=3)
        c = build_C(f, 1)
        assert c.dims == {1: 1, 2: 1}
        assert cohomology_dims(c) == {1: 1, 2: 1}

    def test_quasi_iso_ngons(self):
        for n in range(2, 7):
            f = generator_ngon(n, 3)
            for star in range(0, f.dim_y + 3):
                res = check_quasi_iso(f, 2 * star, star)
                assert res.ok, (n, star, res)

    def test_quasi_iso_smooth(self):
        f = generator_smooth({(0, 0): 1, (1, 0): 2, (2, 0): 1}, dim_y=2, q_v=4)
        for star in range(0, f.dim_y + 3):
            res = check_quasi_iso(f, 2 * star, star)
            assert res.ok, (star, res)

    def test_quasi_iso_surface_fixture(self):
        f = simplex_surface()
        for star in range(0, f.dim_y + 3):
            res = check_quasi_iso(f, 2 * star, star)
            assert res.ok, (star, res)

    def test_triangle_euler_characteristics_match(self):
        f = triangle()
        kc = build_K(f)
        a = total_rows(kc, 1)
        b = total_rows(kc, 0)
        cone = cone_of_N(a, b)
        assert euler_characteristic(cone) == euler_characteristic(
            a.complex
        ) - euler_characteristic(b.complex)


class TestGenericComplexes:
    def test_cone_of_identity_is_acyclic(self):
        rng = random.Random(6)
        for _ in range(10):
            dims, diffs, _ = random_known_complex(rng)
            c = CochainComplex({k: d for k, d in dims.items() if d}, diffs)
            c.check()
            ident = {q: Mat.identity(d) for q, d in dims.items() if d}
            cone = mapping_cone(ident, c, c)
            assert cohomology_dims(cone) == {}

    def test_cone_of_zero_splits(self):
        rng = random.Random(7)
        for _ in range(10):
            dims_a, diffs_a, _ = random_known_complex(rng)
            dims_b, diffs_b, _ = random_known_complex(rng)
            a = CochainComplex({k: d for k, d in dims_a.items() if d}, diffs_a)
            b = CochainComplex({k: d for k, d in dims_b.items() if d}, diffs_b)
            cone = mapping_cone({}, a, b)
            expected = dict(cohomology_dims(a))
            for q, h in cohomology_dims(b).items():
                expected[q + 1] = expected.get(q + 1, 0) + h
            assert cohomology_dims(cone) == {k: v for k, v in expected.items() if v}

    def test_known_cohomology(self):
        rng = random.Random(8)
        for _ in range(20):
            dims, diffs, coh = random_known_complex(rng)
            c = CochainComplex({k: d for k, d in dims.items() if d}, diffs)
            c.check()
            assert cohomology_dims(c) == {k: v for k, v in coh.items() if v}

    def test_euler_additivity(self):
        rng = random.Random(9)
        for _ in range(10):
            dims_a, diffs_a, _ = random_known_complex(rng)
            a = CochainComplex({k: d for k, d in dims_a.items() if d}, diffs_a)
            ident = {q: Mat.identity(d) for q, d in dims_a.items() if d}
            cone = mapping_cone(ident, a, a)
            assert euler_characteristic(cone) == 0

    def test_bad_chain_map_rejected(self):
        a = CochainComplex({0: 1, 1: 1}, {0: Mat.identity(1)})
        b = CochainComplex({0: 1, 1: 1}, {0: Mat.zero(1, 1)})
        with pytest.raises(ComplexError, match="chain map"):
            mapping_cone({0: Mat.identity(1), 1: Mat.identity(1)}, a, b)

    def test_d_squared_rejected(self):
        c = CochainComplex(
            {0: 1, 1: 1, 2: 1},
            {0: Mat.identity(1), 1: Mat.identity(1)},
        )
        with pytest.raises(ComplexError, match="d.d"):
            c.check()
