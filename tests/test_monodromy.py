import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen import monodromy, strata, workbench
from degen.bundle import Bundle, Params
from degen.monodromy import (
    CochainComplex,
    build_C,
    check_quasi_iso,
    cohomology_dims,
    cone_of_N,
    total_rows,
)
from degen.qlinalg import Mat
from degen.strata import (
    DescriptorError,
    Fibre,
    build_level,
    compose_ii,
    gamma,
    generator_ngon,
    generator_smooth,
    rho,
)
from degen.workbench import run_quasi_iso, run_validate
from fixtures import (
    conjugated,
    fixture_fibres,
    simplex_surface,
    tensored,
    with_codims_past_dimension,
    with_flipped_sign,
)
from test_identities import five_level_fibre, flips
from oracles import (
    degree_walk_build_C,
    euler_characteristic,
    full_cone_of_N,
    is_chain_map,
    mapping_cone,
    random_known_complex,
    row_complex,
    squares_to_zero,
    two_rank_cohomology_dims,
    window_codim_level,
    windowed_row_summands,
)


def triangle():
    return generator_ngon(3, 5)


def codim_level(f, i, j, k, bound=None):
    """(codim, level) of K^{i,j,k} in the window the rows were read from."""
    return window_codim_level(f, f.dim_y + 2 if bound is None else bound, i, j, k)


def piece_dim(f, i, j, k, bound=None):
    """dim K^{i,j,k}: CH^p at level r for (p, r) = codim_level, else 0."""
    pl = codim_level(f, i, j, k, bound)
    if pl is None:
        return 0
    p, r = pl
    return build_level(f, r, p).total


def past_dimension_fibres():
    """Fibres with Chow codims 3..6 past their dimension, where the window
    |j| <= dim_y + 2 cuts rows."""
    return [
        with_codims_past_dimension(generator_ngon(3, 2), range(3, 7)),
        with_codims_past_dimension(simplex_surface(), range(3, 7)),
        generator_smooth({(0, 0): 1, (4, 0): 2, (6, 0): 1}, dim_y=1, q_v=3),
    ]


def sub_block(m, r0, rows, c0, cols):
    return Mat.from_rows(
        [row[c0 : c0 + cols] for row in m.entries[r0 : r0 + rows]], cols=cols
    )


def row_blocks(f, star):
    """(source level, target level, codim, block) for every level block of
    every differential of the total row at star."""
    row = total_rows(f, star)
    for q, d in sorted(row_complex(f, row).diffs.items()):
        r0 = 0
        for tr, td in row.summands.get(q + 1, ()):
            c0 = 0
            for sr, sd in row.summands.get(q, ()):
                yield sr, tr, (q + 1 - sr) // 2, sub_block(d, r0, td, c0, sd)
                c0 += sd
            r0 += td


class TestKPieces:
    def test_piece_dims(self):
        f = triangle()
        assert piece_dim(f, -1, 0, 0) == 3  # CH^0 of the three nodes
        assert piece_dim(f, 0, 1, 0) == 3   # CH^1 of the three components
        assert piece_dim(f, 0, -1, 0) == 3  # CH^0 of the three components
        assert codim_level(f, -1, 0, 0) == (0, 2)
        assert codim_level(f, 0, 1, 0) == (1, 1)
        assert codim_level(f, 2, 1, 1) is None   # killed by the side condition
        assert codim_level(f, -1, -1, 0) is None  # parity fails

    def test_side_condition_shapes(self):
        f = triangle()
        # the source CH^0(Y^(2)) of d'' at (1, 0, 1) is alive, its target
        # (2, 1, 1) is cut off by k >= i
        assert codim_level(f, 1, 0, 1) == (0, 2)
        assert piece_dim(f, 1, 0, 1) == 3
        assert codim_level(f, 2, 1, 1) is None

    def test_rows_match_the_window(self):
        for f in fixture_fibres() + past_dimension_fibres():
            for star in range(-3, f.dim_y + 9):
                want = windowed_row_summands(f, star, f.dim_y + 2)
                assert total_rows(f, star).summands == want, (f.dim_y, star)

    def test_window_binds_past_the_dimension(self):
        # a wider window would keep pieces that the rows leave out
        for f in past_dimension_fibres():
            cut = [
                star for star in range(0, f.dim_y + 9)
                if windowed_row_summands(f, star, f.dim_y + 8) != total_rows(f, star).summands
            ]
            assert cut, f.dim_y

    def test_d_doubleprime_is_minus_gamma(self):
        seen = 0
        for f in fixture_fibres():
            for star in range(-1, f.dim_y + 3):
                for sr, tr, p, blk in row_blocks(f, star):
                    if tr == sr - 1:
                        assert blk == gamma(f, sr, p).scale(-1), (star, sr, p)
                        seen += not blk.is_zero()
        assert seen

    def test_d_prime_is_rho(self):
        seen = 0
        for f in fixture_fibres():
            for star in range(-1, f.dim_y + 3):
                for sr, tr, p, blk in row_blocks(f, star):
                    if tr == sr + 1:
                        assert blk == rho(f, sr, p), (star, sr, p)
                        seen += not blk.is_zero()
                    elif tr != sr - 1:
                        assert blk.is_zero(), (star, sr, tr, p)
        assert seen

    def test_total_rows_square_to_zero(self):
        for f in fixture_fibres():
            for star in range(-2, f.dim_y + 4):
                assert squares_to_zero(row_complex(f, total_rows(f, star))), star

    def test_n_is_identity_block(self):
        f = triangle()
        cone = full_cone_of_N(f, total_rows(f, 1), total_rows(f, 0))
        # Cone^1 = A^1 + B^0 -> Cone^2 = A^2 + B^1; N: A^1 -> B^1 is the
        # lower-left block, the identity on CH^0 of the three nodes
        d = cone.diff(1)
        assert (d.rows, d.cols) == (6, 6)
        assert sub_block(d, 3, 3, 0, 3) == Mat.identity(3)

    def test_bound_clips(self):
        f = triangle()
        assert codim_level(f, -1, 0, 0) is not None
        assert codim_level(f, -1, 0, 0, bound=0) is None
        assert piece_dim(f, -1, 0, 0, bound=0) == 0


class TestRowsAndCone:
    def test_triangle_tate_row(self):
        row = total_rows(triangle(), 1)
        cx = row_complex(triangle(), row)
        assert cx.dims == {1: 3, 2: 3}
        assert row.summands[1] == ((2, 3),)
        assert row.summands[2] == ((1, 3),)
        assert cx.diff(1) == gamma(triangle(), 2, 0).scale(-1)

    def test_triangle_weight_zero_row(self):
        cx = row_complex(triangle(), total_rows(triangle(), 0))
        assert cx.dims == {0: 3, 1: 3}
        assert cx.diff(0) == rho(triangle(), 1, 0)

    def test_triangle_cone_golden_values(self):
        f = triangle()
        cone = full_cone_of_N(f, total_rows(f, 1), total_rows(f, 0))
        assert cone.dims == {1: 6, 2: 6}
        assert cohomology_dims(cone) == {1: 1, 2: 1}
        # the shared CH^0 of the three nodes cancels, and what is left is C:
        # the hinge -gamma.rho = -i^*i_* on CH^0 of the components
        reduced = cone_of_N(f, 1)
        assert reduced.dims == {1: 3, 2: 3}
        assert reduced.diff(1) == build_C(f, 1).diff(1) == -(gamma(f, 2, 0) * rho(f, 1, 0))

    def test_cone_requires_adjacent_stars(self):
        # cone_of_N takes one star and builds the rows at star and star - 1
        # itself; the oracle's full cone still refuses rows not adjacent
        f = triangle()
        cone_of_N(f, 1)
        assert sorted(strata._index(f).twist_rows) == [0, 1]
        with pytest.raises(ValueError, match="star - 1"):
            full_cone_of_N(f, total_rows(f, 1), total_rows(f, 1))

    def test_ngon_dual_graph_row(self):
        f = generator_ngon(5, 2)
        cone = full_cone_of_N(f, total_rows(f, 0), total_rows(f, -1))
        # the cone over the zero row reduces to the dual graph complex of a cycle
        assert cohomology_dims(cone) == {0: 1, 1: 1}
        assert cohomology_dims(cone_of_N(f, 0)) == {0: 1, 1: 1}


class TestSmallComplex:
    def test_build_C_matches_degree_walk(self):
        for f in fixture_fibres():
            for star in range(-4, 9):
                got, want = build_C(f, star), degree_walk_build_C(f, star)
                assert got.dims == want.dims, star
                assert cohomology_dims(got) == cohomology_dims(want), star
                nonempty = {q: d for q, d in want.diffs.items() if d.rows and d.cols}
                assert {q: d for q, d in got.diffs.items() if d.rows and d.cols} == nonempty

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
                res = check_quasi_iso(f, star)
                assert res.ok, (n, star, res)

    def test_quasi_iso_smooth(self):
        f = generator_smooth({(0, 0): 1, (1, 0): 2, (2, 0): 1}, dim_y=2, q_v=4)
        for star in range(0, f.dim_y + 3):
            res = check_quasi_iso(f, star)
            assert res.ok, (star, res)

    def test_quasi_iso_surface_fixture(self):
        f = simplex_surface()
        for star in range(0, f.dim_y + 3):
            res = check_quasi_iso(f, star)
            assert res.ok, (star, res)

    def test_triangle_euler_characteristics_match(self):
        f = triangle()
        a = total_rows(f, 1)
        b = total_rows(f, 0)
        cone = full_cone_of_N(f, a, b)
        assert euler_characteristic(cone) == euler_characteristic(
            row_complex(f, a)
        ) - euler_characteristic(row_complex(f, b))
        assert euler_characteristic(cone_of_N(f, 1)) == euler_characteristic(cone)


class TestGenericComplexes:
    def test_cone_of_identity_is_acyclic(self):
        rng = random.Random(6)
        for _ in range(10):
            dims, diffs, _ = random_known_complex(rng)
            c = CochainComplex({k: d for k, d in dims.items() if d}, diffs)
            assert squares_to_zero(c)
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
            assert squares_to_zero(c)
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
        # by the oracle: mapping_cone takes its map to chain unchecked
        a = CochainComplex({0: 1, 1: 1}, {0: Mat.identity(1)})
        b = CochainComplex({0: 1, 1: 1}, {0: Mat.zero(1, 1)})
        assert not is_chain_map({0: Mat.identity(1), 1: Mat.identity(1)}, a, b)
        assert is_chain_map({0: Mat.identity(1), 1: Mat.identity(1)}, a, a)
        assert not is_chain_map({0: Mat.identity(2)}, a, a)  # wrong shape

    def test_d_squared_rejected(self):
        # by the oracle: a complex of the library is held to d.d = 0 by the
        # sign identities of its fibre, not by multiplying out
        c = CochainComplex(
            {0: 1, 1: 1, 2: 1},
            {0: Mat.identity(1), 1: Mat.identity(1)},
        )
        assert not squares_to_zero(c)
        assert not squares_to_zero(CochainComplex({0: 1, 1: 1}, {0: Mat.zero(2, 1)}))
        assert squares_to_zero(CochainComplex(c.dims, {0: Mat.identity(1)}))


class TestOneRankOneRow:
    """A quasi-iso sweep ranks each differential once and builds each twist
    row once; the counts are exact, not timings."""

    @staticmethod
    def surface():
        return conjugated(tensored(simplex_surface(), 2), random.Random(7))

    def test_rank_once_matches_two_ranks_per_degree(self):
        rng = random.Random(10)
        complexes = []
        for _ in range(20):
            dims, diffs, _ = random_known_complex(rng)
            complexes.append(CochainComplex({k: d for k, d in dims.items() if d}, diffs))
        for f in fixture_fibres():
            for star in range(-1, f.dim_y + 3):
                complexes.append(build_C(f, star))
                complexes.append(cone_of_N(f, star))
                complexes.append(full_cone_of_N(f, total_rows(f, star), total_rows(f, star - 1)))
        for c in complexes:
            assert cohomology_dims(c) == two_rank_cohomology_dims(c)

    def test_sweep_counts(self, monkeypatch):
        ranked, rows, complexes = [], [], []
        real_rank, real_dims, real_row = monodromy.rank, monodromy.cohomology_dims, monodromy.TwistRow

        def counted_dims(c):
            start = len(ranked)
            complexes.append(c)
            out = real_dims(c)
            assert sorted(map(id, ranked[start:])) == sorted(map(id, c.diffs.values()))
            return out

        def counted_row(star, summands):
            rows.append(star)
            return real_row(star, summands)

        monkeypatch.setattr(monodromy, "rank", lambda m: ranked.append(m) or real_rank(m))
        monkeypatch.setattr(monodromy, "cohomology_dims", counted_dims)
        monkeypatch.setattr(monodromy, "TwistRow", counted_row)
        f = self.surface()
        report = run_quasi_iso(Bundle(params=Params(3, 1, 2), fibres={"v0": f}))
        assert report.exit_code == 0 and len(report.lines) == 5
        assert rows == [0, -1, 1, 2, 3, 4]
        # the small complex per star: every reduced cone matched it up to sign
        assert complexes == [build_C(f, star) for star in range(5)]
        assert len(ranked) == sum(len(c.diffs) for c in complexes)

    def test_sweep_decides_each_identity_once(self, monkeypatch):
        composed, products = [], []
        real_mul = Mat.__mul__
        monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
        for kind, terms in list(strata._IDENTITIES.items()):
            monkeypatch.setitem(
                strata._IDENTITIES, kind,
                lambda f, r, p, j, kind=kind, terms=terms: composed.append((kind, r, p, j))
                or terms(f, r, p, j),
            )
        b = Bundle(params=Params(3, 1, 2), fibres={"v0": self.surface()})
        del products[:]
        report = run_quasi_iso(b)
        assert report.exit_code == 0 and len(report.lines) == 5
        # multiplying out every row and small complex took 52; the hinge
        # -gamma.rho of the reduced cone reuses the composed i^*i_*
        assert len(products) == 9
        b = Bundle(params=Params(3, 1, 2), fibres={"v0": self.surface()})
        del composed[:]
        assert run_validate(b).exit_code == 0 and run_quasi_iso(b) == report
        assert composed and len(set(composed)) == len(composed)
        assert {kind for kind, *_ in composed} == set(strata._IDENTITIES)

    # (kind, block, star at which the sweep stops, message); the stars were
    # recorded before twist rows were memoised, when every star built both
    # its rows
    FLIPS = (
        ("pull", ((1, 2), 1, 0, 0), 0, "rho.rho != 0 at level 1, codim 0, j 0"),
        ("push", ((1, 2), 1, 0, 0), 1, "gamma.rho+rho.gamma != 0 at level 2, codim 0, j 0"),
        ("push", ((1, 2, 3), 1, 0, 0), 1, "gamma.rho+rho.gamma != 0 at level 2, codim 0, j 0"),
        ("push", ((1, 2), 1, 1, 0), 2, "gamma.gamma != 0 at level 3, codim 0, j 0"),
    )

    @pytest.mark.parametrize("kind, key, star, message", FLIPS)
    def test_flipped_sign_stops_the_sweep_at_the_same_star(
        self, monkeypatch, kind, key, star, message
    ):
        stars = []
        real = workbench.check_quasi_iso

        def tracked(f, s):
            stars.append(s)
            return real(f, s)

        monkeypatch.setattr(workbench, "check_quasi_iso", tracked)
        f = with_flipped_sign(self.surface(), key, kind)
        with pytest.raises(DescriptorError) as exc:
            run_quasi_iso(Bundle(params=Params(3, 1, 2), fibres={"v0": f}))
        assert (stars[-1], str(exc.value)) == (star, message)


def with_hinge(f, ii):
    """``f`` with the explicit i^*i_* matrices ``ii``."""
    return Fibre(
        components=f.components, dim_y=f.dim_y, q_v=f.q_v, strata=f.strata,
        chow=dict(f.chow), pushforward=dict(f.pushforward), pullback=dict(f.pullback),
        ii_matrices=ii, higher_chow=dict(f.higher_chow),
    )


class TestReducedCone:
    """check_quasi_iso cancels N's identity blocks and ranks C; the full
    cone of ``tests/oracles.py`` is the reference for the cone's side."""

    @staticmethod
    def agree(f, g, star):
        """check_quasi_iso on ``f`` against the full cone and C of ``g``, a
        copy of ``f`` that shares no built map: the same result, or the
        same identity named."""
        try:
            got = check_quasi_iso(f, star)
        except DescriptorError as exc:
            with pytest.raises(DescriptorError, match=f"^{re.escape(str(exc))}$"):
                total_rows(g, star), total_rows(g, star - 1), build_C(g, star)
            return None
        cone = full_cone_of_N(g, total_rows(g, star), total_rows(g, star - 1))
        assert got.cone_cohomology == cohomology_dims(cone), star
        assert got.small_cohomology == cohomology_dims(build_C(g, star)), star
        return got

    def test_survivors_are_C_with_the_gamma_branch_negated(self):
        # one summand a degree: -gamma of C comes out as +gamma, rho as rho,
        # and the hinge as -gamma.rho = -i^*i_*
        seen = 0
        for f in fixture_fibres() + [five_level_fibre()]:
            for star in range(-1, f.dim_y + 3):
                cone, small = cone_of_N(f, star), build_C(f, star)
                assert cone.dims == small.dims, star
                for q in cone.diffs.keys() | small.diffs.keys():
                    sign = -1 if q < 2 * star - 1 else 1
                    assert cone.diff(q) == small.diff(q).scale(sign), (star, q)
                    seen += q == 2 * star - 1 and not small.diff(q).is_zero()
        assert seen > 10

    def test_every_fixture_flip_and_the_five_level_fibre(self):
        verdicts = []
        for fibre in fixture_fibres() + [five_level_fibre()]:
            for f, g in flips(fibre):
                for star in range(-1, fibre.dim_y + 3):
                    got = self.agree(f, g, star)
                    verdicts.append(None if got is None else got.ok)
        assert verdicts.count(None) and verdicts.count(True) > 500

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32))
    def test_conjugated_tensored_surfaces(self, c, seed):
        f, g = (conjugated(tensored(simplex_surface(), c), random.Random(seed)) for _ in "fg")
        for star in range(-1, f.dim_y + 3):
            assert self.agree(f, g, star).ok, star

    @pytest.mark.parametrize("factor, small", [
        (0, {1: 3, 2: 3}),      # i^*i_* = 0: C is not the cone
        (2, {1: 1, 2: 1}),      # 2 i^*i_*: not C's map, but C's rank
    ])
    def test_explicit_hinge_ranks_the_reduced_cone(self, monkeypatch, factor, small):
        ii = {(0, 0): compose_ii(simplex_surface(), 0).scale(factor)}
        f, g = with_hinge(simplex_surface(), ii), with_hinge(simplex_surface(), ii)
        ranked = []
        real = monodromy.cohomology_dims
        monkeypatch.setattr(monodromy, "cohomology_dims", lambda c: ranked.append(c) or real(c))
        got = self.agree(f, g, 1)
        assert (got.cone_cohomology, got.small_cohomology) == ({1: 1, 2: 1}, small)
        assert got.ok == bool(factor)
        assert ranked == [build_C(f, 1), cone_of_N(f, 1)]  # C, then the reduced cone

    def test_only_C_is_ranked_on_a_pass(self, monkeypatch):
        shapes = []
        real_rank = monodromy.rank
        monkeypatch.setattr(
            monodromy, "rank", lambda m: shapes.append((m.rows, m.cols)) or real_rank(m)
        )
        for f in (generator_ngon(40, 3), TestOneRankOneRow.surface()):
            del shapes[:]
            report = run_quasi_iso(Bundle(params=Params(3, 1, 2), fibres={"v0": f}))
            assert report.exit_code == 0
            stars = range(f.dim_y + 3)
            small = [(d.rows, d.cols) for s in stars for d in build_C(f, s).diffs.values()]
            cones = [full_cone_of_N(f, total_rows(f, s), total_rows(f, s - 1)) for s in stars]
            assert sorted(shapes) == sorted(small)
            cone_cells = max(d.rows * d.cols for c in cones for d in c.diffs.values())
            assert max(r * c for r, c in shapes) < cone_cells / 2
