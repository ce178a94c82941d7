import random
from fractions import Fraction

import pytest

from degen.bundle import Bundle, Params, dumps, loads
from degen.qlinalg import Mat, kernel_basis, rank
from degen.strata import (
    MAX_PRIME_POWER,
    DescriptorError,
    Fibre,
    build_level,
    compose_ii,
    gamma,
    generator_ngon,
    generator_smooth,
    ii_map,
    is_prime_power,
    rho,
    validate,
)
from fixtures import conjugated, fixture_fibres, simplex_surface, tensored, with_flipped_sign
from oracles import fraction_assemble, fraction_ii_map, trial_prime_power

F = Fraction


def test_prime_power():
    assert [n for n in range(1, 20) if is_prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
    ]


def test_prime_power_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime_power(n) != trial_prime_power(n)] == []


def test_prime_power_near_the_limit():
    p, r = 2**61 - 1, 4294967291  # primes
    assert is_prime_power(p) and is_prime_power(r**2) and is_prime_power(2**64)
    assert not is_prime_power(r * 4294967279) and not is_prime_power(p * 7)
    assert not is_prime_power(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(ValueError, match="2\\^64"):
        is_prime_power(MAX_PRIME_POWER + 1)


class TestNgon:
    def test_triangle_gamma(self):
        f = generator_ngon(3, 5)
        g = gamma(f, 2, 0)
        # nodes in lex order (1,2),(1,3),(2,3); node (i,j) maps to e_j - e_i
        assert g == Mat.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
        assert rank(g) == 2
        assert kernel_basis(g) == Mat.from_rows([[1], [-1], [1]])

    def test_triangle_rho(self):
        f = generator_ngon(3, 5)
        r = rho(f, 1, 0)
        # node (i,j) coordinate is x_j - x_i; constants form the kernel
        assert r == Mat.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
        assert kernel_basis(r).cols == 1

    def test_triangle_laplacian(self):
        f = generator_ngon(3, 5)
        lap = gamma(f, 2, 0) * rho(f, 1, 0)
        assert lap == Mat.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert rank(lap) == 2
        assert compose_ii(f, 0) == lap
        assert ii_map(f, 0) == lap

    def test_two_gon_shares_a_stratum(self):
        f = generator_ngon(2, 3)
        assert build_level(f, 2, 0).total == 2
        g = gamma(f, 2, 0)
        assert g == Mat.from_rows([[-1, -1], [1, 1]])
        assert rank(g) == 1

    def test_gamma_rank_is_n_minus_one(self):
        for n in range(2, 9):
            f = generator_ngon(n, 2)
            assert rank(gamma(f, 2, 0)) == n - 1

    def test_validate_passes(self):
        for n in range(2, 7):
            rep = validate(generator_ngon(n, 4))
            assert rep.ok
            assert rep.checked > 0

    def test_gamma_to_level_zero_is_empty(self):
        f = generator_ngon(3, 2)
        g = gamma(f, 1, 0)
        assert g.rows == 0 and g.cols == 3


class TestSmooth:
    def test_build_and_validate(self):
        f = generator_smooth({(0, 0): 1, (1, 0): 1}, dim_y=1, q_v=7)
        assert build_level(f, 1, 0).total == 1
        assert build_level(f, 1, 1).total == 1
        assert build_level(f, 2, 0).total == 0
        assert validate(f).ok

    def test_zero_dims_dropped(self):
        f = generator_smooth({(0, 0): 1, (1, 0): 0}, dim_y=1, q_v=7)
        assert build_level(f, 1, 1).total == 0


class TestSurfaceFixture:
    def test_validate_passes_and_is_nonvacuous(self):
        f = simplex_surface()
        rep = validate(f)
        assert rep.ok
        # the anticommutator at level 2, codim 0 is a real 3x3 identity here
        anti = gamma(f, 3, 0) * rho(f, 2, 0) + rho(f, 1, 1) * gamma(f, 2, 0)
        assert (anti.rows, anti.cols) == (3, 3)
        assert anti.is_zero()
        assert not (gamma(f, 3, 0) * rho(f, 2, 0)).is_zero()

    def test_gamma_squared_really_composes(self):
        f = simplex_surface()
        g2 = gamma(f, 2, 1) * gamma(f, 3, 0)
        assert (g2.rows, g2.cols) == (3, 1)
        assert g2.is_zero()
        assert not gamma(f, 3, 0).is_zero()

    @pytest.mark.parametrize("kind", ["push", "pull"])
    def test_any_sign_flip_is_detected(self, kind):
        f = simplex_surface()
        table = f.pushforward if kind == "push" else f.pullback
        for key in sorted(table):
            broken = with_flipped_sign(f, key, kind)
            assert not validate(broken).ok, f"flip at {kind} {key} went unnoticed"

    def test_randomized_forms_stay_valid(self):
        rng = random.Random(11)
        f = simplex_surface()
        for _ in range(5):
            g = conjugated(tensored(f, rng.choice([1, 2])), rng)
            assert validate(g).ok

    def test_randomized_ngon_stays_valid(self):
        rng = random.Random(12)
        for n in (2, 3, 5):
            g = conjugated(tensored(generator_ngon(n, 3), 2), rng)
            assert validate(g).ok
            assert rank(gamma(g, 2, 0)) == 2 * (n - 1)


class TestDescriptorErrors:
    def test_bad_q_v(self):
        with pytest.raises(DescriptorError):
            generator_ngon(3, 6)

    def test_missing_singleton(self):
        with pytest.raises(DescriptorError, match="missing from the strata"):
            Fibre(2, 1, 2, ((1,), (1, 2)), {}, {}, {})

    def test_not_downward_closed(self):
        with pytest.raises(DescriptorError, match="downward closed"):
            Fibre(3, 2, 2, ((1,), (2,), (3,), (1, 2, 3)), {}, {}, {})

    def test_duplicate_stratum(self):
        with pytest.raises(DescriptorError, match="duplicate"):
            Fibre(2, 1, 2, ((1,), (2,), (1, 2), (1, 2)), {}, {}, {})

    def test_not_increasing(self):
        with pytest.raises(DescriptorError, match="strictly increasing"):
            Fibre(2, 1, 2, ((1,), (2,), (2, 1)), {}, {}, {})

    def test_too_deep(self):
        with pytest.raises(DescriptorError, match="deeper"):
            Fibre(3, 1, 2, ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)), {}, {}, {})

    def test_wrong_block_shape(self):
        f = generator_ngon(3, 2)
        bad_push = dict(f.pushforward)
        bad_push[((1, 2), 1, 0, 0)] = Mat.from_rows([[1, 1]])
        with pytest.raises(DescriptorError, match="shape"):
            Fibre(3, 1, 2, f.strata, dict(f.chow), bad_push, dict(f.pullback))

    def test_missing_required_block(self):
        f = generator_ngon(3, 2)
        partial = dict(f.pushforward)
        del partial[((1, 2), 1, 0, 0)]
        g = Fibre(3, 1, 2, f.strata, dict(f.chow), partial, dict(f.pullback))
        with pytest.raises(DescriptorError, match="missing pushforward"):
            gamma(g, 2, 0)

    def test_explicit_ii_shape_checked(self):
        f = generator_ngon(3, 2)
        f.ii_matrices[(0, 0)] = Mat.from_rows([[1, 1]])
        with pytest.raises(DescriptorError, match="ii matrix"):
            ii_map(f, 0)

    def test_explicit_ii_shape_checked_when_built(self):
        f = generator_ngon(4, 2)
        with pytest.raises(DescriptorError, match="has shape 3x3, expected 4x4"):
            Fibre(
                f.components, f.dim_y, f.q_v, f.strata, f.chow, f.pushforward, f.pullback,
                ii_matrices={(0, 0): Mat.identity(3)},
            )


class TestIntegerAssembly:
    """gamma, rho and i^*i_* against the Fraction-dict block assembly."""

    @staticmethod
    def _maps(f):
        for j in f.observed_js() or (0,):
            for p in range(-1, f.dim_y + 2):
                for r in range(0, f.max_level + 2):
                    yield ("push", r, p, j), gamma(f, r, p, j)
                    yield ("pull", r, p, j), rho(f, r, p, j)
                yield ("ii", 1, p, j), ii_map(f, p, j)

    def test_maps_match_the_fraction_assembly(self):
        rng = random.Random(13)
        fibres = [
            *fixture_fibres(),
            conjugated(tensored(simplex_surface(), 3), rng),
            conjugated(generator_ngon(2, 3), rng),
        ]
        nonzero = 0
        for f in fibres:
            for (mode, r, p, j), got in self._maps(f):
                if mode == "ii":
                    want = fraction_ii_map(f, p, j)
                else:
                    want = fraction_assemble(f, r, p, j, mode)
                assert got == want, (mode, r, p, j)
                nonzero += not got.is_zero()
        assert nonzero > 50

    def test_loaded_fibres_assemble_alike(self):
        # the integer parse of "p/q" entries feeds the same maps
        rng = random.Random(14)
        for f in [*fixture_fibres(), conjugated(tensored(simplex_surface(), 2), rng)]:
            b = Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": f})
            loaded = loads(dumps(b)).fibres["v0"]
            assert loaded.pushforward == f.pushforward and loaded.pullback == f.pullback
            assert dict(self._maps(loaded)) == dict(self._maps(f))
