"""Deligne-group presentations, cycle classes, and the A-type rank checks."""

import functools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen.deligne import (
    ConjectureAResult,
    CycleDatum,
    conjecture_A_check,
    deligne_group,
    integral_orders,
    z_map,
)
from degen.qlinalg import (
    AbGroupMap,
    FPAbelianGroup,
    Mat,
    kernel_basis,
    kernel_cokernel_orders,
    rank,
    residues,
    solve,
)
from degen.strata import (
    DescriptorError,
    Fibre,
    gamma,
    generator_ngon,
    generator_smooth,
    ii_map,
)

from fixtures import fixture_fibres, simplex_surface
from oracles import (
    brute_cokernel_order,
    brute_kernel_order,
    column,
    dense_quotient_dim,
    flagged_residues,
    random_finite_group,
    random_group_map,
    residue_reduction,
)


def F(x):
    return Fraction(x)


def test_ngon_boundary_group_dimension():
    # ker(i^*i_*) is everything (no codim-1 classes on the nodes) and
    # im(gamma) has rank n-1, leaving a line: the degree direction.
    for n in range(2, 7):
        f = generator_ngon(n, 2)
        g = deligne_group(f, 3, 1)
        assert g.kind == "boundary"
        assert g.ambient_dim == n
        assert g.dim == 1


def test_triangle_group_pieces():
    f = generator_ngon(3, 2)
    g = deligne_group(f, 3, 1)
    assert g.kernel is not None and g.kernel.cols == 3
    assert g.modulo is not None and rank(g.modulo) == 2


def test_higher_regime_reads_table():
    f = generator_smooth({(0, 0): 1, (1, 0): 1}, 1, 4)
    object.__setattr__(f, "higher_chow", {(1, 1): 0})
    g = deligne_group(f, 2, 0)
    assert g.kind == "higher"
    assert g.dim == 0
    object.__setattr__(f, "higher_chow", {(1, 1): 5})
    assert deligne_group(f, 2, 0).dim == 5


def test_higher_regime_defaults_to_zero():
    f = generator_ngon(3, 2)
    assert deligne_group(f, 4, 1).dim == 0


def test_unsupported_range_rejected():
    f = generator_ngon(3, 2)
    with pytest.raises(DescriptorError):
        deligne_group(f, 2, 1)


def test_boundary_in_kernel_for_valid_fibres():
    for f, a in ((generator_ngon(4, 3), 1), (simplex_surface(), 1), (simplex_surface(), 2)):
        assert (ii_map(f, a) * gamma(f, 2, a - 1)).is_zero()


def test_explicit_ii_violating_containment_rejected():
    f = simplex_surface()
    bad = Mat.zero(3, 6).entries
    bad = [list(row) for row in bad]
    bad[0][0] = F(1)
    object.__setattr__(
        f, "ii_matrices", {(1, 0): Mat.from_rows(bad, cols=6)}
    )
    with pytest.raises(DescriptorError):
        deligne_group(f, 3, 1)


def test_surface_group_consistency():
    f = simplex_surface()
    for a in (1, 2):
        g = deligne_group(f, 2 * a + 1, a)
        ii = ii_map(f, a)
        gam = gamma(f, 2, a - 1)
        assert g.ambient_dim == ii.cols
        assert g.dim == (ii.cols - rank(ii)) - rank(gam)
        assert g.dim >= 0


def test_residues_are_idempotent():
    mod = Mat.from_rows(
        [[F(2), F(-1)], [F(-1), F(2)], [F(-1), F(-1)]], cols=2
    )
    vectors = Mat.hstack([Mat.identity(3), mod, Mat.zero(3, 0)])
    r = residues(vectors, mod)
    assert residues(r, mod) == r
    assert r == residue_reduction(mod) * vectors
    assert residues(mod, mod).is_zero()


@functools.cache
def boundary_groups():
    """The boundary groups of every fixture fibre, a = 0..dim_y, built once."""
    return tuple(
        deligne_group(f, 2 * a + 1, a) for f in fixture_fibres() for a in range(f.dim_y + 1)
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_residues_rank_the_quotient(data):
    # random ambient vectors beside combinations of the gamma columns,
    # ranked modulo im(gamma) from the rows the group eliminated once
    groups = boundary_groups()
    g = groups[data.draw(st.integers(0, len(groups) - 1))]
    n, m = g.ambient_dim, g.modulo.cols
    small = st.integers(-3, 3)
    c = data.draw(st.integers(0, 3))
    free = Mat.from_rows([[data.draw(small) for _ in range(c)] for _ in range(n)], cols=c)
    k = data.draw(st.integers(0, 3))
    mix = Mat.from_rows([[data.draw(small) for _ in range(k)] for _ in range(m)], cols=k)
    vectors = Mat.hstack([free, g.modulo * mix])
    got = g.residues(vectors)
    assert got == residues(vectors, g.modulo) == flagged_residues(vectors, g.modulo)
    assert rank(got) == dense_quotient_dim(vectors.entries, g.modulo.entries, c + k, m)
    # a group rebuilt from its fields eliminates gamma^T on first use
    assert pickle.loads(pickle.dumps(g)).residues(vectors) == got


def test_group_residues_need_the_boundary_presentation():
    g = deligne_group(generator_ngon(3, 2), 3, 1)
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        g.residues(Mat.zero(2, 1))
    with pytest.raises(ValueError, match="boundary presentation"):
        deligne_group(generator_ngon(3, 2), 4, 1).residues(Mat.zero(0, 1))


def with_explicit_ii(f: Fibre, rng: random.Random) -> Fibre:
    """``f`` with explicit i^*i_* matrices T * (composed i^*i_*) at every
    level-one codim, T random and often singular, so each kernel contains
    the composed one and im(gamma) still lies in it."""
    codims = sorted({(p, j) for (s, p, j) in f.chow if len(s) == 1})
    ii = {}
    for p, j in codims:
        composed = ii_map(f, p, j)
        t = Mat.from_rows(
            [[rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(composed.rows)]
             for _ in range(composed.rows)],
            cols=composed.rows,
        )
        ii[p, j] = t * composed
    return Fibre(
        components=f.components, dim_y=f.dim_y, q_v=f.q_v, strata=f.strata,
        chow=dict(f.chow), pushforward=dict(f.pushforward), pullback=dict(f.pullback),
        ii_matrices=ii, higher_chow=dict(f.higher_chow),
    )


def test_contains_agrees_with_the_kernel_solve():
    # membership by one product against membership by a solve on the basis
    rng = random.Random(11)
    checked = outside = 0
    for f in fixture_fibres():
        for fibre in (f, with_explicit_ii(f, rng)):
            for a in range(1, fibre.dim_y + 1):
                g = deligne_group(fibre, 2 * a + 1, a)
                n = g.ambient_dim
                probes = Mat.identity(n).columns() + [g.modulo, g.kernel]
                probes.append(Mat.from_rows(
                    [[rng.choice([0, 1, -1, Fraction(2, 3)]) for _ in range(2)] for _ in range(n)], cols=2
                ))
                for v in probes:
                    want = solve(g.kernel, v) is not None
                    assert g.contains(v) == want
                    checked += 1
                    outside += not want
    assert checked and outside


def test_kernel_is_canonical_and_built_once(monkeypatch):
    import degen.deligne as deligne

    calls = []
    real = deligne.kernel_basis
    monkeypatch.setattr(deligne, "kernel_basis", lambda m: calls.append(m) or real(m))
    g = deligne_group(simplex_surface(), 3, 1)
    assert calls == []
    assert g.kernel == kernel_basis(ii_map(simplex_surface(), 1))
    assert g.coords_in_quotient(g.kernel) is not None
    assert g.kernel is g.kernel
    assert len(calls) == 1
    assert deligne_group(simplex_surface(), 5, 1).kernel is None


def test_triangle_cycle_class_frozen():
    f = generator_ngon(3, 2)
    xi = column([F(1), F(0), F(0)])
    z = z_map(f, 1, CycleDatum(b_rank=1, xi=xi))
    assert z == column([F(0), F(0), F(1)])


def test_cycle_class_shape_errors():
    f = generator_ngon(3, 2)
    with pytest.raises(DescriptorError):
        z_map(f, 1, CycleDatum(b_rank=1, xi=column([F(1), F(0)])))
    with pytest.raises(DescriptorError):
        z_map(
            f,
            1,
            CycleDatum(
                b_rank=1,
                xi=column([F(1), F(0), F(0)]),
                tau=Mat.identity(2),
            ),
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    shifts=st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
)
def test_cycle_class_ignores_representative(n, shifts):
    f = generator_ngon(n, 2)
    lower = ii_map(f, 0)
    xi = column([F(1)] + [F(0)] * (n - 1))
    coeffs = column([F(s) for s in shifts[:n]])
    shifted = xi + lower * coeffs
    base = z_map(f, 1, CycleDatum(b_rank=1, xi=xi))
    moved = z_map(f, 1, CycleDatum(b_rank=1, xi=shifted))
    assert base == moved


def test_ngon_conjecture_A2_passes():
    for n in range(2, 7):
        f = generator_ngon(n, 3)
        g = deligne_group(f, 3, 1)
        xi = column([F(1)] + [F(0)] * (n - 1))
        z = z_map(f, 1, CycleDatum(b_rank=1, xi=xi))
        res = conjecture_A_check(g, reg=None, cycle_images=z)
        assert isinstance(res, ConjectureAResult)
        assert res.kind == "A2"
        assert res.ok, res


def test_conjecture_A2_detects_rank_drop():
    f = generator_ngon(3, 2)
    g = deligne_group(f, 3, 1)
    # a class already inside im(gamma) projects to zero
    dead = gamma(f, 2, 0).columns()[0]
    res = conjecture_A_check(g, reg=None, cycle_images=dead)
    assert res.in_kernel
    assert res.achieved_rank == 0
    assert not res.ok


def test_conjecture_A2_detects_kernel_escape():
    f = simplex_surface()
    g = deligne_group(f, 3, 1)
    ii = ii_map(f, 1)
    outside = None
    for c in range(ii.cols):
        col = Mat.identity(ii.cols).columns()[c]
        if solve(g.kernel, col) is None:
            outside = col
            break
    if outside is None:
        pytest.skip("every coordinate vector lies in the kernel")
    res = conjecture_A_check(g, reg=None, cycle_images=outside)
    assert not res.in_kernel
    assert not res.ok


def test_conjecture_A1_good_reduction():
    f = generator_smooth({(0, 0): 1, (1, 0): 1}, 1, 4)
    g = deligne_group(f, 2, 0)
    res = conjecture_A_check(g, reg=Mat.zero(0, 0))
    assert res.kind == "A1"
    assert res.ok


def test_conjecture_A1_rank_mismatch():
    f = generator_ngon(3, 2)
    object.__setattr__(f, "higher_chow", {(3, 2): 2})
    g = deligne_group(f, 5, 1)
    assert g.dim == 2
    reg = Mat.from_rows([[F(1), F(1)], [F(1), F(1)]], cols=2)
    res = conjecture_A_check(g, reg=reg)
    assert res.achieved_rank == 1
    assert not res.ok


def test_integral_orders_zeta_shape():
    for q in (2, 3, 4, 5, 7, 8, 9):
        source = FPAbelianGroup.make(2, [[q - 1], [0]])
        target = FPAbelianGroup.make(1, [[]])
        reg = AbGroupMap.make(source, target, [[0, 1]])
        b, c = integral_orders(reg)
        assert (b, c) == (q - 1, 1)


def test_integral_orders_infinite_flagged():
    source = FPAbelianGroup.make(1, [[]])
    target = FPAbelianGroup.make(1, [[]])
    zero = AbGroupMap.make(source, target, [[0]])
    assert integral_orders(zero) == (None, None)


def test_integral_orders_agree_with_enumeration():
    rng = random.Random(4)
    for _ in range(60):
        f = random_group_map(rng, random_finite_group(rng), random_finite_group(rng))
        want = (brute_kernel_order(f), brute_cokernel_order(f))
        assert integral_orders(f) == want
        assert kernel_cokernel_orders(f) == want
    z = FPAbelianGroup.make(1, [[]])
    trivial = FPAbelianGroup.make(0, [])
    assert integral_orders(AbGroupMap.make(z, trivial, [])) == (None, 1)
    assert integral_orders(AbGroupMap.make(trivial, z, [[]])) == (1, None)


def test_integral_orders_at_scale():
    # Z/12 + Z^200 -> Z^200 over 96 places: elementary divisors alone, in a
    # child process that a slow Smith form cannot outlast
    code = (
        "from fixtures import multi_place_bundle\n"
        "from degen.deligne import integral_orders\n"
        "print(integral_orders(multi_place_bundle(96, 200).integral))\n"
    )
    path = os.pathsep.join([os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(12, 1)"
