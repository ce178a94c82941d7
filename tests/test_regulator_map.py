"""The shared regulator-map check against the per-check routes it replaced.

``deligne.conjecture_A_check`` takes one (group, regulator, cycle
classes) triple per place: A1/A2 give it one place, B1FF/B2FF every
marked place.  ``regulator_routes`` keeps the checks as they were before
they shared it: the one-place ``conjecture_A_check`` with its A1/A2
``kind``, B1FF's summed regulator ranks and B2FF's own kernel test and
block assembly.  Every result and report line must agree with them.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regulator_routes
from degen.bundle import Bundle, GlobalL, MotivicDatum, Params, Place, RegulatorDatum
from degen.deligne import CycleDatum, conjecture_A_check, deligne_group, z_map
from degen.lfun import RatFunc
from degen.qlinalg import Mat
from degen.strata import DescriptorError, Fibre
from degen.workbench import run_conjecture

from fixtures import fixture_fibres, multi_place_bundle
from test_pinned_reports import branch_bundles

FIBRES = fixture_fibres()


@functools.cache
def boundary_group(i: int, a: int):
    return deligne_group(FIBRES[i], 2 * a + 1, a)


def fields(res):
    return (res.dim, res.expected_sources, res.achieved_rank, res.in_kernel, res.ok)


def line(report, check):
    matches = [l for l in report.lines if l.check == check]
    assert len(matches) == 1, (check, report.lines)
    return matches[0]


small = st.integers(min_value=-3, max_value=3)


@st.composite
def columns(draw, g, k: int):
    """k ambient columns of g, each in ker(i^*i_*), in im(gamma) (so its
    residue is 0), or arbitrary."""
    cols = []
    for _ in range(k):
        kind = draw(st.sampled_from(("kernel", "kernel", "gamma", "any")))
        span = {"kernel": g.kernel, "gamma": g.modulo}.get(kind)
        if span is None or span.cols == 0:
            vec = draw(st.lists(small, min_size=g.ambient_dim, max_size=g.ambient_dim))
            cols.append(Mat.from_rows([[x] for x in vec], cols=1))
        else:
            coeffs = draw(st.lists(small, min_size=span.cols, max_size=span.cols))
            cols.append(span * Mat.from_rows([[c] for c in coeffs], cols=1))
    return Mat.hstack(cols) if cols else Mat.zero(g.ambient_dim, 0)


@st.composite
def block(draw, g):
    """No block (None) or up to three ambient columns of g."""
    k = draw(st.integers(min_value=-1, max_value=3))
    return None if k < 0 else draw(columns(g, k))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_boundary_place_matches_the_reference(data):
    i = data.draw(st.integers(min_value=0, max_value=len(FIBRES) - 1))
    a = data.draw(st.integers(min_value=0, max_value=FIBRES[i].dim_y + 1))
    g = boundary_group(i, a)
    reg = data.draw(block(g))
    cyc = data.draw(block(g))
    want = regulator_routes.conjecture_A_check(g, reg, cyc)
    assert want.kind == "A2"
    assert fields(conjecture_A_check([(g, reg, cyc)])) == fields(want)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=0, max_value=3),
    entries=st.lists(st.lists(small, min_size=4, max_size=4), min_size=4, max_size=4),
    cols=st.integers(min_value=0, max_value=4),
)
def test_one_higher_place_matches_the_reference(dim, entries, cols):
    f = with_higher_chow(FIBRES[0], {(2, 1): dim})
    g = deligne_group(f, 4, 1)
    reg = Mat.from_rows([row[:cols] for row in entries[:dim]], cols=cols)
    want = regulator_routes.conjecture_A_check(g, reg)
    assert want.kind == "A1"
    assert fields(conjecture_A_check([(g, reg, None)])) == fields(want)


def with_higher_chow(f: Fibre, higher_chow: dict) -> Fibre:
    return Fibre(
        components=f.components, dim_y=f.dim_y, q_v=f.q_v, strata=f.strata, chow=f.chow,
        pushforward=f.pushforward, pullback=f.pullback, ii_matrices=f.ii_matrices,
        higher_chow=higher_chow,
    )


def global_bundle(params: Params, fibres: dict, motivic: dict) -> Bundle:
    """Fibres and motivic data with what B1FF/B2FF need beside them: trivial
    Frobenius data and the zeta function of P^1 as the global L-function."""
    return Bundle(
        params=params,
        fibres=fibres,
        places={name: Place(deg_v=1, frob=Mat.identity(1)) for name in fibres},
        motivic=motivic,
        global_l=GlobalL(z=RatFunc.make([1], [1, -3, 2]), weight_w=1),
    )


def assert_global_lines_agree(b: Bundle) -> None:
    """B1FF.regulator or B2FF.map, whichever the twist makes b's global
    map line, as the reference builds it."""
    boundary = b.params.q_coh - 2 * b.params.a == 1
    which = "B2FF" if boundary else "B1FF"
    route = regulator_routes.b2_map_line if boundary else regulator_routes.b1_regulator_line
    want = route(b)
    assert line(run_conjecture(b, which), want.check) == want


@settings(max_examples=40, deadline=None)
@given(
    places=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_multi_place_bundles_match_the_reference(places, seed):
    b = multi_place_bundle(places, 2, seed=seed)
    assert_global_lines_agree(b)
    for name, rep in zip(sorted(b.fibres), run_conjecture(b, "A2").lines):
        g = deligne_group(b.fibres[name], 1, 0)
        m = b.motivic[name]
        cyc = z_map(b.fibres[name], 0, m.cycle_class)
        want = regulator_routes.conjecture_A_check(g, m.regulator.matrix, cyc)
        assert rep.value == (
            f"sources={want.expected_sources} rank={want.achieved_rank} dim={want.dim}"
        )


@pytest.mark.parametrize("name, b", sorted(branch_bundles().items()))
def test_pinned_branch_bundles_match_the_reference(name, b):
    assert_global_lines_agree(b)


def test_kernel_escape_is_named_before_an_unshared_b_rank():
    triangle = FIBRES[1]
    e0 = Mat.from_rows([[1], [0], [0]], cols=1)
    motivic = {"v0": MotivicDatum(cycle_class=CycleDatum(1, e0)), "v1": MotivicDatum()}
    b = global_bundle(Params(1, 0, 2), {"v0": triangle, "v1": triangle}, motivic)
    assert_global_lines_agree(b)
    assert line(run_conjecture(b, "B2FF"), "B2FF.map").value == (
        "cycle classes do not land in ker(i^*i_*)"
    )


@st.composite
def boundary_bundles(draw):
    """One to three fixture fibres at a shared boundary twist; each place
    has regulator columns (in the kernel, in im(gamma) or anywhere) and
    cycle classes whose widths may differ between places."""
    indices = draw(st.lists(st.integers(min_value=0, max_value=len(FIBRES) - 1), min_size=1, max_size=3))
    a = draw(st.integers(min_value=0, max_value=min(FIBRES[i].dim_y for i in indices) + 1))
    b_rank = draw(st.integers(min_value=0, max_value=2))
    fibres, motivic = {}, {}
    for k, i in enumerate(indices):
        name = f"v{k}"
        g = boundary_group(i, a)
        fibres[name] = FIBRES[i]
        reg = draw(block(g))
        width = draw(st.sampled_from((b_rank, b_rank, b_rank, b_rank + 1, None)))
        cycle = None if width is None else CycleDatum(width, draw(columns(g, width)))
        motivic[name] = MotivicDatum(
            regulator=None if reg is None else RegulatorDatum(reg.cols, reg),
            cycle_class=cycle,
        )
    return global_bundle(Params(2 * a + 1, a, 2), fibres, motivic)


@settings(max_examples=80, deadline=None)
@given(boundary_bundles())
def test_b2ff_map_matches_the_reference(b):
    assert_global_lines_agree(b)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    heights=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    entries=st.lists(small, min_size=16, max_size=16),
    cols=st.integers(min_value=0, max_value=3),
)
def test_b1ff_regulator_matches_the_reference(dims, heights, entries, cols):
    """B1FF reads ranks alone, whatever the regulator heights; A1 ends on
    the first place whose regulator is not dim rows high."""
    fibres, motivic = {}, {}
    for k, dim in enumerate(dims):
        name = f"v{k}"
        fibres[name] = with_higher_chow(FIBRES[k], {(2, 1): dim})
        rows = [entries[4 * r : 4 * r + cols] for r in range(heights[k])]
        reg = Mat.from_rows(rows, cols=cols)
        motivic[name] = MotivicDatum(regulator=RegulatorDatum(cols, reg))
    b = global_bundle(Params(4, 1, 2), fibres, motivic)
    assert_global_lines_agree(b)
    try:
        want = [
            regulator_routes.conjecture_A_check(deligne_group(f, 4, 1), m.regulator.matrix)
            for f, m in ((fibres[n], motivic[n]) for n in sorted(fibres))
        ]
    except DescriptorError as exc:
        with pytest.raises(DescriptorError) as got:
            run_conjecture(b, "A1")
        assert str(got.value) == str(exc)
    else:
        got = run_conjecture(b, "A1").lines
        assert [l.value for l in got] == [
            f"sources={w.expected_sources} rank={w.achieved_rank} dim={w.dim}" for w in want
        ]
