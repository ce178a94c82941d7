"""Report semantics: verdict routing, conductor twists, rendering."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen.bundle import Bundle, CycleDatum, GlobalL, MotivicDatum, Params, RegulatorDatum, dumps, loads
from degen.lfun import RatFunc, TooLarge
from degen.qlinalg import Mat
from degen.strata import Fibre, build_level
from degen.workbench import (
    ReportLine,
    build_example,
    render_text,
    render_tsv,
    run_conjecture,
    run_dim_theorem,
    run_quasi_iso,
    run_validate,
)

from fixtures import simplex_surface, with_flipped_sign
from fraction_routes import folded_conductor


def with_conductor(b, alpha, beta):
    g = GlobalL(z=b.global_l.z, weight_w=b.global_l.weight_w, conductor=(alpha, beta))
    return Bundle(b.params, b.fibres, b.places, b.motivic, g, b.integral)


def line(report, check):
    matches = [l for l in report.lines if l.check == check]
    assert len(matches) == 1, (check, report.lines)
    return matches[0]


def test_zeta_cff_golden_lines():
    b = build_example("zeta-fqt", {"q": 4})
    rep = run_conjecture(b, "CFF")
    assert rep.exit_code == 0
    assert line(rep, "CFF.orders").value == "kernel=3 cokernel=1"
    assert line(rep, "CFF.leading").value == "-1/3*log(q)^0 vs cokernel/kernel=1/3"
    assert line(rep, "Z.leading").value == "-1/3*log(q)^-1"


def test_integer_conductor_scales_leading_and_shifts_fe():
    b = build_example("zeta-fqt", {"q": 3})
    twisted = with_conductor(b, Fraction(2), 1)
    rep = run_conjecture(twisted, "CFF")
    # t-power leaves ord alone away from t = 0; q^2 scales the coefficient
    assert line(rep, "CFF.order").value == "ord=0 motivic_rank=0"
    base = run_conjecture(b, "CFF")
    base_coeff = Fraction(-1, 2)
    assert line(base, "Z.leading").value == f"{base_coeff}*log(q)^-1"
    # t^1 contributes t0 = q^0 = 1 at s = 0, so only q^2 shows up
    assert line(rep, "Z.leading").value == f"{base_coeff * 9}*log(q)^-1"
    fe_base = line(run_conjecture(b, "B2FF"), "B2FF.fe").value
    fe_tw = line(run_conjecture(twisted, "B2FF"), "B2FF.fe").value
    assert fe_base == "sign=+1 alpha=1 beta=2"
    assert fe_tw == "sign=+1 alpha=0 beta=0"


def test_fractional_conductor_is_inconclusive_not_wrong():
    b = build_example("zeta-fqt", {"q": 3})
    twisted = with_conductor(b, Fraction(1, 2), 0)
    rep = run_conjecture(twisted, "CFF")
    assert rep.exit_code == 2
    assert line(rep, "CFF.leading").verdict == "INCONCLUSIVE"
    assert line(rep, "Z.leading").verdict == "INCONCLUSIVE"
    # order statements stay decidable
    assert line(rep, "CFF.order").verdict == "PASS"


def _leading_coeff(report, check):
    """The rational before "*log(q)" on a decided leading-value line."""
    found = line(report, check)
    assert found.verdict != "INCONCLUSIVE", found
    return Fraction(found.value.split("*")[0])


@pytest.mark.parametrize("q, r, d", [(4, 2, 2), (8, 2, 3), (9, 3, 2)])
@pytest.mark.parametrize("a, beta", [(0, 0), (1, -1), (-2, 3)])
def test_rational_q_power_scales_the_leading_value(q, r, d, a, beta):
    # q = r^d, so q^(n/d) = r^n is rational and both leading lines are decided
    b = build_example("zeta-fqt", {"q": q})
    motivic = {"infty": MotivicDatum(regulator=RegulatorDatum(0, Mat.zero(0, 0)))}
    b = Bundle(Params(2 * a + 2, a, q), b.fibres, b.places, motivic, b.global_l, b.integral)
    base = run_conjecture(with_conductor(b, 0, beta), "CFF")
    for n in (1, -1, d + 1, 2 * d - 1):
        rep = run_conjecture(with_conductor(b, Fraction(n, d), beta), "CFF")
        for check in ("CFF.leading", "Z.leading"):
            assert _leading_coeff(rep, check) == _leading_coeff(base, check) * Fraction(r) ** n


def _outcome(b, which):
    """The text report of ``which`` on b, or the TooLarge message that ends it."""
    try:
        return render_text(run_conjecture(b, which))
    except TooLarge as exc:
        return f"TooLarge: {exc}"


def _poly(low_zeros):
    """Ascending integer coefficients after ``low_zeros`` zeros, top one nonzero."""
    return st.tuples(
        st.lists(st.integers(-9, 9), max_size=4), st.integers(1, 9), st.sampled_from([1, -1])
    ).map(lambda t: [0] * low_zeros + t[0] + [t[1] * t[2]])


@st.composite
def _conductor_bundles(draw):
    """A zeta-fqt bundle at a drawn twist a, non-boundary or boundary, with
    Z the example's or random (a t-power in its numerator or denominator),
    weight w and conductor (alpha, beta), alpha an integer or a fraction."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    a = draw(st.one_of(st.integers(-3, 3), st.sampled_from([-400, 400, 1000])))
    boundary = draw(st.booleans())
    b = build_example("zeta-fqt", {"q": q})
    motivic = b.motivic
    if a != 0:
        ambient = build_level(b.fibres["infty"], 1, a).total if boundary else 0
        motivic = {"infty": MotivicDatum(regulator=RegulatorDatum(0, Mat.zero(ambient, 0)))}
    shift = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        power = [0] * abs(shift) + [1]
        z = b.global_l.z * (RatFunc.make(power, [1]) if shift >= 0 else RatFunc.make([1], power))
    else:
        z = RatFunc.make(draw(_poly(max(shift, 0))), draw(_poly(max(-shift, 0))))
    alpha = draw(st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-7, 7), st.sampled_from([2, 3])),
    ))
    conductor = (alpha, draw(st.integers(-40, 40)))
    global_l = GlobalL(z=z, weight_w=draw(st.integers(-2, 3)), conductor=conductor)
    params = Params(2 * a + (1 if boundary else 2), a, q)
    return Bundle(params, b.fibres, b.places, motivic, global_l, b.integral)


@settings(max_examples=150, deadline=None)
@given(_conductor_bundles())
def test_conductor_exponents_agree_with_the_folded_t_power(b):
    # the runners keep (alpha, beta) as exponents; folding t^beta into Z as
    # a polynomial, the route they replaced, must give the same reports and
    # the same refusals of values too large to print
    folded = folded_conductor(b)
    for which in ("B1FF", "B2FF", "CFF"):
        assert _outcome(b, which) == _outcome(folded, which), which


def test_conductor_roundtrips_through_json():
    b = with_conductor(build_example("zeta-fqt", {"q": 3}), Fraction(1, 2), -1)
    text = dumps(b)
    again = loads(text)
    assert again.global_l.conductor == (Fraction(1, 2), -1)
    assert dumps(again) == text
    assert json.loads(text)["global"]["conductor"] == ["1/2", -1]


def test_regime_routing_between_A_checks():
    boundary = build_example("ngon")
    higher = build_example("smooth-ec")
    assert run_conjecture(boundary, "A1").lines[0].verdict == "INCONCLUSIVE"
    assert run_conjecture(boundary, "A2").exit_code == 0
    assert run_conjecture(higher, "A2").lines[0].verdict == "INCONCLUSIVE"
    assert run_conjecture(higher, "A1").exit_code == 0
    assert run_conjecture(boundary, "B1FF").lines[0].verdict == "INCONCLUSIVE"
    assert run_conjecture(higher, "B2FF").lines[0].verdict == "INCONCLUSIVE"


def test_missing_motivic_entry_is_inconclusive():
    b = build_example("ngon")
    stripped = Bundle(b.params, b.fibres, b.places, {}, b.global_l, b.integral)
    rep = run_conjecture(stripped, "A2")
    assert rep.exit_code == 2
    assert "no motivic data" in rep.lines[0].value


def _without_integral():
    b = build_example("zeta-fqt", {"q": 4})
    return Bundle(b.params, b.fibres, b.places, b.motivic, b.global_l, None)


def _cycles_off_the_kernel():
    # at a = 0, i^*i_* on CH^0 of the 3-gon's components is the cycle
    # Laplacian, which does not kill the first component's class
    b = build_example("ngon")
    cyc = CycleDatum(1, Mat.from_rows([[1], [0], [0]]), None)
    params = Params(1, 0, b.params.field_q)
    return Bundle(params, b.fibres, b.places, {"v0": MotivicDatum(cycle_class=cyc)}, b.global_l)


def _reversal_off_the_q_powers():
    # 1/(1 + 2t) passes the reversal test at weight 1 on q = 4, but the
    # ratio of its end coefficients, 1/2, is no power of 4
    b = build_example("zeta-fqt", {"q": 4})
    g = GlobalL(RatFunc.make([1], [1, 2]), 1)
    return Bundle(b.params, b.fibres, b.places, b.motivic, g, b.integral)


@pytest.mark.parametrize("build, which, want", [
    (_without_integral, "CFF", ("CFF", "-", "INCONCLUSIVE", "missing integral regulator")),
    (_cycles_off_the_kernel, "A2",
     ("A2", "v0", "FAIL", "cycle classes do not land in ker(i^*i_*)")),
    (_reversal_off_the_q_powers, "B2FF",
     ("B2FF.fe", "-", "FAIL", "Z is not self-dual for this weight")),
], ids=["no-integral", "cycles-off-kernel", "not-self-dual"])
def test_report_lines_of_unusable_data(build, which, want):
    rep = run_conjecture(build(), which)
    assert line(rep, want[0]) == ReportLine(*want)


def test_validate_failure_names_the_identity():
    bad = Bundle(
        params=Params(3, 1, 2),
        fibres={"v0": with_flipped_sign(simplex_surface(), ((1, 2), 1, 0, 0))},
    )
    rep = run_validate(bad)
    assert rep.exit_code == 1
    assert "first:" in rep.lines[0].value


def test_dim_theorem_without_places_is_inconclusive():
    b = Bundle(params=Params(3, 1, 2), fibres={"v0": simplex_surface()})
    rep = run_dim_theorem(b)
    assert rep.exit_code == 2
    assert "no Frobenius data" in rep.lines[0].value


def test_render_text_aligns_and_summarizes():
    b = build_example("zeta-fqt", {"q": 2})
    text = render_text(run_conjecture(b, "CFF"))
    assert text.endswith("PASS (checked=5)\n")
    rows = text.splitlines()[:-1]
    starts = {r.index("PASS") for r in rows}
    assert len(starts) == 1  # verdict column lines up


def test_render_tsv_has_no_padding():
    b = build_example("zeta-fqt", {"q": 2})
    tsv = render_tsv(run_dim_theorem(b))
    assert tsv == "dim\tinfty\tPASS\tdim=1 -ord=1\n"


def test_quasi_iso_runner_flags_disagreement():
    # zeroing the hinge map keeps d^2 = 0 (both compositions through it
    # vanish termwise) but changes the small complex's cohomology, so the
    # comparison against Cone(N) must fail
    from degen.qlinalg import Mat
    from degen.strata import ii_map

    f = simplex_surface()
    good = ii_map(f, 0)
    assert not good.is_zero()
    bad = Fibre(
        f.components, f.dim_y, f.q_v, f.strata, f.chow, f.pushforward, f.pullback,
        {(0, 0): Mat.zero(good.rows, good.cols)}, f.higher_chow,
    )
    b = Bundle(params=Params(3, 1, 2), fibres={"v0": bad})
    rep = run_quasi_iso(b, star=1)
    assert rep.exit_code == 1
    assert "cone=" in rep.lines[0].value
