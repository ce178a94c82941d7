"""Report semantics: verdict routing, conductor twists, rendering."""

import json
from fractions import Fraction

from degen.bundle import Bundle, GlobalL, Params, dumps, loads
from degen.strata import Fibre
from degen.workbench import (
    build_example,
    render_text,
    render_tsv,
    run_conjecture,
    run_dim_theorem,
    run_quasi_iso,
    run_validate,
)

from fixtures import simplex_surface, with_flipped_sign


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
