"""Round trips and rejection paths for the JSON instance format."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen import qlinalg
from degen.bundle import BundleError, Bundle, Params, dumps, load, loads
from degen.workbench import build_example

from fixtures import multi_place_bundle, simplex_surface


def roundtrip(b):
    text = dumps(b)
    again = loads(text)
    assert dumps(again) == text
    return again


def test_examples_roundtrip_bytewise():
    for name in ("zeta-fqt", "ngon", "smooth-ec"):
        roundtrip(build_example(name))


def test_roundtrip_preserves_content():
    b = build_example("zeta-fqt", {"q": 3})
    again = roundtrip(b)
    assert again.params == b.params
    assert again.fibres["infty"].chow == b.fibres["infty"].chow
    assert again.places["infty"].frob == b.places["infty"].frob
    assert again.global_l is not None and b.global_l is not None
    assert again.global_l.z == b.global_l.z
    assert again.global_l.conductor == b.global_l.conductor
    assert again.integral is not None and b.integral is not None
    assert again.integral.matrix == b.integral.matrix
    m = again.motivic["infty"]
    assert m.cycle_class is not None and m.cycle_class.b_rank == 1


def test_surface_fibre_roundtrip():
    b = Bundle(params=Params(3, 1, 2), fibres={"v0": simplex_surface()})
    again = roundtrip(b)
    f = again.fibres["v0"]
    assert f.components == 3
    assert len(f.pushforward) == len(simplex_surface().pushforward)


def as_data(name="ngon", overrides=None):
    return json.loads(dumps(build_example(name, overrides or {})))


def test_unknown_top_key_rejected_only_in_strict_mode():
    data = as_data()
    data["bogus"] = 1
    text = json.dumps(data)
    with pytest.raises(BundleError, match="bogus"):
        loads(text)
    loads(text, strict=False)


def test_unknown_nested_keys_rejected():
    cases = [
        ("ngon", ("params",)),
        ("ngon", ("fibres", "v0")),
        ("ngon", ("fibres", "v0", "chow", 0)),
        ("ngon", ("places", "v0")),
        ("ngon", ("motivic", "v0", "cycle_class")),
        ("zeta-fqt", ("global",)),
        ("zeta-fqt", ("integral",)),
    ]
    for name, path in cases:
        data = as_data(name)
        node = data
        for step in path:
            node = node[step]
        node["pushfoward"] = 1
        with pytest.raises(BundleError, match="pushfoward"):
            loads(json.dumps(data))


def test_missing_required_key():
    data = as_data()
    del data["params"]["q_coh"]
    with pytest.raises(BundleError, match="q_coh"):
        loads(json.dumps(data))


def test_q_v_must_match_field_power():
    data = as_data()
    data["places"]["v0"]["deg_v"] = 2
    with pytest.raises(BundleError, match="q_v"):
        loads(json.dumps(data))


def test_places_must_cover_fibres_exactly():
    data = as_data()
    data["places"]["extra"] = {"deg_v": 1, "frob": [["1"]]}
    with pytest.raises(BundleError, match="places"):
        loads(json.dumps(data))


def test_motivic_for_unknown_place():
    data = as_data()
    data["motivic"]["nowhere"] = {}
    with pytest.raises(BundleError, match="nowhere"):
        loads(json.dumps(data))


def test_matrix_entry_count_checked():
    data = as_data()
    entry = data["fibres"]["v0"]["pushforward"][0]
    entry["matrix"]["entries"].append("1")
    with pytest.raises(BundleError, match="entries"):
        loads(json.dumps(data))


def test_block_shape_and_position_are_located():
    data = as_data()
    entry = data["fibres"]["v0"]["pushforward"][0]
    entry["matrix"] = {"rows": 1, "cols": 2, "entries": ["1", "1"]}
    with pytest.raises(BundleError, match=r"pushforward\[0\]\.matrix: has shape 1x2, expected 1x1"):
        loads(json.dumps(data))
    entry["position"] = 3
    with pytest.raises(BundleError, match=r"pushforward\[0\]: position 3 out of range"):
        loads(json.dumps(data))


def test_stratum_entries_must_be_integers():
    for section in ("strata", "chow", "pushforward", "pullback"):
        data = as_data()
        entries = data["fibres"]["v0"][section]
        if section == "strata":
            entries[0] = [[1]]
            field = "fibres.v0.strata[0]"
        else:
            entries[0]["stratum"] = [[1], 2]
            field = f"fibres.v0.{section}[0].stratum"
        with pytest.raises(BundleError, match=re.escape(field) + ": expected a list of integers"):
            loads(json.dumps(data))


def test_bad_fraction_string():
    data = as_data()
    entry = data["fibres"]["v0"]["pushforward"][0]
    entry["matrix"]["entries"][0] = "one half"
    with pytest.raises(BundleError, match="bad rational"):
        loads(json.dumps(data))


def test_bool_is_not_an_integer():
    data = as_data()
    data["params"]["a"] = True
    with pytest.raises(BundleError, match="integer"):
        loads(json.dumps(data))


def test_fibre_structure_errors_are_located():
    data = as_data()
    data["fibres"]["v0"]["strata"] = [[1], [2], [3], [1, 2]]
    with pytest.raises(BundleError, match="fibres.v0"):
        loads(json.dumps(data))


def test_zero_denominator_rejected():
    data = as_data("zeta-fqt")
    data["global"]["z_den"] = ["0"]
    with pytest.raises(BundleError, match="rational function"):
        loads(json.dumps(data))


def test_conductor_must_be_a_pair():
    data = as_data("zeta-fqt")
    data["global"]["conductor"] = ["1"]
    with pytest.raises(BundleError, match="conductor"):
        loads(json.dumps(data))


def test_incompatible_integral_map_rejected():
    data = as_data("zeta-fqt")
    data["integral"]["matrix"] = [[1, 0]]
    message = "integral: matrix does not send source relations into target relations"
    with pytest.raises(BundleError, match=message):
        loads(json.dumps(data))


def test_integral_load_takes_no_smith_form(monkeypatch):
    # the load decides that the map respects the relations by one integer
    # solve; the Smith forms of the orders wait for a command that reads them
    calls = []
    real = qlinalg.smith_normal_form
    monkeypatch.setattr(qlinalg, "smith_normal_form", lambda a: calls.append(a) or real(a))
    b = loads(dumps(multi_place_bundle(8, 24)))
    assert calls == []
    assert qlinalg.kernel_cokernel_orders(b.integral) == (12, 1)
    assert calls


def test_not_json():
    with pytest.raises(BundleError, match="JSON"):
        loads("{ not json")


def test_load_reads_newlines_as_a_text_file(tmp_path):
    # a JSON error names the line and character of a text-mode read,
    # where \r\n and \r are each one newline
    text = '{"params":\r\n {"q_coh": 1,\r  "a": 0,\n  x}'
    with pytest.raises(BundleError) as want:
        loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    path = tmp_path / "crlf.json"
    path.write_bytes(text.encode())
    with pytest.raises(BundleError) as got:
        load(path)
    assert str(got.value) == str(want.value)
    assert "line 4 column 3 (char 37)" in str(got.value)


def test_fibres_required():
    with pytest.raises(BundleError):
        loads(json.dumps({"params": {"q_coh": 1, "a": 0, "field_q": 2}, "fibres": {}}))


def test_field_q_prime_power():
    data = as_data()
    data["params"]["field_q"] = 6
    with pytest.raises(BundleError, match="prime power"):
        loads(json.dumps(data))


def test_higher_chow_and_ii_sections():
    data = as_data("smooth-ec")
    b = loads(json.dumps(data))
    assert b.fibres["v0"].higher_chow == {(1, 1): 0}
    # i^*i_* maps CH^0 to CH^1 of the one component, both of dimension 1
    data["fibres"]["v0"]["ii_matrices"] = [
        {"codim": 0, "j": 0, "matrix": {"rows": 1, "cols": 1, "entries": ["0"]}}
    ]
    b = loads(json.dumps(data))
    assert (0, 0) in b.fibres["v0"].ii_matrices
    data["fibres"]["v0"]["ii_matrices"][0]["matrix"] = {"rows": 2, "cols": 1, "entries": ["0", "0"]}
    with pytest.raises(BundleError, match=r"ii_matrices\[0\]\.matrix: has shape 2x1, expected 1x1"):
        loads(json.dumps(data))


def test_negative_chow_dim_is_named():
    # the level-one dims an ii matrix is held to are sums of these
    data = as_data()
    data["fibres"]["v0"]["chow"][0]["dim"] = -1
    with pytest.raises(BundleError, match=r"fibres\.v0\.chow\[0\]\.dim: negative"):
        loads(json.dumps(data))


def test_integer_entries_accepted_on_load():
    data = as_data()
    entry = data["fibres"]["v0"]["pushforward"][0]
    entry["matrix"]["entries"] = [
        int(x) for x in entry["matrix"]["entries"]
    ]
    loads(json.dumps(data))


def test_decimal_exponents_up_to_the_limit():
    from degen.bundle import MAX_DECIMAL_EXPONENT

    data = as_data()
    entries = data["fibres"]["v0"]["pushforward"][0]["matrix"]["entries"]
    entries[0] = "25e-2"
    b = loads(json.dumps(data))
    block = b.fibres["v0"].pushforward[((1, 2), 1, 0, 0)]
    assert block.entries[0][0] == Fraction(1, 4)
    entries[0] = f"1e{MAX_DECIMAL_EXPONENT}"
    loads(json.dumps(data))
    entries[0] = f"1E-{MAX_DECIMAL_EXPONENT + 1}"
    with pytest.raises(BundleError, match=r"entries\[0\]: decimal exponent"):
        loads(json.dumps(data))


NEAR_MISSES = (
    " 3/4", "3 /4", "3/ 4", "+3/4", "1_0/3", "1/0", "-0", "-0/7", "3/-4", "--3/4", "3//4",
    "٣/4", "3/٤", "1e3", "2.5", "-2.5e-3", "3/4\n", "0x10", "", "/", "3/", "/4",
    "9" * 4400 + "/3", "3/" + "9" * 4400, "12/18", "-12/18", "007/014",
)


def _same_number(value):
    from degen.bundle import _number

    from oracles import fraction_number

    try:
        want = fraction_number(value, "x")
    except BundleError as exc:
        with pytest.raises(BundleError) as got:
            _number(value, "x")
        assert str(got.value) == str(exc)
    else:
        got = _number(value, "x")
        assert got == want and type(got) is type(want), (value, got, want)


@pytest.mark.parametrize("value", NEAR_MISSES)
def test_number_near_misses_match_the_fraction_parse(value):
    _same_number(value)


@settings(max_examples=300)
@given(st.one_of(
    st.text(),
    st.from_regex(r"-?[0-9]{1,40}/[0-9]{1,40}", fullmatch=True),
    st.from_regex(r"[-+ ]?[0-9_]{0,6}[/.eE]?[-+ ]?[0-9_]{0,6}\s?", fullmatch=True),
    st.integers(),
    st.booleans(),
))
def test_number_matches_the_fraction_parse(value):
    _same_number(value)


# ---------------------------------------------------------------------------
# The writer against json.dumps over the dense entries.


def _written_bundles():
    import random

    from degen.workbench import EXAMPLES

    from fixtures import conjugated, fixture_fibres, tensored
    from test_pinned_reports import branch_bundles

    for name in EXAMPLES:
        yield build_example(name)
    yield build_example("ngon", {"n": 120})
    for f in fixture_fibres():
        yield Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": f})
    rational = conjugated(tensored(simplex_surface(), 4), random.Random(4))
    yield Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": rational})
    yield multi_place_bundle(8, 24)
    yield from branch_bundles().values()


def test_dumps_matches_the_json_route():
    from oracles import dense_dumps

    for b in _written_bundles():
        assert dumps(b) == dense_dumps(b)


_TRICKY = st.sampled_from(
    ["", '"', "\\", "/", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "\U0001d11e", "\ud800", "v0"]
)
_STRINGS = st.one_of(st.text(), _TRICKY)
_INTS = st.one_of(st.integers(-3, 3), st.integers(), st.integers(-(10**80), 10**80))
_LEAVES = st.one_of(
    _STRINGS, _INTS, st.lists(_STRINGS), st.lists(_INTS), st.lists(st.one_of(_STRINGS, _INTS))
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(_STRINGS, kids, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(tree):
    from degen.bundle import _canonical

    from oracles import json_text

    assert _canonical(tree) == json_text(tree)


def test_writer_refuses_what_a_bundle_never_holds():
    from degen.bundle import _canonical

    for value in (True, None, 1.5, (1, 2)):
        with pytest.raises(TypeError):
            _canonical({"x": value})


_SCALARS = st.one_of(st.just(0), st.integers(-(10**6), 10**6), st.fractions(max_denominator=30))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_entry_strings_match_the_dense_view(rows, cols, data):
    from degen.bundle import _entry_strings

    from oracles import dense_entry_strings

    grid = data.draw(
        st.lists(st.lists(_SCALARS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    m = qlinalg.Mat.from_rows(grid, cols=cols)
    for mat in (m, m.scale(Fraction(-2, 3)), m.scale(6)):
        assert _entry_strings(mat) == dense_entry_strings(mat)


def test_entry_strings_of_integers_over_a_denominator():
    from degen.bundle import _entry_strings

    m = qlinalg.Mat.from_rows([[Fraction(1, 3), 2, 0], [-4, Fraction(-6, 9), Fraction(9, 3)]])
    assert m._den == 3
    assert _entry_strings(m) == ["1/3", "2", "0", "-4", "-2/3", "3"]
