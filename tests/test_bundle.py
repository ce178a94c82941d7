"""Round trips and rejection paths for the JSON instance format."""

import copy
import functools
import json
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen import qlinalg
from degen.bundle import BundleError, Bundle, Params, dumps, load, loads
from degen.workbench import build_example

from fixtures import multi_place_bundle, simplex_surface
from oracles import transform_orders


def roundtrip(b):
    text = dumps(b)
    again = loads(text)
    assert dumps(again) == text
    return again


def test_examples_roundtrip_bytewise():
    for name in ("zeta-fqt", "ngon", "smooth-ec"):
        roundtrip(build_example(name))


def test_ngon_example_file_stays_within_what_load_reads():
    # the bound behind MAX_NGON_N against the text written; at n = 2760
    # the file has 134,169,978 bytes and at 2761 134,265,533, on each side
    # of MAX_BUNDLE_BYTES, which is too large to build here
    from degen.bundle import MAX_BUNDLE_BYTES
    from degen.workbench import MAX_NGON_N

    def bound(n):
        return 17 * n * n + 1700 * n + 1000

    for n in (2, 3, 9, 10, 11, 57, 99, 100, 101, 250):
        for q in (2, 2**64):
            assert len(dumps(build_example("ngon", {"n": n, "q": q}))) <= bound(n), (n, q)
    assert bound(MAX_NGON_N) <= MAX_BUNDLE_BYTES < bound(MAX_NGON_N + 1)
    with pytest.raises(ValueError, match=f"n = {MAX_NGON_N + 1} would write"):
        build_example("ngon", {"n": MAX_NGON_N + 1})


def test_save_opens_no_file_for_a_bundle_it_cannot_write(tmp_path):
    from degen.bundle import save

    b = build_example("ngon")
    bad = Bundle(Params(b.params.q_coh, 0.5, b.params.field_q), b.fibres)
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        save(bad, path)
    assert not path.exists()


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


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("relations, message", [
    ([[1]] * 3, "integer matrix has wrong number of rows"),
    ([[1], []], "ragged relations matrix"),
], ids=["rows", "ragged"])
def test_integral_relations_are_named(side, relations, message):
    data = as_data("zeta-fqt")
    data["integral"][side] = {"generators": 2, "relations": relations}
    with pytest.raises(BundleError, match=rf"^integral\.{side}\.relations: {message}$"):
        loads(json.dumps(data))


def test_integral_load_takes_no_smith_form(monkeypatch):
    # the load decides that the map respects the relations by one integer
    # solve; the lattice indices of the orders wait for a command that reads
    # them
    calls = []
    real = qlinalg._rank_and_index
    monkeypatch.setattr(qlinalg, "_rank_and_index", lambda *a: calls.append(a) or real(*a))
    b = loads(dumps(multi_place_bundle(8, 24)))
    assert calls == []
    assert qlinalg.kernel_cokernel_orders(b.integral) == (12, 1)
    assert calls


# (source generators, source relations, target generators, target
# relations, matrix): shapes with no rows or no columns somewhere
EDGE_INTEGRALS = {
    "no-source-generators": (0, [], 2, [[3], [0]], [[], []]),
    "no-target-generators": (2, [[2], [0]], 0, [], []),
    "no-relations": (2, [[], []], 2, [[], []], [[1, 2], [0, 3]]),
    "no-columns-anywhere": (0, [], 0, [], []),
    "torsion-target-of-nothing": (0, [], 2, [[4, 0], [0, 6]], [[], []]),
}


@pytest.mark.parametrize("name", sorted(EDGE_INTEGRALS))
def test_integral_edge_shapes_round_trip(name):
    gs, rs, gt, rt, m = EDGE_INTEGRALS[name]
    f = qlinalg.AbGroupMap.make(
        qlinalg.FPAbelianGroup.make(gs, rs), qlinalg.FPAbelianGroup.make(gt, rt), m
    )
    assert (f.source.relations.rows, f.target.relations.rows) == (gs, gt)
    assert (f.matrix.rows, f.matrix.cols) == (gt, gs)
    b = build_example("zeta-fqt")
    b = Bundle(b.params, b.fibres, b.places, b.motivic, b.global_l, f)
    text = dumps(b)
    assert loads(text) == b
    assert json.loads(text)["integral"] == {
        "source": {"generators": gs, "relations": rs},
        "target": {"generators": gt, "relations": rt},
        "matrix": m,
    }
    assert qlinalg.kernel_cokernel_orders(f) == transform_orders(f)


def test_empty_relations_shorthand_reads_one_empty_row_per_generator():
    data = as_data("zeta-fqt")
    data["integral"]["target"] = {"generators": 1, "relations": []}
    data["integral"]["source"] = {"generators": 2, "relations": []}
    data["integral"]["matrix"] = [[5, 0]]
    b = loads(json.dumps(data))
    assert (b.integral.source.relations.rows, b.integral.source.relations.cols) == (2, 0)
    assert loads(dumps(b)) == b
    written = json.loads(dumps(b))["integral"]
    assert written["source"]["relations"] == [[], []]
    assert written["target"]["relations"] == [[]]
    assert qlinalg.kernel_cokernel_orders(b.integral) == transform_orders(b.integral) == (None, 5)


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


@pytest.mark.parametrize("section", ["chow", "higher_chow"])
def test_negative_chow_dim_is_named(section):
    # the level-one dims an ii matrix is held to are sums of chow dims, and
    # a higher Chow dim is reported as the dimension of a group
    data = as_data()
    if section == "chow":
        data["fibres"]["v0"]["chow"][0]["dim"] = -1
    else:
        data["fibres"]["v0"]["higher_chow"] = [{"codim": 2, "j": 1, "dim": -3}]
    with pytest.raises(BundleError, match=rf"fibres\.v0\.{section}\[0\]\.dim: negative"):
        loads(json.dumps(data))


@pytest.mark.parametrize(
    "section, field",
    [("chow", "codim"), ("chow", "j"), ("pushforward", "codim"), ("pullback", "j"),
     ("ii_matrices", "j"), ("higher_chow", "codim"), ("higher_chow", "j")],
)
def test_negative_codim_or_j_is_named(section, field):
    # a report would read a higher Chow entry at codim -1 as a Deligne dimension
    data = as_data()
    v0 = data["fibres"]["v0"]
    v0["ii_matrices"] = [{"codim": 5, "j": 0, "matrix": {"rows": 0, "cols": 0, "entries": []}}]
    v0["higher_chow"] = [{"codim": 2, "j": 1, "dim": 5}]
    v0[section][0][field] = -1
    with pytest.raises(BundleError, match=rf"^fibres\.v0\.{section}\[0\]\.{field}: negative$"):
        loads(json.dumps(data))


def test_duplicate_higher_chow_entry_is_named():
    data = as_data()
    data["fibres"]["v0"]["higher_chow"] = [
        {"codim": 2, "j": 1, "dim": 2}, {"codim": 2, "j": 1, "dim": 0}
    ]
    message = r"fibres\.v0\.higher_chow\[1\]: duplicate entry for \(2, 1\)"
    with pytest.raises(BundleError, match=message):
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


# Rational text from a grammar: signs, whitespace, "_", decimals,
# exponents, non-ASCII digits, zero denominators and literals past the
# 4300 digits int() converts.
_DIGITS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=12),
    st.text(alphabet="01_٣²", max_size=4),
    st.sampled_from(["0", "00", "9" * 4400, "1" * 4301]),
)
_RATIONAL_TEXT = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", "", "-", "+", " ", "--", "\t"]),
    _DIGITS,
    st.sampled_from(["/", "/", ".", "", "//", " /", "/-"]),
    st.one_of(_DIGITS, st.just("0"), st.just("")),
    st.sampled_from(["", "", "e5", "E-3", "e1001", "e+1_0", "e99999999999"]),
    st.sampled_from(["", "", " ", "\n", "x"]),
)


def _rational_outcome(parse, value):
    """("int", n), ("ratio", Fraction) or ("error", message)."""
    from degen.bundle import _NotANumber

    try:
        x = parse(value)
    except _NotANumber as exc:
        return "error", str(exc)
    if type(x) is int:
        return "int", x
    return "ratio", x if type(x) is Fraction else Fraction(*x)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    _RATIONAL_TEXT,
    st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(0, 10**30)),
    st.text(), st.integers(), st.booleans(), st.none(),
))
def test_rational_parse_matches_the_fraction_route(value):
    from degen.bundle import _rational

    from fraction_routes import fraction_rational

    got = _rational_outcome(_rational, value)
    assert got == _rational_outcome(fraction_rational, value)
    if got[0] == "ratio" and type(value) is str and value.isascii() and "/" in value:
        pair = _rational(value)
        assert pair[1] > 0 and gcd(*pair) == 1


# JSON text as json.dumps writes it, then cut, padded or spliced.
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["\ufeff", "\ud800", "NaN"]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=20,
)


@st.composite
def _json_texts(draw):
    value = draw(_JSON_VALUES)
    text = json.dumps(value, indent=draw(st.sampled_from([None, 0, 2])))
    op = draw(st.sampled_from(["keep", "cut", "trail", "bom", "space", "deep", "long", "splice"]))
    if op == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif op == "trail":
        text += draw(st.sampled_from([" x", "\n1", "{}", "  ", "\t\r\n", "\x0c", "\u00a0"]))
    elif op == "bom":
        text = "\ufeff" + text
    elif op == "space":
        pad = draw(st.sampled_from(["", " ", "\n\t", "\r\n ", "\x0c", "\u2028"]))
        text = pad + text + pad
    elif op == "deep":
        depth = draw(st.sampled_from([50, 5000, 200_000]))
        text = "[" * depth + text + "]" * draw(st.sampled_from([depth, depth - 1]))
    elif op == "long":
        text = f'{{"a": [1, -{"7" * draw(st.sampled_from([4299, 4300, 4301, 5000]))}]}}'
    elif op == "splice":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["NaN", "-Infinity", ",", "]", '"\\x"', "\x00"])) + text[at:]
    return text


def _json_outcome(parse, text):
    try:
        return "value", repr(parse(text))
    except (ValueError, RecursionError) as exc:
        return "error", type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(_json_texts())
def test_json_parse_matches_json_loads(text):
    from degen.bundle import _json_value

    assert _json_outcome(_json_value, text) == _json_outcome(json.loads, text)


# ---------------------------------------------------------------------------
# The reader against the field-by-field reader it replaced.


@functools.cache
def _reader_bases() -> tuple:
    """The JSON text of valid bundles of every shape the reader meets."""
    import random

    from degen.workbench import EXAMPLES

    from fixtures import conjugated, tensored, with_explicit_ii

    bundles = [build_example(name) for name in EXAMPLES]
    surface = tensored(simplex_surface(), 2)
    explicit = with_explicit_ii(simplex_surface(), random.Random(5))
    for f in (surface, conjugated(surface, random.Random(3)), explicit):
        bundles.append(Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": f}))
    bundles.append(multi_place_bundle(2, 4))
    return tuple(json.dumps(json.loads(dumps(b))) for b in bundles)


class _Pairs:
    """A JSON object written from (key, value) pairs, so a key may repeat."""

    def __init__(self, pairs):
        self.pairs = pairs


def _text(node) -> str:
    if isinstance(node, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in node.pairs) + "}"
    if isinstance(node, dict):
        return _text(_Pairs(node.items()))
    if isinstance(node, list):
        return "[" + ", ".join(map(_text, node)) + "]"
    return json.dumps(node)


_ODD_VALUES = st.sampled_from([
    True, False, None, 1.5, 0, -1, 2, 10**6, "x", "", "1/0", "0/5", "-0", "2.0", "1e5000", " 1",
    "١", "3/2", [], ["1"], [["1"]], [[1, 2]], {}, {"a": 1},
])


_MUTATIONS = ["delete", "rename", "add", "replace", "copy", "resize", "twin"]


def _odd_value(data):
    # a copy, so that a later mutation cannot change the strategy's own value
    return copy.deepcopy(data.draw(_ODD_VALUES))


def _mutate(tree, data) -> None:
    """Apply one drawn mutation to the JSON tree in place."""
    slots = []  # (container, key or index) of every node below the root
    stack = [tree]
    while stack:
        node = stack.pop()
        pairs = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in pairs:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    if not slots:
        return
    parent, key = data.draw(st.sampled_from(slots))
    value = parent[key]
    op = data.draw(st.sampled_from(_MUTATIONS))
    if op == "delete":
        del parent[key]
    elif op == "rename" and isinstance(parent, dict):
        parent[key + data.draw(st.sampled_from(["x", "_"]))] = parent.pop(key)
    elif op == "add" and isinstance(parent, dict):
        parent[data.draw(st.sampled_from(["bogus", "pushfoward"]))] = value
    elif op == "copy" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == "resize" and isinstance(value, dict) and "entries" in value:
        field = data.draw(st.sampled_from(["rows", "cols", "entries"]))
        # an earlier mutation may have deleted the field or changed its type
        if field == "entries" and type(value["entries"]) is list:
            value["entries"] = value["entries"][:-1] or ["1"]
        elif type(value.get(field)) is int:
            value[field] += data.draw(st.sampled_from([-1, 1]))
    elif op == "twin" and isinstance(value, dict) and value:
        first = next(iter(value))
        parent[key] = _Pairs([(first, _odd_value(data)), *value.items()])
    else:
        parent[key] = _odd_value(data)


def _outcome(read, text: str, strict: bool):
    try:
        return read(text, strict=strict)
    except ValueError as exc:  # a BundleError, or a ValueError both let through
        return f"{type(exc).__name__}: {exc}"


# The reference lets these two messages of FPAbelianGroup.make through as
# they are; the reader names the relations they are about.
_RELATIONS_RULE = re.compile(
    r"^BundleError: integral\.(source|target)\.relations: "
    r"(integer matrix has wrong number of rows|ragged relations matrix)$"
)


# Rules the reference lacks on the q-exponents of the global section.
_Q_EXPONENT_RULE = re.compile(
    r"^BundleError: global\.(weight_w|conductor\[[01]\]): exceeds 1000 in magnitude$"
)


def _breaks_a_q_exponent_rule(text: str, field: str) -> bool:
    g = json.loads(text)["global"]
    value = g["weight_w"] if field == "weight_w" else g["conductor"][int(field[-2])]
    return abs(Fraction(value)) > 1000


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_reader_matches_the_reference_reader(data):
    import reference_reader

    text = data.draw(st.sampled_from(_reader_bases()))
    tree = json.loads(text)
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(tree, data)
    text = _text(tree)
    strict = data.draw(st.booleans())
    got = _outcome(loads, text, strict)
    want = _outcome(reference_reader.loads, text, strict)
    named = isinstance(got, str) and _RELATIONS_RULE.search(got)
    if named:
        assert want == f"ValueError: {named[2]}", (got, want)
    elif got != want and isinstance(got, str) and _Q_EXPONENT_RULE.search(got):
        # the reference reads weight_w and the conductor at any size
        assert _breaks_a_q_exponent_rule(text, _Q_EXPONENT_RULE.search(got)[1])
    else:
        assert got == want, (got, want)


def test_a_matrix_read_again_is_equal_only_at_the_same_shape_and_text():
    from degen.bundle import _mat_from_json

    row = _mat_from_json({"rows": 1, "cols": 2, "entries": ["1", "2"]}, "a", True)
    col = _mat_from_json({"rows": 2, "cols": 1, "entries": ["1", "2"]}, "b", True)
    assert (row.rows, row.cols, col.rows, col.cols) == (1, 2, 2, 1)
    assert _mat_from_json({"rows": 1, "cols": 2, "entries": ["1", "2"]}, "c", True) == row != col
    # a JSON number is not the text of the same value: 1.5 is still refused
    _mat_from_json({"rows": 1, "cols": 1, "entries": ["1.5"]}, "d", True)
    with pytest.raises(BundleError, match=r"e\.entries\[0\]: expected a rational"):
        _mat_from_json({"rows": 1, "cols": 1, "entries": [1.5]}, "e", True)


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
    from degen.bundle import _pieces

    from oracles import json_text

    assert "".join(_pieces(tree)) == json_text(tree)


def test_writer_refuses_what_a_bundle_never_holds():
    from degen.bundle import _pieces

    for value in (True, None, 1.5, (1, 2)):
        with pytest.raises(TypeError):
            _pieces({"x": value})


_SCALARS = st.one_of(st.just(0), st.integers(-(10**6), 10**6), st.fractions(max_denominator=30))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_entry_strings_match_the_dense_view(rows, cols, data):
    from degen.qlinalg import _entry_strings

    from oracles import dense_entry_strings

    grid = data.draw(
        st.lists(st.lists(_SCALARS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    m = qlinalg.Mat.from_rows(grid, cols=cols)
    for mat in (m, m.scale(Fraction(-2, 3)), m.scale(6)):
        assert _entry_strings(mat) == dense_entry_strings(mat)


def test_entry_strings_of_integers_over_a_denominator():
    from degen.qlinalg import _entry_strings

    m = qlinalg.Mat.from_rows([[Fraction(1, 3), 2, 0], [-4, Fraction(-6, 9), Fraction(9, 3)]])
    assert m._den == 3
    assert _entry_strings(m) == ["1/3", "2", "0", "-4", "-2/3", "3"]
