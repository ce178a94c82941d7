"""Exit codes, output shape, and determinism of the command line."""

import contextlib
import functools
import gc
import importlib
import io
import json
import os
import re
import resource
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from degen.bundle import MAX_DIMENSION, Bundle, Params, dumps
from degen import cli
from degen.cli import main
from degen.workbench import CONJECTURES, EXAMPLES, build_example

from fixtures import multi_place_bundle, simplex_surface, with_explicit_ii
from test_bundle import _mutate, _text  # not in fixtures: hypothesis loads unittest


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "degen", *argv],
        capture_output=True,
        text=True,
    )


def write_example(tmp_path, name, *params):
    out = tmp_path / f"{name}.json"
    assert main(["example", name, *params, "-o", str(out)]) == 0
    return out


def test_exit_zero_on_pass(tmp_path, capsys):
    f = write_example(tmp_path, "zeta-fqt", "q=3")
    assert main(["validate", str(f)]) == 0
    assert main(["dim-theorem", str(f)]) == 0
    assert main(["check", "A2", str(f)]) == 0
    assert main(["check", "B2FF", str(f)]) == 0
    assert main(["check", "CFF", str(f)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_exit_two_when_data_missing(tmp_path, capsys):
    f = write_example(tmp_path, "ngon", "n=4", "q=3")
    assert main(["check", "CFF", str(f)]) == 2
    assert main(["check", "B1FF", str(f)]) == 2
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out


def test_exit_one_on_sign_corruption(tmp_path, capsys):
    b = Bundle(params=Params(3, 1, 2), fibres={"v0": simplex_surface()})
    data = json.loads(dumps(b))
    block = data["fibres"]["v0"]["pushforward"][0]["matrix"]
    block["entries"] = [str(-Fraction(e)) for e in block["entries"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_exit_three_on_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 3
    junk = tmp_path / "junk.json"
    junk.write_text("{ nope")
    assert main(["validate", str(junk)]) == 3
    assert main(["example", "no-such-example"]) == 3
    assert main(["example", "ngon", "n=big"]) == 3
    assert main(["example", "ngon", "sides=4"]) == 3
    assert main(["example", "ngon", "n3"]) == 3
    assert "expected key=value, got 'n3'" in capsys.readouterr().err
    assert main(["check", "D9", str(junk)]) == 3
    capsys.readouterr()


# Address space of the child in _bounded_rejection: an input that makes the
# program allocate past it fails there instead of exhausting the host.
CHILD_ADDRESS_SPACE = 3 * 2**29


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _bounded_rejection(tmp_path, data, argv, field):
    """Exit 3 naming ``field``, first in a child process that a hang cannot
    outlast nor an allocation exhaust, then in-process well under a second.
    ``data`` is a bundle object or the text of one."""
    path = tmp_path / "adversarial.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "degen", *argv, str(path)],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert field in proc.stderr and "Traceback" not in proc.stderr
    start = time.perf_counter()
    assert main([*argv, str(path)]) == 3
    assert time.perf_counter() - start < 1.0


def test_huge_deg_v_is_rejected_without_building_the_power(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "ngon").read_text())
    data["places"]["v0"]["deg_v"] = 2**70
    _bounded_rejection(tmp_path, data, ["dim-theorem"], "places.v0.deg_v")
    assert "places.v0.deg_v" in capsys.readouterr().err


def test_huge_decimal_exponent_is_rejected(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "ngon").read_text())
    data["fibres"]["v0"]["pushforward"][0]["matrix"]["entries"][0] = "1e99999999"
    field = "fibres.v0.pushforward[0].matrix.entries[0]"
    _bounded_rejection(tmp_path, data, ["check", "A2"], field)
    assert "exceeds 1000" in capsys.readouterr().err


def test_huge_twist_is_rejected(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    data["params"]["a"] = -10**7
    _bounded_rejection(tmp_path, data, ["check", "CFF"], "params.a")
    data["params"]["a"] = 0
    data["params"]["q_coh"] = 10**7
    _bounded_rejection(tmp_path, data, ["check", "CFF"], "params.q_coh")
    assert "exceeds 1000" in capsys.readouterr().err


def test_huge_fibre_dimension_is_rejected(tmp_path, capsys):
    # validate sweeps every codim and quasi-iso every star up to dim_y
    data = json.loads(write_example(tmp_path, "ngon").read_text())
    data["fibres"]["v0"]["dim_y"] = 10**9
    for argv in (["validate"], ["quasi-iso"]):
        _bounded_rejection(tmp_path, data, argv, "fibres.v0.dim_y")
        assert "fibres.v0.dim_y: exceeds 100000" in capsys.readouterr().err


def test_oversized_leading_value_is_rejected(tmp_path, capsys):
    # within the twist bound, a = -200 on 24 places makes the leading
    # coefficient at s = a too large to print
    b = multi_place_bundle(24, 56)
    p = b.params
    b = Bundle(
        Params(p.q_coh, -200, p.field_q), b.fibres, b.places, b.motivic, b.global_l, b.integral
    )
    data = json.loads(dumps(b))
    _bounded_rejection(tmp_path, data, ["check", "CFF"], "params.a")
    assert "CFF.leading" in capsys.readouterr().err
    _bounded_rejection(tmp_path, data, ["check", "B1FF"], "params.a")
    assert "B1FF.leading" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("conductor", ["0", 100_000_000_000], "global.conductor[1]"),
        ("conductor", ["0", -10_000_000], "global.conductor[1]"),
        ("conductor", ["1e900", 0], "global.conductor[0]"),
        ("conductor", ["-2001/2", 0], "global.conductor[0]"),
        ("weight_w", 1_000_000, "global.weight_w"),
        ("weight_w", -1001, "global.weight_w"),
    ],
)
def test_global_q_exponents_past_the_twist_bound_are_rejected(tmp_path, capsys, key, value, field):
    # weight_w and the conductor (alpha, beta) are exponents of q, as
    # params.a is, and are held to the same bound
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    data["global"][key] = value
    for argv in (["check", "B2FF"], ["check", "CFF"]):
        _bounded_rejection(tmp_path, data, argv, field)
    assert "exceeds 1000 in magnitude" in capsys.readouterr().err


def _set_path(data, path, value):
    for step in path[:-1]:
        data = data[step]
    data[path[-1]] = value


@pytest.mark.parametrize("path, value, message", [
    (("places", "infty", "deg_v"), 0, "places.infty.deg_v: must be positive"),
    (("motivic", "infty", "regulator", "motivic_rank"), 2,
     "motivic.infty.regulator: matrix has 0 columns, declared rank 2"),
    (("motivic", "infty", "cycle_class", "b_rank"), 2,
     "motivic.infty.cycle_class: xi has 1 columns, declared rank 2"),
    (("global", "conductor"), ["0", "1"], "global.conductor[1]: expected an integer"),
    (("global", "z_num", 0), "1e" + "1" * 5000,
     "global.z_num[0]: decimal exponent in '1e1111"),
], ids=["deg_v", "regulator-rank", "b_rank", "conductor-beta", "exponent-digits"])
def test_load_checks_name_the_field(tmp_path, capsys, path, value, message):
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    _set_path(data, path, value)
    _bounded_rejection(tmp_path, data, ["validate"], message.partition(":")[0])
    assert message in capsys.readouterr().err


def test_global_q_exponents_at_the_twist_bound_are_read(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    data["global"]["weight_w"] = -1000
    data["global"]["conductor"] = ["-1000", 1000]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["check", "CFF", str(path)]) in (0, 1)
    assert main(["check", "B2FF", str(path)]) in (0, 1)
    assert time.perf_counter() - start < 2.0
    capsys.readouterr()


def test_oversized_leading_value_names_the_conductor_power(tmp_path, capsys):
    q = 2**61 - 1  # prime: q^1000 has 61000 bits
    data = json.loads(write_example(tmp_path, "zeta-fqt", f"q={q}").read_text())
    data["global"]["conductor"] = ["1000", 0]
    _bounded_rejection(tmp_path, data, ["check", "CFF"], "global.conductor[0]")
    err = capsys.readouterr().err
    assert "CFF.leading" in err and "lower |params.a| or |global.conductor[0]|" in err


def _leading_probe(tmp_path, a, conductor, num=None, den=None):
    """The zeta-fqt bundle on a 61-bit field at twist ``a`` with
    ``conductor``, and Z's coefficients when given, written to a file."""
    data = json.loads(write_example(tmp_path, "zeta-fqt", f"q={2**61 - 1}").read_text())
    data["params"]["a"] = a
    data["global"]["conductor"] = conductor
    if num is not None:
        data["global"]["z_num"], data["global"]["z_den"] = num, den
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "conductor, num, den",
    [
        # t^1000 at t0 = q^-1000 puts q^-10^6, 6e7 bits, in the coefficient
        (["0", 1000], None, None),
        (["1000", 1000], None, None),
        (["0", -1000], None, None),
        # no net power of q, but the stripped L-function's numerator and
        # denominator have degree 55, so their values at t0 have 3e6 bits
        # and only a small common factor
        (None, [str(1 + i % 7) for i in range(55)], [str(1 + i % 5) for i in range(56)]),
    ],
)
def test_leading_value_past_the_limit_is_refused_before_it_is_built(
    tmp_path, capsys, conductor, num, den
):
    path = _leading_probe(tmp_path, 1000, conductor, num, den)
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "check", "CFF", str(path)],
        capture_output=True, text=True, timeout=5, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert "CFF.leading" in proc.stderr and "needs at least" in proc.stderr
    assert "lower |params.a|" in proc.stderr and "Traceback" not in proc.stderr
    start = time.perf_counter()
    assert main(["check", "CFF", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_leading_value_just_under_the_limit_is_printed(tmp_path, capsys):
    # t^229 at t0 = q^-1: a coefficient of 13,969 bits, under the 14,000
    # the limit allows, printed as the Fraction route gives it with t^229
    # folded into the stripped L-function
    from degen.bundle import load
    from degen.workbench import _global
    from fraction_routes import split_leading_laurent, split_mul

    path = _leading_probe(tmp_path, 1, ["0", 229])
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "check", "CFF", str(path)],
        capture_output=True, text=True, timeout=5, preexec_fn=_limit_address_space,
    )
    assert proc.returncode in (0, 1), proc.stderr
    b = load(str(path))
    lam, _ = _global(b, "CFF")
    folded = split_mul((lam.num, lam.den), ((0,) * 229 + (1,), (1,)))
    order, coeff, logpow = split_leading_laurent(folded, b.params.field_q, 1)
    assert max(coeff.numerator.bit_length(), coeff.denominator.bit_length()) == 13_969
    line = next(x for x in proc.stdout.splitlines() if x.startswith("CFF.leading"))
    assert f"  {coeff}*log(q)^{logpow} vs " in line
    capsys.readouterr()
    assert main(["check", "CFF", str(path)]) == proc.returncode
    assert capsys.readouterr().out == proc.stdout


def test_coefficient_count_past_the_limit_is_rejected(tmp_path, capsys):
    from degen.bundle import MAX_COEFFICIENTS

    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    for key in ("z_num", "z_den"):
        edited = json.loads(json.dumps(data))
        # past the limit, and with an entry that is no number: the count
        # is checked before any coefficient is read
        edited["global"][key] = ["1"] * MAX_COEFFICIENTS + ["junk"]
        _bounded_rejection(tmp_path, edited, ["validate"], f"global.{key}")
        assert "MAX_COEFFICIENTS" in capsys.readouterr().err


def test_coefficient_count_at_the_limit_is_read_within_seconds(tmp_path, capsys):
    # random 50-digit coefficients make the remainder sequence that
    # reduces Z as expensive as it gets at this degree
    import random

    from degen.bundle import MAX_COEFFICIENTS

    rng = random.Random(50)
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    for key in ("z_num", "z_den"):
        data["global"][key] = [str(rng.randrange(1, 10**50) * rng.choice([1, -1]))
                               for _ in range(MAX_COEFFICIENTS)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < 4.0
    capsys.readouterr()


@pytest.mark.parametrize("beta", [1000, -1000])
def test_conductor_t_power_at_the_limit_ends_within_seconds(tmp_path, beta):
    # random 50-digit coefficients, MAX_COEFFICIENTS a side, and t^beta at
    # MAX_TWIST; multiplied into Z as a polynomial, t^1000 made the gcd
    # that reduces the product run for minutes
    import random

    from degen.bundle import MAX_COEFFICIENTS, MAX_TWIST

    assert abs(beta) == MAX_TWIST
    rng = random.Random(50)
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    for key in ("z_num", "z_den"):
        data["global"][key] = [str(rng.randrange(1, 10**50) * rng.choice([1, -1]))
                               for _ in range(MAX_COEFFICIENTS)]
    data["global"]["conductor"] = ["0", beta]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    for conjecture in ("B2FF", "CFF"):
        proc = subprocess.run(
            [sys.executable, "-m", "degen", "check", conjecture, str(path)],
            capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
        )
        assert proc.returncode in (0, 1, 2), proc.stderr
        assert "Traceback" not in proc.stderr


def test_integer_literal_too_long_to_convert_is_named(tmp_path, capsys):
    # json.dumps cannot write such an integer either, so splice it in as text
    big = "1" + "0" * 4400
    sites = (
        (("params", "field_q"), "params.field_q"),
        (("motivic", "infty", "cycle_class", "xi", "entries", 0),
         "motivic.infty.cycle_class.xi.entries[0]"),
        (("integral", "source", "relations", 0, 0), "integral.source.relations[0][0]"),
    )
    for keys, field in sites:
        data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "@BIG@"
        text = json.dumps(data).replace('"@BIG@"', big)
        _bounded_rejection(tmp_path, text, ["validate"], field)
        assert "4401 digits" in capsys.readouterr().err


def test_deep_nesting_is_rejected(tmp_path, capsys):
    text = '{"params": ' + "[" * 100_000 + "]" * 100_000 + "}"
    _bounded_rejection(tmp_path, text, ["validate"], "nested too deeply")
    capsys.readouterr()


def test_generator_count_past_the_limit_is_rejected(tmp_path, capsys):
    # with empty relations the parser would build one row per generator
    for side in ("source", "target"):
        for count in (10**9, -3):
            data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
            data["integral"][side] = {"generators": count, "relations": []}
            _bounded_rejection(tmp_path, data, ["check", "CFF"], f"integral.{side}.generators")
    assert "between 0 and 10000" in capsys.readouterr().err


def test_matrix_shape_past_the_limit_is_rejected(tmp_path, capsys):
    # a matrix with no columns needs no entries, whatever height it declares
    for shape, key in (((10**9, 0), "rows"), ((0, 10**9), "cols")):
        data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
        rows, cols = shape
        data["motivic"]["infty"]["regulator"] = {
            "motivic_rank": cols, "matrix": {"rows": rows, "cols": cols, "entries": []},
        }
        _bounded_rejection(tmp_path, data, ["validate"], f"motivic.infty.regulator.matrix.{key}")
    assert f"exceeds {MAX_DIMENSION}" in capsys.readouterr().err


def test_many_tall_empty_blocks_are_rejected_before_their_rows(tmp_path, capsys):
    # a block with no columns needs no entries whatever height it declares;
    # each is held to the shape the chow table asks before a row is built
    data = json.loads(write_example(tmp_path, "ngon").read_text())
    pullback = data["fibres"]["v0"]["pullback"]
    first = len(pullback)
    for i in range(40):
        pullback.append({
            "stratum": [1, 2], "position": 1, "codim": 5 + i, "j": 0,
            "matrix": {"rows": 100_000, "cols": 0, "entries": []},
        })
    _bounded_rejection(tmp_path, data, ["validate"], f"fibres.v0.pullback[{first}].matrix")
    assert "has shape 100000x0, expected 0x0" in capsys.readouterr().err


def test_many_tall_empty_ii_matrices_are_rejected_before_their_rows(tmp_path, capsys):
    # i^*i_* is held to the level-one dims of the chow table before a row
    # is built; validate never builds the map itself
    data = json.loads(write_example(tmp_path, "ngon").read_text())
    data["fibres"]["v0"]["ii_matrices"] = [
        {"codim": 5 + i, "j": 0, "matrix": {"rows": 100_000, "cols": 0, "entries": []}}
        for i in range(40)
    ]
    _bounded_rejection(tmp_path, data, ["validate"], "fibres.v0.ii_matrices[0].matrix")
    assert "has shape 100000x0, expected 0x0" in capsys.readouterr().err


def test_duplicate_ii_matrices_are_rejected(tmp_path, capsys):
    # on the triangle i^*i_* maps CH^0 to CH^1 of three components
    data = json.loads(write_example(tmp_path, "ngon").read_text())
    data["fibres"]["v0"]["ii_matrices"] = [
        {"codim": 0, "j": 0, "matrix": {"rows": 3, "cols": 3, "entries": [str(x)] * 9}}
        for x in (9, 0)
    ]
    path = tmp_path / "duplicate-ii.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 3
    assert "fibres.v0.ii_matrices[1]: duplicate entry for (0, 0)" in capsys.readouterr().err


def test_chow_dimensions_past_the_limit_are_rejected(tmp_path, capsys):
    # without a motivic section nothing else bounds the spaces built on CH^0
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    del data["motivic"]
    chow = data["fibres"]["infty"]["chow"]
    chow[0]["dim"] = 10**7
    _bounded_rejection(tmp_path, data, ["check", "A2"], "fibres.infty.chow[0].dim")
    # the limit is on the fibre's sum
    chow[0]["dim"] = MAX_DIMENSION
    chow.append({"stratum": [1], "codim": 0, "j": 1, "dim": 1})
    _bounded_rejection(tmp_path, data, ["check", "A2"], "fibres.infty.chow[1].dim")
    del chow[1]
    data["fibres"]["infty"]["higher_chow"] = [{"codim": 0, "j": 0, "dim": 10**9}]
    _bounded_rejection(tmp_path, data, ["validate"], "fibres.infty.higher_chow[0].dim")
    assert f"sum past {MAX_DIMENSION}" in capsys.readouterr().err


def test_motivic_shapes_are_checked_at_load(tmp_path, capsys):
    # zeta-fqt is at the boundary twist a = 0, where xi, tau and the
    # regulator live on CH^0 of its one component, here of the largest
    # dimension a bundle may declare
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    data["fibres"]["infty"]["chow"][0]["dim"] = MAX_DIMENSION
    cycle = data["motivic"]["infty"]["cycle_class"]
    regulator = data["motivic"]["infty"].pop("regulator")
    for argv in (["validate"], ["check", "A2"], ["quasi-iso"]):
        _bounded_rejection(tmp_path, data, argv, "motivic.infty.cycle_class.xi")
    assert f"has shape 1x1, expected {MAX_DIMENSION}x1" in capsys.readouterr().err
    data["fibres"]["infty"]["chow"][0]["dim"] = 2
    cycle["xi"] = {"rows": 2, "cols": 1, "entries": ["1", "0"]}
    _bounded_rejection(tmp_path, data, ["check", "A2"], "motivic.infty.cycle_class.tau")
    assert "expected 2x2" in capsys.readouterr().err
    data["motivic"]["infty"]["regulator"] = regulator
    del cycle["tau"]
    _bounded_rejection(tmp_path, data, ["check", "B2FF"], "motivic.infty.regulator.matrix")
    assert "has shape 1x0, expected 2x0" in capsys.readouterr().err


@functools.cache
def _mutation_bases() -> tuple:
    """The text of the three examples, a bundle with several places and an
    integral regulator, and a surface with explicit i^*i_* matrices."""
    import random

    bundles = [build_example(name) for name in EXAMPLES]
    bundles.append(multi_place_bundle(3, 4))
    explicit = with_explicit_ii(simplex_surface(), random.Random(5))
    bundles.append(Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": explicit}))
    return tuple(map(dumps, bundles))


# Every command that reads a bundle file.
_FILE_COMMANDS = (
    ["validate"], ["dim-theorem"], *(["check", c] for c in CONJECTURES), ["complex"], ["quasi-iso"]
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_mutated_bundle_ends_in_an_exit_code_with_no_traceback(tmp_path_factory, data):
    # the reader test's mutator, applied once to three times; each command
    # runs in a child that a hang cannot outlast nor an allocation exhaust
    tree = json.loads(data.draw(st.sampled_from(_mutation_bases())))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(tree, data)
    strict = data.draw(st.sampled_from([[], ["--no-strict"]]))
    argv = [*strict, *data.draw(st.sampled_from(_FILE_COMMANDS))]
    path = tmp_path_factory.mktemp("mutated") / "bundle.json"
    path.write_text(_text(tree))
    proc = subprocess.run(
        [sys.executable, "-m", "degen", *argv, str(path)],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space,
    )
    assert proc.returncode in {0, 1, 2, 3}, (argv, proc.returncode, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])


def test_incompatible_integral_map_exits_three(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    data["integral"]["matrix"] = [[1, 0]]
    path = tmp_path / "bad-integral.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 3
    message = "integral: matrix does not send source relations into target relations"
    assert message in capsys.readouterr().err


def test_huge_twist_override_is_rejected(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    _bounded_rejection(tmp_path, data, ["dim-theorem", "--a", "-10000000"], "--a")
    assert "exceeds 1000" in capsys.readouterr().err


def test_large_prime_field_is_decided_quickly(tmp_path, capsys):
    q = 2**61 - 1
    path = tmp_path / "big-field.json"
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "example", "zeta-fqt", f"q={q}", "-o", str(path)],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_field_size_past_the_limit_is_rejected(tmp_path, capsys):
    data = json.loads(write_example(tmp_path, "zeta-fqt").read_text())
    data["params"]["field_q"] = 2**89 - 1  # a prime
    _bounded_rejection(tmp_path, data, ["validate"], "params.field_q")
    data["params"]["field_q"] = 2
    data["fibres"]["infty"]["q_v"] = 2**89 - 1
    _bounded_rejection(tmp_path, data, ["validate"], "fibres.infty")
    assert "2^64" in capsys.readouterr().err


def test_star_far_from_the_levels_is_quick(tmp_path, capsys):
    # the complexes are empty there; their cost must not grow with |star|
    f = write_example(tmp_path, "ngon")
    for command in ("complex", "quasi-iso"):
        argv = [command, str(f), "--star", "10000000000"]
        proc = subprocess.run(
            [sys.executable, "-m", "degen", *argv], capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_tsv_is_four_tab_separated_fields(tmp_path, capsys):
    f = write_example(tmp_path, "zeta-fqt", "q=2")
    capsys.readouterr()
    assert main(["--tsv", "check", "CFF", str(f)]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows and all(len(r) == 4 for r in rows)
    assert ["CFF.orders", "-", "PASS", "kernel=1 cokernel=1"] in rows


def test_quasi_iso_sweep_and_single_star(tmp_path, capsys):
    f = write_example(tmp_path, "ngon", "n=3", "q=2")
    capsys.readouterr()
    assert main(["quasi-iso", str(f)]) == 0
    sweep = capsys.readouterr().out
    assert sweep.count("quasi-iso") == 4  # stars 0..dim+2 for a curve
    assert main(["quasi-iso", str(f), "--star", "1"]) == 0
    single = capsys.readouterr().out
    assert single.count("quasi-iso") == 1


def test_complex_command_reports_focus_degree(tmp_path, capsys):
    f = write_example(tmp_path, "ngon", "n=5", "q=2")
    capsys.readouterr()
    assert main(["complex", str(f), "--q", "1", "--star", "1"]) == 0
    out = capsys.readouterr().out
    assert "dims[1:5,2:5]" in out
    assert "h^1=1" in out


def test_strict_flag(tmp_path, capsys):
    f = write_example(tmp_path, "smooth-ec")
    data = json.loads(f.read_text())
    data["note"] = "hand-edited"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 3
    assert main(["--no-strict", "validate", str(f)]) == 0
    capsys.readouterr()


def test_dim_theorem_override_flags(tmp_path, capsys):
    f = write_example(tmp_path, "ngon")
    capsys.readouterr()
    assert main(["dim-theorem", str(f), "--q", "4", "--a", "1"]) in (0, 1)
    out = capsys.readouterr().out
    assert "dim=0" in out


def test_reports_are_byte_identical_across_runs(tmp_path):
    f1 = write_example(tmp_path, "zeta-fqt", "q=5")
    f2 = tmp_path / "again.json"
    assert main(["example", "zeta-fqt", "q=5", "-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()

    first = run_cli("check", "CFF", str(f1))
    second = run_cli("check", "CFF", str(f1))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    tsv1 = run_cli("--tsv", "quasi-iso", str(f1))
    tsv2 = run_cli("--tsv", "quasi-iso", str(f1))
    assert tsv1.stdout == tsv2.stdout


REPORT_COMMANDS = (
    ("validate",), ("dim-theorem",), ("check", "A1"), ("check", "A2"), ("check", "B1FF"),
    ("check", "B2FF"), ("check", "CFF"), ("complex",), ("complex", "--star", "2"), ("quasi-iso",),
)


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "conjugated"])
def test_integral_entries_in_rational_form_give_the_same_reports(tmp_path, capsys, rational):
    """Entries written as "4/2", "2.0" or "1e0" denote integers: every
    report on such a file matches the report on the file that writes them
    as integers, also when every entry of a block is written so."""
    import random

    from fixtures import conjugated, tensored

    fibre = tensored(simplex_surface(), 2)
    if rational:
        fibre = conjugated(fibre, random.Random(2))
    data = json.loads(dumps(Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": fibre})))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data))
    forms = (lambda n: f"{2 * n}/2", lambda n: f"{n}.0", lambda n: f"{n}e0", lambda n: f"{3 * n}/3")
    k = 0
    for kind in ("pushforward", "pullback"):
        for block in data["fibres"]["v0"][kind]:
            entries = block["matrix"]["entries"]
            for i, x in enumerate(entries):
                if "/" not in x:
                    entries[i] = forms[k % len(forms)](int(x))
                    k += 1
    assert k
    respelled = tmp_path / "respelled.json"
    respelled.write_text(json.dumps(data))
    for cmd in REPORT_COMMANDS:
        for tsv in ((), ("--tsv",)):
            want = main([*tsv, *cmd, str(plain)]), capsys.readouterr().out
            got = main([*tsv, *cmd, str(respelled)]), capsys.readouterr().out
            assert got == want, cmd


def test_entry_point_runs_as_module(tmp_path):
    out = tmp_path / "z.json"
    built = run_cli("example", "zeta-fqt", "q=2", "-o", str(out))
    assert built.returncode == 0
    checked = run_cli("check", "CFF", str(out))
    assert checked.returncode == 0
    assert "-1*log(q)^-1" in checked.stdout


def test_both_entry_points_resolve_to_run(monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, attr = re.search(r'^degen = "([\w.]+):(\w+)"$', text, re.M).groups()
    assert getattr(importlib.import_module(module), attr) is cli.run
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("degen", run_name="__main__")
    assert calls == ["run"]


def test_run_exits_with_the_code_and_output_of_main(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = json.loads(dumps(Bundle(params=Params(3, 1, 2), fibres={"v0": simplex_surface()})))
    block = data["fibres"]["v0"]["pushforward"][0]["matrix"]
    block["entries"] = [str(-Fraction(e)) for e in block["entries"]]
    bad.write_text(json.dumps(data))
    cases = (
        (["validate", str(write_example(tmp_path, "zeta-fqt"))], 0),
        (["validate", str(bad)], 1),
        (["check", "CFF", str(write_example(tmp_path, "ngon"))], 2),
        (["validate", str(tmp_path / "nope.json")], 3),
    )
    capsys.readouterr()
    for argv, code in cases:
        assert main(argv) == code
        want = capsys.readouterr().out
        for entry in (["-m", "degen"], ["-c", "from degen.cli import run; run()"]):
            proc = subprocess.run(
                [sys.executable, *entry, *argv], capture_output=True, text=True, timeout=60
            )
            assert (proc.returncode, proc.stdout) == (code, want), (entry, argv)


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path, capsys):
    path = write_example(tmp_path, "ngon")
    before = gc.get_freeze_count()
    enabled = gc.isenabled()
    assert main(["validate", str(path)]) == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled() == enabled
    capsys.readouterr()


def test_run_keeps_the_atexit_handlers(tmp_path, capsys):
    path = write_example(tmp_path, "ngon")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 0
    want = capsys.readouterr().out
    code = "import atexit; atexit.register(print, 'atexit ran'); from degen.cli import run; run()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "validate", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "atexit ran\n", "")


@pytest.mark.parametrize("stdout", ["/dev/full", "closed pipe"])
def test_failed_stdout_flush_is_reported_as_by_the_interpreter(tmp_path, stdout):
    # the report stays in stdout's buffer until the exit flushes it; that
    # flush fails, and run() must then exit as a plain sys.exit does
    path = write_example(tmp_path, "ngon")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    plain = "import sys; from degen.cli import main; sys.exit(main())"
    if stdout == "/dev/full":
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)
    try:
        got, want = (
            subprocess.run(
                [sys.executable, *entry, "validate", str(path)],
                stdout=fd, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
            for entry in (["-m", "degen"], ["-c", plain])
        )
    finally:
        os.close(fd)
    assert got.returncode == want.returncode == 120
    assert got.stderr == want.stderr
    assert "Exception ignored" in got.stderr and "Traceback" not in got.stderr


@pytest.mark.parametrize("stdout", ["/dev/full", "closed"])
def test_failed_report_write_exits_120_without_a_traceback(tmp_path, stdout):
    # unbuffered, the report's write itself fails inside main(); with
    # stdout closed, sys.stdout is None
    path = write_example(tmp_path, "ngon")
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    if stdout == "/dev/full":
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
        extra = {"stdout": fd}
    else:
        fd = None
        extra = {"preexec_fn": lambda: os.close(1)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "degen", "validate", str(path)],
            stderr=subprocess.PIPE, text=True, env=env, timeout=60, **extra,
        )
    finally:
        if fd is not None:
            os.close(fd)
    assert proc.returncode == 120
    assert "degen: error: cannot write to stdout" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failed_report_write_in_process(tmp_path, capsys, monkeypatch):
    path = write_example(tmp_path, "ngon")

    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    for stdout, why in ((Full(), "[Errno 28] No space left on device"), (None, "stdout is closed")):
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["validate", str(path)]) == 120
        assert main(["--help"]) == 120
        monkeypatch.undo()
        assert capsys.readouterr().err == f"degen: error: cannot write to stdout: {why}\n" * 2


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("args", [["validate", "missing.json"], ["bogus"]])
def test_failed_error_message_write_exits_120(tmp_path, args, unbuffered):
    # unbuffered, the message's write fails inside main(); buffered, the
    # last flush of stderr fails as the interpreter ends
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "degen", *args], stdout=subprocess.PIPE, stderr=fd,
            text=True, env=env, cwd=tmp_path, timeout=60,
        )
    finally:
        os.close(fd)
    assert proc.returncode == 120
    assert proc.stdout == ""


def test_failed_error_message_write_in_process(tmp_path, monkeypatch):
    path = write_example(tmp_path, "ngon")

    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    for stderr in (Full(), None):
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["validate", str(tmp_path / "missing.json")]) == 120
        assert main(["bogus"]) == 120
        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["validate", str(path)]) == 120
        monkeypatch.undo()


def test_ngon_example_past_the_file_limit_is_refused_before_it_is_built(tmp_path, capsys):
    # n = 20000 would build a 7 GB file; n = 3000 one of 158 MB that load
    # refuses as past MAX_BUNDLE_BYTES
    from degen.workbench import MAX_NGON_N

    for n in (MAX_NGON_N + 1, 3000, 20000):
        path = tmp_path / f"ngon{n}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "degen", "example", "ngon", f"n={n}", "-o", str(path)],
            capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 3
        assert f"n = {n} would write" in proc.stderr and "MAX_BUNDLE_BYTES" in proc.stderr
        assert "Traceback" not in proc.stderr and not path.exists()
        start = time.perf_counter()
        assert main(["example", "ngon", f"n={n}", "-o", str(path)]) == 3
        assert time.perf_counter() - start < 0.1
    capsys.readouterr()


def test_example_default_output_name(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "example", "ngon"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert (tmp_path / "ngon.json").exists()


def test_usage_error_exits_three():
    proc = run_cli("no-such-command")
    assert proc.returncode == 3
    proc = run_cli()
    assert proc.returncode == 3


# ---------------------------------------------------------------------------
# The command-line grammar, against the argparse parser it replaced
# (``oracles.argparse_parser``).

def _new(argv):
    """("ok", args), ("help",) or ("error",), as ``cli._parse`` reads argv."""
    try:
        return "ok", cli._parse(list(argv))
    except cli._HelpRequested:
        return ("help",)
    except cli._UsageError:
        return ("error",)


@functools.cache
def _oracle():
    from oracles import argparse_parser

    return argparse_parser()


def _old(argv):
    """("ok", args, leftover), ("help",) or ("error",), as the argparse
    parser reads argv; ``leftover`` is what ``parse_args`` would reject."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns, leftover = _oracle().parse_known_args(list(argv))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)
    return "ok", vars(ns), leftover


def _old_stderr(argv):
    """What the argparse parser writes to stderr as it rejects argv."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit):
            _oracle().parse_args(list(argv))
    return stderr.getvalue()


# Before Python 3.13 argparse drops a literal "--" after the separator from
# the value it lands in (``check A2 -- --`` gives file=[], which made the
# old parser's caller crash), so the oracle reads such a token spelled as
# a plain positional, and the spelling is undone in what it returns.
_LITERAL = "\0--"


def _spell_literal_dashes(argv):
    if "--" not in argv:
        return list(argv)
    sep = argv.index("--") + 1
    return argv[:sep] + [_LITERAL if t == "--" else t for t in argv[sep:]]


def _unspell(value):
    if isinstance(value, list):
        return [_unspell(v) for v in value]
    return "--" if value == _LITERAL else value


def _argparse_is_the_reference():
    """argparse from Python 3.13 on acts on -h inside a run of short
    flags (``-hx``) at once, rejects an ambiguous prefix only when it
    reaches it, and accepts ``--`` before the command; the grammar kept is
    that of the argparse the old parser ran on, 3.10 to 3.12."""
    probes = (["-hx"], ["-h", "--=x"], ["--", "validate", "F"])
    return all(_old(argv) == ("error",) for argv in probes)


def _argparse_messages_are_the_reference():
    """Later argparse releases reword some usage errors (NAME and
    key=value both required, say); compare whole messages only where
    it words them as the argparse the old parser ran on."""
    return _old_stderr(["example"]) == (
        "degen example: error: the following arguments are required: name, key=value\n"
    ) and _old_stderr(["check", "x"]) == (
        "degen check: error: argument conjecture: invalid choice: 'x' "
        "(choose from 'A1', 'A2', 'B1FF', 'B2FF', 'CFF')\n"
    )


def _reads_differently_in_later_argparse(argv):
    if any(t.startswith(("-h", "--h", "--=")) for t in argv):
        return True
    return "--" in argv and not any(t in cli._COMMANDS for t in argv[: argv.index("--")])


_GLOBAL_TOKENS = (
    "--tsv", "--ts", "--t", "--strict", "--no-strict", "--no-s", "--n", "--st", "--s",
    "--strict=1", "--tsv=", "--tsv=x", "-h", "--help", "--he", "-hh", "-hx", "-h=h", "-h=",
    "--bogus", "-x", "-", "--", "--=x", "-5", "",
)
_COMMAND_TOKENS = (*cli._COMMANDS, "Validate", "exam", "check A2", "-o")
_ARG_TOKENS = (
    # conjecture names in any case, files, example names and parameters
    "A1", "A2", "a2", "B1FF", "b1ff", "B2FF", "Cff", "CFF", "D9", "F", "x.json", "",
    "ngon", "zeta-fqt", "n=3", "q=5", "a_v=1", "=3", "k=",
    # every option spelling, prefixes and = forms
    "--q", "--q=3", "--q=", "--a", "--a=-5", "--a=1_0", "--star", "--sta", "--st", "--s",
    "--st=2", "--star=-1_0", "-o", "-ox.json", "-o=y", "-o=", "-o-5", "--output", "--out=z",
    "--o", "--o=", "-q", "--", "--",
    # negative, huge and underscored integers
    "-5", "-0", "3", "+4", " 7", "1_000", "-1_000", "2000", "-2000", "1001", "-1000",
    "99999999999999999999", "1" + "0" * 5000, "-1.5", "-.5", "1e3", "٣", "-٣", "-5\n",
    # stray flags and junk
    "--bogus", "-x", "-", "-h", "--help", "-hh", "-ho", "-hox", "-hx", "--tsv", "--strict",
    "--no-strict", "-x y", "--q 5", " -a", "--=x",
)
_RANDOM_ARGVS = st.builds(
    lambda flags, command, rest: flags + command + rest,
    st.lists(st.sampled_from(_GLOBAL_TOKENS), max_size=2),
    st.one_of(st.just([]), st.sampled_from(_COMMAND_TOKENS).map(lambda c: [c])),
    st.lists(
        st.one_of(st.sampled_from(_ARG_TOKENS), st.text("-=_ 0123456789ahoqs", max_size=5)),
        max_size=7,
    ),
)


@st.composite
def _well_formed_argvs(draw):
    """A command with its positionals and some of its options, each
    spelled in any accepted way, in any order, perhaps with a ``--``."""
    command = draw(st.sampled_from(tuple(cli._COMMANDS)))
    positionals, options = cli._COMMANDS[command]
    words = ("A2", "CFF", "B1FF", "a2", "F", "x.json", "-5", "ngon")
    units = [[draw(st.sampled_from(words))] for _, convert in positionals if convert is not None]
    units += [[p] for p in draw(st.lists(st.sampled_from(("n=4", "q=3", "x")), max_size=2))]
    valued = [s for s, (_, convert) in options.items() if callable(convert)]
    for spelling in draw(st.lists(st.sampled_from(valued), max_size=3)) if valued else ():
        value = draw(st.sampled_from(("3", "-5", "1_0", "-1_0", "2000", "-1000", " 7", "x")))
        short = spelling[1] != "-"
        spelling = spelling[: draw(st.integers(2 if short else 3, len(spelling)))]
        form = draw(st.integers(0, 2))
        units.append([spelling, value] if form == 0 else
                     [f"{spelling}{value}" if short and form == 1 else f"{spelling}={value}"])
    tokens = [t for unit in draw(st.permutations(units)) for t in unit]
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), "--")
    flags = ("--tsv", "--ts", "--strict", "--no-strict", "--no-s")
    flags = draw(st.lists(st.sampled_from(flags), max_size=2))
    return flags + [command] + tokens


@settings(max_examples=1500, deadline=None)
@given(st.one_of(_RANDOM_ARGVS, _well_formed_argvs()))
def test_grammar_matches_the_argparse_parser(argv):
    if not _argparse_is_the_reference():
        assume(not _reads_differently_in_later_argparse(argv))
    spelled = _spell_literal_dashes(argv)
    new, old = _new(argv), _old(spelled)
    event(new[0])
    same_message = spelled == argv and _argparse_messages_are_the_reference()
    if old[0] == "ok":
        fields = {k: _unspell(v) for k, v in old[1].items()}
        leftover = _unspell(old[2])
        if leftover and fields["command"] == "example":
            # the one change: every key=value after NAME is a parameter,
            # also past an option, where argparse left it over
            if new[0] == "ok":
                more = [t for t in old[2] if t != "--"]
                assert new[1] == {**fields, "params": fields["params"] + _unspell(more)}
                return
            same_message = False
        old = ("error",) if leftover else ("ok", fields)
    assert new == old
    if new == ("error",):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(list(argv)) == 3
        assert re.match(r"degen( [a-z-]+)?: error: ", stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if same_message:
            assert stderr.getvalue() == _old_stderr(argv)


GRAMMAR = (
    # unique prefixes of long options, = forms, and -oFILE
    (["--ts", "--no-s", "validate", "F"], {"tsv": True, "strict": False, "file": "F"}),
    (["complex", "F", "--st", "2"], {"star": 2, "q": None}),
    (["dim-theorem", "F", "--q=3", "--a", "-5"], {"q": 3, "a": -5}),
    (["dim-theorem", "F", "--a=-1_000"], {"a": -1000}),
    (["complex", "--star", "2", "F", "--q", "1_0"], {"file": "F", "star": 2, "q": 10}),
    (["example", "-ox.json", "ngon"], {"name": "ngon", "output": "x.json", "params": []}),
    (["example", "ngon", "-o=", "n=3"], {"output": "", "params": ["n=3"]}),
    # -- makes every later token positional, a second -- too
    (["check", "--", "A2", "-x"], {"conjecture": "A2", "file": "-x"}),
    (["check", "A2", "--", "--"], {"file": "--"}),
    (["example", "ngon", "--", "--", "n=3"], {"params": ["--", "n=3"]}),
    (["complex", "F", "--q=3", "--"], "error"),
    (["--", "validate", "F"], "error"),
    # global flags only before the command; conjecture names as written
    (["validate", "F", "--tsv"], "error"),
    (["check", "a2", "F"], "error"),
    (["dim-theorem", "F", "--a", "-1_000"], "error"),
    (["dim-theorem", "F", "--a", "1001"], "error"),
    (["--tsv=1", "validate", "F"], "error"),
    # help, alone or in a run of short flags that all exist
    (["-h"], "help"),
    (["--bogus", "validate", "--he"], "help"),
    (["-hh", "nonsense"], "help"),
    (["-h=h"], "help"),
    (["example", "-ho", "x"], "help"),
    (["-hx"], "error"),
    (["example", "-ho"], "error"),
    (["-h", "--=x"], "error"),
    (["check", "a2", "-h"], "error"),
    (["check", "-h", "a2"], "help"),
    # key=value pairs anywhere after NAME
    (["example", "ngon", "n=3", "-o", "x.json", "q=5"],
     {"name": "ngon", "output": "x.json", "params": ["n=3", "q=5"]}),
    (["example", "ngon", "-o", "x.json", "n=3"], {"params": ["n=3"]}),
    (["example", "ngon", "-o", "x.json", "--", "n=3"], {"params": ["n=3"]}),
)


@pytest.mark.parametrize("argv, want", GRAMMAR, ids=[" ".join(a) for a, _ in GRAMMAR])
def test_grammar(argv, want):
    got = _new(argv)
    if isinstance(want, str):
        assert got == (want,)
    else:
        assert got[0] == "ok"
        assert {k: got[1][k] for k in want} == want


def test_help_prints_the_usage_text(capsys):
    for argv in (["--help"], ["check", "-h"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cli.USAGE and captured.err == ""
    assert run_cli("-h").stdout == cli.USAGE


def test_usage_error_names_the_argument(capsys):
    assert main(["check", "a2", "F"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("degen check: error: argument conjecture: invalid choice: 'a2'")
    assert main(["complex", "F", "--star", "x"]) == 3
    assert capsys.readouterr().err == "degen complex: error: argument --star: invalid int value: 'x'\n"
    assert main(["validate", "F", "--tsv"]) == 3
    assert capsys.readouterr().err == "degen: error: unrecognized arguments: --tsv\n"


def test_example_parameters_after_the_output_option(tmp_path):
    want = tmp_path / "want.json"
    assert main(["example", "-o", str(want), "ngon", "n=5", "q=3"]) == 0
    for argv in (
        ["example", "ngon", "n=5", "-o", "{}", "q=3"],
        ["example", "ngon", "-o", "{}", "n=5", "q=3"],
        ["example", "ngon", "-o{}", "--", "n=5", "q=3"],
    ):
        out = tmp_path / "got.json"
        assert main([a.format(out) for a in argv]) == 0
        assert out.read_bytes() == want.read_bytes()


def _count_rank_calls(monkeypatch):
    """Count the calls of ``qlinalg.rank`` through every module's binding."""
    from degen import qlinalg

    calls = []
    real = qlinalg.rank

    def counted(m):
        calls.append((m.rows, m.cols))
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("degen") and getattr(module, "rank", None) is real:
            monkeypatch.setattr(module, "rank", counted)
    return calls


def _count_gamma_eliminations(monkeypatch):
    """Count the eliminations of gamma^T, the only ones ``deligne`` runs."""
    from degen import deligne

    calls = []
    real = deligne._eliminate
    monkeypatch.setattr(deligne, "_eliminate", lambda m: calls.append(m) or real(m))
    return calls


def test_check_a2_ranks_im_gamma_once(tmp_path, monkeypatch, capsys):
    # rank(i^*i_*) and one elimination of gamma^T give the dimension; the
    # quotient rank reuses gamma^T's pivot rows and ranks only the residues
    path = write_example(tmp_path, "ngon")
    calls = _count_rank_calls(monkeypatch)
    eliminations = _count_gamma_eliminations(monkeypatch)
    assert main(["check", "A2", str(path)]) == 0
    assert len(calls) == 2 and len(eliminations) == 1
    capsys.readouterr()


def test_check_b2ff_ranks_each_gamma_once(tmp_path, monkeypatch, capsys):
    # one rank of i^*i_* and one elimination of gamma^T per place, then the
    # rank of the block matrix of residues
    path = write_example(tmp_path, "zeta-fqt")
    calls = _count_rank_calls(monkeypatch)
    eliminations = _count_gamma_eliminations(monkeypatch)
    assert main(["check", "B2FF", str(path)]) == 0
    places = len(json.loads(path.read_text())["fibres"])
    assert len(calls) == places + 1 and len(eliminations) == places
    capsys.readouterr()


def test_check_cff_takes_the_relation_coordinates_once(tmp_path, monkeypatch, capsys):
    # the load checks the integral map with them, and the orders reuse them
    from degen import qlinalg

    path = write_example(tmp_path, "zeta-fqt")
    calls = []
    real = qlinalg._relation_coords
    monkeypatch.setattr(qlinalg, "_relation_coords", lambda f: calls.append(f) or real(f))
    assert main(["check", "CFF", str(path)]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_over_size_bundle_is_rejected_before_parsing(tmp_path, monkeypatch, capsys):
    from degen import bundle

    path = write_example(tmp_path, "ngon")
    size = path.stat().st_size
    monkeypatch.setattr(bundle, "MAX_BUNDLE_BYTES", size)
    assert main(["validate", str(path)]) == 0
    monkeypatch.setattr(bundle, "MAX_BUNDLE_BYTES", size - 1)
    assert main(["validate", str(path)]) == 3
    assert f"larger than {size - 1} bytes (MAX_BUNDLE_BYTES)" in capsys.readouterr().err


def test_endless_input_is_rejected_in_bounded_memory():
    if not Path("/dev/zero").exists():
        pytest.skip("no /dev/zero")
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "validate", "/dev/zero"],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert "MAX_BUNDLE_BYTES" in proc.stderr and "Traceback" not in proc.stderr
