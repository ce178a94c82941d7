"""Exit codes, output shape, and determinism of the command line."""

import gc
import importlib
import json
import re
import resource
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from degen.bundle import MAX_DIMENSION, Bundle, Params, dumps
from degen import cli
from degen.cli import main

from fixtures import multi_place_bundle, simplex_surface


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
    assert main(["validate", str(path)]) == 0
    assert gc.get_freeze_count() == before
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
