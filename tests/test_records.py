"""Record semantics of the package's value classes.

Constructors, ``==``, ``hash``, ``repr`` and immutability of every record
class, pinned against what the classes did when they were generated with
``dataclasses``: the expected strings and truth values below were recorded
from that implementation.  Also checks that importing the command line
pulls in neither ``dataclasses`` nor the modules it imports.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import degen
from degen.bundle import Bundle, GlobalL, MotivicDatum, Params, Place, RegulatorDatum
from degen.deligne import ConjectureAResult, CycleDatum, DeligneGroup
from degen.lfun import FunctionalEquation, LeadingValue, RatFunc
from degen.monodromy import CochainComplex, QuasiIsoResult, TwistRow
from degen.qlinalg import AbGroupMap, FPAbelianGroup, Mat
from degen.strata import GradedSpace, ValidationReport, generator_smooth
from degen.workbench import CheckReport, ReportLine
from oracles import SmithForm

F = Fraction


def small_fibre():
    return generator_smooth({(0, 0): 1}, 1, 2)


def instances():
    """One instance of each record class whose repr is generated."""
    m = Mat.from_rows([[1, 2]])
    grp = FPAbelianGroup.make(1, [[2]])
    cx = CochainComplex({0: 1}, {})
    line = ReportLine("dim", "v", "PASS", "dim=1")
    return {
        "Params": Params(1, 0, 13),
        "Place": Place(1, m),
        "RegulatorDatum": RegulatorDatum(1, m),
        "MotivicDatum": MotivicDatum(),
        "GlobalL": GlobalL(RatFunc.make([1], [1]), 1),
        "Bundle": Bundle(Params(1, 0, 13), {}),
        "DeligneGroup": DeligneGroup(2, 1, "boundary", 1, 2, m, None),
        "CycleDatum": CycleDatum(1, m),
        "ConjectureAResult": ConjectureAResult(1, 1, 1, True),
        "LeadingValue": LeadingValue(1, F(-1, 3), 1),
        "FunctionalEquation": FunctionalEquation(1, 0, -2),
        "CochainComplex": cx,
        "TwistRow": TwistRow(1, {0: ((1, 1),)}),
        "QuasiIsoResult": QuasiIsoResult(1, {0: 1}, {0: 1}),
        "SmithForm": SmithForm((), ((2,),), ((1,),)),
        "FPAbelianGroup": grp,
        "AbGroupMap": AbGroupMap.make(grp, grp, [[1]]),
        "GradedSpace": GradedSpace(1, 0, 0, (((1,), 1),)),
        "Fibre": small_fibre(),
        "ValidationReport": ValidationReport((("rho.rho", 1, 0, 0),), 3),
        "ReportLine": line,
        "CheckReport": CheckReport((line,)),
    }


FIBRE_REPR = (
    "Fibre(components=1, dim_y=1, q_v=2, strata=((1,),), chow={((1,), 0, 0): 1}, "
    "pushforward={}, pullback={}, ii_matrices={}, higher_chow={})"
)

REPRS = {
    "Params": "Params(q_coh=1, a=0, field_q=13)",
    "Place": "Place(deg_v=1, frob=Mat[1 2])",
    "RegulatorDatum": "RegulatorDatum(motivic_rank=1, matrix=Mat[1 2])",
    "MotivicDatum": "MotivicDatum(regulator=None, cycle_class=None)",
    "GlobalL": "GlobalL(z=RatFunc(_a=1, _b=1, _n=(1,), _d=(1,)), weight_w=1, conductor=None)",
    "Bundle": (
        "Bundle(params=Params(q_coh=1, a=0, field_q=13), fibres={}, places={}, "
        "motivic={}, global_l=None, integral=None)"
    ),
    "DeligneGroup": (
        "DeligneGroup(q=2, a=1, kind='boundary', dim=1, ambient_dim=2, "
        "ii=Mat[1 2], modulo=None)"
    ),
    "CycleDatum": "CycleDatum(b_rank=1, xi=Mat[1 2], tau=None)",
    "ConjectureAResult": (
        "ConjectureAResult(dim=1, expected_sources=1, achieved_rank=1, in_kernel=True)"
    ),
    "LeadingValue": "LeadingValue(order=1, coeff=Fraction(-1, 3), logpow=1)",
    "FunctionalEquation": "FunctionalEquation(sign=1, alpha=0, beta=-2)",
    "CochainComplex": "CochainComplex(dims={0: 1}, diffs={})",
    "TwistRow": "TwistRow(star=1, summands={0: ((1, 1),)})",
    "QuasiIsoResult": (
        "QuasiIsoResult(star=1, cone_cohomology={0: 1}, small_cohomology={0: 1})"
    ),
    "SmithForm": "SmithForm(u=(), d=((2,),), v=((1,),))",
    "FPAbelianGroup": "FPAbelianGroup(relations=Mat[2])",
    "AbGroupMap": (
        "AbGroupMap(source=FPAbelianGroup(relations=Mat[2]), "
        "target=FPAbelianGroup(relations=Mat[2]), matrix=Mat[1])"
    ),
    "GradedSpace": "GradedSpace(level=1, codim=0, j=0, pieces=(((1,), 1),))",
    "Fibre": FIBRE_REPR,
    "ValidationReport": "ValidationReport(failures=(('rho.rho', 1, 0, 0),), checked=3)",
    "ReportLine": "ReportLine(check='dim', place='v', verdict='PASS', value='dim=1')",
    "CheckReport": (
        "CheckReport(lines=(ReportLine(check='dim', place='v', verdict='PASS', "
        "value='dim=1'),))"
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr(name):
    assert repr(instances()[name]) == REPRS[name]


def test_custom_reprs():
    assert repr(Mat.from_rows([[1, F(1, 2)], [0, 3]])) == "Mat[1 1/2; 0 3]"
    assert repr(Mat.zero(0, 3)) == "Mat(0x3)"


def _grp(n=2):
    return FPAbelianGroup.make(1, [[n]])


# (equal pair, unequal value of the same class) for each hashable record
PAIRS = {
    "Params": (lambda: Params(1, 0, 13), Params(1, 0, 11)),
    "Place": (lambda: Place(1, Mat.from_rows([[2]])), Place(2, Mat.from_rows([[2]]))),
    "LeadingValue": (lambda: LeadingValue(1, F(1, 2), 1), LeadingValue(1, F(1, 3), 1)),
    "FunctionalEquation": (lambda: FunctionalEquation(-1, 2, 3), FunctionalEquation(1, 2, 3)),
    "ReportLine": (lambda: ReportLine("a", "b", "PASS", "x"), ReportLine("a", "b", "FAIL", "x")),
    "FPAbelianGroup": (lambda: _grp(2), _grp(3)),
    "AbGroupMap": (
        lambda: AbGroupMap.make(_grp(2), _grp(4), [[2]]),
        AbGroupMap.make(_grp(2), _grp(4), [[0]]),
    ),
    "SmithForm": (lambda: SmithForm((), ((2,),), ()), SmithForm((), ((3,),), ())),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_structural_equality_and_hash(name):
    make, other = PAIRS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != other and not (a == other)
    assert len({a, b, other}) == 2


def test_equality_is_same_class_only():
    assert Params(1, 0, 13) != (1, 0, 13)
    assert (1, 0, 13) != Params(1, 0, 13)
    # two records with the same field values but different classes
    assert FunctionalEquation(1, 0, 1) != LeadingValue(1, 0, 1)
    assert Place(1, Mat.identity(1)) != RegulatorDatum(1, Mat.identity(1))
    assert Params(1, 0, 13).__eq__((1, 0, 13)) is NotImplemented


def test_frozen_records_reject_assignment():
    inst = instances()
    for name, obj in inst.items():
        if name == "Fibre":
            continue
        field = REPRS[name].split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        Mat.identity(2).rows = 3
    with pytest.raises(AttributeError):
        RatFunc.make([1], [1]).num = (F(2),)
    assert repr(inst["Params"]) == REPRS["Params"]


def test_fibre_is_mutable_and_unhashable():
    f = small_fibre()
    with pytest.raises(TypeError):
        hash(f)
    assert f == small_fibre()
    f.higher_chow = {(1, 0): 2}
    assert f.higher_chow == {(1, 0): 2}
    assert f != small_fibre()


def test_records_holding_dicts_are_unhashable():
    for name in ("Bundle", "CochainComplex", "QuasiIsoResult", "TwistRow"):
        with pytest.raises(TypeError):
            hash(instances()[name])


def test_graded_space_derived_fields_stay_out_of_equality():
    g = GradedSpace(2, 0, 0, (((1, 2), 3), ((1, 3), 2)))
    assert g.total == 5 and g.offset((1, 3)) == 3 and g.dim_of((2, 3)) == 0
    assert g == GradedSpace(2, 0, 0, (((1, 2), 3), ((1, 3), 2)))
    assert hash(g) == hash(GradedSpace(2, 0, 0, (((1, 2), 3), ((1, 3), 2))))
    assert g != GradedSpace(2, 1, 0, (((1, 2), 3), ((1, 3), 2)))


def test_keyword_and_default_construction():
    m = Mat.identity(1)
    b = Bundle(params=Params(q_coh=1, a=0, field_q=13), fibres={})
    assert (b.places, b.motivic, b.global_l, b.integral) == ({}, {}, None, None)
    assert b.places is not Bundle(Params(1, 0, 13), {}).places
    assert b == Bundle(Params(1, 0, 13), {}, {}, {}, None, None)
    md = MotivicDatum()
    assert (md.regulator, md.cycle_class) == (None, None)
    reg = RegulatorDatum(motivic_rank=1, matrix=m)
    assert MotivicDatum(cycle_class=None, regulator=reg).regulator == reg
    z = RatFunc.make([1], [1])
    g = GlobalL(z=z, weight_w=1)
    assert g.conductor is None
    assert g == GlobalL(z, 1, None)
    assert GlobalL(z, 1, conductor=(F(1), 0)).conductor == (F(1), 0)
    c = CycleDatum(b_rank=1, xi=m)
    assert c.tau is None
    assert c == CycleDatum(1, m, None)
    assert CycleDatum(1, m, tau=m).tau == m
    with pytest.raises(TypeError):
        Params(1, 0)
    with pytest.raises(TypeError):
        Params(1, 0, 13, 4)
    with pytest.raises(TypeError):
        GlobalL(z, 1, weight_w=2)


def test_copy_and_pickle_round_trip():
    for obj in instances().values():
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    for obj in (Mat.from_rows([[1, F(1, 2)]]), RatFunc.make([1, 2], [3, 1])):
        assert pickle.loads(pickle.dumps(obj)) == obj


def _fresh_words(statement: str, words: str) -> list[str]:
    """The words that the expression ``words`` joins in a fresh ``python
    -S`` after ``statement``, with the package source and the tests on its
    path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(degen.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = f"import sys; sys.path[:0] = [{src!r}, {tests!r}]; {statement}; print(' '.join({words}))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=20
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def _modules_loaded_by(statement: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` a fresh ``python -S`` holds after ``statement``."""
    return _fresh_words(statement, f"m for m in {names!r} if m in sys.modules")


def test_cli_import_avoids_dataclasses_and_typing():
    names = ("dataclasses", "inspect", "ast", "dis", "typing")
    assert _modules_loaded_by("import degen.cli", names) == []


def test_fixtures_import_avoids_unittest_and_asyncio():
    # the benchmark's workload set-up imports the fixtures and, through
    # them, the oracles: whatever those import is paid in its start-up
    # time and peak memory
    names = ("unittest", "asyncio", "argparse", "gettext")
    assert _modules_loaded_by("import fixtures", names) == []


def test_cli_import_avoids_argparse_and_gettext():
    # every command pays for what importing the command line loads
    assert _modules_loaded_by("import degen.cli", ("argparse", "gettext")) == []


def test_cli_import_avoids_json_fractions_and_re():
    # every command pays for what importing the command line loads; an
    # exact rational travels as integers from the file to the report
    names = ("json", "fractions", "decimal", "numbers", "re", "enum")
    assert _modules_loaded_by("import degen.cli", names) == []


def test_no_command_loads_json_fractions_or_decimal(tmp_path):
    import random

    from degen.bundle import save
    from degen.workbench import CONJECTURES, EXAMPLES, build_example

    from fixtures import conjugated, simplex_surface

    files = []
    for name in ("ngon", "zeta-fqt"):
        files.append(tmp_path / f"{name}.json")
        save(build_example(name), files[-1])
    files.append(tmp_path / "surface.json")
    surface = conjugated(simplex_surface(), random.Random(2))
    save(Bundle(Params(3, 1, 2), {"v0": surface}), files[-1])
    commands = [["validate"], ["dim-theorem"], *(["check", c] for c in CONJECTURES),
                ["complex"], ["quasi-iso"]]
    runs = [[*command, str(path)] for path in files for command in commands]
    runs += [["example", name, "-o", str(tmp_path / f"out-{name}.json")] for name in EXAMPLES]
    runs = [[*flag, *argv] for argv in runs for flag in ([], ["--tsv"])]
    names = ("json", "fractions", "decimal")
    src = os.path.dirname(os.path.dirname(os.path.abspath(degen.__file__)))
    # each command runs in order in one fresh interpreter; the first one
    # after which any of the names is loaded is printed with them
    code = (
        f"import io, sys; sys.path[:0] = [{src!r}]; from degen.cli import main\n"
        f"out = sys.stdout\n"
        f"for argv in {runs!r}:\n"
        f"    sys.stdout = io.StringIO(); code = main(argv); sys.stdout = out\n"
        f"    loaded = [m for m in {names!r} if m in sys.modules]\n"
        f"    if code not in (0, 1, 2) or loaded:\n"
        f"        print(code, argv, loaded); break\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""


def test_cli_import_compiles_no_pattern():
    # every command would pay for compiling a module-level pattern, also
    # one that only an unusual input reaches
    compiled = _fresh_words(
        "import re, degen.cli",
        "f'{m}.{k}' for m, mod in list(sys.modules.items()) if m.split('.')[0] == 'degen' "
        "for k, v in vars(mod).items() if isinstance(v, re.Pattern)",
    )
    assert compiled == []
