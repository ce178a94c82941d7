"""Acceptance suite: one test per advertised guarantee, exact throughout.

Each test is the binding form of one promise from the README.  They
deliberately re-derive everything through independent routes (series
expansions, coset enumeration, subprocess CLI runs) rather than trusting
the library's own intermediate results.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

from degen.bundle import dumps, loads
from degen.lfun import (
    FunctionalEquation,
    RatFunc,
    functional_equation,
    leading_laurent,
)
from degen.monodromy import (
    cohomology_dims,
    total_rows,
    CochainComplex,
    check_quasi_iso,
)
from degen.qlinalg import Mat, kernel_cokernel_orders
from degen.strata import generator_ngon, generator_smooth, validate
from degen.workbench import build_example, run_dim_theorem, run_quasi_iso

import oracles
from fixtures import conjugated, simplex_surface, tensored, with_flipped_sign

PRIME_POWERS_TO_25 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)


def cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "degen", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_criterion_01_rosen_residue(tmp_path):
    # zeta of F_q(t) has leading value -1/((q-1) log q) at s = 0, found
    # on the Z.leading line of the CFF report; under one second per q.
    for q in (2, 3, 4, 5, 7, 8, 9):
        started = time.monotonic()
        path = tmp_path / f"zeta{q}.json"
        built = cli("example", "zeta-fqt", f"q={q}", "-o", str(path))
        assert built.returncode == 0
        report = cli("--tsv", "check", "CFF", str(path))
        assert report.returncode == 0, report.stdout + report.stderr
        expected = f"Z.leading\t-\tPASS\t{Fraction(-1, q - 1)}*log(q)^-1\n"
        assert expected in report.stdout
        assert time.monotonic() - started < 1.0


def test_criterion_02_tate_ngon_dimension_theorem():
    started = time.monotonic()
    for n in range(2, 7):
        for q in (2, 3, 5):
            b = build_example("ngon", {"n": n, "q": q})
            report = run_dim_theorem(b)
            assert report.exit_code == 0
            (line,) = report.lines
            assert line.verdict == "PASS"
            assert line.value == "dim=1 -ord=1"
    assert time.monotonic() - started < 1.0


def test_criterion_03_good_reduction_vanishing():
    for q in PRIME_POWERS_TO_25:
        for a_v in range(-isqrt(4 * q), isqrt(4 * q) + 1):
            if a_v * a_v > 4 * q:
                continue
            b = build_example("smooth-ec", {"a_v": a_v, "q": q})
            report = run_dim_theorem(b)
            assert report.exit_code == 0, (q, a_v)
            (line,) = report.lines
            assert line.value == "dim=0 -ord=0", (q, a_v)


def test_criterion_04_validate_and_rows_on_random_descriptors():
    started = time.monotonic()
    rng = random.Random(20260815)
    bases = [generator_ngon(n, 2) for n in range(2, 7)]
    bases.append(simplex_surface())
    bases.append(generator_smooth({(0, 0): 1, (1, 0): 2}, 1, 4))
    for trial in range(100):
        base = bases[trial % len(bases)]
        f = tensored(base, rng.randint(1, 2))
        f = conjugated(f, rng)
        assert validate(f).ok, trial
        for star in range(0, 3):
            total_rows(f, star)  # d^2 is checked on construction
    # deliberate single-block sign corruptions must all be caught
    surface = simplex_surface()
    for kind, table in (("push", surface.pushforward), ("pull", surface.pullback)):
        for key in table:
            assert not validate(with_flipped_sign(surface, key, kind)).ok, (kind, key)
    assert time.monotonic() - started < 30.0


def test_criterion_05_quasi_isomorphism_window():
    for n in range(2, 7):
        for star in range(0, 4):
            res = check_quasi_iso(generator_ngon(n, 2), star)
            assert res.ok, (n, star, res)
    smooths = [
        generator_smooth({(0, 0): 1}, 0, 2),
        generator_smooth({(0, 0): 1, (1, 0): 1}, 1, 3),
        generator_smooth({(0, 0): 2, (1, 0): 3, (2, 0): 2}, 2, 4),
    ]
    for f in smooths:
        for star in range(0, f.dim_y + 3):
            assert check_quasi_iso(f, star).ok, (f.dim_y, star)
    # same sweep through the bundle-level runner
    b = build_example("ngon", {"n": 6, "q": 2})
    assert run_quasi_iso(b).exit_code == 0


def test_criterion_06_cone_calculus_oracle():
    rng = random.Random(6)
    for trial in range(100):
        dims_a, diffs_a, _ = oracles.random_known_complex(rng)
        dims_b, diffs_b, _ = oracles.random_known_complex(rng)
        a = CochainComplex({k: d for k, d in dims_a.items() if d}, diffs_a)
        b = CochainComplex({k: d for k, d in dims_b.items() if d}, diffs_b)
        ident = oracles.mapping_cone({k: Mat.identity(d) for k, d in dims_a.items() if d}, a, a)
        assert cohomology_dims(ident) == {}, trial
        zero = oracles.mapping_cone({}, a, b)
        expected = dict(cohomology_dims(a))
        for k, d in cohomology_dims(b).items():
            expected[k + 1] = expected.get(k + 1, 0) + d
        assert cohomology_dims(zero) == {k: d for k, d in expected.items() if d}, trial
        euler = oracles.euler_characteristic
        assert euler(zero) == euler(a) - euler(b)


def test_criterion_07_group_order_oracle():
    rng = random.Random(7)
    for trial in range(200):
        a = oracles.random_finite_group(rng)
        b = oracles.random_finite_group(rng)
        f = oracles.random_group_map(rng, a, b)
        want = (oracles.brute_kernel_order(f), oracles.brute_cokernel_order(f))
        assert kernel_cokernel_orders(f) == want, trial


def test_criterion_08_leading_laurent_oracle():
    rng = random.Random(8)
    q = 3
    for trial in range(100):
        f = oracles.random_marked_ratfunc(rng, q)
        for a in (0, 1, -1):
            got = leading_laurent(f, q, a)
            order, coeff, logpow = oracles.series_leading(
                list(f.num), list(f.den), q, a
            )
            assert (got.order, got.coeff, got.logpow) == (order, coeff, logpow), (
                trial,
                a,
            )


def test_criterion_09_functional_equation_of_zeta():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        zeta = RatFunc.make([1], [1, -(1 + q), q])  # 1/((1-t)(1-qt))
        fe = functional_equation(zeta, q, 1)
        assert fe == FunctionalEquation(sign=1, alpha=1, beta=2), q


def test_criterion_10_byte_identical_reports(tmp_path):
    battery = []
    zeta = tmp_path / "z.json"
    ngon = tmp_path / "n.json"
    assert cli("example", "zeta-fqt", "q=3", "-o", str(zeta)).returncode == 0
    assert cli("example", "ngon", "n=4", "q=3", "-o", str(ngon)).returncode == 0
    battery = [
        ("validate", str(zeta)),
        ("dim-theorem", str(zeta)),
        ("check", "A2", str(zeta)),
        ("check", "B2FF", str(zeta)),
        ("check", "CFF", str(zeta)),
        ("--tsv", "check", "CFF", str(zeta)),
        ("validate", str(ngon)),
        ("quasi-iso", str(ngon)),
        ("--tsv", "dim-theorem", str(ngon)),
        ("complex", str(ngon), "--q", "1", "--star", "1"),
    ]

    def sweep():
        out = []
        for argv in battery:
            proc = cli(*argv)
            out.append((proc.returncode, proc.stdout, proc.stderr))
        return out

    first = sweep()
    second = sweep()
    assert first == second
    # example files regenerate byte-identically too
    again = tmp_path / "z2.json"
    assert cli("example", "zeta-fqt", "q=3", "-o", str(again)).returncode == 0
    assert zeta.read_bytes() == again.read_bytes()
    # and serialization round-trips bytes through a parse
    text = zeta.read_text()
    assert dumps(loads(text)) == text
    assert json.loads(text)["params"]["field_q"] == 3
