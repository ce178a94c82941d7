"""Seeded workload generators and the expected output of every job.

A workload is a list of jobs.  A job is one `python -m degen ...` process
on a bundle file that `generate` wrote; its expected output is derived
from the construction, not from running `degen`:

* n-gon and surface reports depend only on n and c: a change of basis in
  every Chow space (the seeded part) preserves all identities, ranks and
  cohomology dimensions, and tensoring with Q^c multiplies every dimension
  by c;
* global-lvalue reports follow from Z = 1/((1-t)(1-qt) prod_v E_v(t)),
  the places' Frobenius spectra and the scrambled integral regulator,
  whose kernel has order q-1 and whose cokernel is trivial.

Bundles are built with the public `degen` API and serialised with
`degen.bundle.dumps`; the change-of-basis helpers come from
`tests/fixtures.py`.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from degen.bundle import Bundle, GlobalL, MotivicDatum, Params, Place, RegulatorDatum, dumps  # noqa: E402
from degen.deligne import CycleDatum, deligne_group  # noqa: E402
from degen.lfun import RatFunc  # noqa: E402
from degen.qlinalg import AbGroupMap, FPAbelianGroup, Mat, rref, solve  # noqa: E402
from degen.strata import generator_ngon, generator_smooth  # noqa: E402
from fixtures import conjugated, simplex_surface, tensored  # noqa: E402
from oracles import random_invertible  # noqa: E402

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
# L-function coefficients grow like P * log(q), and gcd cost with their
# square, so global-lvalue draws q from a narrow band of sizes.
GLOBAL_Q = (11, 13, 16, 17, 19)

# Sizes, chosen so that one pass over a workload's jobs takes a few
# seconds on a 2-core x86 box with CPython 3.11.
NGON_LADDER = (16, 24, 32)
NGON_LARGE = 120
SURFACE_COPIES = (3, 4, 5)
GLOBAL_SIZES = ((8, 24), (16, 40), (24, 56))  # (places P, regulator rank k)

# Every workload runs every command on every size, so that every
# end-to-end metric exists on every workload and sums several jobs.
COMMANDS = (
    "validate",
    "dim_theorem",
    "check_A2",
    "check_B2FF",
    "check_CFF",
    "complex",
    "quasi_iso",
    "example",
)


@dataclass(frozen=True)
class Expect:
    """What a correct job prints: exit code, report lines, summary line.

    Report lines are compared as (check, place, verdict, value) after
    splitting on the column padding.  `files` maps a path the job writes
    to the JSON value it must hold.
    """

    exit_code: int
    lines: tuple[tuple[str, str, str, str], ...]
    summary: str
    files: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    name: str  # unique within the workload, e.g. "quasi_iso/n24"
    command: str  # one of COMMANDS
    argv: tuple[str, ...]  # arguments after `python -m degen`
    expect: Expect


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]  # bundle file name -> contents
    jobs: tuple[Job, ...]


def _summary(lines) -> str:
    n = len(lines)
    open_ = sum(1 for l in lines if l[2] == "INCONCLUSIVE")
    if open_:
        return f"INCONCLUSIVE (missing data for {open_} of {n})"
    return f"PASS (checked={n})"


def _expect(lines, files=None) -> Expect:
    lines = tuple(lines)
    code = 2 if any(l[2] == "INCONCLUSIVE" for l in lines) else 0
    return Expect(code, lines, _summary(lines), dict(files or {}))


def _job(name, command, argv, lines, files=None) -> Job:
    return Job(name, command, tuple(argv), _expect(lines, files))


# ---------------------------------------------------------------------------
# Bundles as plain JSON values, written out independently of degen, for
# checking what `degen example` writes.


def _mat_json(rows: int, cols: int, entries) -> dict:
    return {"rows": rows, "cols": cols, "entries": [str(x) for x in entries]}


def _block(stratum, position, codim, j, value) -> dict:
    return {
        "stratum": list(stratum),
        "position": position,
        "codim": codim,
        "j": j,
        "matrix": _mat_json(1, 1, [value]),
    }


def example_ngon_json(n: int, q: int) -> dict:
    """The bundle `degen example ngon n=N q=Q` writes (n >= 3)."""
    pairs = sorted([(i, i + 1) for i in range(1, n)] + [(1, n)])
    comps = [(i,) for i in range(1, n + 1)]
    chow = sorted(
        [(c, p, 0) for c in comps for p in (0, 1)] + [(s, 0, 0) for s in pairs]
    )
    blocks = sorted((s, u, 0, 0) for s in pairs for u in (1, 2))
    fibre = {
        "components": n,
        "dim_y": 1,
        "q_v": q,
        "strata": [list(s) for s in comps + pairs],
        "chow": [{"stratum": list(s), "codim": p, "j": j, "dim": 1} for s, p, j in chow],
        "pushforward": [_block(*k, 1) for k in blocks],
        "pullback": [_block(*k, 1) for k in blocks],
    }
    xi = [1] + [0] * (n - 1)
    tau = [1 if i == j else 0 for i in range(n) for j in range(n)]
    return {
        "params": {"q_coh": 3, "a": 1, "field_q": q},
        "fibres": {"v0": fibre},
        "places": {"v0": {"deg_v": 1, "frob": [[str(q)]]}},
        "motivic": {
            "v0": {
                "regulator": {"motivic_rank": 0, "matrix": _mat_json(n, 0, [])},
                "cycle_class": {
                    "b_rank": 1,
                    "xi": _mat_json(n, 1, xi),
                    "tau": _mat_json(n, n, tau),
                },
            }
        },
    }


def _smooth_fibre_json(q: int, codims: list[int], dim_y: int) -> dict:
    return {
        "components": 1,
        "dim_y": dim_y,
        "q_v": q,
        "strata": [[1]],
        "chow": [{"stratum": [1], "codim": p, "j": 0, "dim": 1} for p in codims],
        "pushforward": [],
        "pullback": [],
    }


def example_smooth_ec_json(a_v: int, q: int) -> dict:
    fibre = _smooth_fibre_json(q, [0, 1], 1)
    fibre["higher_chow"] = [{"codim": 1, "j": 1, "dim": 0}]
    return {
        "params": {"q_coh": 2, "a": 0, "field_q": q},
        "fibres": {"v0": fibre},
        "places": {"v0": {"deg_v": 1, "frob": [["0", str(-q)], ["1", str(a_v)]]}},
        "motivic": {"v0": {"regulator": {"motivic_rank": 0, "matrix": _mat_json(0, 0, [])}}},
    }


def example_zeta_json(q: int) -> dict:
    return {
        "params": {"q_coh": 1, "a": 0, "field_q": q},
        "fibres": {"infty": _smooth_fibre_json(q, [0], 0)},
        "places": {"infty": {"deg_v": 1, "frob": [["1"]]}},
        "motivic": {
            "infty": {
                "regulator": {"motivic_rank": 0, "matrix": _mat_json(1, 0, [])},
                "cycle_class": {
                    "b_rank": 1,
                    "xi": _mat_json(1, 1, [1]),
                    "tau": _mat_json(1, 1, [1]),
                },
            }
        },
        # RatFunc keeps the denominator monic: 1/((1-t)(1-qt)) = (1/q)/(1/q - (1+q)/q t + t^2)
        "global": {
            "z_num": [str(Fraction(1, q))],
            "z_den": [str(Fraction(1, q)), str(Fraction(-(1 + q), q)), "1"],
            "weight_w": 1,
        },
        "integral": {
            "source": {"generators": 2, "relations": [[q - 1], [0]]},
            "target": {"generators": 1, "relations": [[]]},
            "matrix": [[0, 1]],
        },
    }


# ---------------------------------------------------------------------------
# curve-ngon: Tate-curve n-gon fibres at the boundary twist (q_coh=3, a=1).


def _ngon_bundle(n: int, q: int, rng: random.Random, integral: AbGroupMap) -> Bundle:
    """The n-gon with Z = 1/((1-qt)(1-q^2 t)), self-dual of weight 3, so
    that the stripped function is 1/(1-q^2 t): no zero at s=1 and a simple
    pole at s=2 for the one cycle class."""
    fibre = conjugated(generator_ngon(n, q), rng)
    # In every basis the first component's CH^1 class lies outside
    # im(gamma), the sum-zero vectors, so it spans the Deligne group.
    xi = Mat.from_rows([[1 if i == 0 else 0] for i in range(n)], cols=1)
    motivic = MotivicDatum(
        regulator=RegulatorDatum(motivic_rank=0, matrix=Mat.zero(n, 0)),
        cycle_class=CycleDatum(b_rank=1, xi=xi, tau=Mat.identity(n)),
    )
    return Bundle(
        params=Params(q_coh=3, a=1, field_q=q),
        fibres={"v0": fibre},
        places={"v0": Place(deg_v=1, frob=Mat.from_rows([[q]], cols=1))},
        motivic={"v0": motivic},
        global_l=GlobalL(z=RatFunc.make([1], [1, -q - q * q, q**3]), weight_w=3),
        integral=integral,
    )


def curve_ngon(seed: int) -> Workload:
    rng = random.Random(f"curve-ngon:{seed}")
    q = rng.choice(PRIME_POWERS)
    files = {}
    jobs = []
    integral = _integral(rng, q - 1, 4)
    lead = Fraction(-1, q - 1)
    for n in NGON_LADDER + (NGON_LARGE,):
        path = f"ngon{n}.json"
        files[path] = dumps(_ngon_bundle(n, q, rng, integral))
        tag = f"n{n}"
        out = f"example-ngon{n}.json"
        jobs += [
            _job(f"validate/{tag}", "validate", ["validate", path],
                 [("validate", "v0", "PASS", "identities hold (checked=4)")]),
            _job(f"dim_theorem/{tag}", "dim_theorem", ["dim-theorem", path],
                 [("dim", "v0", "PASS", "dim=1 -ord=1")]),
            _job(f"example/{tag}", "example",
                 ["example", "ngon", f"n={n}", f"q={q}", "-o", out],
                 [("example", "ngon", "PASS", out)],
                 {out: example_ngon_json(n, q)}),
        ]
        if n == NGON_LARGE:
            continue
        jobs += [
            _job(f"check_A2/{tag}", "check_A2", ["check", "A2", path],
                 [("A2", "v0", "PASS", "sources=1 rank=1 dim=1")]),
            _job(f"check_B2FF/{tag}", "check_B2FF", ["check", "B2FF", path], [
                ("B2FF.order_a", "-", "PASS", "ord=0 motivic_rank=0"),
                ("B2FF.order_pole", "-", "PASS", "ord=-1 at twist 2, b_rank=1"),
                ("B2FF.cycles", "-", "PASS", "b_rank=1"),
                ("B2FF.map", "-", "PASS", "rank=1 of 1x1"),
                ("B2FF.leading", "-", "PASS", f"{lead}*log(q)^0"),
                ("B2FF.fe", "-", "PASS", "sign=+1 alpha=3 beta=2"),
            ]),
            _job(f"check_CFF/{tag}", "check_CFF", ["check", "CFF", path], [
                ("CFF.order", "-", "PASS", "ord=0 motivic_rank=0"),
                ("CFF.order_pole", "-", "PASS", "ord=-1 at twist 2, b_rank=1"),
                ("CFF.orders", "-", "PASS", f"kernel={q - 1} cokernel=1"),
                ("CFF.leading", "-", "PASS",
                 f"{lead}*log(q)^0 vs cokernel/kernel={Fraction(1, q - 1)}"),
                ("Z.leading", "-", "PASS", f"{lead}*log(q)^-1"),
            ]),
            _job(f"complex/{tag}", "complex", ["complex", path],
                 [("complex", "v0", "PASS", f"star=1 dims[1:{n},2:{n}] h^3=0")]),
            _job(f"quasi_iso/{tag}", "quasi_iso", ["quasi-iso", path],
                 [("quasi-iso", "v0", "PASS", v) for v in (
                     "star=0 h[0:1,1:1]", "star=1 h[1:1,2:1]",
                     "star=2 h[2:1,3:1]", "star=3 h[acyclic]")]),
        ]
    return Workload("curve-ngon", files, tuple(jobs))


# ---------------------------------------------------------------------------
# surface-tensored: three planes with a triple point, tensored with Q^c.


def _surface_bundle(c: int, q: int, rng: random.Random) -> Bundle:
    """The conjugated surface with just enough data for every check.

    At (q_coh, a) = (3, 1) its Deligne group has dimension c; the regulator
    is c kernel vectors that extend im(gamma) to ker(i^*i_*), the cycle
    class is empty (b_rank 0), Frobenius is q I_c (so -ord = c), Z = 1
    (self-dual of any weight) and the integral regulator is an
    isomorphism.  The stripped function is then (1-qt)^c: order c at s=1,
    no pole at s=2, leading coefficient 1 = cokernel/kernel.
    """
    fibre = conjugated(tensored(simplex_surface(q_v=q), c), rng)
    g = deligne_group(fibre, 3, 1)
    # kernel vectors whose quotient coordinates are pivots form a basis
    _, pivots = rref(g.coords_in_quotient(g.kernel))
    if len(pivots) != c:
        raise AssertionError(f"Deligne group of the {c}-fold surface has dimension {len(pivots)}")
    kernel = g.kernel.columns()
    motivic = MotivicDatum(
        regulator=RegulatorDatum(motivic_rank=c, matrix=Mat.hstack([kernel[p] for p in pivots])),
        cycle_class=CycleDatum(b_rank=0, xi=Mat.zero(g.ambient_dim, 0)),
    )
    frob = Mat.identity(c).scale(q)
    return Bundle(
        params=Params(q_coh=3, a=1, field_q=q),
        fibres={"v0": fibre},
        places={"v0": Place(deg_v=1, frob=frob)},
        motivic={"v0": motivic},
        global_l=GlobalL(z=RatFunc.make([1], [1]), weight_w=2),
        integral=_integral(rng, 1, 4),
    )


def surface_tensored(seed: int) -> Workload:
    rng = random.Random(f"surface-tensored:{seed}")
    q = rng.choice(PRIME_POWERS)
    files = {}
    jobs = []
    bound = math.isqrt(4 * q)
    for c in SURFACE_COPIES:
        path = f"surface{c}.json"
        files[path] = dumps(_surface_bundle(c, q, rng))
        tag = f"c{c}"
        a_v = rng.randint(-bound, bound)
        out = f"example-smooth-ec{c}.json"
        jobs += [
            _job(f"validate/{tag}", "validate", ["validate", path],
                 [("validate", "v0", "PASS", "identities hold (checked=10)")]),
            _job(f"complex/{tag}", "complex", ["complex", path],
                 [("complex", "v0", "PASS", f"star=1 dims[1:{3*c},2:{6*c},3:{3*c}] h^3=0")]),
            _job(f"complex/{tag}/star2", "complex", ["complex", path, "--star", "2"],
                 [("complex", "v0", "PASS", f"star=2 dims[2:{3*c},3:{6*c},4:{3*c}] h^3={c}")]),
            _job(f"quasi_iso/{tag}", "quasi_iso", ["quasi-iso", path],
                 [("quasi-iso", "v0", "PASS", v) for v in (
                     f"star=0 h[0:{c}]", f"star=1 h[1:{c},2:{c}]",
                     f"star=2 h[3:{c},4:{c}]", f"star=3 h[5:{c}]", "star=4 h[acyclic]")]),
            _job(f"dim_theorem/{tag}", "dim_theorem", ["dim-theorem", path],
                 [("dim", "v0", "PASS", f"dim={c} -ord={c}")]),
            _job(f"check_A2/{tag}", "check_A2", ["check", "A2", path],
                 [("A2", "v0", "PASS", f"sources={c} rank={c} dim={c}")]),
            _job(f"check_B2FF/{tag}", "check_B2FF", ["check", "B2FF", path], [
                ("B2FF.order_a", "-", "PASS", f"ord={c} motivic_rank={c}"),
                ("B2FF.order_pole", "-", "PASS", "ord=0 at twist 2, b_rank=0"),
                ("B2FF.cycles", "-", "PASS", "b_rank=0"),
                ("B2FF.map", "-", "PASS", f"rank={c} of {c}x{c}"),
                ("B2FF.leading", "-", "PASS", f"1*log(q)^{c}"),
                ("B2FF.fe", "-", "PASS", "sign=+1 alpha=0 beta=0"),
            ]),
            _job(f"check_CFF/{tag}", "check_CFF", ["check", "CFF", path], [
                ("CFF.order", "-", "PASS", f"ord={c} motivic_rank={c}"),
                ("CFF.order_pole", "-", "PASS", "ord=0 at twist 2, b_rank=0"),
                ("CFF.orders", "-", "PASS", "kernel=1 cokernel=1"),
                ("CFF.leading", "-", "PASS", f"1*log(q)^{c} vs cokernel/kernel=1"),
                ("Z.leading", "-", "PASS", "1*log(q)^0"),
            ]),
            _job(f"example/{tag}", "example",
                 ["example", "smooth-ec", f"a_v={a_v}", f"q={q}", "-o", out],
                 [("example", "smooth-ec", "PASS", out)],
                 {out: example_smooth_ec_json(a_v, q)}),
        ]
    return Workload("surface-tensored", files, tuple(jobs))


# ---------------------------------------------------------------------------
# global-lvalue: P smooth places, a global L-function and an integral
# regulator, at the boundary twist q_coh=1, a=0.


def _conjugate(rng: random.Random, m: Mat) -> Mat:
    t = random_invertible(rng, m.rows)
    return t * m * solve(t, Mat.identity(m.rows))


def _unimodular(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular integer matrix and its inverse, by row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for step in range(steps):  # every row in turn, so that entries grow evenly
        i = step % n
        j = rng.choice([x for x in range(n) if x != i])
        f = rng.choice((-1, 1))
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]  # row_i += f row_j
        for row in inv:  # inverse gains col_j -= f col_i
            row[j] -= f * row[i]
    return u, inv


def _imul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _integral(rng: random.Random, torsion: int, k: int) -> AbGroupMap:
    """Z/torsion + Z^k -> Z^k, zero on the torsion summand and the identity
    on the free part, seen through random unimodular bases of both sides:
    the kernel has order `torsion`, the cokernel is trivial."""
    u, u_inv = _unimodular(rng, k + 1, 3 * k)
    v, _ = _unimodular(rng, k, 3 * k)
    proj = [[int(j == i + 1) for j in range(k + 1)] for i in range(k)]
    relations = [[row[0] * torsion] for row in u]  # U torsion e_0
    matrix = _imul(_imul(v, proj), u_inv)
    return AbGroupMap.make(
        FPAbelianGroup.make(k + 1, relations),
        FPAbelianGroup.make(k, [[] for _ in range(k)]),
        matrix,
    )


def _global_bundle(rng: random.Random, q: int, places: int, k: int):
    """Bundle plus the facts its expected reports depend on.

    Place v has Frobenius I_m + C(a_v) (C the companion block of
    1 - a_v t + q t^2), so -ord of its Euler factor at s=0 is m = dim CH^0.
    With Z = 1/((1-t)(1-qt) prod_v (1 - a_v t + q t^2)) the stripped
    function is (1-t)^(M-1)/(1-qt), M = sum of the m; the regulators
    supply M-1 columns, so that with one cycle class per place the
    B2FF block matrix is square and invertible.
    """
    names = [f"v{i:02d}" for i in range(places)]
    bound = math.isqrt(4 * q)
    fibres, place_data, motivic, ms, a_vs = {}, {}, {}, [], []
    for idx, name in enumerate(names):
        m = 1 + idx % 2
        a_v = (3 * idx) % (2 * bound + 1) - bound  # |a_v| <= 2 sqrt(q)
        ms.append(m)
        a_vs.append(a_v)
        frob = [[Fraction(int(i == j)) for j in range(m + 2)] for i in range(m + 2)]
        frob[m][m], frob[m][m + 1] = Fraction(0), Fraction(-q)
        frob[m + 1][m], frob[m + 1][m + 1] = Fraction(1), Fraction(a_v)
        place_data[name] = Place(deg_v=1, frob=_conjugate(rng, Mat.from_rows(frob)))
        fibres[name] = generator_smooth({(0, 0): m}, 0, q)
        t = random_invertible(rng, m)
        if idx == 0:  # regulator plus cycle class form the basis t
            reg = Mat.from_rows([row[: m - 1] for row in t.entries], cols=m - 1)
            xi = Mat.from_rows([[row[m - 1]] for row in t.entries], cols=1)
        else:
            reg = t
            xi = Mat.from_rows([[rng.randint(-3, 3)] for _ in range(m)], cols=1)
        motivic[name] = MotivicDatum(
            regulator=RegulatorDatum(motivic_rank=reg.cols, matrix=reg),
            cycle_class=CycleDatum(b_rank=1, xi=xi),
        )
    den = RatFunc.make([1], [1, -1]) * RatFunc.make([1], [1, -q])
    for a_v in a_vs:
        den = den * RatFunc.make([1], [1, -a_v, q])
    bundle = Bundle(
        params=Params(q_coh=1, a=0, field_q=q),
        fibres=fibres,
        places=place_data,
        motivic=motivic,
        global_l=GlobalL(z=den, weight_w=1),
        integral=_integral(rng, q - 1, k),
    )
    return bundle, names, ms, a_vs


def _global_expectations(q: int, names, ms, a_vs, path: str, tag: str) -> list[Job]:
    total = sum(ms)
    order = total - 1
    lead = Fraction(-1, q - 1)
    z_lead = Fraction(-1, q - 1)
    for a_v in a_vs:
        z_lead /= 1 - a_v + q
    ec = len(a_vs)
    return [
        _job(f"dim_theorem/{tag}", "dim_theorem", ["dim-theorem", path],
             [("dim", n, "PASS", f"dim={m} -ord={m}") for n, m in zip(names, ms)]),
        _job(f"check_CFF/{tag}", "check_CFF", ["check", "CFF", path], [
            ("CFF.order", "-", "PASS", f"ord={order} motivic_rank={order}"),
            ("CFF.order_pole", "-", "PASS", "ord=-1 at twist 1, b_rank=1"),
            ("CFF.orders", "-", "PASS", f"kernel={q - 1} cokernel=1"),
            ("CFF.leading", "-", "PASS",
             f"{lead}*log(q)^{order} vs cokernel/kernel={Fraction(1, q - 1)}"),
            ("Z.leading", "-", "PASS", f"{z_lead}*log(q)^-1"),
        ]),
        _job(f"check_B2FF/{tag}", "check_B2FF", ["check", "B2FF", path], [
            ("B2FF.order_a", "-", "PASS", f"ord={order} motivic_rank={order}"),
            ("B2FF.order_pole", "-", "PASS", "ord=-1 at twist 1, b_rank=1"),
            ("B2FF.cycles", "-", "PASS", "b_rank=1"),
            ("B2FF.map", "-", "PASS", f"rank={total} of {total}x{total}"),
            ("B2FF.leading", "-", "PASS", f"{lead}*log(q)^{order}"),
            ("B2FF.fe", "-", "PASS", f"sign=+1 alpha={1 + ec} beta={2 + 2 * ec}"),
        ]),
    ]


def global_lvalue(seed: int) -> Workload:
    rng = random.Random(f"global-lvalue:{seed}")
    q = rng.choice(GLOBAL_Q)
    files = {}
    jobs = []
    for places, k in GLOBAL_SIZES:
        bundle, names, ms, a_vs = _global_bundle(rng, q, places, k)
        path = f"global{places}.json"
        tag = f"P{places}k{k}"
        files[path] = dumps(bundle)
        jobs += _global_expectations(q, names, ms, a_vs, path, tag)
        # The per-place statement A2 needs a single place (with P > 1 the
        # shared cycle class over-fills each place); the other commands
        # see smooth fibres, so their reports are short and exact.
        one, one_names, one_ms, _ = _global_bundle(rng, q, 1, 2)
        one_path = f"global1-{tag}.json"
        files[one_path] = dumps(one)
        m = one_ms[0]
        out = f"example-zeta-{tag}.json"
        jobs += [
            _job(f"check_A2/{tag}", "check_A2", ["check", "A2", one_path],
                 [("A2", one_names[0], "PASS", f"sources={m} rank={m} dim={m}")]),
            _job(f"validate/{tag}", "validate", ["validate", path],
                 [("validate", n, "PASS", "identities hold (checked=1)") for n in names]),
            _job(f"complex/{tag}", "complex", ["complex", path],
                 [("complex", n, "PASS", f"star=0 dims[0:{m}] h^1=0") for n, m in zip(names, ms)]),
            _job(f"quasi_iso/{tag}", "quasi_iso", ["quasi-iso", path],
                 [("quasi-iso", n, "PASS", v) for n, m in zip(names, ms)
                  for v in (f"star=0 h[0:{m}]", f"star=1 h[1:{m}]", "star=2 h[acyclic]")]),
            _job(f"example/{tag}", "example", ["example", "zeta-fqt", f"q={q}", "-o", out],
                 [("example", "zeta-fqt", "PASS", out)], {out: example_zeta_json(q)}),
        ]
    return Workload("global-lvalue", files, tuple(jobs))


WORKLOADS = {
    "curve-ngon": curve_ngon,
    "surface-tensored": surface_tensored,
    "global-lvalue": global_lvalue,
}


def generate(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write(workload: Workload, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for path, text in workload.files.items():
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            fh.write(text)


def parse_report(stdout: str) -> tuple[list[tuple[str, ...]], str]:
    """Split `degen` text output into (check, place, verdict, value) rows
    and the final summary line."""
    rows = stdout.splitlines()
    if not rows:
        return [], ""
    body = [tuple(r.split(None, 3)) for r in rows[:-1]]
    return [b + ("",) * (4 - len(b)) for b in body], rows[-1]


def check_output(job: Job, exit_code: int, stdout: str, stderr: str, workdir: str) -> str | None:
    """None when the job's output is what the construction predicts,
    otherwise a one-line reason."""
    e = job.expect
    if "Traceback" in stderr:
        return "traceback on stderr"
    if exit_code != e.exit_code:
        return f"exit code {exit_code}, expected {e.exit_code}"
    lines, summary = parse_report(stdout)
    if lines != list(e.lines):
        for got, want in zip(lines + [None] * len(e.lines), e.lines):
            if got != want:
                return f"report line {got!r}, expected {want!r}"
        return f"{len(lines)} report lines, expected {len(e.lines)}"
    if summary != e.summary:
        return f"summary {summary!r}, expected {e.summary!r}"
    for path, want in e.files.items():
        try:
            with open(os.path.join(workdir, path), encoding="utf-8") as fh:
                got = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"{path}: {exc}"
        if got != want:
            return f"{path} differs from the expected bundle"
    return None


if __name__ == "__main__":
    # python3 perfbench/workloads.py NAME SEED DIR writes the workload's bundles
    write(generate(sys.argv[1], int(sys.argv[2])), sys.argv[3])
