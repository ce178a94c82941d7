"""Check runners behind the command line: every command builds a report.

A report is a flat list of (check, place, verdict, value) lines.  Verdicts
are PASS, FAIL, or INCONCLUSIVE; the last one means the bundle does not
carry the data the check needs (for instance no global L-function), which
is different from the statement being false.  Output is deterministic:
places are visited in sorted order and every value is exact, so two runs
over the same file produce identical bytes.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .bundle import MAX_BUNDLE_BYTES, Bundle, GlobalL, MotivicDatum, Params, Place, RegulatorDatum
from .deligne import (
    ConjectureAResult,
    CycleDatum,
    DeligneGroup,
    conjecture_A_check,
    deligne_group,
    integral_orders,
    z_map,
)
from .lfun import (
    RatFunc,
    TooLarge,
    functional_equation,
    leading_laurent,
    local_factor,
    ord_at,
    strip_S,
)
from .monodromy import build_C, check_quasi_iso, cohomology_dims
from .qlinalg import AbGroupMap, FPAbelianGroup, Mat, _ratio_text, _Record
from .strata import DescriptorError, Fibre, generator_ngon, generator_smooth, validate

__all__ = [
    "ReportLine",
    "CheckReport",
    "render_text",
    "render_tsv",
    "run_validate",
    "run_dim_theorem",
    "run_conjecture",
    "run_complex",
    "run_quasi_iso",
    "build_example",
    "EXAMPLES",
    "CONJECTURES",
]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

CONJECTURES = ("A1", "A2", "B1FF", "B2FF", "CFF")


class ReportLine(_Record):
    __slots__ = _fields = ("check", "place", "verdict", "value")

    def __init__(self, check: str, place: str, verdict: str, value: str):
        self._assign(check, place, verdict, value)


class CheckReport(_Record):
    __slots__ = _fields = ("lines",)

    def __init__(self, lines: tuple[ReportLine, ...]):
        self._assign(lines)

    @property
    def exit_code(self) -> int:
        verdicts = {line.verdict for line in self.lines}
        if FAIL in verdicts:
            return 1
        if INCONCLUSIVE in verdicts:
            return 2
        return 0


def render_text(report: CheckReport) -> str:
    lines = report.lines
    if not lines:
        return "nothing to check\n"
    w_check = max(len(l.check) for l in lines)
    w_place = max(len(l.place) for l in lines)
    w_verdict = max(len(l.verdict) for l in lines)
    out = [
        f"{l.check:<{w_check}}  {l.place:<{w_place}}  {l.verdict:<{w_verdict}}  {l.value}".rstrip()
        for l in lines
    ]
    n = len(lines)
    failed = sum(1 for l in lines if l.verdict == FAIL)
    open_ = sum(1 for l in lines if l.verdict == INCONCLUSIVE)
    if failed:
        out.append(f"FAIL (failed={failed} of {n})")
    elif open_:
        out.append(f"INCONCLUSIVE (missing data for {open_} of {n})")
    else:
        out.append(f"PASS (checked={n})")
    return "\n".join(out) + "\n"


def render_tsv(report: CheckReport) -> str:
    return "".join(
        f"{l.check}\t{l.place}\t{l.verdict}\t{l.value}\n" for l in report.lines
    )


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def _inconclusive(check: str, why: str) -> CheckReport:
    """One-line report: the bundle cannot decide ``check``."""
    return CheckReport((ReportLine(check, "-", INCONCLUSIVE, why),))


# ---------------------------------------------------------------------------
# validate


def run_validate(b: Bundle) -> CheckReport:
    lines = []
    for name in sorted(b.fibres):
        rep = validate(b.fibres[name])
        if rep.ok:
            value = f"identities hold (checked={rep.checked})"
            lines.append(ReportLine("validate", name, PASS, value))
        else:
            kind, r, p, j = rep.failures[0]
            value = (
                f"{len(rep.failures)} failing compositions, "
                f"first: {kind} at level {r}, codim {p}, j {j}"
            )
            lines.append(ReportLine("validate", name, FAIL, value))
    return CheckReport(tuple(lines))


# ---------------------------------------------------------------------------
# dimension vs local L-factor


def run_dim_theorem(b: Bundle, q: int | None = None, a: int | None = None) -> CheckReport:
    q = b.params.q_coh if q is None else q
    a = b.params.a if a is None else a
    lines = []
    for name in sorted(b.fibres):
        g = deligne_group(b.fibres[name], q, a)
        if name not in b.places:
            lines.append(
                ReportLine("dim", name, INCONCLUSIVE, f"dim={g.dim}, no Frobenius data")
            )
            continue
        place = b.places[name]
        lv = local_factor(place.frob, place.deg_v)
        drop = -ord_at(lv, b.params.field_q, a)
        ok = g.dim == drop
        value = f"dim={g.dim} -ord={drop}"
        lines.append(ReportLine("dim", name, _verdict(ok), value))
    return CheckReport(tuple(lines))


# ---------------------------------------------------------------------------
# rank conjectures


def _gap(b: Bundle) -> int:
    return b.params.q_coh - 2 * b.params.a


def _groups(b: Bundle) -> Iterator[tuple[str, DeligneGroup]]:
    """(place, Deligne group at the bundle's (q, a)), places in sorted order."""
    for name in sorted(b.fibres):
        yield name, deligne_group(b.fibres[name], b.params.q_coh, b.params.a)


def _local(b: Bundle, name: str, g: DeligneGroup) -> tuple[DeligneGroup, Mat | None, Mat | None]:
    """A place's input to ``conjecture_A_check``: its group, regulator
    columns and ambient cycle classes, None where the place has none;
    cycle classes enter at the boundary twist only."""
    m = b.motivic[name]
    reg = m.regulator.matrix if m.regulator is not None else None
    cyc = m.cycle_class
    if cyc is None or _gap(b) != 1:
        return g, reg, None
    return g, reg, z_map(b.fibres[name], b.params.a, cyc)


def _map_value(res: ConjectureAResult) -> str:
    return f"rank={res.achieved_rank} of {res.dim}x{res.expected_sources}"


def _run_A(b: Bundle, which: str) -> CheckReport:
    boundary = _gap(b) == 1
    if which == "A1" and boundary:
        return _inconclusive("A1", "boundary twist, statement is A2")
    if which == "A2" and not boundary:
        return _inconclusive("A2", "non-boundary twist, statement is A1")
    lines = []
    for name, g in _groups(b):
        if name not in b.motivic:
            lines.append(
                ReportLine(which, name, INCONCLUSIVE, f"dim={g.dim}, no motivic data")
            )
            continue
        g, reg, cycles = _local(b, name, g)
        if not boundary and reg is not None and reg.rows != g.dim:
            raise DescriptorError(f"regulator matrix has {reg.rows} rows, expected {g.dim}")
        res = conjecture_A_check([(g, reg, cycles)])
        if not res.in_kernel:
            value = "cycle classes do not land in ker(i^*i_*)"
        else:
            value = f"sources={res.expected_sources} rank={res.achieved_rank} dim={res.dim}"
        lines.append(ReportLine(which, name, _verdict(res.ok), value))
    return CheckReport(tuple(lines))


def _motivic_rank(b: Bundle) -> int:
    """Regulator columns summed over the marked places."""
    return sum(m.regulator.matrix.cols for m in b.motivic.values() if m.regulator is not None)


def _order_line(check: str, order: int, motivic_rank: int) -> ReportLine:
    return ReportLine(
        check, "-", _verdict(order == motivic_rank), f"ord={order} motivic_rank={motivic_rank}"
    )


def _pole_line(check: str, b: Bundle, lam: RatFunc, b_rank: int | None) -> ReportLine:
    """The order of lam at the twist a + 1 against -b_rank."""
    a1 = b.params.a + 1
    order = ord_at(lam, b.params.field_q, a1)
    return ReportLine(
        check, "-", _verdict(b_rank is not None and order == -b_rank),
        f"ord={order} at twist {a1}, b_rank={b_rank}",
    )


def _b_ranks(b: Bundle) -> list[int]:
    """Distinct cycle-class ranks over the places, 0 for a place without one."""
    return sorted({
        m.cycle_class.b_rank if m.cycle_class is not None else 0
        for m in b.motivic.values()
    })


# The completed function is q^alpha t^beta Z for global.conductor =
# (alpha, beta), and the conductor stays that pair of exponents: it never
# enters a rational function.  t0 = q^-a is not 0, so t^beta moves no
# order at s = a and scales the leading value there by q^(-a beta)
# (_leading_line); the functional equation of t^beta Z is Z's with alpha
# - w beta and beta - 2 beta (_fe_line); q^alpha cancels from it.


def _leading_line(check: str, b: Bundle, f: RatFunc, verdict, note: str = "") -> ReportLine:
    """The ``check`` line: the leading value at s = params.a of f times the
    conductor monomial, judged by ``verdict(lead)``.  A fractional alpha
    leaves the rationals and makes the line INCONCLUSIVE; a value too
    large to print ends the run with the TooLarge error naming ``check``."""
    assert b.global_l is not None
    alpha, beta = b.global_l.conductor or (0, 0)
    if alpha.denominator != 1:
        return ReportLine(check, "-", INCONCLUSIVE, "conductor q-power is irrational")
    lower = "|params.a|" if alpha == 0 else "|params.a| or |global.conductor[0]|"
    a = b.params.a
    try:
        lead = leading_laurent(f, b.params.field_q, a, alpha.numerator - a * beta)
    except TooLarge as exc:
        raise TooLarge(exc.bits, check, lower, exc.bound) from None
    return ReportLine(check, "-", verdict(lead), lead.render(check, lower) + note)


def _fe_line(check: str, g: GlobalL, field_q: int) -> ReportLine:
    fe = functional_equation(g.z, field_q, g.weight_w)
    if fe is None:
        return ReportLine(f"{check}.fe", "-", FAIL, "Z is not self-dual for this weight")
    beta = g.conductor[1] if g.conductor is not None else 0
    sign = "+1" if fe.sign > 0 else "-1"
    value = f"sign={sign} alpha={fe.alpha - g.weight_w * beta} beta={fe.beta - 2 * beta}"
    return ReportLine(f"{check}.fe", "-", PASS, value)


def _global(b: Bundle, which: str) -> CheckReport | tuple[RatFunc, int]:
    """The start of B1FF, B2FF and CFF: a one-line INCONCLUSIVE report when
    the bundle cannot decide ``which``, else lam, Z with the Euler factors
    at the marked places removed, and its order at s = params.a."""
    boundary = _gap(b) == 1
    if which == "B1FF" and boundary:
        return _inconclusive(which, "boundary twist, statement is B2FF")
    if which == "B2FF" and not boundary:
        return _inconclusive(which, "non-boundary twist, statement is B1FF")
    missing = []
    if b.global_l is None:
        missing.append("global L-function")
    if not b.places:
        missing.append("Frobenius data")
    if set(b.motivic) != set(b.fibres):
        missing.append("motivic data at every marked place")
    if missing:
        return _inconclusive(which, "missing " + ", ".join(missing))
    if which == "CFF" and b.integral is None:
        return _inconclusive(which, "missing integral regulator")
    assert b.global_l is not None
    lam = strip_S(b.global_l.z, [
        local_factor(b.places[name].frob, b.places[name].deg_v) for name in sorted(b.places)
    ])
    return lam, ord_at(lam, b.params.field_q, b.params.a)


def _run_B1(b: Bundle, lam: RatFunc, order: int) -> list[ReportLine]:
    res = conjecture_A_check([_local(b, name, g) for name, g in _groups(b)])
    return [
        _order_line("B1FF.order", order, _motivic_rank(b)),
        ReportLine("B1FF.regulator", "-", _verdict(res.ok), _map_value(res)),
        _leading_line("B1FF.leading", b, lam, lambda lead: _verdict(lead.logpow == order)),
        _fe_line("B1FF", b.global_l, b.params.field_q),
    ]


def _run_B2(b: Bundle, lam: RatFunc, order: int) -> list[ReportLine]:
    res = conjecture_A_check([_local(b, name, g) for name, g in _groups(b)])
    shared = _b_ranks(b)
    b_rank = shared[0] if len(shared) == 1 else None
    cycles_line = ReportLine(
        "B2FF.cycles", "-", _verdict(b_rank is not None),
        f"b_rank={b_rank}" if b_rank is not None else f"b_rank differs: {shared}",
    )
    if not res.in_kernel:
        map_line = ReportLine("B2FF.map", "-", FAIL, "cycle classes do not land in ker(i^*i_*)")
    elif b_rank is None:
        map_line = ReportLine("B2FF.map", "-", FAIL, "b_rank must be shared")
    else:
        map_line = ReportLine("B2FF.map", "-", _verdict(res.ok), _map_value(res))

    return [
        _order_line("B2FF.order_a", order, _motivic_rank(b)),
        _pole_line("B2FF.order_pole", b, lam, b_rank),
        cycles_line,
        map_line,
        _leading_line("B2FF.leading", b, lam, lambda lead: _verdict(lead.logpow == order)),
        _fe_line("B2FF", b.global_l, b.params.field_q),
    ]


def _run_C(b: Bundle, lam: RatFunc, order: int) -> list[ReportLine]:
    lines = [_order_line("CFF.order", order, _motivic_rank(b))]
    if _gap(b) == 1:
        b_ranks = _b_ranks(b)
        if len(b_ranks) == 1:
            lines.append(_pole_line("CFF.order_pole", b, lam, b_ranks[0]))
        else:
            lines.append(
                ReportLine("CFF.order_pole", "-", FAIL, f"b_rank differs: {b_ranks}")
            )
    ker, coker = integral_orders(b.integral)
    if ker is None or coker is None:
        lines.append(
            ReportLine(
                "CFF.orders", "-", INCONCLUSIVE,
                "integral kernel or cokernel is infinite",
            )
        )
        lines.append(_leading_line("CFF.leading", b, lam, lambda lead: INCONCLUSIVE))
    else:
        lines.append(
            ReportLine("CFF.orders", "-", PASS, f"kernel={ker} cokernel={coker}")
        )
        # coeff against +-coker/ker as reduced integer pairs (both orders
        # are positive)
        g = gcd(coker, ker)
        c, k = coker // g, ker // g
        lines.append(_leading_line(
            "CFF.leading", b, lam,
            lambda lead: _verdict(lead.ratio in ((c, k), (-c, k)) and lead.logpow == order),
            f" vs cokernel/kernel={_ratio_text(coker, ker)}",
        ))
    lines.append(_leading_line("Z.leading", b, b.global_l.z, lambda lead: PASS))
    return lines


_GLOBAL_RUNNERS = {"B1FF": _run_B1, "B2FF": _run_B2, "CFF": _run_C}


def run_conjecture(b: Bundle, which: str) -> CheckReport:
    if which == "A1" or which == "A2":
        return _run_A(b, which)
    if which not in _GLOBAL_RUNNERS:
        raise ValueError(f"unknown conjecture {which!r}")
    start = _global(b, which)
    if isinstance(start, CheckReport):
        return start
    return CheckReport(tuple(_GLOBAL_RUNNERS[which](b, *start)))


# ---------------------------------------------------------------------------
# complexes


def run_complex(b: Bundle, q: int | None = None, star: int | None = None) -> CheckReport:
    q = b.params.q_coh if q is None else q
    star = b.params.a if star is None else star
    lines = []
    for name in sorted(b.fibres):
        cx = build_C(b.fibres[name], star)
        coh = cohomology_dims(cx)
        dims = ",".join(f"{m}:{cx.dims[m]}" for m in sorted(cx.dims)) or "-"
        value = f"star={star} dims[{dims}] h^{q}={coh.get(q, 0)}"
        lines.append(ReportLine("complex", name, PASS, value))
    return CheckReport(tuple(lines))


def run_quasi_iso(b: Bundle, star: int | None = None) -> CheckReport:
    lines = []
    for name in sorted(b.fibres):
        f = b.fibres[name]
        stars = [star] if star is not None else list(range(0, f.dim_y + 3))
        for s in stars:
            res = check_quasi_iso(f, s)
            if res.ok:
                coh = ",".join(
                    f"{m}:{d}" for m, d in sorted(res.small_cohomology.items())
                ) or "acyclic"
                value = f"star={s} h[{coh}]"
            else:
                value = (
                    f"star={s} cone={sorted(res.cone_cohomology.items())} "
                    f"small={sorted(res.small_cohomology.items())}"
                )
            lines.append(ReportLine("quasi-iso", name, _verdict(res.ok), value))
    return CheckReport(tuple(lines))


# ---------------------------------------------------------------------------
# shipped example bundles


def _example_zeta(q: int) -> Bundle:
    fibre = generator_smooth({(0, 0): 1}, 0, q)
    place = Place(deg_v=1, frob=Mat.identity(1))
    motivic = MotivicDatum(
        regulator=RegulatorDatum(motivic_rank=0, matrix=Mat.zero(1, 0)),
        cycle_class=CycleDatum(
            b_rank=1,
            xi=Mat.identity(1),
            tau=Mat.identity(1),
        ),
    )
    z = RatFunc.make([1], [1, -(1 + q), q])  # 1 / ((1 - t)(1 - q t))
    source = FPAbelianGroup.make(2, [[q - 1], [0]])
    target = FPAbelianGroup.make(1, [[]])
    integral = AbGroupMap.make(source, target, [[0, 1]])
    return Bundle(
        params=Params(q_coh=1, a=0, field_q=q),
        fibres={"infty": fibre},
        places={"infty": place},
        motivic={"infty": motivic},
        global_l=GlobalL(z=z, weight_w=1),
        integral=integral,
    )


# Largest n of the ngon example.  Its file takes at most 17 n^2 + 1700 n +
# 1000 bytes: tau, the n x n identity, is written one 17-byte line an
# entry, and the rest takes under 1700 bytes a component.  Up to this n
# that stays within MAX_BUNDLE_BYTES, so load reads what example writes.
MAX_NGON_N = 2760


def _example_ngon(n: int, q: int) -> Bundle:
    if n > MAX_NGON_N:
        raise ValueError(
            f"example 'ngon': n = {n} would write more than the {MAX_BUNDLE_BYTES} bytes "
            f"load reads (MAX_BUNDLE_BYTES); n may be at most {MAX_NGON_N}"
        )
    fibre = generator_ngon(n, q)
    place = Place(deg_v=1, frob=Mat.from_rows([[q]], cols=1))
    xi = Mat.from_rows([[1 if i == 0 else 0] for i in range(n)], cols=1)
    motivic = MotivicDatum(
        regulator=RegulatorDatum(motivic_rank=0, matrix=Mat.zero(n, 0)),
        cycle_class=CycleDatum(b_rank=1, xi=xi, tau=Mat.identity(n)),
    )
    return Bundle(
        params=Params(q_coh=3, a=1, field_q=q),
        fibres={"v0": fibre},
        places={"v0": place},
        motivic={"v0": motivic},
    )


def _example_smooth_ec(a_v: int, q: int) -> Bundle:
    fibre = Fibre(
        components=1,
        dim_y=1,
        q_v=q,
        strata=((1,),),
        chow={((1,), 0, 0): 1, ((1,), 1, 0): 1},
        pushforward={},
        pullback={},
        higher_chow={(1, 1): 0},
    )
    frob = Mat.from_rows([[0, -q], [1, a_v]], cols=2)
    place = Place(deg_v=1, frob=frob)
    motivic = MotivicDatum(
        regulator=RegulatorDatum(motivic_rank=0, matrix=Mat.zero(0, 0))
    )
    return Bundle(
        params=Params(q_coh=2, a=0, field_q=q),
        fibres={"v0": fibre},
        places={"v0": place},
        motivic={"v0": motivic},
    )


EXAMPLES = {
    "zeta-fqt": (_example_zeta, {"q": 2}),
    "ngon": (_example_ngon, {"n": 3, "q": 2}),
    "smooth-ec": (_example_smooth_ec, {"a_v": 1, "q": 5}),
}


def build_example(name: str, overrides: dict[str, int] | None = None) -> Bundle:
    if name not in EXAMPLES:
        raise ValueError(
            f"unknown example {name!r}; available: {', '.join(sorted(EXAMPLES))}"
        )
    builder, defaults = EXAMPLES[name]
    args = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ValueError(
                f"example {name!r} takes {sorted(defaults)}, not {key!r}"
            )
        args[key] = value
    return builder(**args)
