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
from fractions import Fraction

from .bundle import Bundle, GlobalL, MotivicDatum, Place
from .deligne import (
    DeligneGroup,
    conjecture_A_check,
    deligne_group,
    integral_orders,
    z_map,
)
from .lfun import (
    LeadingValue,
    RatFunc,
    functional_equation,
    leading_laurent,
    local_factor,
    ord_at,
    strip_S,
)
from .monodromy import build_C, check_quasi_iso, cohomology_dims
from .qlinalg import Mat, _Record, quotient_dim, rank
from .strata import Fibre, validate

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


def _reg_matrix(m: MotivicDatum) -> Mat | None:
    return m.regulator.matrix if m.regulator is not None else None


def _groups(b: Bundle) -> Iterator[tuple[str, DeligneGroup]]:
    """(place, Deligne group at the bundle's (q, a)), places in sorted order."""
    for name in sorted(b.fibres):
        yield name, deligne_group(b.fibres[name], b.params.q_coh, b.params.a)


def _cycles(b: Bundle, name: str) -> Mat | None:
    """The ambient cycle classes at a place, None without a cycle class."""
    cyc = b.motivic[name].cycle_class
    return z_map(b.fibres[name], b.params.a, cyc) if cyc is not None else None


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
        cycles = _cycles(b, name) if boundary else None
        res = conjecture_A_check(g, _reg_matrix(b.motivic[name]), cycles)
        if not res.in_kernel:
            value = "cycle classes do not land in ker(i^*i_*)"
        else:
            value = f"sources={res.expected_sources} rank={res.achieved_rank} dim={res.dim}"
        lines.append(ReportLine(which, name, _verdict(res.ok), value))
    return CheckReport(tuple(lines))


def _effective_global(g: GlobalL) -> tuple[RatFunc, Fraction]:
    """Fold the conductor monomial q^alpha * t^beta into Z.

    The t-power is an honest rational function; the q-power cannot be (its
    exponent may be fractional), so it comes back separately and only ever
    scales leading coefficients.
    """
    z = g.z
    alpha = Fraction(0)
    if g.conductor is not None:
        alpha, beta = g.conductor
        if beta >= 0:
            z = z * RatFunc.make([0] * beta + [1], [1])
        else:
            z = z / RatFunc.make([0] * (-beta) + [1], [1])
    return z, alpha


def _scaled_leading(b: Bundle, f: RatFunc, alpha: Fraction) -> LeadingValue | None:
    """Leading value of f at s = params.a times q^alpha; None when that
    leaves the rationals."""
    qf = b.params.field_q
    lead = leading_laurent(f, qf, b.params.a)
    if alpha == 0:
        return lead
    if alpha.denominator != 1:
        return None
    return LeadingValue(
        order=lead.order,
        coeff=lead.coeff * Fraction(qf) ** int(alpha),
        logpow=lead.logpow,
    )


def _leading_line(check: str, lead: LeadingValue | None, verdict: str, note: str = "") -> ReportLine:
    """The ``check`` line of a leading value; ``verdict`` applies only when
    the value is rational."""
    if lead is None:
        return ReportLine(check, "-", INCONCLUSIVE, "conductor q-power is irrational")
    return ReportLine(check, "-", verdict, lead.render(check) + note)


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


def _fe_line(check: str, g: GlobalL, field_q: int) -> ReportLine:
    z, _ = _effective_global(g)
    fe = functional_equation(z, field_q, g.weight_w)
    if fe is None:
        return ReportLine(f"{check}.fe", "-", FAIL, "Z is not self-dual for this weight")
    sign = "+1" if fe.sign > 0 else "-1"
    value = f"sign={sign} alpha={fe.alpha} beta={fe.beta}"
    return ReportLine(f"{check}.fe", "-", PASS, value)


def _stripped(b: Bundle) -> tuple[RatFunc, Fraction]:
    factors = [
        local_factor(b.places[name].frob, b.places[name].deg_v)
        for name in sorted(b.places)
    ]
    assert b.global_l is not None
    z, alpha = _effective_global(b.global_l)
    return strip_S(z, factors), alpha


def _need_global(b: Bundle, check: str) -> CheckReport | None:
    missing = []
    if b.global_l is None:
        missing.append("global L-function")
    if not b.places:
        missing.append("Frobenius data")
    if set(b.motivic) != set(b.fibres):
        missing.append("motivic data at every marked place")
    if missing:
        return _inconclusive(check, "missing " + ", ".join(missing))
    return None


def _run_B1(b: Bundle) -> CheckReport:
    if _gap(b) == 1:
        return _inconclusive("B1FF", "boundary twist, statement is B2FF")
    short = _need_global(b, "B1FF")
    if short is not None:
        return short
    assert b.global_l is not None
    a = b.params.a
    lam, alpha = _stripped(b)
    total_dim = sum(g.dim for _, g in _groups(b))
    total_rank = _motivic_rank(b)
    order = ord_at(lam, b.params.field_q, a)
    achieved = sum(rank(m.regulator.matrix) for m in b.motivic.values() if m.regulator is not None)
    lead = _scaled_leading(b, lam, alpha)
    lines = [
        _order_line("B1FF.order", order, total_rank),
        ReportLine(
            "B1FF.regulator", "-",
            _verdict(total_rank == total_dim and achieved == total_dim),
            f"rank={achieved} of {total_dim}x{total_rank}",
        ),
        _leading_line("B1FF.leading", lead, _verdict(lead is not None and lead.logpow == order)),
        _fe_line("B1FF", b.global_l, b.params.field_q),
    ]
    return CheckReport(tuple(lines))


def _run_B2(b: Bundle) -> CheckReport:
    if _gap(b) != 1:
        return _inconclusive("B2FF", "non-boundary twist, statement is B1FF")
    short = _need_global(b, "B2FF")
    if short is not None:
        return short
    assert b.global_l is not None
    a = b.params.a
    lam, alpha = _stripped(b)

    places = []  # (group, regulator columns, cycle columns or None) per place
    for name, g in _groups(b):
        reg = _reg_matrix(b.motivic[name])
        places.append((g, reg if reg is not None else Mat.zero(g.ambient_dim, 0), _cycles(b, name)))

    shared = _b_ranks(b)
    cycles_line = ReportLine(
        "B2FF.cycles", "-", _verdict(len(shared) == 1),
        f"b_rank={shared[0]}" if len(shared) == 1 else f"b_rank differs: {shared}",
    )
    b_rank = shared[0] if len(shared) == 1 else None

    order_a = ord_at(lam, b.params.field_q, a)

    in_kernel = all(
        g.contains(reg) and (cyc is None or g.contains(cyc)) for g, reg, cyc in places
    )
    if not in_kernel or b_rank is None:
        map_line = ReportLine(
            "B2FF.map", "-", FAIL,
            "cycle classes do not land in ker(i^*i_*)" if not in_kernel
            else "b_rank must be shared",
        )
    else:
        # block-diagonal regulator columns, then the stacked cycle columns,
        # ranked modulo the block-diagonal im(gamma)
        n = len(places)
        ambient = [g.ambient_dim for g, _, _ in places]
        combined = Mat.block(
            [[reg if k == i else None for k in range(n)] + [cyc] for i, (_, reg, cyc) in enumerate(places)],
            ambient, [reg.cols for _, reg, _ in places] + [b_rank],
        )
        modulo = Mat.block(
            [[g.modulo if k == i else None for k in range(n)] for i, (g, _, _) in enumerate(places)],
            ambient, [g.modulo.cols for g, _, _ in places],
        )
        total_dim = sum(g.dim for g, _, _ in places)
        achieved = quotient_dim(combined, modulo)
        map_line = ReportLine(
            "B2FF.map", "-", _verdict(combined.cols == total_dim and achieved == total_dim),
            f"rank={achieved} of {total_dim}x{combined.cols}",
        )

    lead = _scaled_leading(b, lam, alpha)
    lines = [
        _order_line("B2FF.order_a", order_a, _motivic_rank(b)),
        _pole_line("B2FF.order_pole", b, lam, b_rank),
        cycles_line,
        map_line,
        _leading_line("B2FF.leading", lead, _verdict(lead is not None and lead.logpow == order_a)),
        _fe_line("B2FF", b.global_l, b.params.field_q),
    ]
    return CheckReport(tuple(lines))


def _run_C(b: Bundle) -> CheckReport:
    short = _need_global(b, "CFF")
    if short is not None:
        return short
    if b.integral is None:
        return _inconclusive("CFF", "missing integral regulator")
    assert b.global_l is not None
    a = b.params.a
    qf = b.params.field_q
    lam, alpha = _stripped(b)
    order = ord_at(lam, qf, a)
    lead = _scaled_leading(b, lam, alpha)
    ker, coker = integral_orders(b.integral)

    lines = [_order_line("CFF.order", order, _motivic_rank(b))]
    if _gap(b) == 1:
        b_ranks = _b_ranks(b)
        if len(b_ranks) == 1:
            lines.append(_pole_line("CFF.order_pole", b, lam, b_ranks[0]))
        else:
            lines.append(
                ReportLine("CFF.order_pole", "-", FAIL, f"b_rank differs: {b_ranks}")
            )
    if ker is None or coker is None:
        lines.append(
            ReportLine(
                "CFF.orders", "-", INCONCLUSIVE,
                "integral kernel or cokernel is infinite",
            )
        )
        lines.append(_leading_line("CFF.leading", lead, INCONCLUSIVE))
    else:
        lines.append(
            ReportLine("CFF.orders", "-", PASS, f"kernel={ker} cokernel={coker}")
        )
        expected = Fraction(coker, ker)
        ok = lead is not None and abs(lead.coeff) == expected and lead.logpow == order
        lines.append(
            _leading_line("CFF.leading", lead, _verdict(ok), f" vs cokernel/kernel={expected}")
        )
    z_eff, z_alpha = _effective_global(b.global_l)
    lines.append(_leading_line("Z.leading", _scaled_leading(b, z_eff, z_alpha), PASS))
    return CheckReport(tuple(lines))


def run_conjecture(b: Bundle, which: str) -> CheckReport:
    if which == "A1" or which == "A2":
        return _run_A(b, which)
    if which == "B1FF":
        return _run_B1(b)
    if which == "B2FF":
        return _run_B2(b)
    if which == "CFF":
        return _run_C(b)
    raise ValueError(f"unknown conjecture {which!r}")


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
    q = b.params.q_coh
    for name in sorted(b.fibres):
        f = b.fibres[name]
        stars = [star] if star is not None else list(range(0, f.dim_y + 3))
        for s in stars:
            res = check_quasi_iso(f, q, s)
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
    from .bundle import Params, RegulatorDatum
    from .deligne import CycleDatum
    from .qlinalg import AbGroupMap, FPAbelianGroup
    from .strata import generator_smooth

    one = Fraction(1)
    fibre = generator_smooth({(0, 0): 1}, 0, q)
    place = Place(deg_v=1, frob=Mat.from_rows([[one]], cols=1))
    motivic = MotivicDatum(
        regulator=RegulatorDatum(motivic_rank=0, matrix=Mat.zero(1, 0)),
        cycle_class=CycleDatum(
            b_rank=1,
            xi=Mat.from_rows([[one]], cols=1),
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


def _example_ngon(n: int, q: int) -> Bundle:
    from .bundle import Params, RegulatorDatum
    from .deligne import CycleDatum
    from .strata import generator_ngon

    fibre = generator_ngon(n, q)
    place = Place(deg_v=1, frob=Mat.from_rows([[Fraction(q)]], cols=1))
    xi = Mat.from_rows([[Fraction(1 if i == 0 else 0)] for i in range(n)], cols=1)
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
    from .bundle import Params, RegulatorDatum

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
    frob = Mat.from_rows(
        [[Fraction(0), Fraction(-q)], [Fraction(1), Fraction(a_v)]], cols=2
    )
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
