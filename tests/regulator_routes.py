"""The regulator-map checks as they stood before A1, A2, B1FF and B2FF
shared ``deligne.conjecture_A_check``, kept as the reference
tests/test_regulator_map.py compares the shared check against.

``conjecture_A_check`` ranks one place: an A1 regulator as abstract
coordinates, or A2 regulator and cycle columns side by side as ambient
vectors modulo im(gamma).  ``b1_regulator_line`` sums the regulator ranks
over the places; ``b2_map_line`` tests every block for ker(i^*i_*) and
ranks the residues with the regulators block-diagonal and the cycle
classes stacked.

Kept in a module of its own that nothing else imports: the benchmark's
workload set-up imports ``fixtures`` and, through it, ``oracles``, and so
pays for whatever those modules hold.
"""

from __future__ import annotations

from degen.bundle import Bundle
from degen.deligne import DeligneGroup, deligne_group, z_map
from degen.qlinalg import Mat, _Record, rank
from degen.strata import DescriptorError
from degen.workbench import FAIL, PASS, ReportLine


class ConjectureAResult(_Record):
    __slots__ = _fields = ("kind", "dim", "expected_sources", "achieved_rank", "in_kernel")

    def __init__(
        self, kind: str, dim: int, expected_sources: int, achieved_rank: int,
        in_kernel: bool,
    ):
        self._assign(kind, dim, expected_sources, achieved_rank, in_kernel)

    @property
    def ok(self) -> bool:
        return (
            self.in_kernel
            and self.expected_sources == self.dim
            and self.achieved_rank == self.dim
        )


def conjecture_A_check(
    g: DeligneGroup, reg: Mat | None, cycle_images: Mat | None = None
) -> ConjectureAResult:
    """Is (regulator [+ cycle classes]) an isomorphism onto the group?"""
    if g.kind == "higher":
        m = reg if reg is not None else Mat.zero(g.dim, 0)
        if m.rows != g.dim:
            raise DescriptorError(
                f"regulator matrix has {m.rows} rows, expected {g.dim}"
            )
        return ConjectureAResult(
            kind="A1",
            dim=g.dim,
            expected_sources=m.cols,
            achieved_rank=rank(m),
            in_kernel=True,
        )
    blocks = []
    for m in (reg, cycle_images):
        if m is not None and m.cols:
            if m.rows != g.ambient_dim:
                raise DescriptorError(
                    f"matrix has {m.rows} rows, expected ambient {g.ambient_dim}"
                )
            blocks.append(m)
    combined = Mat.hstack(blocks) if blocks else Mat.zero(g.ambient_dim, 0)
    in_kernel = g.contains(combined)
    achieved = rank(g.residues(combined)) if in_kernel else -1
    return ConjectureAResult(
        kind="A2",
        dim=g.dim,
        expected_sources=combined.cols,
        achieved_rank=achieved,
        in_kernel=in_kernel,
    )


def _groups(b: Bundle):
    for name in sorted(b.fibres):
        yield name, deligne_group(b.fibres[name], b.params.q_coh, b.params.a)


def _reg_matrix(b: Bundle, name: str) -> Mat | None:
    m = b.motivic[name]
    return m.regulator.matrix if m.regulator is not None else None


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def b1_regulator_line(b: Bundle) -> ReportLine:
    """The ``B1FF.regulator`` line: ranks summed over the places."""
    total_dim = sum(g.dim for _, g in _groups(b))
    regs = [m.regulator.matrix for m in b.motivic.values() if m.regulator is not None]
    total_rank = sum(m.cols for m in regs)
    achieved = sum(rank(m) for m in regs)
    return ReportLine(
        "B1FF.regulator", "-",
        _verdict(total_rank == total_dim and achieved == total_dim),
        f"rank={achieved} of {total_dim}x{total_rank}",
    )


def b2_map_line(b: Bundle) -> ReportLine:
    """The ``B2FF.map`` line: every block in ker(i^*i_*), then the rank of
    the residues, regulators block-diagonal and cycle classes stacked."""
    places = []
    for name, g in _groups(b):
        reg = _reg_matrix(b, name)
        cyc = b.motivic[name].cycle_class
        places.append((
            g, reg if reg is not None else Mat.zero(g.ambient_dim, 0),
            z_map(b.fibres[name], b.params.a, cyc) if cyc is not None else None,
        ))
    shared = sorted({
        m.cycle_class.b_rank if m.cycle_class is not None else 0 for m in b.motivic.values()
    })
    b_rank = shared[0] if len(shared) == 1 else None
    in_kernel = all(
        g.contains(reg) and (cyc is None or g.contains(cyc)) for g, reg, cyc in places
    )
    if not in_kernel or b_rank is None:
        return ReportLine(
            "B2FF.map", "-", FAIL,
            "cycle classes do not land in ker(i^*i_*)" if not in_kernel
            else "b_rank must be shared",
        )
    n = len(places)
    combined = Mat.block(
        [
            [g.residues(reg) if k == i else None for k in range(n)]
            + [None if cyc is None else g.residues(cyc)]
            for i, (g, reg, cyc) in enumerate(places)
        ],
        [g.ambient_dim for g, _, _ in places], [reg.cols for _, reg, _ in places] + [b_rank],
    )
    total_dim = sum(g.dim for g, _, _ in places)
    achieved = rank(combined)
    return ReportLine(
        "B2FF.map", "-", _verdict(combined.cols == total_dim and achieved == total_dim),
        f"rank={achieved} of {total_dim}x{combined.cols}",
    )
