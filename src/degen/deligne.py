"""v-adic Deligne cohomology groups as exact quotients, and the maps into them.

For cohomological degree q and twist a there are two regimes:

* higher regime, q - 2a > 1: the group is a declared motivic dimension
  (the higher Chow input at codim q - a - 1, higher index q - 2a - 1);
  nothing about the special fibre enters beyond that table.

* boundary regime, q - 2a = 1: the group has the exact presentation

      ker( i^*i_*: CH^a(Y^{(1)}) -> CH^{a+1}(Y^{(1)}) ) / im( gamma )

  with gamma the signed Gysin map CH^{a-1}(Y^{(2)}) -> CH^a(Y^{(1)}).
  im(gamma) lies in the kernel exactly when the fibre's identity ii.gamma
  holds at codim a - 1, which is required; with an explicit i^*i_* matrix
  it is a real compatibility check, which the composed one passes on a
  fibre that validates.

The cycle-class side: a datum (xi, tau) is mapped into the ambient space by
reducing xi to its canonical residue modulo the image of the one-step-lower
i^*i_* (this makes the outcome independent of the chosen representative),
then applying tau.  The checks need no coordinates on the quotient: a
column lies in ker(i^*i_*) when i^*i_* kills it, and a rank in the
quotient is the rank of canonical residues modulo im(gamma).  A boundary
group eliminates gamma^T once: its pivot count is rank(gamma), and its
pivot rows give every residue the checks take.  Everything is exact
linear algebra over Q.

The regulator map: ``conjecture_A_check`` takes one (group, regulator
columns, cycle classes) triple per place.  The regulators sit
block-diagonally, one source per place; the cycle classes are one shared
source, their columns stacked over the places.  At one place it is the
local statement A1/A2; over every marked place it is the global map of
B1FF/B2FF into the sum of the v-adic groups.
"""

from __future__ import annotations

from .qlinalg import (
    AbGroupMap,
    Mat,
    _Record,
    _eliminate,
    _residues,
    _set,
    kernel_basis,
    kernel_cokernel_orders,
    quotient_projection,
    rank,
    residues,
    solve,
)
from .strata import DescriptorError, Fibre, build_level, gamma, ii_map, require_identity

__all__ = [
    "DeligneGroup",
    "deligne_group",
    "CycleDatum",
    "z_map",
    "ConjectureAResult",
    "conjecture_A_check",
    "integral_orders",
]


class DeligneGroup(_Record):
    """One v-adic Deligne cohomology group with its exact presentation.

    ``kind`` is "higher" or "boundary".  In the boundary regime ``ii`` is
    the matrix of i^*i_*, whose kernel holds the group, and the columns of
    ``modulo`` generate im(gamma); both are None in the higher regime.
    ``_gamma_rows`` holds the forward elimination of ``modulo``
    transposed, which ``residues`` reads; it takes no part in ``==``.
    """

    __slots__ = ("q", "a", "kind", "dim", "ambient_dim", "ii", "modulo", "_kernel", "_gamma_rows")
    _fields = ("q", "a", "kind", "dim", "ambient_dim", "ii", "modulo")

    def __init__(
        self, q: int, a: int, kind: str, dim: int, ambient_dim: int,
        ii: Mat | None, modulo: Mat | None,
        gamma_rows: tuple[list[int], list[dict[int, int]]] | None = None,
    ):
        self._assign(q, a, kind, dim, ambient_dim, ii, modulo)
        _set(self, "_kernel", None)
        _set(self, "_gamma_rows", gamma_rows)

    @property
    def kernel(self) -> Mat | None:
        """The canonical basis of ker(i^*i_*) as columns, built on first use."""
        if self._kernel is None and self.ii is not None:
            _set(self, "_kernel", kernel_basis(self.ii))
        return self._kernel

    def contains(self, vectors: Mat) -> bool:
        """Does every column of ``vectors`` lie in ker(i^*i_*)?"""
        return (self.ii * vectors).is_zero()

    def residues(self, vectors: Mat) -> Mat:
        """The canonical residues of ambient vectors modulo im(gamma), as
        ``qlinalg.residues(vectors, self.modulo)`` gives them; their rank
        is that of the vectors' image in the quotient."""
        if self.kind != "boundary":
            raise ValueError("only the boundary presentation has ambient coordinates")
        if vectors.rows != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if self._gamma_rows is None:
            _set(self, "_gamma_rows", _eliminate(self.modulo.transpose()))
        return _residues(vectors, *self._gamma_rows)

    def coords_in_quotient(self, vectors: Mat) -> Mat | None:
        """Canonical quotient coordinates of ambient vectors, or None if
        some column lies outside ker(i^*i_*)."""
        if self.kind != "boundary":
            raise ValueError("only the boundary presentation has ambient coordinates")
        in_kernel = solve(self.kernel, vectors)
        if in_kernel is None:
            return None
        # im(gamma) lies in the kernel, so its coordinates exist
        return quotient_projection(solve(self.kernel, self.modulo)) * in_kernel


def deligne_group(f: Fibre, q: int, a: int) -> DeligneGroup:
    """The group at (q, a); see the module docstring for the two regimes."""
    gap = q - 2 * a
    if gap > 1:
        return DeligneGroup(
            q=q, a=a, kind="higher", dim=f.higher_chow.get((q - a - 1, q - 2 * a - 1), 0),
            ambient_dim=0, ii=None, modulo=None,
        )
    if gap == 1:
        ambient = build_level(f, 1, a).total
        ii = ii_map(f, a)
        g = gamma(f, 2, a - 1) if a >= 1 else Mat.zero(ambient, 0)
        require_identity(f, "ii.gamma", 2, a - 1)
        gamma_rows = _eliminate(g.transpose())
        return DeligneGroup(
            q=q, a=a, kind="boundary", dim=ambient - rank(ii) - len(gamma_rows[0]),
            ambient_dim=ambient, ii=ii, modulo=g, gamma_rows=gamma_rows,
        )
    raise DescriptorError(
        f"(q, a) = ({q}, {a}) lies outside the supported range q - 2a >= 1"
    )


class CycleDatum(_Record):
    """Cycle-class input: xi columns in CH^a(Y^{(1)}) plus optional tau."""

    __slots__ = _fields = ("b_rank", "xi", "tau")

    def __init__(self, b_rank: int, xi: Mat, tau: Mat | None = None):
        self._assign(b_rank, xi, tau)


def z_map(f: Fibre, a: int, cyc: CycleDatum) -> Mat:
    """Ambient-valued cycle classes: tau applied to the canonical residue
    of xi modulo im(i^*i_*) one codimension down."""
    ambient = build_level(f, 1, a).total
    if cyc.xi.rows != ambient or cyc.xi.cols != cyc.b_rank:
        raise DescriptorError(
            f"xi has shape {cyc.xi.rows}x{cyc.xi.cols}, expected {ambient}x{cyc.b_rank}"
        )
    lower_ii = ii_map(f, a - 1) if a >= 1 else Mat.zero(ambient, 0)
    tau = cyc.tau if cyc.tau is not None else Mat.identity(ambient)
    if (tau.rows, tau.cols) != (ambient, ambient):
        raise DescriptorError(
            f"tau has shape {tau.rows}x{tau.cols}, expected {ambient}x{ambient}"
        )
    return tau * residues(cyc.xi, lower_ii)


class ConjectureAResult(_Record):
    """The map of ``conjecture_A_check``: the dimension of its target, its
    source column count, its rank (-1 when the map is not defined) and
    whether every column lands in ker(i^*i_*)."""

    __slots__ = _fields = ("dim", "expected_sources", "achieved_rank", "in_kernel")

    def __init__(self, dim: int, expected_sources: int, achieved_rank: int, in_kernel: bool):
        self._assign(dim, expected_sources, achieved_rank, in_kernel)

    @property
    def ok(self) -> bool:
        return (
            self.in_kernel
            and self.expected_sources == self.dim
            and self.achieved_rank == self.dim
        )


def conjecture_A_check(
    places: list[tuple[DeligneGroup, Mat | None, Mat | None]],
) -> ConjectureAResult:
    """Is the regulator map, with the cycle classes beside it, an
    isomorphism onto the sum of the places' groups?

    Each place gives (group, regulator columns or None, cycle classes or
    None), every group at one (q, a).  The regulators sit
    block-diagonally, a source per place.  The cycle classes are one
    shared source: their columns are stacked over the places, so each
    place gives as many of them (None gives none).

    In the higher regime the rank is the sum of the regulator ranks, the
    columns being abstract coordinates; cycle classes and regulator
    heights are not read.  At the boundary every column is an ambient
    vector; once all lie in ker(i^*i_*) the rank is that of their
    residues, each place's rows modulo its own im(gamma).  The rank is -1
    when a column lies outside the kernel or the cycle-class widths
    differ: then there is no map.
    """
    dim = sum(g.dim for g, _, _ in places)
    reg_cols = [_cols(reg) for _, reg, _ in places]
    if all(g.kind == "higher" for g, _, _ in places):
        achieved = sum(rank(reg) for _, reg, _ in places if reg is not None)
        return ConjectureAResult(dim, sum(reg_cols), achieved, True)
    filled = [(g, m) for g, *blocks in places for m in blocks if _cols(m)]
    for g, m in filled:
        if m.rows != g.ambient_dim:
            raise DescriptorError(f"matrix has {m.rows} rows, expected ambient {g.ambient_dim}")
    widths = {_cols(cyc) for _, _, cyc in places}
    b_rank = max(widths)
    in_kernel = all(g.contains(m) for g, m in filled)
    if not in_kernel or len(widths) > 1:
        return ConjectureAResult(dim, sum(reg_cols) + b_rank, -1, in_kernel)
    n = len(places)
    combined = Mat.block(
        [
            [g.residues(reg) if k == i and reg_cols[i] else None for k in range(n)]
            + [g.residues(cyc) if b_rank else None]
            for i, (g, reg, cyc) in enumerate(places)
        ],
        [g.ambient_dim for g, _, _ in places], reg_cols + [b_rank],
    )
    return ConjectureAResult(dim, combined.cols, rank(combined), True)


def _cols(m: Mat | None) -> int:
    return m.cols if m is not None else 0


def integral_orders(f_map: AbGroupMap) -> tuple[int | None, int | None]:
    """(kernel order, cokernel order) of an integral regulator; None = infinite."""
    return kernel_cokernel_orders(f_map)
