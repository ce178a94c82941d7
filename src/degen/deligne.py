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
column lies in ker(i^*i_*) when i^*i_* kills it, and ranks in the
quotient are ranks modulo im(gamma).  Everything is exact linear algebra
over Q.
"""

from __future__ import annotations

from .qlinalg import (
    AbGroupMap,
    Mat,
    _Record,
    _set,
    kernel_basis,
    kernel_cokernel_orders,
    quotient_dim,
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
    """

    __slots__ = ("q", "a", "kind", "dim", "ambient_dim", "ii", "modulo", "_kernel", "_modulo_rank")
    _fields = ("q", "a", "kind", "dim", "ambient_dim", "ii", "modulo")

    def __init__(
        self, q: int, a: int, kind: str, dim: int, ambient_dim: int,
        ii: Mat | None, modulo: Mat | None, modulo_rank: int | None = None,
    ):
        self._assign(q, a, kind, dim, ambient_dim, ii, modulo)
        _set(self, "_kernel", None)
        _set(self, "_modulo_rank", modulo_rank)

    @property
    def kernel(self) -> Mat | None:
        """The canonical basis of ker(i^*i_*) as columns, built on first use."""
        if self._kernel is None and self.ii is not None:
            _set(self, "_kernel", kernel_basis(self.ii))
        return self._kernel

    @property
    def modulo_rank(self) -> int | None:
        """rank(modulo), the dimension of im(gamma), taken once."""
        if self._modulo_rank is None and self.modulo is not None:
            _set(self, "_modulo_rank", rank(self.modulo))
        return self._modulo_rank

    def contains(self, vectors: Mat) -> bool:
        """Does every column of ``vectors`` lie in ker(i^*i_*)?"""
        return (self.ii * vectors).is_zero()

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


def deligne_group(
    f: Fibre, q: int, a: int, higher_chow_dim: int | None = None
) -> DeligneGroup:
    """The group at (q, a); see the module docstring for the two regimes."""
    gap = q - 2 * a
    if gap > 1:
        if higher_chow_dim is None:
            higher_chow_dim = f.higher_chow.get((q - a - 1, q - 2 * a - 1), 0)
        return DeligneGroup(
            q=q, a=a, kind="higher", dim=higher_chow_dim,
            ambient_dim=0, ii=None, modulo=None,
        )
    if gap == 1:
        ambient = build_level(f, 1, a).total
        ii = ii_map(f, a)
        g = gamma(f, 2, a - 1) if a >= 1 else Mat.zero(ambient, 0)
        require_identity(f, "ii.gamma", 2, a - 1)
        g_rank = rank(g)
        return DeligneGroup(
            q=q, a=a, kind="boundary", dim=ambient - rank(ii) - g_rank,
            ambient_dim=ambient, ii=ii, modulo=g, modulo_rank=g_rank,
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
    """Is (regulator [+ cycle classes]) an isomorphism onto the group?

    In the higher regime the regulator columns are abstract coordinates of
    length dim; in the boundary regime both blocks are ambient vectors and
    the rank is taken in the quotient presentation.
    """
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
    achieved = quotient_dim(combined, g.modulo, g.modulo_rank) if in_kernel else -1
    return ConjectureAResult(
        kind="A2",
        dim=g.dim,
        expected_sources=combined.cols,
        achieved_rank=achieved,
        in_kernel=in_kernel,
    )


def integral_orders(f_map: AbGroupMap) -> tuple[int | None, int | None]:
    """(kernel order, cokernel order) of an integral regulator; None = infinite."""
    return kernel_cokernel_orders(f_map)
