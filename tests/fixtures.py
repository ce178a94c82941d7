"""Shared fibre fixtures and descriptor randomizers for the test suite.

The surface fixture is the smallest descriptor on which all three sign
identities are nonvacuous: three surface components meeting pairwise in
lines with a single triple point.  Unit intersection blocks would violate
the anticommutator (the composite is then 3*id on CH^0 of the double
lines), so the fixture carries self-restriction -1, cross-restriction 2
and triple-point pushes of weight 2, which satisfy all identities exactly.

Randomizers produce new valid descriptors from valid ones: tensoring all
Chow data with an identity of size c and conjugating every Chow space by
a random invertible matrix both preserve the identities on the nose.

``multi_place_bundle`` is a whole bundle with several places, each with
an elliptic Euler factor, a global L-function and a scrambled integral
regulator, so that ``check B2FF``/``check CFF`` strip many places and
take the orders of a large integral map.
"""

from __future__ import annotations

import random
from fractions import Fraction

from degen.bundle import Bundle, GlobalL, MotivicDatum, Params, Place, RegulatorDatum
from degen.deligne import CycleDatum
from degen.lfun import RatFunc
from degen.qlinalg import AbGroupMap, FPAbelianGroup, Mat, solve
from degen.strata import Fibre, generator_ngon, generator_smooth, ii_map
from oracles import random_invertible

F = Fraction


def simplex_surface(q_v: int = 2) -> Fibre:
    """Three surfaces, three double lines, one triple point."""
    planes = [1, 2, 3]
    lines = [(1, 2), (1, 3), (2, 3)]
    point = (1, 2, 3)

    def plane_basis(i: int) -> list[tuple[int, int]]:
        # CH^1 of a component: classes of the two lines on it, lex order
        return [l for l in lines if i in l]

    chow = {}
    for i in planes:
        chow[((i,), 0, 0)] = 1
        chow[((i,), 1, 0)] = 2
        chow[((i,), 2, 0)] = 1
    for l in lines:
        chow[(l, 0, 0)] = 1
        chow[(l, 1, 0)] = 1
    chow[(point, 0, 0)] = 1

    push = {}
    pull = {}
    for l in lines:
        for u in (1, 2):
            target_plane = l[1] if u == 1 else l[0]
            basis = plane_basis(target_plane)
            # CH^0(line) -> CH^1(plane): the class of the line itself
            push[(l, u, 0, 0)] = Mat.from_rows(
                [[1 if b == l else 0] for b in basis], cols=1
            )
            # CH^1(line) -> CH^2(plane): point class to point class
            push[(l, u, 1, 0)] = Mat.from_rows([[1]])
            # CH^0(plane) -> CH^0(line)
            pull[(l, u, 0, 0)] = Mat.from_rows([[1]])
            # CH^1(plane) -> CH^1(line): self-restriction -1, cross 2
            pull[(l, u, 1, 0)] = Mat.from_rows(
                [[-1 if b == l else 2 for b in basis]], cols=2
            )
    for u in (1, 2, 3):
        push[(point, u, 0, 0)] = Mat.from_rows([[2]])
        pull[(point, u, 0, 0)] = Mat.from_rows([[1]])

    return Fibre(
        components=3,
        dim_y=2,
        q_v=q_v,
        strata=tuple([(i,) for i in planes] + lines + [point]),
        chow=chow,
        pushforward=push,
        pullback=pull,
    )


def _kron_identity(m: Mat, c: int) -> Mat:
    rows = []
    for i in range(m.rows):
        for a in range(c):
            row = []
            for k in range(m.cols):
                for b in range(c):
                    row.append(m.entries[i][k] if a == b else F(0))
            rows.append(row)
    return Mat.from_rows(rows, cols=m.cols * c)


def tensored(f: Fibre, c: int) -> Fibre:
    """Tensor every Chow space with Q^c; identities are preserved."""
    return Fibre(
        components=f.components,
        dim_y=f.dim_y,
        q_v=f.q_v,
        strata=f.strata,
        chow={k: d * c for k, d in f.chow.items()},
        pushforward={k: _kron_identity(m, c) for k, m in f.pushforward.items()},
        pullback={k: _kron_identity(m, c) for k, m in f.pullback.items()},
        ii_matrices={k: _kron_identity(m, c) for k, m in f.ii_matrices.items()},
        higher_chow={k: d * c for k, d in f.higher_chow.items()},
    )


def conjugated(f: Fibre, rng: random.Random) -> Fibre:
    """Change basis in every Chow space by a random invertible matrix."""
    ts: dict[tuple, Mat] = {}
    tinvs: dict[tuple, Mat] = {}

    def t_of(stratum, p, j) -> tuple[Mat, Mat]:
        key = (tuple(stratum), p, j)
        if key not in ts:
            d = f.chow_dim(stratum, p, j)
            t = random_invertible(rng, d)
            ts[key] = t
            inv = solve(t, Mat.identity(d))
            assert inv is not None
            tinvs[key] = inv
        return ts[key], tinvs[key]

    push = {}
    for (s, u, p, j), m in sorted(f.pushforward.items()):
        tgt = s[: u - 1] + s[u:]
        t_tgt, _ = t_of(tgt, p + 1, j)
        _, t_src_inv = t_of(s, p, j)
        push[(s, u, p, j)] = t_tgt * m * t_src_inv
    pull = {}
    for (s, u, p, j), m in sorted(f.pullback.items()):
        src = s[: u - 1] + s[u:]
        t_tgt, _ = t_of(s, p, j)
        _, t_src_inv = t_of(src, p, j)
        pull[(s, u, p, j)] = t_tgt * m * t_src_inv

    def level_one_transform(p, j, inverse=False):
        singles = [s for s in f.strata if len(s) == 1 and f.chow_dim(s, p, j) > 0]
        blocks = []
        for s in singles:
            t, tinv = t_of(s, p, j)
            blocks.append(tinv if inverse else t)
        dims = [b.rows for b in blocks]
        grid = [
            [blocks[i] if i == k else None for k in range(len(blocks))]
            for i in range(len(blocks))
        ]
        return Mat.block(grid, dims, dims) if blocks else Mat.zero(0, 0)

    ii = {}
    for (p, j), m in sorted(f.ii_matrices.items()):
        ii[(p, j)] = level_one_transform(p + 1, j) * m * level_one_transform(p, j, inverse=True)
    return Fibre(
        components=f.components,
        dim_y=f.dim_y,
        q_v=f.q_v,
        strata=f.strata,
        chow=dict(f.chow),
        pushforward=push,
        pullback=pull,
        ii_matrices=ii,
        higher_chow=dict(f.higher_chow),
    )


def fixture_fibres() -> list[Fibre]:
    """n-gons, the surface fixture with tensored and conjugated copies,
    and smooth fibres."""
    rng = random.Random(5)
    return [
        *(generator_ngon(n, 3) for n in range(2, 7)),
        simplex_surface(),
        tensored(simplex_surface(), 2),
        conjugated(simplex_surface(), rng),
        conjugated(tensored(generator_ngon(4, 2), 2), rng),
        generator_smooth({(0, 0): 1, (1, 0): 1}, dim_y=1, q_v=3),
        generator_smooth({(0, 0): 1, (1, 0): 2, (2, 0): 1}, dim_y=2, q_v=4),
    ]


def with_explicit_ii(f: Fibre, rng: random.Random) -> Fibre:
    """``f`` with explicit i^*i_* matrices T * (composed i^*i_*) at every
    level-one codim, T random and often singular, so each kernel contains
    the composed one and im(gamma) still lies in it."""
    codims = sorted({(p, j) for (s, p, j) in f.chow if len(s) == 1})
    ii = {}
    for p, j in codims:
        composed = ii_map(f, p, j)
        t = Mat.from_rows(
            [[rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(composed.rows)]
             for _ in range(composed.rows)],
            cols=composed.rows,
        )
        ii[p, j] = t * composed
    return Fibre(
        components=f.components, dim_y=f.dim_y, q_v=f.q_v, strata=f.strata,
        chow=dict(f.chow), pushforward=dict(f.pushforward), pullback=dict(f.pullback),
        ii_matrices=ii, higher_chow=dict(f.higher_chow),
    )


def with_flipped_sign(f: Fibre, key, kind: str = "push") -> Fibre:
    """Negate one raw block; on the surface fixture this breaks an identity."""
    push = dict(f.pushforward)
    pull = dict(f.pullback)
    if kind == "push":
        push[key] = push[key].scale(-1)
    else:
        pull[key] = pull[key].scale(-1)
    return Fibre(
        components=f.components,
        dim_y=f.dim_y,
        q_v=f.q_v,
        strata=f.strata,
        chow=dict(f.chow),
        pushforward=push,
        pullback=pull,
        ii_matrices=dict(f.ii_matrices),
        higher_chow=dict(f.higher_chow),
    )


def with_codims_past_dimension(f: Fibre, codims) -> Fibre:
    """One more Chow dimension on every component at each of ``codims``.

    Nothing above level 1 carries those codims, so rho out of them lands
    in zero spaces and no new block is needed.
    """
    chow = dict(f.chow)
    for s in f.strata:
        if len(s) == 1:
            for p in codims:
                chow[(s, p, 0)] = chow.get((s, p, 0), 0) + 1
    return Fibre(
        components=f.components,
        dim_y=f.dim_y,
        q_v=f.q_v,
        strata=f.strata,
        chow=chow,
        pushforward=dict(f.pushforward),
        pullback=dict(f.pullback),
        ii_matrices=dict(f.ii_matrices),
        higher_chow=dict(f.higher_chow),
    )


def _unimodular(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular integer matrix and its inverse (row additions)."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for step in range(steps):
        i = step % n
        j = rng.choice([x for x in range(n) if x != i])
        f = rng.choice((-1, 1))
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= f * row[i]
    return u, inv


def _int_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def multi_place_bundle(places: int, k: int, q: int = 13, seed: int = 0) -> Bundle:
    """Boundary-twist bundle (q_coh=1, a=0) with ``places`` smooth places.

    Place v has Frobenius I_m + C(a_v), conjugated at random (C the
    companion block of 1 - a_v t + q t^2, m = 1 or 2), and
    Z = 1/((1-t)(1-qt) prod_v (1 - a_v t + q t^2)).  The integral regulator
    is Z/(q-1) + Z^k -> Z^k, zero on the torsion and the identity on the
    free part, in random unimodular bases: kernel q-1, cokernel 1.
    """
    rng = random.Random(seed)
    bound = 2 * int(q**0.5)
    fibres, place_data, motivic = {}, {}, {}
    z = RatFunc.make([1], [1, -(1 + q), q])
    for idx in range(places):
        name = f"v{idx:02d}"
        m = 1 + idx % 2
        a_v = (5 * idx) % (2 * bound + 1) - bound
        frob = [[F(int(i == j)) for j in range(m + 2)] for i in range(m + 2)]
        frob[m][m], frob[m][m + 1] = F(0), F(-q)
        frob[m + 1][m], frob[m + 1][m + 1] = F(1), F(a_v)
        t = random_invertible(rng, m + 2)
        conj = t * Mat.from_rows(frob) * solve(t, Mat.identity(m + 2))
        place_data[name] = Place(deg_v=1, frob=conj)
        fibres[name] = generator_smooth({(0, 0): m}, 0, q)
        basis = random_invertible(rng, m)
        if idx == 0:  # regulator and cycle class together span CH^0
            reg = Mat.from_rows([row[: m - 1] for row in basis.entries], cols=m - 1)
            xi = Mat.from_rows([[row[m - 1]] for row in basis.entries], cols=1)
        else:
            reg = basis
            xi = Mat.from_rows([[rng.randint(-3, 3)] for _ in range(m)], cols=1)
        motivic[name] = MotivicDatum(
            regulator=RegulatorDatum(motivic_rank=reg.cols, matrix=reg),
            cycle_class=CycleDatum(b_rank=1, xi=xi),
        )
        z = z * RatFunc.make([1], [1, -a_v, q])
    u, u_inv = _unimodular(rng, k + 1, 3 * k)
    v, _ = _unimodular(rng, k, 3 * k)
    proj = [[int(j == i + 1) for j in range(k + 1)] for i in range(k)]
    integral = AbGroupMap.make(
        FPAbelianGroup.make(k + 1, [[row[0] * (q - 1)] for row in u]),
        FPAbelianGroup.make(k, [[] for _ in range(k)]),
        _int_mul(_int_mul(v, proj), u_inv),
    )
    return Bundle(
        params=Params(q_coh=1, a=0, field_q=q),
        fibres=fibres,
        places=place_data,
        motivic=motivic,
        global_l=GlobalL(z=z, weight_w=1),
        integral=integral,
    )
