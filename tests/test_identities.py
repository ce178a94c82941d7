"""The sign identities of a fibre against its complexes multiplied out.

``total_rows``, ``build_C`` and ``deligne_group`` multiply nothing out to
see that d.d = 0 or that im(gamma) lies in ker(i^*i_*): they require the
fibre's sign identities (``strata.require_identity``).  Here each of them
runs twice on every fibre below and every single-block sign flip of it:
with the identity checks patched out, to be judged by the full products of
``tests/oracles.py``, and as it is.
"""

import itertools
import random
import re
from fractions import Fraction

from degen import deligne, monodromy
from degen.deligne import deligne_group
from degen.monodromy import build_C, total_rows
from degen.qlinalg import Mat
from degen.strata import DescriptorError, Fibre, gamma, ii_map, rho

from fixtures import fixture_fibres, with_explicit_ii, with_flipped_sign
from oracles import cone_pieces, is_chain_map, row_complex, squares_to_zero


def five_level_fibre() -> Fibre:
    """Five components meeting in all 31 strata (dim_y = 4), CH^0 = 1 on
    each stratum and CH^1 = 1 on each component, every block [[1]].  One
    degree of a twist row can hold levels 4 apart, with no path between
    them."""
    strata = [s for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    chow = {(s, 0, 0): 1 for s in strata}
    chow.update({((i,), 1, 0): 1 for i in range(1, 6)})
    one = Mat.identity(1)
    push = {(s, u, 0, 0): one for s in strata if len(s) == 2 for u in (1, 2)}
    pull = {(s, u, 0, 0): one for s in strata if len(s) > 1 for u in range(1, len(s) + 1)}
    return Fibre(5, 4, 2, tuple(strata), chow, push, pull)


def with_ii_times(f: Fibre, rng: random.Random) -> Fibre:
    """``f`` with explicit i^*i_* = (composed i^*i_*) * T, T random: rho
    i^*i_* still vanishes, i^*i_* gamma in general not.  ``with_explicit_ii``
    takes T * (composed i^*i_*), where it is the other way round."""
    codims = sorted({(p, j) for (s, p, j) in f.chow if len(s) == 1})
    ii = {}
    for p, j in codims:
        composed = ii_map(f, p, j)
        t = Mat.from_rows(
            [[rng.choice([0, 1, -2, Fraction(1, 3)]) for _ in range(composed.cols)]
             for _ in range(composed.cols)],
            cols=composed.cols,
        )
        ii[p, j] = composed * t
    return Fibre(
        components=f.components, dim_y=f.dim_y, q_v=f.q_v, strata=f.strata,
        chow=dict(f.chow), pushforward=dict(f.pushforward), pullback=dict(f.pullback),
        ii_matrices=ii, higher_chow=dict(f.higher_chow),
    )


def fibres() -> list[Fibre]:
    rng = random.Random(15)
    plain = [*fixture_fibres(), five_level_fibre()]
    return [
        *plain,
        *(with_explicit_ii(f, rng) for f in plain),
        *(with_ii_times(f, rng) for f in plain),
    ]


def _copy(f: Fibre) -> Fibre:
    return Fibre(
        components=f.components, dim_y=f.dim_y, q_v=f.q_v, strata=f.strata,
        chow=dict(f.chow), pushforward=dict(f.pushforward), pullback=dict(f.pullback),
        ii_matrices=dict(f.ii_matrices), higher_chow=dict(f.higher_chow),
    )


def flips(f: Fibre):
    """``f`` and every copy of it with one raw block negated, each as a
    pair of copies that share no built map."""
    yield _copy(f), _copy(f)
    for kind, blocks in (("push", f.pushforward), ("pull", f.pullback)):
        for key in sorted(blocks):
            yield with_flipped_sign(f, key, kind), with_flipped_sign(f, key, kind)


# Each identity's composite out of CH^p(Y^(r), j), multiplied out in full.
COMPOSITES = {
    "gamma.gamma": lambda f, r, p, j: gamma(f, r - 1, p + 1, j) * gamma(f, r, p, j),
    "rho.rho": lambda f, r, p, j: rho(f, r + 1, p, j) * rho(f, r, p, j),
    "gamma.rho+rho.gamma": lambda f, r, p, j: (
        gamma(f, r + 1, p, j) * rho(f, r, p, j) + rho(f, r - 1, p + 1, j) * gamma(f, r, p, j)
    ),
    "ii.gamma": lambda f, r, p, j: ii_map(f, p + 1, j) * gamma(f, r, p, j),
    "rho.ii": lambda f, r, p, j: rho(f, r, p + 1, j) * ii_map(f, p, j),
}

_NAMED = re.compile(r"^(\S+) != 0 at level (-?\d+), codim (-?\d+), j (-?\d+)$")


def _outcome(build, *args):
    try:
        return build(*args), None
    except DescriptorError as exc:
        return None, exc


def _named_identity_fails(f: Fibre, exc: DescriptorError) -> str:
    kind, *rpj = _NAMED.match(str(exc)).groups()
    assert not COMPOSITES[kind](f, *map(int, rpj)).is_zero(), str(exc)
    return kind


def test_identities_fail_exactly_when_the_complexes_do(monkeypatch):
    failed = {"row": set(), "small": set(), "group": set()}
    cases = 0
    for fibre in fibres():
        for patched, real in flips(fibre):
            cases += 1
            for star in range(-1, fibre.dim_y + 3):
                with monkeypatch.context() as m:
                    m.setattr(monodromy, "require_identity", lambda *args: None)
                    m.setattr(deligne, "require_identity", lambda *args: None)
                    row = total_rows(patched, star)
                    small = build_C(patched, star)
                    group = deligne_group(patched, 2 * star + 1, star)
                built = {
                    "row": (row, squares_to_zero(row_complex(patched, row)), total_rows),
                    "small": (small, squares_to_zero(small), build_C),
                    "group": (group, (group.ii * group.modulo).is_zero(),
                              lambda f, s: deligne_group(f, 2 * s + 1, s)),
                }
                for name, (want, sound, build) in built.items():
                    got, exc = _outcome(build, real, star)
                    assert (exc is None) == sound, (name, star, exc)
                    if exc is None:
                        assert got == want, (name, star)
                    else:
                        failed[name].add(_named_identity_fails(real, exc))
                upper, lower = (_outcome(total_rows, real, s)[0] for s in (star, star - 1))
                if upper is not None and lower is not None:
                    assert is_chain_map(*cone_pieces(real, upper, lower)), star
    assert cases > 800
    assert failed == {
        "row": {"gamma.gamma", "rho.rho", "gamma.rho+rho.gamma"},
        "small": {"gamma.gamma", "rho.rho", "ii.gamma", "rho.ii"},
        "group": {"ii.gamma"},
    }


def test_levels_four_apart_need_no_identity():
    f = five_level_fibre()
    row = total_rows(f, 1)
    assert {r for r, _ in row.summands[2]} == {1, 3} and row.summands[4] == ((5, 1),)
    assert squares_to_zero(row_complex(f, row))
    for star in range(-1, f.dim_y + 3):
        assert squares_to_zero(row_complex(f, total_rows(f, star)))
        assert squares_to_zero(build_C(f, star))
