"""Every command's report is pinned by the SHA-256 of its stdout.

The digests in ``pinned_reports.json`` were recorded from the dense
``Fraction`` linear-algebra core.  Any later change to the matrix
representation, the elimination or the caching must reproduce every
report byte for byte, in text and ``--tsv`` form, on the built-in
examples, a 40-gon and a tensored surface.  The L-function reports
(``dim-theorem``, ``check B2FF``, ``check CFF``) are also pinned on an
eight-place bundle with a global L-function and an integral regulator;
its digests were recorded from the ``Fraction`` polynomial arithmetic
and the two-Smith-form ``integral_orders``.  ``check B1FF``, ``check B2FF``
and ``check CFF`` are further pinned on bundles that reach each branch of
their runners (see ``branch_bundles``), recorded from the runners that
built every line by hand.  A conjugated tensored surface, whose raw
blocks have rational entries, pins every command (and ``complex --star 2``)
on the rational parse and assembly path; its digests were recorded from
the ``Fraction``-dict block assembly.

To record the digests again (only when a report is meant to change):

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

PINNED = Path(__file__).with_name("pinned_reports.json")

COMMANDS = (
    ("validate",),
    ("dim-theorem",),
    ("check", "A1"),
    ("check", "A2"),
    ("check", "B1FF"),
    ("check", "B2FF"),
    ("check", "CFF"),
    ("complex",),
    ("quasi-iso",),
)

MULTI_PLACE_COMMANDS = (
    ("dim-theorem",),
    ("check", "B2FF"),
    ("check", "CFF"),
)

# The conjugated surface also reports the star at which its small complex
# has cohomology in the reported degree.
CONJUGATED_COMMANDS = (*COMMANDS, ("complex", "--star", "2"))

BRANCH_COMMANDS = (
    ("check", "B1FF"),
    ("check", "B2FF"),
    ("check", "CFF"),
)

EXAMPLES = (
    ("zeta-fqt",),
    ("ngon",),
    ("smooth-ec",),
    ("ngon", "n=40"),
)


def _run(argv: list[str]) -> tuple[int, str]:
    from degen.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _surface_bundle(path: Path) -> None:
    from degen.bundle import Bundle, Params, save

    from fixtures import simplex_surface, tensored

    fibre = tensored(simplex_surface(), 3)
    save(Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": fibre}), path)


def _conjugated_surface_bundle(path: Path) -> None:
    import random

    from degen.bundle import Bundle, Params, save

    from fixtures import conjugated, simplex_surface, tensored

    fibre = conjugated(tensored(simplex_surface(), 4), random.Random(4))
    save(Bundle(params=Params(q_coh=3, a=1, field_q=2), fibres={"v0": fibre}), path)


def _multi_place_bundle(path: Path) -> None:
    from degen.bundle import save

    from fixtures import multi_place_bundle

    save(multi_place_bundle(8, 24), path)


def branch_bundles() -> dict:
    """Bundles that reach the branches of the B1FF, B2FF and CFF runners."""
    from fractions import Fraction

    from degen.bundle import Bundle, GlobalL, MotivicDatum, Params
    from degen.qlinalg import AbGroupMap, FPAbelianGroup
    from degen.workbench import build_example

    from fixtures import multi_place_bundle

    def replace(b, **fields):
        old = dict(
            params=b.params, fibres=b.fibres, places=b.places, motivic=b.motivic,
            global_l=b.global_l, integral=b.integral,
        )
        return Bundle(**{**old, **fields})

    def half_conductor(b, beta):
        g = b.global_l
        return replace(b, global_l=GlobalL(g.z, g.weight_w, (Fraction(1, 2), beta)))

    def to_z(generators, relations, matrix):
        source = FPAbelianGroup.make(generators, relations)
        return AbGroupMap.make(source, FPAbelianGroup.make(1, [[]]), matrix)

    multi = multi_place_bundle(4, 8)
    away = replace(multi, params=Params(1, -1, 13))  # q - 2a = 3: B1FF runs in full
    zeta = build_example("zeta-fqt", {"q": 3})
    free_kernel = replace(zeta, integral=to_z(2, [[], []], [[0, 1]]))
    ngon = build_example("ngon")
    return {
        "away": away,
        "away-half": half_conductor(away, 1),
        "zeta-half": half_conductor(zeta, 0),
        "b-rank-differs": replace(
            multi, motivic={**multi.motivic, "v01": MotivicDatum(multi.motivic["v01"].regulator)}
        ),
        "no-cycles": replace(
            multi, motivic={n: MotivicDatum(m.regulator) for n, m in multi.motivic.items()}
        ),
        # at a = 0 the cycle class e_0 of the triangle misses ker(i^*i_*)
        "outside-kernel": replace(
            ngon, params=Params(1, 0, 2), global_l=zeta.global_l, integral=zeta.integral
        ),
        "infinite-kernel": free_kernel,
        "infinite-cokernel": replace(zeta, integral=to_z(1, [[2]], [[0]])),
        "infinite-half": half_conductor(free_kernel, 0),
        "wrong-orders": replace(zeta, integral=to_z(2, [[5], [0]], [[0, 1]])),
    }


def _record(out: dict, argv: list[str], only) -> None:
    if only is None or tuple(a for a in argv[:-1] if a != "--tsv") in only:
        code, text = _run(argv)
        out[" ".join(argv)] = {"exit": code, "stdout": _sha(text)}


def report_digests(workdir: Path, only=None) -> dict[str, dict]:
    """Exit code and stdout digest of every command on every pinned input;
    with ``only`` (a collection of commands), of those commands alone."""
    out: dict[str, dict] = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        files = []
        for example in EXAMPLES:
            name = "-".join(example)
            target = f"{name}.json"
            label = " ".join(("example", *example, "-o", target))
            code, text = _run(["example", *example, "-o", target])
            out[label] = {"exit": code, "stdout": _sha(text)}
            out[label + " (file)"] = {"exit": code, "stdout": _sha(Path(target).read_text())}
            files.append(target)
        _surface_bundle(workdir / "surface-c3.json")
        files.append("surface-c3.json")
        for target in files:
            for cmd in COMMANDS:
                for tsv in ((), ("--tsv",)):
                    _record(out, [*tsv, *cmd, target], only)
        _conjugated_surface_bundle(workdir / "surface-c4-conjugated.json")
        for cmd in CONJUGATED_COMMANDS:
            for tsv in ((), ("--tsv",)):
                _record(out, [*tsv, *cmd, "surface-c4-conjugated.json"], only)
        _multi_place_bundle(workdir / "multi-place-p8.json")
        for cmd in MULTI_PLACE_COMMANDS:
            for tsv in ((), ("--tsv",)):
                _record(out, [*tsv, *cmd, "multi-place-p8.json"], only)
        from degen.bundle import save

        for name, bundle in branch_bundles().items():
            target = f"branch-{name}.json"
            save(bundle, workdir / target)
            for cmd in BRANCH_COMMANDS:
                for tsv in ((), ("--tsv",)):
                    _record(out, [*tsv, *cmd, target], only)
    finally:
        os.chdir(old)
    return out


def test_reports_match_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text())
    got = report_digests(tmp_path)
    assert sorted(got) == sorted(pinned)
    changed = [label for label in pinned if got[label] != pinned[label]]
    assert not changed, f"reports differ from the pinned digests: {changed}"


# Commands that decide the boundary groups from ranks and products alone.
RANK_AND_PRODUCT_COMMANDS = (
    ("dim-theorem",),
    ("check", "A2"),
    ("check", "B1FF"),
    ("check", "B2FF"),
)


def test_deligne_checks_take_no_kernel_basis_or_rref(tmp_path, monkeypatch):
    # membership in ker(i^*i_*) is one product and every dimension a rank,
    # so these commands reach no rref, kernel basis, Deligne-side solve or
    # quotient projection, and still print the pinned reports
    import degen.deligne as deligne
    import degen.qlinalg as qlinalg

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    for module, name in (
        (deligne, "kernel_basis"), (deligne, "solve"),
        (deligne, "quotient_projection"), (qlinalg, "rref"),
    ):
        monkeypatch.setattr(module, name, refuse(name))
    pinned = json.loads(PINNED.read_text())
    got = report_digests(tmp_path, only=RANK_AND_PRODUCT_COMMANDS)
    assert sum(label.startswith("check B2FF") for label in got) >= 10
    changed = [label for label in got if got[label] != pinned[label]]
    assert not changed, f"reports differ from the pinned digests: {changed}"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        digests = report_digests(Path(tmp))
    PINNED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {PINNED}")
