"""The bundle reader as it was before the table-driven one: the reference
that tests/test_bundle.py compares ``degen.bundle.loads`` against.

A field-by-field reader: ``_expect`` builds a dict of each record's fields
and formats the path of every field it reads; every matrix entry goes
through ``_rational``.  It accepts what the current reader accepts and
words every rejection the same, except that it lets a ``higher_chow``
entry have a negative dim or repeat the (codim, j) of an earlier one.

Kept in a module of its own that nothing else imports: the benchmark's
workload set-up imports ``fixtures`` and, through it, ``oracles``, and so
pays for whatever those modules hold.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from degen.bundle import (
    MAX_DECIMAL_EXPONENT,
    MAX_DIMENSION,
    MAX_GENERATORS,
    MAX_TWIST,
    Bundle,
    BundleError,
    GlobalL,
    MotivicDatum,
    Params,
    Place,
    RegulatorDatum,
    _long_literal_error,
    _TOO_DEEP,
)
from degen.deligne import CycleDatum
from degen.lfun import RatFunc
from degen.qlinalg import AbGroupMap, FPAbelianGroup, Mat, _from_scalars
from degen.strata import (
    MAX_PRIME_POWER,
    DescriptorError,
    Fibre,
    block_shape,
    build_level,
    ii_shape,
    is_prime_power,
    level_one_dims,
)

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

# The form every non-integer entry takes in a saved bundle: ASCII digits
# over ASCII digits, with an optional minus sign and nothing else.
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)\Z")


def _expect(obj, required: dict, optional: dict, where: str, strict: bool) -> dict:
    """Pull typed fields out of a JSON object, enforcing key discipline."""
    if not isinstance(obj, dict):
        raise BundleError(f"{where}: expected an object")
    out = {}
    for key, kind in required.items():
        if key not in obj:
            raise BundleError(f"{where}: missing required key {key!r}")
        out[key] = _coerce(obj[key], kind, f"{where}.{key}")
    for key, kind in optional.items():
        if key in obj and obj[key] is not None:
            out[key] = _coerce(obj[key], kind, f"{where}.{key}")
        else:
            out[key] = None
    if strict:
        known = set(required) | set(optional)
        extra = sorted(set(obj) - known)
        if extra:
            raise BundleError(f"{where}: unknown keys {extra}")
    return out


def _coerce(value, kind, where: str):
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise BundleError(f"{where}: expected an integer")
        return value
    if kind == "list":
        if not isinstance(value, list):
            raise BundleError(f"{where}: expected a list")
        return value
    if kind == "dict":
        if not isinstance(value, dict):
            raise BundleError(f"{where}: expected an object")
        return value
    raise AssertionError(kind)


class _NotANumber(Exception):
    """What is wrong with a JSON rational, before the path to it is known."""


def _rational(value) -> int | Fraction:
    """A rational from JSON: an int when the text is an integer, else a Fraction."""
    if isinstance(value, str):
        if "/" not in value:  # else int() could only fail, at the cost of an exception
            try:
                return int(value)
            except ValueError:
                pass
        ratio = _RATIO.match(value)
        if ratio is not None:
            try:
                num, den = int(ratio[1]), int(ratio[2])
            except ValueError:  # more digits than int() converts
                pass
            else:
                if den:
                    return Fraction(num, den)
        exponent = _EXPONENT.search(value)
        if exponent is not None:
            try:
                too_big = abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT
            except ValueError:  # more digits than int() converts
                too_big = True
            if too_big:
                raise _NotANumber(
                    f"decimal exponent in {value[:40]!r} exceeds "
                    f"{MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _NotANumber(f"bad rational {value!r}") from exc
    if isinstance(value, bool):
        raise _NotANumber("booleans are not numbers")
    if isinstance(value, int):
        return value
    raise _NotANumber("expected a rational as string or integer")


def _number(value, where: str) -> int | Fraction:
    try:
        return _rational(value)
    except _NotANumber as exc:
        raise BundleError(f"{where}: {exc}") from exc.__cause__


def _fraction(value, where: str) -> Fraction:
    return Fraction(_number(value, where))


def _is_power(value: int, base: int, exponent: int) -> bool:
    """value == base**exponent for base >= 2, without building the power:
    divide by base while it divides, at most log2(value) times."""
    k = 0
    while value > 1 and value % base == 0:
        value //= base
        k += 1
    return value == 1 and k == exponent


def _mat_from_json(obj, where: str, strict: bool, shape: tuple[int, int] | None = None) -> Mat:
    """The matrix ``obj`` describes; when ``shape`` is given, its declared
    rows and cols must be that, and no row is built otherwise."""
    got = _expect(obj, {"rows": "int", "cols": "int", "entries": "list"}, {}, where, strict)
    rows, cols, entries = got["rows"], got["cols"], got["entries"]
    if rows < 0 or cols < 0:
        raise BundleError(f"{where}: negative shape")
    for key in ("rows", "cols"):
        if got[key] > MAX_DIMENSION:
            raise BundleError(f"{where}.{key}: exceeds {MAX_DIMENSION}")
    if shape is not None and (rows, cols) != shape:
        raise BundleError(f"{where}: has shape {rows}x{cols}, expected {shape[0]}x{shape[1]}")
    if len(entries) != rows * cols:
        raise BundleError(
            f"{where}: {len(entries)} entries for a {rows}x{cols} matrix"
        )
    items = []
    for i in range(rows):
        base = i * cols
        row = []
        for j, x in enumerate(entries[base : base + cols]):
            try:
                x = _rational(x)
            except _NotANumber as exc:
                raise BundleError(f"{where}.entries[{base + j}]: {exc}") from exc.__cause__
            if x:
                row.append((j, x if type(x) is int else (x.numerator, x.denominator)))
        items.append(row)
    return _from_scalars(rows, cols, items)


def _boundary_shape(m: Mat, rows: int | None, cols: int | None, where: str) -> None:
    """At the boundary twist (``rows`` not None), m must be rows x cols."""
    if rows is not None and (m.rows, m.cols) != (rows, cols):
        raise BundleError(
            f"{where}: has shape {m.rows}x{m.cols}, expected {rows}x{cols} at the boundary twist"
        )


def _int_rows(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise BundleError(f"{where}: expected a list of integer rows")
    out = []
    for i, row in enumerate(value):
        cleaned = []
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise BundleError(f"{where}[{i}][{j}]: expected an integer")
            cleaned.append(x)
        out.append(cleaned)
    return out


def _stratum(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise BundleError(f"{where}: expected a list of integers")
    return tuple(value)


def _poly_from_json(value, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise BundleError(f"{where}: expected ascending coefficient list")
    return tuple(_fraction(x, f"{where}[{i}]") for i, x in enumerate(value))


def _parse_fibre(obj, where: str, strict: bool) -> Fibre:
    got = _expect(
        obj,
        {
            "components": "int",
            "dim_y": "int",
            "q_v": "int",
            "strata": "list",
            "chow": "list",
            "pushforward": "list",
            "pullback": "list",
        },
        {"ii_matrices": "list", "higher_chow": "list"},
        where,
        strict,
    )
    strata = [_stratum(s, f"{where}.strata[{i}]") for i, s in enumerate(got["strata"])]

    chow = {}
    total = 0
    for i, entry in enumerate(got["chow"]):
        e = _expect(
            entry,
            {"stratum": "list", "codim": "int", "j": "int", "dim": "int"},
            {},
            f"{where}.chow[{i}]",
            strict,
        )
        key = (_stratum(e["stratum"], f"{where}.chow[{i}].stratum"), e["codim"], e["j"])
        if key in chow:
            raise BundleError(f"{where}.chow[{i}]: duplicate entry for {key}")
        if e["dim"] < 0:
            raise BundleError(f"{where}.chow[{i}].dim: negative")
        chow[key] = e["dim"]
        total += e["dim"]
        if total > MAX_DIMENSION:
            raise BundleError(
                f"{where}.chow[{i}].dim: the chow dims of the fibre sum past {MAX_DIMENSION}"
            )

    def parse_blocks(name: str) -> dict:
        blocks = {}
        for i, entry in enumerate(got[name]):
            e = _expect(
                entry,
                {
                    "stratum": "list",
                    "position": "int",
                    "codim": "int",
                    "j": "int",
                    "matrix": "dict",
                },
                {},
                f"{where}.{name}[{i}]",
                strict,
            )
            stratum = _stratum(e["stratum"], f"{where}.{name}[{i}].stratum")
            key = (stratum, e["position"], e["codim"], e["j"])
            if key in blocks:
                raise BundleError(f"{where}.{name}[{i}]: duplicate entry for {key}")
            try:
                shape = block_shape(chow, name, key)
            except DescriptorError as exc:
                raise BundleError(f"{where}.{name}[{i}]: {exc}") from exc
            blocks[key] = _mat_from_json(e["matrix"], f"{where}.{name}[{i}].matrix", strict, shape)
        return blocks

    pushforward = parse_blocks("pushforward")
    pullback = parse_blocks("pullback")

    ii_matrices = {}
    if got["ii_matrices"] is not None:
        level_one = level_one_dims(chow)
        for i, entry in enumerate(got["ii_matrices"]):
            e = _expect(
                entry,
                {"codim": "int", "j": "int", "matrix": "dict"},
                {},
                f"{where}.ii_matrices[{i}]",
                strict,
            )
            key = (e["codim"], e["j"])
            if key in ii_matrices:
                raise BundleError(f"{where}.ii_matrices[{i}]: duplicate entry for {key}")
            ii_matrices[key] = _mat_from_json(
                e["matrix"], f"{where}.ii_matrices[{i}].matrix", strict, ii_shape(level_one, *key)
            )

    higher_chow = {}
    if got["higher_chow"] is not None:
        for i, entry in enumerate(got["higher_chow"]):
            e = _expect(
                entry,
                {"codim": "int", "j": "int", "dim": "int"},
                {},
                f"{where}.higher_chow[{i}]",
                strict,
            )
            if e["dim"] > MAX_DIMENSION:
                raise BundleError(f"{where}.higher_chow[{i}].dim: exceeds {MAX_DIMENSION}")
            higher_chow[(e["codim"], e["j"])] = e["dim"]

    try:
        return Fibre(
            components=got["components"],
            dim_y=got["dim_y"],
            q_v=got["q_v"],
            strata=tuple(strata),
            chow=chow,
            pushforward=pushforward,
            pullback=pullback,
            ii_matrices=ii_matrices,
            higher_chow=higher_chow,
        )
    except DescriptorError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _parse_group(obj, where: str, strict: bool) -> FPAbelianGroup:
    got = _expect(obj, {"generators": "int", "relations": "list"}, {}, where, strict)
    if not 0 <= got["generators"] <= MAX_GENERATORS:
        raise BundleError(f"{where}.generators: must be between 0 and {MAX_GENERATORS}")
    rows = _int_rows(got["relations"], f"{where}.relations")
    if not rows:
        rows = [[] for _ in range(got["generators"])]
    return FPAbelianGroup.make(got["generators"], rows)


def loads(text: str, strict: bool = True) -> Bundle:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {exc}") from exc
    except ValueError:  # an integer literal longer than int() converts
        raise _long_literal_error(text) from None
    except RecursionError:
        raise BundleError(_TOO_DEEP) from None

    top = _expect(
        data,
        {"params": "dict", "fibres": "dict"},
        {"places": "dict", "motivic": "dict", "global": "dict", "integral": "dict"},
        "bundle",
        strict,
    )

    p = _expect(
        top["params"],
        {"q_coh": "int", "a": "int", "field_q": "int"},
        {},
        "params",
        strict,
    )
    for key in ("q_coh", "a"):
        if abs(p[key]) > MAX_TWIST:
            raise BundleError(f"params.{key}: exceeds {MAX_TWIST} in magnitude")
    if p["field_q"] > MAX_PRIME_POWER:
        raise BundleError("params.field_q: exceeds the largest field size 2^64")
    if not is_prime_power(p["field_q"]):
        raise BundleError(f"params.field_q: {p['field_q']} is not a prime power")
    params = Params(q_coh=p["q_coh"], a=p["a"], field_q=p["field_q"])

    fibres = {}
    for name in sorted(top["fibres"]):
        fibres[name] = _parse_fibre(top["fibres"][name], f"fibres.{name}", strict)
    if not fibres:
        raise BundleError("fibres: at least one marked place is required")

    places = {}
    if top["places"] is not None:
        for name in sorted(top["places"]):
            e = _expect(
                top["places"][name],
                {"deg_v": "int", "frob": "list"},
                {},
                f"places.{name}",
                strict,
            )
            if e["deg_v"] < 1:
                raise BundleError(f"places.{name}.deg_v: must be positive")
            rows = e["frob"]
            n = len(rows)
            grid = []
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != n:
                    raise BundleError(f"places.{name}.frob: expected a square matrix")
                grid.append(
                    [_number(x, f"places.{name}.frob[{i}][{j}]") for j, x in enumerate(row)]
                )
            places[name] = Place(deg_v=e["deg_v"], frob=Mat.from_rows(grid, cols=n))
        if set(places) != set(fibres):
            raise BundleError(
                "places: must list exactly the marked places "
                f"(fibres: {sorted(fibres)}, places: {sorted(places)})"
            )
        for name, place in places.items():
            if not _is_power(fibres[name].q_v, params.field_q, place.deg_v):
                raise BundleError(
                    f"fibres.{name}.q_v: {fibres[name].q_v} != field_q^deg_v = "
                    f"{params.field_q}^{place.deg_v} (places.{name}.deg_v)"
                )

    motivic = {}
    if top["motivic"] is not None:
        for name in sorted(top["motivic"]):
            if name not in fibres:
                raise BundleError(f"motivic.{name}: no such marked place")
            e = _expect(
                top["motivic"][name],
                {},
                {"regulator": "dict", "cycle_class": "dict"},
                f"motivic.{name}",
                strict,
            )
            # at the boundary twist the regulator and cycle-class columns are
            # vectors of CH^a(Y^(1)), and tau acts on that space
            ambient = None
            if params.q_coh - 2 * params.a == 1:
                ambient = build_level(fibres[name], 1, params.a).total
            regulator = None
            if e["regulator"] is not None:
                r = _expect(
                    e["regulator"],
                    {"motivic_rank": "int", "matrix": "dict"},
                    {},
                    f"motivic.{name}.regulator",
                    strict,
                )
                matrix = _mat_from_json(r["matrix"], f"motivic.{name}.regulator.matrix", strict)
                if matrix.cols != r["motivic_rank"]:
                    raise BundleError(
                        f"motivic.{name}.regulator: matrix has {matrix.cols} columns, "
                        f"declared rank {r['motivic_rank']}"
                    )
                _boundary_shape(matrix, ambient, matrix.cols, f"motivic.{name}.regulator.matrix")
                regulator = RegulatorDatum(motivic_rank=r["motivic_rank"], matrix=matrix)
            cycle_class = None
            if e["cycle_class"] is not None:
                c = _expect(
                    e["cycle_class"],
                    {"b_rank": "int", "xi": "dict"},
                    {"tau": "dict"},
                    f"motivic.{name}.cycle_class",
                    strict,
                )
                xi = _mat_from_json(c["xi"], f"motivic.{name}.cycle_class.xi", strict)
                if xi.cols != c["b_rank"]:
                    raise BundleError(
                        f"motivic.{name}.cycle_class: xi has {xi.cols} columns, "
                        f"declared rank {c['b_rank']}"
                    )
                _boundary_shape(xi, ambient, xi.cols, f"motivic.{name}.cycle_class.xi")
                tau = None
                if c["tau"] is not None:
                    tau = _mat_from_json(c["tau"], f"motivic.{name}.cycle_class.tau", strict)
                    _boundary_shape(tau, ambient, ambient, f"motivic.{name}.cycle_class.tau")
                cycle_class = CycleDatum(b_rank=c["b_rank"], xi=xi, tau=tau)
            motivic[name] = MotivicDatum(regulator=regulator, cycle_class=cycle_class)

    global_l = None
    if top["global"] is not None:
        g = _expect(
            top["global"],
            {"z_num": "list", "z_den": "list", "weight_w": "int"},
            {"conductor": "list"},
            "global",
            strict,
        )
        num = _poly_from_json(g["z_num"], "global.z_num")
        den = _poly_from_json(g["z_den"], "global.z_den")
        try:
            z = RatFunc.make(num, den)
        except (ValueError, ZeroDivisionError) as exc:
            raise BundleError(f"global: bad rational function: {exc}") from exc
        conductor = None
        if g["conductor"] is not None:
            pair = g["conductor"]
            if len(pair) != 2:
                raise BundleError("global.conductor: expected [alpha, beta]")
            alpha = _fraction(pair[0], "global.conductor[0]")
            if not isinstance(pair[1], int) or isinstance(pair[1], bool):
                raise BundleError("global.conductor[1]: expected an integer")
            conductor = (alpha, pair[1])
        global_l = GlobalL(z=z, weight_w=g["weight_w"], conductor=conductor)

    integral = None
    if top["integral"] is not None:
        e = _expect(
            top["integral"],
            {"source": "dict", "target": "dict", "matrix": "list"},
            {},
            "integral",
            strict,
        )
        source = _parse_group(e["source"], "integral.source", strict)
        target = _parse_group(e["target"], "integral.target", strict)
        matrix = _int_rows(e["matrix"], "integral.matrix")
        if not matrix:
            matrix = [[] for _ in range(target.generators)]
        try:
            integral = AbGroupMap.make(source, target, matrix)
        except ValueError as exc:
            raise BundleError(f"integral: {exc}") from exc

    return Bundle(
        params=params,
        fibres=fibres,
        places=places,
        motivic=motivic,
        global_l=global_l,
        integral=integral,
    )
