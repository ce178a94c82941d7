"""Flat-file instance format: everything one run needs, in one JSON object.

A bundle collects the special fibres at the marked places, Frobenius data
for the local Euler factors, the motivic inputs (regulator images and
cycle classes), the global L-function as an exact rational function in
t = q^{-s}, and optionally an integral regulator presentation.  All
rational numbers travel as strings ("p/q" or "n") so files are exact and
serialization is byte-stable.

A decimal exponent in a rational string ("1e5") may not exceed
MAX_DECIMAL_EXPONENT in magnitude: "1e99999999" would otherwise make the
parser build a number with hundreds of millions of digits.  For the same
reason the twist params.a and the degree params.q_coh, which become
exponents of q, may not exceed MAX_TWIST in magnitude, and field sizes
(params.field_q, each q_v) may not exceed strata.MAX_PRIME_POWER.  A
JSON integer literal may not have more digits than Python converts to an
int (4300 by default); such a literal is named by its path in the file.
The generator count of each group of the integral regulator may not
exceed MAX_GENERATORS, and the rows and cols of each matrix, each
higher_chow dim and the sum of each fibre's chow dims may not exceed
MAX_DIMENSION; both are checked before any row is built.  A file nested
past Python's recursion limit is rejected as too deeply nested.  At the
boundary twist (q_coh - 2a = 1) the regulator matrix, xi and tau of each
place are checked against CH^a of the first level as they are read, so a
bad height is named before any command builds a map on it.

Only "params" and "fibres" are mandatory; check commands that need a
missing section report it rather than crash.  In strict mode (default)
unknown keys anywhere in the file are rejected, which catches typos like
"pushfoward" before they silently weaken a run.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .deligne import CycleDatum
from .lfun import RatFunc
from .qlinalg import AbGroupMap, FPAbelianGroup, Mat, _from_scalars, _Record
from .strata import (
    MAX_PRIME_POWER,
    DescriptorError,
    Fibre,
    block_shape,
    build_level,
    is_prime_power,
)

__all__ = [
    "BundleError",
    "Params",
    "Place",
    "RegulatorDatum",
    "MotivicDatum",
    "GlobalL",
    "Bundle",
    "load",
    "loads",
    "save",
    "dumps",
    "MAX_DECIMAL_EXPONENT",
    "MAX_DIMENSION",
    "MAX_GENERATORS",
    "MAX_TWIST",
]

# Largest |e| accepted in a decimal exponent such as "1e5" or "2.5E-3".
MAX_DECIMAL_EXPONENT = 1000

# Largest |params.a| and |params.q_coh|: t0 = q^{-a} and the twists built
# from them are exact numbers whose size grows with these exponents.
MAX_TWIST = 1000

# Largest generator count of a group in the integral regulator: with empty
# relations the parser builds one row per generator.
MAX_GENERATORS = 10_000

# Largest matrix height or width, higher Chow dimension and total Chow
# dimension of a fibre: a matrix with no columns needs no entries in the
# file whatever its height, and every space a command builds on a fibre
# has at most the fibre's total Chow dimension.
MAX_DIMENSION = 100_000

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

# The form every non-integer entry takes in a saved bundle: ASCII digits
# over ASCII digits, with an optional minus sign and nothing else.
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)\Z")


class BundleError(ValueError):
    """Raised when a bundle file is malformed or internally inconsistent."""


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


_TOO_DEEP = "not valid JSON: nested too deeply"


class _Digits(int):
    """Digit count standing in for an integer literal too long for int()."""


def _long_literal_error(text: str) -> BundleError:
    """Name the integer literal that made json.loads give up: parse again,
    keeping each literal int() refuses as its digit count, and report the
    first one in document order by its path."""

    def keep(literal: str) -> int:
        try:
            return int(literal)
        except ValueError:
            return _Digits(len(literal.lstrip("-")))

    try:
        stack = [("", json.loads(text, parse_int=keep))]
    except json.JSONDecodeError as exc:  # malformed past the long literal
        return BundleError(f"not valid JSON: {exc}")
    except RecursionError:
        return BundleError(_TOO_DEEP)
    while stack:
        where, node = stack.pop()
        if isinstance(node, _Digits):
            limit = sys.get_int_max_str_digits()
            return BundleError(f"{where}: integer literal has {node} digits, past the {limit}-digit limit")
        if isinstance(node, dict):
            stack += reversed([(f"{where}.{k}" if where else k, v) for k, v in node.items()])
        elif isinstance(node, list):
            stack += reversed([(f"{where}[{i}]", v) for i, v in enumerate(node)])
    return BundleError("not valid JSON: an integer literal could not be converted")


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
                row.append((j, x))
        items.append(row)
    return _from_scalars(rows, cols, items)


def _mat_to_json(m: Mat) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [str(x) for row in m.entries for x in row],
    }


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


# ---------------------------------------------------------------------------
# Sections.


class Params(_Record):
    __slots__ = _fields = ("q_coh", "a", "field_q")

    def __init__(self, q_coh: int, a: int, field_q: int):
        self._assign(q_coh, a, field_q)


class Place(_Record):
    __slots__ = _fields = ("deg_v", "frob")

    def __init__(self, deg_v: int, frob: Mat):
        self._assign(deg_v, frob)


class RegulatorDatum(_Record):
    __slots__ = _fields = ("motivic_rank", "matrix")

    def __init__(self, motivic_rank: int, matrix: Mat):
        self._assign(motivic_rank, matrix)


class MotivicDatum(_Record):
    __slots__ = _fields = ("regulator", "cycle_class")

    def __init__(
        self, regulator: RegulatorDatum | None = None, cycle_class: CycleDatum | None = None
    ):
        self._assign(regulator, cycle_class)


class GlobalL(_Record):
    """Global L-function plus the data its analysis needs.

    conductor = (alpha, beta) means the completed function is
    q^alpha * t^beta * z; the t-power folds into the rational function,
    the q-power only ever scales leading coefficients.
    """

    __slots__ = _fields = ("z", "weight_w", "conductor")

    def __init__(self, z: RatFunc, weight_w: int, conductor: tuple[Fraction, int] | None = None):
        self._assign(z, weight_w, conductor)


class Bundle(_Record):
    """A parsed bundle; ``places`` and ``motivic`` default to empty dicts."""

    __slots__ = _fields = ("params", "fibres", "places", "motivic", "global_l", "integral")

    def __init__(
        self,
        params: Params,
        fibres: dict[str, Fibre],
        places: dict[str, Place] | None = None,
        motivic: dict[str, MotivicDatum] | None = None,
        global_l: GlobalL | None = None,
        integral: AbGroupMap | None = None,
    ):
        self._assign(
            params,
            fibres,
            {} if places is None else places,
            {} if motivic is None else motivic,
            global_l,
            integral,
        )


# ---------------------------------------------------------------------------
# Parsing.


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
        for i, entry in enumerate(got["ii_matrices"]):
            e = _expect(
                entry,
                {"codim": "int", "j": "int", "matrix": "dict"},
                {},
                f"{where}.ii_matrices[{i}]",
                strict,
            )
            ii_matrices[(e["codim"], e["j"])] = _mat_from_json(
                e["matrix"], f"{where}.ii_matrices[{i}].matrix", strict
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


def load(path, strict: bool = True) -> Bundle:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), strict=strict)


# ---------------------------------------------------------------------------
# Serialization (canonical: sorted keys, stable entry order).


def _fibre_to_json(f: Fibre) -> dict:
    out = {
        "components": f.components,
        "dim_y": f.dim_y,
        "q_v": f.q_v,
        "strata": [list(s) for s in sorted(f.strata, key=lambda s: (len(s), s))],
        "chow": [
            {"stratum": list(k[0]), "codim": k[1], "j": k[2], "dim": v}
            for k, v in sorted(f.chow.items())
        ],
        "pushforward": [
            {
                "stratum": list(k[0]),
                "position": k[1],
                "codim": k[2],
                "j": k[3],
                "matrix": _mat_to_json(v),
            }
            for k, v in sorted(f.pushforward.items())
        ],
        "pullback": [
            {
                "stratum": list(k[0]),
                "position": k[1],
                "codim": k[2],
                "j": k[3],
                "matrix": _mat_to_json(v),
            }
            for k, v in sorted(f.pullback.items())
        ],
    }
    if f.ii_matrices:
        out["ii_matrices"] = [
            {"codim": k[0], "j": k[1], "matrix": _mat_to_json(v)}
            for k, v in sorted(f.ii_matrices.items())
        ]
    if f.higher_chow:
        out["higher_chow"] = [
            {"codim": k[0], "j": k[1], "dim": v}
            for k, v in sorted(f.higher_chow.items())
        ]
    return out


def _group_to_json(g: FPAbelianGroup) -> dict:
    return {
        "generators": g.generators,
        "relations": [list(row) for row in g.relations],
    }


def dumps(b: Bundle) -> str:
    data: dict = {
        "params": {
            "q_coh": b.params.q_coh,
            "a": b.params.a,
            "field_q": b.params.field_q,
        },
        "fibres": {name: _fibre_to_json(f) for name, f in sorted(b.fibres.items())},
    }
    if b.places:
        data["places"] = {
            name: {
                "deg_v": p.deg_v,
                "frob": [[str(x) for x in row] for row in p.frob.entries],
            }
            for name, p in sorted(b.places.items())
        }
    if b.motivic:
        section = {}
        for name, m in sorted(b.motivic.items()):
            entry = {}
            if m.regulator is not None:
                entry["regulator"] = {
                    "motivic_rank": m.regulator.motivic_rank,
                    "matrix": _mat_to_json(m.regulator.matrix),
                }
            if m.cycle_class is not None:
                cc = {
                    "b_rank": m.cycle_class.b_rank,
                    "xi": _mat_to_json(m.cycle_class.xi),
                }
                if m.cycle_class.tau is not None:
                    cc["tau"] = _mat_to_json(m.cycle_class.tau)
                entry["cycle_class"] = cc
            section[name] = entry
        data["motivic"] = section
    if b.global_l is not None:
        g: dict = {
            "z_num": [str(x) for x in b.global_l.z.num],
            "z_den": [str(x) for x in b.global_l.z.den],
            "weight_w": b.global_l.weight_w,
        }
        if b.global_l.conductor is not None:
            alpha, beta = b.global_l.conductor
            g["conductor"] = [str(alpha), beta]
        data["global"] = g
    if b.integral is not None:
        data["integral"] = {
            "source": _group_to_json(b.integral.source),
            "target": _group_to_json(b.integral.target),
            "matrix": [list(row) for row in b.integral.matrix],
        }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save(b: Bundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(b))
