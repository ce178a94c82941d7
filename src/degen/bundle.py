"""Flat-file instance format: everything one run needs, in one JSON object.

A bundle collects the special fibres at the marked places, Frobenius data
for the local Euler factors, the motivic inputs (regulator images and
cycle classes), the global L-function as an exact rational function in
t = q^{-s}, and optionally an integral regulator presentation.  All
rational numbers travel as strings ("p/q" or "n") so files are exact and
serialization is byte-stable.  The reader turns "n" into an int and "p/q"
into a reduced pair of ints, and builds each matrix's integer rows and
Z's integer polynomials from those; only a rarer form (whitespace, a
sign, a decimal point, an exponent, "_") goes through ``Fraction``,
imported on that path.  The text is parsed by the scanner ``json.loads``
runs, called directly; ``json`` itself is imported only to raise the
error ``json.loads`` raises on malformed text.

A decimal exponent in a rational string ("1e5") may not exceed
MAX_DECIMAL_EXPONENT in magnitude: "1e99999999" would otherwise make the
parser build a number with hundreds of millions of digits.  For the same
reason the twist params.a and the degree params.q_coh, like
global.weight_w and the two entries of global.conductor, become
exponents of q and may not exceed MAX_TWIST in magnitude; z_num and z_den
may hold at most MAX_COEFFICIENTS coefficients each, counted before any
is read, because Z is reduced at load time; and field sizes
(params.field_q, each q_v) may not exceed strata.MAX_PRIME_POWER.  A
JSON integer literal may not have more digits than Python converts to an
int (4300 by default); such a literal is named by its path in the file.
The generator count of each group of the integral regulator may not
exceed MAX_GENERATORS, and each fibre's dim_y, the rows and cols of each
matrix, each higher_chow dim and the sum of each fibre's chow dims may
not exceed MAX_DIMENSION; both are checked before any row is built.  So
is the shape the fibre's Chow table asks of each pushforward and
pullback block and of each explicit i^*i_* matrix.  The five keyed
tables of a fibre (chow, pushforward, pullback, ii_matrices,
higher_chow) share one rule, read by ``_table`` and written by
``_table_json``: an entry's fields are its key, ending in (codim, j),
and then its value; no key repeats; no codim, j or dim is negative; and
entries are written in sorted key order.  A file nested past Python's
recursion limit is rejected as too deeply nested, and ``load`` rejects a
file longer than MAX_BUNDLE_BYTES after reading one byte past it, before
any parsing.  At the boundary twist (q_coh - 2a = 1) the regulator
matrix, xi and tau of each place are checked against CH^a of the first
level as they are read, so a bad height is named before any command
builds a map on it.

Only "params" and "fibres" are mandatory; check commands that need a
missing section report it rather than crash.  In strict mode (default)
unknown keys anywhere in the file are rejected, which catches typos like
"pushfoward" before they silently weaken a run.
"""

from __future__ import annotations

import gc
import os
import sys
from math import gcd
from operator import itemgetter

from _json import encode_basestring_ascii as _quote
from _json import make_scanner

from .deligne import CycleDatum
from .lfun import RatFunc, _log
from .qlinalg import AbGroupMap, FPAbelianGroup, Mat, _entry_strings, _from_scalars, _Record
from .qlinalg import _int_rows as _dense_rows
from .strata import (
    MAX_PRIME_POWER,
    DescriptorError,
    Fibre,
    block_shape,
    build_level,
    ii_shape,
    is_prime_power,
    level_one_dims,
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
    "MAX_BUNDLE_BYTES",
    "MAX_COEFFICIENTS",
    "MAX_DECIMAL_EXPONENT",
    "MAX_DIMENSION",
    "MAX_GENERATORS",
    "MAX_TWIST",
]

# Largest |e| accepted in a decimal exponent such as "1e5" or "2.5E-3".
MAX_DECIMAL_EXPONENT = 1000

# Largest |params.a|, |params.q_coh|, |global.weight_w| and |alpha|, |beta|
# of global.conductor: each is an exponent of q, and t0 = q^{-a}, q^w and
# q^alpha are exact numbers whose size grows with it.
MAX_TWIST = 1000

# Largest number of coefficients of global.z_num and of global.z_den: Z
# is reduced at load time by a remainder-sequence gcd whose cost grows
# with about the fourth power of the degree.  With 56 random 50-digit
# coefficients a side, validate takes about 1.5 s on a 2-core host; with
# 64, the reduction alone takes 2 s.  Benchmark Z has degree 50 or less.
MAX_COEFFICIENTS = 56

# Largest generator count of a group in the integral regulator: with empty
# relations the parser builds one row per generator.
MAX_GENERATORS = 10_000

# Largest fibre dimension dim_y, matrix height or width, higher Chow
# dimension and total Chow dimension of a fibre: a matrix with no columns
# needs no entries in the file whatever its height, every space a command
# builds on a fibre has at most the fibre's total Chow dimension, and
# validate and quasi-iso sweep every codim or star up to dim_y.
MAX_DIMENSION = 100_000

# Largest bundle file read, in bytes: about twice the 66 MB a 1920-gon
# example takes.  A larger input, such as /dev/zero, is rejected after
# reading one byte past the limit.
MAX_BUNDLE_BYTES = 128 * 2**20

# A decimal exponent at the end of a rational string; searched for only in
# text that is neither an integer nor p/q, so it is compiled on first use.
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"


class BundleError(ValueError):
    """Raised when a bundle file is malformed or internally inconsistent."""


def _path(where) -> str:
    """The text of a path into the file: a str, or a pair (path, step) whose
    step is a list index or a ".key".  The reader builds pairs on the way
    down and formats one only when an error names it."""
    if type(where) is str:
        return where
    parent, step = where
    return f"{_path(parent)}[{step}]" if type(step) is int else _path(parent) + step


def _error(where, message) -> BundleError:
    return BundleError(f"{_path(where)}: {message}")


_KIND_NAMES = {int: "an integer", list: "a list", dict: "an object"}
_INT = frozenset({int})
_LIST = frozenset({list})
_STR = frozenset({str})


class _Spec:
    """The keys of one kind of record: each required key with the JSON type
    its value must have, each optional key likewise (absent or null reads
    as None), and the keys strict mode allows."""

    __slots__ = ("required", "optional", "get", "types", "known")

    def __init__(self, required: dict, optional: dict | None = None):
        optional = optional or {}
        self.required = tuple(required.items())
        self.optional = tuple(optional.items())
        # itemgetter gives a tuple for two keys or more
        self.get = itemgetter(*required) if len(required) > 1 else (
            lambda obj: tuple(obj[key] for key in required)
        )
        self.types = list(required.values())
        self.known = frozenset(required).union(optional)


_BUNDLE = _Spec(
    {"params": dict, "fibres": dict},
    {"places": dict, "motivic": dict, "global": dict, "integral": dict},
)
_PARAMS = _Spec({"q_coh": int, "a": int, "field_q": int})
_FIBRE = _Spec(
    {"components": int, "dim_y": int, "q_v": int, "strata": list, "chow": list,
     "pushforward": list, "pullback": list},
    {"ii_matrices": list, "higher_chow": list},
)
_CHOW = _Spec({"stratum": list, "codim": int, "j": int, "dim": int})
_BLOCK = _Spec({"stratum": list, "position": int, "codim": int, "j": int, "matrix": dict})
_II = _Spec({"codim": int, "j": int, "matrix": dict})
_HIGHER_CHOW = _Spec({"codim": int, "j": int, "dim": int})
_MATRIX = _Spec({"rows": int, "cols": int, "entries": list})
_PLACE = _Spec({"deg_v": int, "frob": list})
_MOTIVIC = _Spec({}, {"regulator": dict, "cycle_class": dict})
_REGULATOR = _Spec({"motivic_rank": int, "matrix": dict})
_CYCLE_CLASS = _Spec({"b_rank": int, "xi": dict}, {"tau": dict})
_GLOBAL = _Spec({"z_num": list, "z_den": list, "weight_w": int}, {"conductor": list})
_INTEGRAL = _Spec({"source": dict, "target": dict, "matrix": list})
_GROUP = _Spec({"generators": int, "relations": list})


def _record(obj, spec: _Spec, where, strict: bool) -> tuple:
    """The values of ``spec``'s keys in the JSON object ``obj``, required
    keys then optional ones, in the order ``spec`` lists them."""
    if type(obj) is not dict:
        raise _error(where, "expected an object")
    try:
        values = spec.get(obj)
    except KeyError:
        values = None
    if values is None or [*map(type, values)] != spec.types:
        # name the first key that is missing or of the wrong type
        for key, kind in spec.required:
            if key not in obj:
                raise _error(where, f"missing required key {key!r}")
            if type(obj[key]) is not kind:
                raise _error((where, "." + key), f"expected {_KIND_NAMES[kind]}")
    if spec.optional:
        extra = []
        for key, kind in spec.optional:
            value = obj.get(key)
            if value is not None and type(value) is not kind:
                raise _error((where, "." + key), f"expected {_KIND_NAMES[kind]}")
            extra.append(value)
        values += tuple(extra)
    if strict and not obj.keys() <= spec.known:
        raise _error(where, f"unknown keys {sorted(set(obj) - spec.known)}")
    return values


class _NotANumber(Exception):
    """What is wrong with a JSON rational, before the path to it is known."""


def _rational(value) -> int | tuple[int, int]:
    """A rational from JSON: an int when the value is an integer or its
    text, else the reduced pair (numerator, denominator > 0)."""
    if isinstance(value, str):
        if "/" not in value:  # else int() could only fail, at the cost of an exception
            try:
                return int(value)
            except ValueError:
                pass
        else:
            # the form every non-integer entry takes in a saved bundle: ASCII
            # digits over ASCII digits, the numerator maybe negative (isdigit
            # alone would also take "²" or "٣")
            num, _, den = value.partition("/")
            if value.isascii() and den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit():
                try:
                    num, den = int(num), int(den)
                except ValueError:  # more digits than int() converts
                    pass
                else:
                    if den:
                        g = gcd(num, den)
                        return num // g, den // g
        return _unusual_rational(value)
    if isinstance(value, bool):
        raise _NotANumber("booleans are not numbers")
    if isinstance(value, int):
        return value
    raise _NotANumber("expected a rational as string or integer")


def _unusual_rational(value: str) -> tuple[int, int]:
    """Rational text in any form but an integer or ASCII p/q, with
    whitespace, a sign, a decimal point, an exponent or "_": Fraction
    decides what it means, with the decimal-exponent limit first."""
    import re
    from fractions import Fraction

    exponent = re.search(_EXPONENT, value)
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
        x = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise _NotANumber(f"bad rational {value!r}") from exc
    return x.numerator, x.denominator


def _number(value, where):
    """The scalar ``value`` reads as, at the API edge: an int when it is an
    integer or its text, else a Fraction."""
    try:
        x = _rational(value)
    except _NotANumber as exc:
        raise _error(where, exc) from exc.__cause__
    if type(x) is int:
        return x
    from fractions import Fraction

    return Fraction(*x)


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

    import json

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


def _scalar_row(row: list, where, offset: int = 0) -> list:
    """The nonzero (column, scalar) pairs of ``row``, a list of JSON
    rationals, each scalar an int or a reduced (numerator, denominator)
    pair, as ``_from_scalars`` takes them: "0" entries
    are counted, not parsed, and the scan stops at the last other entry.
    Entry j is named (where, offset + j) on error."""
    left = len(row) - row.count("0")
    out = []
    for j, x in enumerate(row):
        if not left:
            break
        if x != "0":
            left -= 1
            try:
                x = _rational(x)
            except _NotANumber as exc:
                raise _error((where, offset + j), exc) from exc.__cause__
            if x if type(x) is int else x[0]:
                out.append((j, x))
    return out


def _mat_from_json(obj, where, strict: bool, built: dict, shape=None) -> Mat:
    """The matrix ``obj`` describes; when ``shape`` is given, its declared
    rows and cols must be that, and no row is built otherwise.  ``built``
    holds the Mat of each shape and entry text the load has read: a Mat is
    immutable, so a matrix read again shares it (the blocks of an n-gon
    fibre take a few values over and over)."""
    rows, cols, entries = _record(obj, _MATRIX, where, strict)
    if rows < 0 or cols < 0:
        raise _error(where, "negative shape")
    if rows > MAX_DIMENSION:
        raise _error((where, ".rows"), f"exceeds {MAX_DIMENSION}")
    if cols > MAX_DIMENSION:
        raise _error((where, ".cols"), f"exceeds {MAX_DIMENSION}")
    if shape is not None and (rows, cols) != shape:
        raise _error(where, f"has shape {rows}x{cols}, expected {shape[0]}x{shape[1]}")
    if len(entries) != rows * cols:
        raise _error(where, f"{len(entries)} entries for a {rows}x{cols} matrix")
    if not cols:
        return Mat.zero(rows, 0)
    # only strings: 1 == 1.0 == True, and a float or bool entry is an error
    text = (rows, cols, *entries) if {*map(type, entries)} <= _STR else None
    if text in built:
        return built[text]
    at = (where, ".entries")
    items = []
    for base in range(0, rows * cols, cols):
        items.append(_scalar_row(entries[base : base + cols], at, base))
    m = _from_scalars(rows, cols, items)
    if text is not None:
        built[text] = m
    return m


def _mat_to_json(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": _entry_strings(m)}


def _boundary_shape(m: Mat, rows: int | None, cols: int | None, where: str) -> None:
    """At the boundary twist (``rows`` not None), m must be rows x cols."""
    if rows is not None and (m.rows, m.cols) != (rows, cols):
        raise BundleError(
            f"{where}: has shape {m.rows}x{m.cols}, expected {rows}x{cols} at the boundary twist"
        )


def _int_rows(value, where) -> list[list[int]]:
    """``value`` itself once it is a list of lists of JSON integers."""
    if type(value) is not list or not {*map(type, value)} <= _LIST:
        raise _error(where, "expected a list of integer rows")
    for i, row in enumerate(value):
        if not {*map(type, row)} <= _INT:
            j = next(j for j, x in enumerate(row) if type(x) is not int)
            raise _error(((where, i), j), "expected an integer")
    return value


def _stratum(value, where) -> tuple[int, ...]:
    if type(value) is not list or not {*map(type, value)} <= _INT:
        raise _error(where, "expected a list of integers")
    return tuple(value)


def _coefficients(value, where) -> list:
    """The ascending coefficient list ``value`` as ``_rational`` reads each."""
    out = []
    for i, x in enumerate(value):
        try:
            out.append(_rational(x))
        except _NotANumber as exc:
            raise _error((where, i), exc) from exc.__cause__
    return out


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
    q^alpha * t^beta * z.  The conductor stays that pair of exponents and
    never enters a rational function: at s = a, where t = q^-a, t^beta
    moves no order and scales the leading value by q^(-a beta), and it
    shifts the functional equation's exponents.  alpha is an int, or a
    Fraction when the file gives a non-integer text for it.
    """

    __slots__ = _fields = ("z", "weight_w", "conductor")

    def __init__(self, z: RatFunc, weight_w: int, conductor: tuple | None = None):
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


def _table(entries: list, spec: _Spec, list_at, strict: bool, value) -> dict:
    """The keyed table of a fibre held by the JSON list ``entries``, read
    by ``spec``: each entry's last field is its value and the others its
    key, which ends in (codim, j) and may start with a stratum.  No key
    repeats and no codim, j or dim is negative; ``value(key, v, at)``
    checks the value ``v`` of the entry at ``at`` and returns it."""
    table = {}
    stratum = spec.required[0][0] == "stratum"
    for i, entry in enumerate(entries):
        at = (list_at, i)
        *key, v = _record(entry, spec, at, strict)
        if stratum:
            key[0] = _stratum(key[0], (at, ".stratum"))
        if key[-2] < 0 or key[-1] < 0:
            raise _error((at, ".codim" if key[-2] < 0 else ".j"), "negative")
        key = tuple(key)
        if key in table:
            raise _error(at, f"duplicate entry for {key}")
        if type(v) is int and v < 0:
            raise _error((at, ".dim"), "negative")
        try:
            table[key] = value(key, v, at)
        except DescriptorError as exc:
            raise _error(at, exc) from exc
    return table


def _parse_fibre(obj, where: str, strict: bool, built: dict) -> Fibre:
    (
        components, dim_y, q_v, strata_list, chow_list, push_list, pull_list, ii_list, higher_list
    ) = _record(obj, _FIBRE, where, strict)
    if dim_y > MAX_DIMENSION:
        raise _error((where, ".dim_y"), f"exceeds {MAX_DIMENSION}")
    at = (where, ".strata")
    strata = [_stratum(s, (at, i)) for i, s in enumerate(strata_list)]
    total = 0

    def chow_dim(key, dim, at):
        nonlocal total
        total += dim
        if total > MAX_DIMENSION:
            raise _error((at, ".dim"), f"the chow dims of the fibre sum past {MAX_DIMENSION}")
        return dim

    def higher_dim(key, dim, at):
        if dim > MAX_DIMENSION:
            raise _error((at, ".dim"), f"exceeds {MAX_DIMENSION}")
        return dim

    def matrix(shape):
        # a matrix value is held to the shape the Chow table asks of its key
        return lambda key, obj, at: _mat_from_json(obj, (at, ".matrix"), strict, built, shape(key))

    chow = _table(chow_list, _CHOW, (where, ".chow"), strict, chow_dim)
    pushforward = _table(push_list, _BLOCK, (where, ".pushforward"), strict,
                         matrix(lambda key: block_shape(chow, "pushforward", key)))
    pullback = _table(pull_list, _BLOCK, (where, ".pullback"), strict,
                      matrix(lambda key: block_shape(chow, "pullback", key)))
    level_one = level_one_dims(chow)
    ii_matrices = _table(ii_list or [], _II, (where, ".ii_matrices"), strict,
                         matrix(lambda key: ii_shape(level_one, *key)))
    higher_chow = _table(higher_list or [], _HIGHER_CHOW, (where, ".higher_chow"), strict,
                         higher_dim)
    try:
        fibre = Fibre(
            components, dim_y, q_v, tuple(strata), chow, pushforward={}, pullback={},
            ii_matrices=ii_matrices, higher_chow=higher_chow,
        )
    except DescriptorError as exc:
        raise _error(where, exc) from exc
    # each block was held to the shape chow asks of it before its rows were
    # built, which is the one check Fibre would make of the blocks
    fibre.pushforward, fibre.pullback = pushforward, pullback
    return fibre


def _parse_group(obj, where: str, strict: bool) -> FPAbelianGroup:
    generators, relations = _record(obj, _GROUP, where, strict)
    if not 0 <= generators <= MAX_GENERATORS:
        raise BundleError(f"{where}.generators: must be between 0 and {MAX_GENERATORS}")
    rows = _int_rows(relations, f"{where}.relations")
    if not rows:
        rows = [[] for _ in range(generators)]
    try:
        return FPAbelianGroup.make(generators, rows)
    except ValueError as exc:  # a row count other than generators, or ragged rows
        raise BundleError(f"{where}.relations: {exc}") from None


def loads(text: str, strict: bool = True) -> Bundle:
    # the parsed tree holds no cycles, so the cyclic collector has nothing
    # to find in the containers a load allocates
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _read(text, strict)
    finally:
        if collecting:
            gc.enable()


class _Defaults:
    """The settings ``json.loads`` decodes with, as its scanner reads them."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {
        "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
    }.__getitem__


_scan = make_scanner(_Defaults)

# The whitespace JSON allows around a value.
_SPACE = " \t\n\r"


def _json_value(text: str):
    """``json.loads(text)`` for a str: the scanner ``json.loads`` runs, on
    the text between leading and trailing whitespace.  Whatever that
    scanner does not accept as one whole value (nothing, trailing data, a
    BOM, a literal too long for int()) goes to ``json.loads`` itself,
    imported only then, which raises the error it raises."""
    if type(text) is str and text[:1] != "\ufeff":
        start = len(text) - len(text.lstrip(_SPACE))
        try:
            value, end = _scan(text, start)
        except (StopIteration, ValueError):
            pass
        else:
            if not text[end:].lstrip(_SPACE):
                return value
    import json

    return json.loads(text)


def _read(text: str, strict: bool) -> Bundle:
    try:
        data = _json_value(text)
    except ValueError as exc:
        from json import JSONDecodeError  # loaded by the parse that failed

        if isinstance(exc, JSONDecodeError):
            raise BundleError(f"not valid JSON: {exc}") from exc
        # an integer literal longer than int() converts
        raise _long_literal_error(text) from None
    except RecursionError:
        raise BundleError(_TOO_DEEP) from None

    params_obj, fibres_obj, places_obj, motivic_obj, global_obj, integral_obj = _record(
        data, _BUNDLE, "bundle", strict
    )

    q_coh, a, field_q = _record(params_obj, _PARAMS, "params", strict)
    for key, value in (("q_coh", q_coh), ("a", a)):
        if abs(value) > MAX_TWIST:
            raise BundleError(f"params.{key}: exceeds {MAX_TWIST} in magnitude")
    if field_q > MAX_PRIME_POWER:
        raise BundleError("params.field_q: exceeds the largest field size 2^64")
    if not is_prime_power(field_q):
        raise BundleError(f"params.field_q: {field_q} is not a prime power")
    params = Params(q_coh=q_coh, a=a, field_q=field_q)

    built = {}
    fibres = {}
    for name in sorted(fibres_obj):
        fibres[name] = _parse_fibre(fibres_obj[name], f"fibres.{name}", strict, built)
    if not fibres:
        raise BundleError("fibres: at least one marked place is required")

    places = {}
    if places_obj is not None:
        for name in sorted(places_obj):
            where = f"places.{name}"
            deg_v, frob = _record(places_obj[name], _PLACE, where, strict)
            if deg_v < 1:
                raise BundleError(f"{where}.deg_v: must be positive")
            n = len(frob)
            at = (where, ".frob")
            items = []
            for i, row in enumerate(frob):
                if type(row) is not list or len(row) != n:
                    raise _error(at, "expected a square matrix")
                items.append(_scalar_row(row, (at, i)))
            places[name] = Place(deg_v=deg_v, frob=_from_scalars(n, n, items))
        if set(places) != set(fibres):
            raise BundleError(
                "places: must list exactly the marked places "
                f"(fibres: {sorted(fibres)}, places: {sorted(places)})"
            )
        for name, place in places.items():
            if _log(fibres[name].q_v, 1, params.field_q) != place.deg_v:
                raise BundleError(
                    f"fibres.{name}.q_v: {fibres[name].q_v} != field_q^deg_v = "
                    f"{params.field_q}^{place.deg_v} (places.{name}.deg_v)"
                )

    motivic = {}
    if motivic_obj is not None:
        for name in sorted(motivic_obj):
            if name not in fibres:
                raise BundleError(f"motivic.{name}: no such marked place")
            where = f"motivic.{name}"
            regulator_obj, cycle_obj = _record(motivic_obj[name], _MOTIVIC, where, strict)
            # at the boundary twist the regulator and cycle-class columns are
            # vectors of CH^a(Y^(1)), and tau acts on that space
            ambient = None
            if params.q_coh - 2 * params.a == 1:
                ambient = build_level(fibres[name], 1, params.a).total
            regulator = None
            if regulator_obj is not None:
                at = f"{where}.regulator"
                rank, matrix = _record(regulator_obj, _REGULATOR, at, strict)
                matrix = _mat_from_json(matrix, f"{at}.matrix", strict, built)
                if matrix.cols != rank:
                    raise BundleError(
                        f"{at}: matrix has {matrix.cols} columns, declared rank {rank}"
                    )
                _boundary_shape(matrix, ambient, matrix.cols, f"{at}.matrix")
                regulator = RegulatorDatum(motivic_rank=rank, matrix=matrix)
            cycle_class = None
            if cycle_obj is not None:
                at = f"{where}.cycle_class"
                b_rank, xi, tau = _record(cycle_obj, _CYCLE_CLASS, at, strict)
                xi = _mat_from_json(xi, f"{at}.xi", strict, built)
                if xi.cols != b_rank:
                    raise BundleError(f"{at}: xi has {xi.cols} columns, declared rank {b_rank}")
                _boundary_shape(xi, ambient, xi.cols, f"{at}.xi")
                if tau is not None:
                    tau = _mat_from_json(tau, f"{at}.tau", strict, built)
                    _boundary_shape(tau, ambient, ambient, f"{at}.tau")
                cycle_class = CycleDatum(b_rank=b_rank, xi=xi, tau=tau)
            motivic[name] = MotivicDatum(regulator=regulator, cycle_class=cycle_class)

    global_l = None
    if global_obj is not None:
        z_num, z_den, weight_w, pair = _record(global_obj, _GLOBAL, "global", strict)
        for key, value in (("z_num", z_num), ("z_den", z_den)):
            if len(value) > MAX_COEFFICIENTS:
                raise BundleError(
                    f"global.{key}: {len(value)} coefficients, past MAX_COEFFICIENTS = "
                    f"{MAX_COEFFICIENTS}"
                )
        num = _coefficients(z_num, "global.z_num")
        den = _coefficients(z_den, "global.z_den")
        try:
            z = RatFunc.make(num, den)
        except (ValueError, ZeroDivisionError) as exc:
            raise BundleError(f"global: bad rational function: {exc}") from exc
        if abs(weight_w) > MAX_TWIST:
            raise BundleError(f"global.weight_w: exceeds {MAX_TWIST} in magnitude")
        conductor = None
        if pair is not None:
            if len(pair) != 2:
                raise BundleError("global.conductor: expected [alpha, beta]")
            alpha = _number(pair[0], "global.conductor[0]")
            if abs(alpha) > MAX_TWIST:
                raise BundleError(f"global.conductor[0]: exceeds {MAX_TWIST} in magnitude")
            if type(pair[1]) is not int:
                raise BundleError("global.conductor[1]: expected an integer")
            if abs(pair[1]) > MAX_TWIST:
                raise BundleError(f"global.conductor[1]: exceeds {MAX_TWIST} in magnitude")
            conductor = (alpha, pair[1])
        global_l = GlobalL(z=z, weight_w=weight_w, conductor=conductor)

    integral = None
    if integral_obj is not None:
        source, target, matrix = _record(integral_obj, _INTEGRAL, "integral", strict)
        source = _parse_group(source, "integral.source", strict)
        target = _parse_group(target, "integral.target", strict)
        matrix = _int_rows(matrix, "integral.matrix")
        if not matrix:
            matrix = [[] for _ in range(target.generators)]
        try:
            integral = AbGroupMap.make(source, target, matrix)
        except ValueError as exc:
            raise BundleError(f"integral: {exc}") from exc

    return Bundle(params, fibres, places, motivic, global_l, integral)


def load(path, strict: bool = True) -> Bundle:
    with open(path, "rb") as fh:
        # read one byte past the file's stated size, or past the limit if
        # it states none (a pipe, /dev/zero): a buffer of the limit's size
        # costs every small load a large allocation
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(min(size or MAX_BUNDLE_BYTES, MAX_BUNDLE_BYTES) + 1)
    if len(data) > MAX_BUNDLE_BYTES:
        raise BundleError(f"{path}: larger than {MAX_BUNDLE_BYTES} bytes (MAX_BUNDLE_BYTES)")
    text = data.decode("utf-8")
    if "\r" in text:  # the newlines a text-mode read translates, as JSON errors count lines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return loads(text, strict=strict)


# ---------------------------------------------------------------------------
# Serialization (canonical: sorted keys, stable entry order).

def _write(node, newline: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(node, indent=2,
    sort_keys=True)`` gives, for a tree of dicts, lists, strs and ints,
    where ``newline`` is a newline and the indent of the line ``node``
    starts on.  A list of only strs or only ints is joined in one step,
    with no Python-level call per entry; each distinct str in it is
    quoted once."""
    kind = type(node)
    if kind is str:
        out.append(_quote(node))
    elif kind is int:
        out.append(int.__repr__(node))
    elif kind is dict or kind is list:
        if not node:
            out.append("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if kind is dict:
            lead = "{" + inner
            for key in sorted(node):
                out += (lead, _quote(key), ": ")
                _write(node[key], inner, out)
                lead = sep
            out += (newline, "}")
            return
        types = set(map(type, node))
        if types == {str}:
            quoted = {x: _quote(x) for x in set(node)}
            out += ("[", inner, sep.join(map(quoted.__getitem__, node)), newline, "]")
        elif types == {int}:
            out += ("[", inner, sep.join(map(int.__repr__, node)), newline, "]")
        else:
            lead = "[" + inner
            for item in node:
                out.append(lead)
                _write(item, inner, out)
                lead = sep
            out += (newline, "]")
    else:
        raise TypeError(f"cannot write {kind.__name__} to a bundle")


def _table_json(table: dict, spec: _Spec) -> list:
    """The JSON list ``_table`` reads ``table`` back from, in sorted key
    order: a stratum as a list, a matrix value by ``_mat_to_json``."""
    names = [name for name, _ in spec.required]
    matrix = spec.types[-1] is dict
    out = [
        dict(zip(names, (*key, _mat_to_json(v) if matrix else v)))
        for key, v in sorted(table.items())
    ]
    if names[0] == "stratum":
        for entry in out:
            entry["stratum"] = list(entry["stratum"])
    return out


def _fibre_to_json(f: Fibre) -> dict:
    out = {
        "components": f.components,
        "dim_y": f.dim_y,
        "q_v": f.q_v,
        "strata": [list(s) for s in sorted(f.strata, key=lambda s: (len(s), s))],
        "chow": _table_json(f.chow, _CHOW),
        "pushforward": _table_json(f.pushforward, _BLOCK),
        "pullback": _table_json(f.pullback, _BLOCK),
    }
    if f.ii_matrices:
        out["ii_matrices"] = _table_json(f.ii_matrices, _II)
    if f.higher_chow:
        out["higher_chow"] = _table_json(f.higher_chow, _HIGHER_CHOW)
    return out


def _square_rows(flat: list[str], n: int) -> list[list[str]]:
    return [flat[i : i + n] for i in range(0, n * n, n or 1)]


def _group_to_json(g: FPAbelianGroup) -> dict:
    return {
        "generators": g.generators,
        "relations": _dense_rows(g.relations),
    }


def _bundle_to_json(b: Bundle) -> dict:
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
                "frob": _square_rows(_entry_strings(p.frob), p.frob.cols),
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
        z_num, z_den = b.global_l.z._texts()
        g: dict = {"z_num": z_num, "z_den": z_den, "weight_w": b.global_l.weight_w}
        if b.global_l.conductor is not None:
            alpha, beta = b.global_l.conductor
            g["conductor"] = [str(alpha), beta]
        data["global"] = g
    if b.integral is not None:
        data["integral"] = {
            "source": _group_to_json(b.integral.source),
            "target": _group_to_json(b.integral.target),
            "matrix": _dense_rows(b.integral.matrix),
        }
    return data


def _pieces(data) -> list[str]:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"`` in pieces, by
    ``_write``."""
    out: list[str] = []
    _write(data, "\n", out)
    out.append("\n")
    return out


def dumps(b: Bundle) -> str:
    return "".join(_pieces(_bundle_to_json(b)))


def save(b: Bundle, path) -> None:
    """Write ``dumps(b)`` to ``path`` piece by piece, with no copy of the
    whole text; the file is opened only once every piece is rendered, so
    a bundle that fails to render leaves no file."""
    pieces = _pieces(_bundle_to_json(b))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
