"""Run one `degen` command with its layers timed from the outside.

    python3 perfbench/tracejob.py SPANS_JSON <degen arguments...>

Every public function of every `degen` module, and every public method of
the classes those modules export (plus the arithmetic operators of `Mat`
and `RatFunc`), is replaced by a wrapper that records a span: name, start,
end and parent span.  The wrapper is installed in the defining module and
in every `degen` module that imported the function by name, so calls made
through either binding are seen.  Then `degen.cli.main` runs as usual;
stdout, stderr and the exit code are those of `python -m degen`.

Spans and exact counts stay in memory and are written to SPANS_JSON when
the command ends.  Counts are gathered at the same boundaries, in child
spans named `trace.*` so that their cost is not charged to any layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MODULES = ("cli", "workbench", "bundle", "strata", "monodromy", "deligne", "lfun", "qlinalg")
OPERATORS = ("__mul__", "__add__", "__sub__", "__neg__", "__truediv__")
STRATA_MAPS = ("strata.gamma", "strata.rho", "strata.compose_ii", "strata.ii_map")


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


class Recorder:
    """Spans as [name, start, end, parent index] plus sums and maxima."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.measures = {
            "bundle.load": self._load,
            "bundle.save": self._save,
            "qlinalg.Mat.__mul__": self._mul,
            "qlinalg.rank": self._rank,
            "qlinalg.rref": self._rref,
            "qlinalg.smith_normal_form": self._smith,
            "lfun.RatFunc.make": self._ratfunc,
        }
        for name in STRATA_MAPS:
            self.measures[name] = self._strata_out

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def wrap(self, name: str, fn):
        measure = self.measures.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, perf_counter(), 0.0, parent]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if measure is not None:
                m = [f"trace.{name}", perf_counter(), 0.0, parent]
                spans.append(m)
                measure(args, result, parent)
                m[2] = perf_counter()
            return result

        return traced

    # -- counts taken at the boundaries -------------------------------------

    def _load(self, args, bundle, parent):
        self.add("bundle.load.bytes", os.path.getsize(args[0]))
        mats = []
        for f in bundle.fibres.values():
            mats += list(f.pushforward.values()) + list(f.pullback.values())
            mats += list(f.ii_matrices.values())
        mats += [p.frob for p in bundle.places.values()]
        for m in bundle.motivic.values():
            if m.regulator is not None:
                mats.append(m.regulator.matrix)
            if m.cycle_class is not None:
                mats += [x for x in (m.cycle_class.xi, m.cycle_class.tau) if x is not None]
        cells = sum(m.rows * m.cols for m in mats)
        if bundle.integral is not None:
            cells += sum(len(r) for r in bundle.integral.matrix)
        self.add("bundle.load.entries", cells)

    def _save(self, args, _result, parent):
        self.add("bundle.save.bytes", os.path.getsize(args[1]))

    def _strata_out(self, _args, m, parent):
        # only what the layer hands out, not its calls to itself
        if parent >= 0 and self.spans[parent][0].startswith("strata."):
            return
        self.add("strata.out.nnz", _nnz(m))
        self.add("strata.out.cells", m.rows * m.cols)

    def _mul(self, args, _result, parent):
        a, b = args
        self.add("qlinalg.mul.cells", a.rows * a.cols * b.cols)
        col_nnz = [0] * a.cols
        for row in a.entries:
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        self.add(
            "qlinalg.mul.useful",
            sum(c * sum(1 for x in row if x) for c, row in zip(col_nnz, b.entries)),
        )

    def _rank(self, args, _result, parent):
        self.peak("qlinalg.elim.max_bits", max((_bits(x) for r in args[0].entries for x in r), default=0))

    def _rref(self, _args, result, parent):
        self.peak("qlinalg.elim.max_bits", max((_bits(x) for r in result[0].entries for x in r), default=0))

    def _smith(self, args, sf, parent):
        rows = list(args[0])
        self.add("qlinalg.smith.cells", len(rows) * (len(rows[0]) if rows else 0))
        bits = [abs(x).bit_length() for part in (sf.u, sf.d, sf.v) for r in part for x in r]
        self.peak("qlinalg.smith.max_bits", max(bits, default=0))

    def _ratfunc(self, _args, f, parent):
        self.peak("lfun.max_degree", max(len(f.num), len(f.den)) - 1)
        self.peak("lfun.max_coeff_bits", max(_bits(c) for c in f.num + f.den))


def instrument(rec: Recorder) -> None:
    modules = {name: importlib.import_module(f"degen.{name}") for name in MODULES}
    for short, mod in modules.items():
        public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = rec.wrap(f"{short}.{attr}", obj)
                for other in modules.values():  # every binding of the name
                    if getattr(other, attr, None) is obj:
                        setattr(other, attr, wrapped)
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_") and name not in OPERATORS:
                        continue
                    label = f"{short}.{attr}.{name}"
                    if isinstance(member, staticmethod):
                        setattr(obj, name, staticmethod(rec.wrap(label, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, name, rec.wrap(label, member))


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    rec = Recorder()
    instrument(rec)
    from degen import cli

    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts, "maxima": rec.maxima}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
