"""Outside-in layer tracing for hooplog.

`install` rebinds each traced public function in every `hooplog.*` module
that holds it (the package's modules import each other with
`from .x import f`, so patching the defining module alone would miss most
callers).  A wrapper records one span per outermost call: recursive inner
calls run the original function untimed.  Generators are timed across each
`next()`.  Spans are kept in memory as four parallel arrays
(name, parent, start, end) and written out by `write_spans`; `uninstall`
puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (layer, module, attribute path, span name, is a generator)
TARGETS = (
    ("syntax", "hooplog.syntax", "parse_formula", "parse", False),
    ("syntax", "hooplog.syntax", "expand_derived", "expand_derived", False),
    ("syntax", "hooplog.syntax", "substitute", "substitute", False),
    ("sequent", "hooplog.sequent", "bounded_prove", "bounded_prove", False),
    ("sequent", "hooplog.sequent", "check_proof", "check_proof", False),
    ("hilbert", "hooplog.hilbert", "sequent_to_hilbert", "sequent_to_hilbert", False),
    ("hilbert", "hooplog.hilbert", "check_derivation", "check_derivation", False),
    ("hilbert", "hooplog.hilbert", "hilbert_to_sequent", "hilbert_to_sequent", False),
    ("eqengine", "hooplog.eqengine", "ac_normalize", "ac_normalize", False),
    ("eqengine", "hooplog.eqengine", "ac_match", "ac_match", True),
    ("eqengine", "hooplog.eqengine", "apply_rewrite", "apply_rewrite", False),
    ("eqengine", "hooplog.eqengine", "check_script", "check_script", False),
    ("eqengine", "hooplog.eqengine", "LemmaRegistry.register", "register", False),
    ("eqengine", "hooplog.eqengine", "parse_script", "parse_script", False),
    ("translate", "hooplog.translate", "check_dns", "check_dns", False),
    ("translate", "hooplog.translate", "reduce_with_kit", "reduce_with_kit", False),
    ("translate", "hooplog.translate", "equivalence_script", "equivalence_script", False),
    ("translate", "hooplog.translate", "provability_script", "provability_script", False),
    ("algebra", "hooplog.algebra", "enumerate_algebras", "enumerate", True),
    ("algebra", "hooplog.algebra", "canonical_key", "canonical_key", False),
    ("algebra", "hooplog.algebra", "check_class", "check_class", False),
    ("algebra", "hooplog.algebra", "eval_formula", "eval_formula", False),
    ("algebra", "hooplog.algebra", "falsifying_assignment", "falsifying_assignment", False),
    ("algebra", "hooplog.algebra", "find_countermodel", "find_countermodel", False),
    ("corpus", "hooplog.corpus", "register_kit", "register_kit", False),
)

def _on_result(tracer: "Tracer", span: str, args, result) -> None:
    """Counters read off a call's arguments and result."""
    c = tracer.counters
    if span == "bounded_prove":
        c["bounded_prove.found"] += result is not None
    elif span == "find_countermodel":
        c["find_countermodel.found"] += result is not None
    elif span == "check_script":
        c["check_script.steps"] += len(args[0].steps)
    elif span == "sequent_to_hilbert":
        c["derivation_lines"] += len(result[0])
    elif span == "check_dns":
        for entry in result.entries:
            c[f"dns_{entry.status}"] += 1


def _on_yield(tracer: "Tracer", span: str, item, seconds: float) -> None:
    c = tracer.counters
    if span == "ac_match":
        c["ac_match.yields"] += 1
    elif span == "enumerate":
        c["algebras_yielded"] += 1
        tracer.block_s[item.size] += seconds


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.block_s: defaultdict[int, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # span recording

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> float:
        t = perf_counter()
        self.span_end[i] = t
        self.stack.pop()
        return t - self.span_start[i]

    # wrappers

    def _wrap_function(self, span: str, fn):
        nid = self.name_id(span)
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            self.counters[f"{span}.calls"] += 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                active[0] = False
            _on_result(self, span, args, result)
            return result

        traced._perfbench_span = span
        return traced

    def _wrap_generator(self, span: str, fn):
        nid = self.name_id(span)
        active = [False]

        def steps(gen):
            try:
                while True:
                    active[0] = True
                    i = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        seconds = self._close(i)
                        active[0] = False
                    _on_yield(self, span, item, seconds)
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            self.counters[f"{span}.calls"] += 1
            return steps(fn(*args, **kwargs))

        traced._perfbench_span = span
        return traced

    # patching

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # A module imported while the wrappers are in place would copy a
        # wrapper by `from .x import f`; import them all first.
        import_all()
        modules = hooplog_modules()
        for _, modname, path, span, is_gen in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrap = self._wrap_generator if is_gen else self._wrap_function
            traced = wrap(span, original)
            holders = [owner] if outer else [
                m for m in modules if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, name, original))
                        setattr(holder, name, traced)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # results

    def span_count(self) -> int:
        return len(self.span_start)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        n = len(self.span_start)
        covered = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out: defaultdict[str, float] = defaultdict(float)
        names = self.names
        for i, nid in enumerate(self.span_name):
            out[names[nid]] += end[i] - start[i] - covered[i]
        return dict(out)

    def merge(self, other: "Tracer") -> None:
        """Append another tracer's spans and counters (a child's trace)."""
        base = len(self.span_start)
        remap = [self.name_id(name) for name in other.names]
        self.span_name.extend(remap[nid] for nid in other.span_name)
        self.span_parent.extend(p + base if p >= 0 else -1 for p in other.span_parent)
        self.span_start.extend(other.span_start)
        self.span_end.extend(other.span_end)
        for key, value in other.counters.items():
            self.counters[key] += value
        for size, seconds in other.block_s.items():
            self.block_s[size] += seconds

    def write_spans(self, path) -> None:
        """A JSON header line, then the four span arrays in native layout."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:H", "parent:l", "start:d", "end:d"],
            "counters": dict(self.counters),
            "block_s": {str(k): v for k, v in self.block_s.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    @classmethod
    def read_spans(cls, path) -> "Tracer":
        t = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            for name in header["names"]:
                t.name_id(name)
            for arr in (t.span_name, t.span_parent, t.span_start, t.span_end):
                arr.fromfile(fh, n)
        t.counters.update(header["counters"])
        t.block_s.update({int(k): v for k, v in header["block_s"].items()})
        return t


def import_all() -> None:
    import hooplog

    for info in pkgutil.walk_packages(hooplog.__path__, "hooplog."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def hooplog_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "hooplog" or name.startswith("hooplog."))
    ]


def patched_names() -> list[str]:
    """Every `module.name` of hooplog, and `Class.name` of a class it
    defines, that holds a wrapper."""
    out = []
    for m in hooplog_modules():
        holders = [m] + [
            v for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__
        ]
        for holder in holders:
            label = getattr(holder, "__qualname__", holder.__name__)
            for name, value in vars(holder).items():
                if callable(value) and hasattr(value, "_perfbench_span"):
                    out.append(f"{label}.{name}")
    return out
