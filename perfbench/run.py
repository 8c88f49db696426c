"""The hooplog benchmark: three closed-loop workloads, one client, one op at a
time, run against the hooplog source of the checkout this file sits in.

    python3 perfbench/run.py --workload corpus|enum|search \
        --seed N --seconds S --trace 0|1

Workloads (why each one is here is in README.md):

  corpus  one op is a fresh `Corpus().run()` of all 92 entries in one
          long-lived process; set-up is the import plus one cold run.
  enum    one op is a fresh interpreter that enumerates every pocrim up to
          size 6, then the class of each of the nine theories.
  search  one op is one seeded random sequent: bounded search at depth 10,
          then the kernel check and the Hilbert round trip of a proof, or a
          countermodel search up to size 5.

Every op's output is checked; an op whose check fails counts in `failed`.
Every timed op and set-up is bracketed by the probe of `pace.py`, and its
wall time is reported scaled to the probe's reference pace (the host's own
pace changes by up to a factor of two between phases); the unscaled wall
times and the probe times are printed as well.
With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run plus the tracing overhead
(traced minus untraced, measured in the same run).  Human-readable lines,
with the sample counts, come before it.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from pace import Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SEARCH_DEPTH = 10
SEARCH_MODEL_SIZE = 5
SEARCH_VALIDITY_SIZE = 4
SEARCH_POOL = 2000
SEARCH_TRACED = 1000  # the traced pass covers this prefix of the pool
SEARCH_BLOCK_S = 1.0  # timed work between two probes of the pace
MIN_OPS = 3
CHILD_TIMEOUT_S = 150


def use_checkout_source():
    """Import hooplog from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "hooplog" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hooplog source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hooplog

    if not Path(hooplog.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported hooplog from {hooplog.__file__}, not {SRC}")
    return hooplog


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child(args: list[str]) -> dict:
    """Run this script in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """What one benchmark run measured.  Times are scaled to the reference
    pace; `wall_*` keep the unscaled wall times of the same set-ups and ops."""

    def __init__(self):
        self.pace = Pace()
        self.setup_s: list[float] = []  # untraced set-ups
        self.wall_setup_s: list[float] = []
        self.traced_setup_s: float | None = None
        self.op_s: list[float] = []  # untraced ops
        self.wall_op_s: list[float] = []
        self.traced_op_s: list[float] = []
        self.rss_mb = 0.0
        self.traced_rss_mb = 0.0
        self.decided_share = 0.0
        self.traced_decided_share = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_tracer = None
        self.setup_tracer = None
        self.traced_ops = 0
        self.extra_layer: dict[str, float] = {}
        self.notes: list[str] = []

    def setup_done(self, wall_s: float, traced: bool = False) -> None:
        """Record a set-up timed just now; the probe after it closes it."""
        scaled = wall_s * self.pace.next_scale()
        if traced:
            self.traced_setup_s = scaled
        else:
            self.setup_s.append(scaled)
            self.wall_setup_s.append(wall_s)

    def op_done(self, wall_s: float, traced: bool = False) -> None:
        """Record an op timed just now; the probe after it closes it."""
        scaled = wall_s * self.pace.next_scale()
        if traced:
            self.traced_op_s.append(scaled)
        else:
            self.op_s.append(scaled)
            self.wall_op_s.append(wall_s)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def _schedule(seconds: float, minimum: int, trace: bool):
    """Op indices of a closed loop: another op starts only while it is
    expected (at the mean pace so far) to end within `seconds`.  A traced
    run alternates untraced and traced ops and ends after a traced one."""
    started = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - started
        if i >= minimum and not (trace and i % 2) and elapsed * (i + 1) / i > seconds:
            return
        yield i
        i += 1


# ---------------------------------------------------------------- corpus


def _corpus_setup(tracer=None):
    t0 = perf_counter()
    use_checkout_source()
    from hooplog.corpus import Corpus

    with tracer or nullcontext():
        report = Corpus().run()
    return perf_counter() - t0, report


def run_corpus(seconds: float, trace: bool) -> Run:
    from layertrace import Tracer
    import refcheck

    reference = refcheck.corpus_reference()
    r = Run()
    r.setup_tracer = Tracer() if trace else None
    main_setup, report = _corpus_setup(r.setup_tracer)
    r.setup_done(main_setup, traced=trace)
    r.check(refcheck.corpus_report_ok(report.render(), reference), "cold corpus report")
    for _ in range(2):
        c = _child(["--child", "setup", "--workload", "corpus"])
        r.setup_done(c["setup_s"])
        r.check(c["ok"], "cold corpus report in a child")

    from hooplog.corpus import Corpus

    r.op_tracer = Tracer() if trace else None
    kind_s: dict[str, float] = {}
    entries_ok = 0
    for i in _schedule(seconds, 2 * MIN_OPS if trace else MIN_OPS, trace):
        traced = trace and i % 2 == 1
        gc.collect()  # no op pays for the previous op's garbage
        with r.op_tracer if traced else nullcontext():
            t0 = perf_counter()
            report = Corpus().run()
            last = perf_counter() - t0
        r.op_done(last, traced)
        r.check(refcheck.corpus_report_ok(report.render(), reference), f"corpus op {i}")
        ok = sum(res.ok for res in report.results)
        if traced:
            r.traced_ops += 1
            entries_ok += ok
            for res in report.results:
                kind = res.entry.evidence[0].replace("+", "_")
                kind_s[kind] = kind_s.get(kind, 0.0) + res.seconds
            r.traced_decided_share = ok / len(report.results)
            r.traced_rss_mb = _rss_mb()
        else:
            r.decided_share = ok / len(report.results)
            r.rss_mb = _rss_mb()
    if trace:
        r.extra_layer["corpus.entries_ok"] = entries_ok / r.traced_ops
        for kind in CORPUS_KINDS:
            r.extra_layer[f"corpus.kind_s.{kind}"] = kind_s.get(kind, 0.0) / r.traced_ops
    r.notes.append(f"corpus_s {statistics.median(r.op_s)} s (n={len(r.op_s)}, scaled)")
    return r


CORPUS_KINDS = (
    "auto", "script", "scripts", "script_auto", "proof", "model", "checked",
    "builtin", "group",
)

# ------------------------------------------------------------------ enum


def _enum_child(trace: bool, spans: str | None) -> dict:
    t0 = perf_counter()
    use_checkout_source()
    import refcheck

    from layertrace import Tracer

    tracer = Tracer() if trace else None
    with tracer or nullcontext():
        runs = refcheck.enum_runs()
    op_s = perf_counter() - t0
    if tracer is not None:
        tracer.write_spans(spans)
    return {
        "op_s": op_s,
        "rss_mb": _rss_mb(),
        "signature": refcheck.enum_signature(runs),
    }


def run_enum(seconds: float, trace: bool) -> Run:
    from layertrace import Tracer
    import refcheck

    reference = refcheck.enum_reference()
    r = Run()
    for _ in range(7):
        r.setup_done(_child(["--child", "setup", "--workload", "enum"])["setup_s"])
    if trace:
        r.setup_done(
            _child(["--child", "setup", "--workload", "enum", "--trace", "1"])["setup_s"],
            traced=True,
        )
        r.op_tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    rss, traced_rss = [], []
    for i in _schedule(seconds, 2 * MIN_OPS if trace else MIN_OPS, trace):
        traced = trace and i % 2 == 1
        args = ["--child", "enum"]
        if traced:
            fd, spans = tempfile.mkstemp(prefix="enum-spans-", dir=OUT)
            os.close(fd)
            args += ["--trace", "1", "--spans", spans]
        try:
            out = _child(args)
        except (RuntimeError, subprocess.TimeoutExpired) as e:  # fails the op
            r.pace.next_scale()
            r.check(False, f"enum op {i}: {e}")
            continue
        r.op_done(out["op_s"], traced)
        r.check(out["signature"] == reference, f"enum op {i}")
        if traced:
            r.op_tracer.merge(Tracer.read_spans(spans))
            os.unlink(spans)
            traced_rss.append(out["rss_mb"])
            r.traced_ops += 1
        else:
            rss.append(out["rss_mb"])
    # Every op runs ten enumerations; a mismatch fails the op instead.
    r.decided_share = r.traced_decided_share = 1.0
    r.rss_mb = statistics.median(rss)
    if trace:
        r.traced_rss_mb = statistics.median(traced_rss)
    r.notes.append(f"enum_s {statistics.median(r.op_s)} s (n={len(r.op_s)}, scaled)")
    return r


# ---------------------------------------------------------------- search


def _search_setup(tracer=None):
    """Import, then fill the caches a long-lived prover fills once: the
    sequent proofs of every Hilbert schema and the algebras up to size 5."""
    t0 = perf_counter()
    H = use_checkout_source()
    from hooplog import hilbert

    with tracer or nullcontext():
        for t in H.ALL_THEORIES:
            for name in hilbert.system_for(t):
                hilbert.schema_proof(name, t)
        list(H.enumerate_algebras(SEARCH_MODEL_SIZE))
    return perf_counter() - t0


def search_op(H, theory, seq):
    """One verdict.  Calls go through the package's attributes so that a
    traced run sees them."""
    core = H.Sequent(
        [H.expand_derived(f) for f in seq.context], H.expand_derived(seq.goal)
    )
    proof = H.bounded_prove(core, theory, SEARCH_DEPTH)
    if proof is not None:
        kernel = H.check_proof(proof, theory)
        der, order = H.sequent_to_hilbert(proof, theory)
        hverdict = H.check_derivation(der, f"H-{theory.name}")
        back = H.hilbert_to_sequent(der, theory)
        return ("proved", core, proof, kernel, der, order, hverdict, back)
    got = H.find_countermodel(seq, theory, SEARCH_MODEL_SIZE)
    if got is not None:
        return ("refuted", got)
    return ("open",)


def search_outcome_ok(H, theory, seq, outcome) -> bool:
    """The checks of the search workload, run outside the timed span."""
    from hooplog.algebra import seq_holds, theory_class

    kind = outcome[0]
    if kind == "proved":
        _, core, proof, kernel, der, order, hverdict, back = outcome
        if not (kernel and hverdict and proof.conclusion == core):
            return False
        if der.final != H.curry_sequent(core, order):
            return False
        if not H.check_proof(back, theory) or back.conclusion.goal != der.final:
            return False
        # A proved sequent is never refuted: valid in every small algebra.
        needs_top = theory.level != "minimal"
        for alg in H.enumerate_algebras(SEARCH_VALIDITY_SIZE, theory_class(theory)):
            if needs_top and alg.top is None:
                continue
            if not H.valid(seq, alg):
                return False
        return True
    if kind == "refuted":
        alg, v = outcome[1]
        flags = H.check_class(alg).flags
        return theory_class(theory) <= flags and not seq_holds(seq, alg, v)
    return True


def _decided(verdicts) -> float:
    return sum(v in ("proved", "refuted") for v in verdicts) / len(verdicts)


def run_search(seconds: float, trace: bool, seed: int) -> Run:
    from layertrace import Tracer

def _search_pass(r: Run, H, pool, check: bool):
    """One pass over `pool`, each sequent timed on its own, the probe run
    between blocks of about SEARCH_BLOCK_S of timed work.  Returns the
    scaled times, the wall times and the verdicts, in pool order."""
    scaled, wall, kinds, block = [], [], [], []
    for k, (theory, seq) in enumerate(pool):
        t0 = perf_counter()
        try:
            outcome = search_op(H, theory, seq)
        except Exception as e:  # a crash fails the op, not the run
            outcome = ("error", repr(e))
        block.append(perf_counter() - t0)
        kinds.append(outcome[0])
        if check:
            ok = outcome[0] != "error" and search_outcome_ok(H, theory, seq, outcome)
            r.check(ok, f"search sequent {k}: {outcome[0]}")
        if sum(block) >= SEARCH_BLOCK_S or k == len(pool) - 1:
            f = r.pace.next_scale()
            scaled += [t * f for t in block]
            wall += block
            block = []
    return scaled, wall, kinds


def run_search(seconds: float, trace: bool, seed: int) -> Run:
    from layertrace import Tracer

    r = Run()
    r.setup_tracer = Tracer() if trace else None
    r.setup_done(_search_setup(r.setup_tracer), traced=trace)
    for _ in range(6):
        r.setup_done(_child(["--child", "setup", "--workload", "search"])["setup_s"])

    import hooplog as H
    import seqgen

    pool = seqgen.sequents(seed, SEARCH_POOL)
    passes: list[tuple] = []
    # a traced run makes one untraced pass, then the traced pass below
    for i in _schedule(seconds if not trace else 0, 1, False):
        passes.append(_search_pass(r, H, pool, check=i == 0))
        if i:
            r.check(passes[i][2] == passes[0][2], f"search pass {i}: verdicts changed")
    verdicts = passes[0][2]
    r.op_s = [statistics.median(ts) for ts in zip(*(p[0] for p in passes))]
    r.wall_op_s = [statistics.median(ts) for ts in zip(*(p[1] for p in passes))]
    r.decided_share = _decided(verdicts)
    r.rss_mb = _rss_mb()
    if trace:
        r.op_tracer = Tracer()
        with r.op_tracer:
            r.traced_op_s, _, traced_kinds = _search_pass(
                r, H, pool[:SEARCH_TRACED], check=False
            )
        r.check(traced_kinds == verdicts[:SEARCH_TRACED], "traced pass: verdicts changed")
        r.traced_ops = SEARCH_TRACED
        r.traced_decided_share = _decided(traced_kinds)
        # the untraced side of the overhead, on the same sequents
        r.op_s = r.op_s[:SEARCH_TRACED]
        r.wall_op_s = r.wall_op_s[:SEARCH_TRACED]
        r.decided_share = _decided(verdicts[:SEARCH_TRACED])
        r.traced_rss_mb = _rss_mb()
    q = statistics.quantiles(r.op_s, n=100)
    n = len(r.op_s)
    r.notes += [
        f"search_ms_p50 {statistics.median(r.op_s) * 1000} ms"
        f" (n={n}, passes={len(passes)}, scaled)",
        f"search_ms_p90 {q[89] * 1000} ms ({n - int(0.9 * n)} samples beyond)",
        f"search_ms_p99 {q[98] * 1000} ms ({n - int(0.99 * n)} samples beyond)",
        "search verdicts: "
        + ", ".join(f"{v} {verdicts.count(v)}" for v in ("proved", "refuted", "open")),
        f"search_decided_share {r.decided_share}",
    ]
    return r


# --------------------------------------------------------------- metrics

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_mean", "ms"),
    ("decided_share", "share"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(r: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r.setup_s),
        "op_ms_p50": statistics.median(r.op_s) * 1000,
        "op_ms_mean": statistics.fmean(r.op_s) * 1000,
        "decided_share": r.decided_share,
        "peak_rss_mb": r.rss_mb,
    }


def _calls(span):
    return lambda tr, sec: tr.counters[f"{span}.calls"]


def _self_s(span):
    return lambda tr, sec: sec.get(span, 0.0)


def _count(key):
    return lambda tr, sec: tr.counters[key]


def _ratio(num, den):
    return lambda tr, sec: tr.counters[num] / tr.counters[den] if tr.counters[den] else 0.0


def _block(size):
    return lambda tr, sec: tr.block_s[size]


# (metric, unit, better, value per traced op); ratios are not divided.
_S, _N, _R = "s", "count", "ratio"
LAYER = (
    ("syntax.parse.calls", _N, "lower", _calls("parse")),
    ("syntax.parse.s", _S, "lower", _self_s("parse")),
    ("syntax.expand_derived.calls", _N, "lower", _calls("expand_derived")),
    ("syntax.expand_derived.s", _S, "lower", _self_s("expand_derived")),
    ("syntax.substitute.calls", _N, "lower", _calls("substitute")),
    ("syntax.substitute.s", _S, "lower", _self_s("substitute")),
    ("sequent.bounded_prove.calls", _N, "lower", _calls("bounded_prove")),
    ("sequent.bounded_prove.s", _S, "lower", _self_s("bounded_prove")),
    ("sequent.bounded_prove.found", _N, "higher", _count("bounded_prove.found")),
    ("sequent.bounded_prove.found_ratio", _R, "higher",
     _ratio("bounded_prove.found", "bounded_prove.calls")),
    ("sequent.check_proof.calls", _N, "lower", _calls("check_proof")),
    ("sequent.check_proof.s", _S, "lower", _self_s("check_proof")),
    ("hilbert.sequent_to_hilbert.s", _S, "lower", _self_s("sequent_to_hilbert")),
    ("hilbert.check_derivation.s", _S, "lower", _self_s("check_derivation")),
    ("hilbert.hilbert_to_sequent.s", _S, "lower", _self_s("hilbert_to_sequent")),
    ("hilbert.derivation_lines", _N, "lower", _count("derivation_lines")),
    ("eqengine.ac_normalize.calls", _N, "lower", _calls("ac_normalize")),
    ("eqengine.ac_normalize.s", _S, "lower", _self_s("ac_normalize")),
    ("eqengine.ac_match.calls", _N, "lower", _calls("ac_match")),
    ("eqengine.ac_match.s", _S, "lower", _self_s("ac_match")),
    ("eqengine.ac_match.yields", _N, "higher", _count("ac_match.yields")),
    ("eqengine.ac_match.yield_ratio", _R, "higher",
     _ratio("ac_match.yields", "ac_match.calls")),
    ("eqengine.apply_rewrite.calls", _N, "lower", _calls("apply_rewrite")),
    ("eqengine.apply_rewrite.s", _S, "lower", _self_s("apply_rewrite")),
    ("eqengine.check_script.calls", _N, "lower", _calls("check_script")),
    ("eqengine.check_script.s", _S, "lower", _self_s("check_script")),
    ("eqengine.check_script.steps", _N, "lower", _count("check_script.steps")),
    ("eqengine.register.calls", _N, "lower", _calls("register")),
    ("eqengine.register.s", _S, "lower", _self_s("register")),
    ("eqengine.parse_script.s", _S, "lower", _self_s("parse_script")),
    ("translate.check_dns.calls", _N, "lower", _calls("check_dns")),
    ("translate.check_dns.s", _S, "lower", _self_s("check_dns")),
    ("translate.reduce_with_kit.s", _S, "lower", _self_s("reduce_with_kit")),
    ("translate.equivalence_script.s", _S, "lower", _self_s("equivalence_script")),
    ("translate.provability_script.s", _S, "lower", _self_s("provability_script")),
    ("translate.dns_pass", _N, "higher", _count("dns_pass")),
    ("translate.dns_inconclusive", _N, "lower", _count("dns_inconclusive")),
    ("translate.dns_fail", _N, "lower", _count("dns_fail")),
    ("algebra.enumerate.s", _S, "lower", _self_s("enumerate")),
    ("algebra.enum_block_s.n4", _S, "lower", _block(4)),
    ("algebra.enum_block_s.n5", _S, "lower", _block(5)),
    ("algebra.enum_block_s.n6", _S, "lower", _block(6)),
    ("algebra.algebras_yielded", _N, "higher", _count("algebras_yielded")),
    ("algebra.canonical_key.calls", _N, "lower", _calls("canonical_key")),
    ("algebra.canonical_key.s", _S, "lower", _self_s("canonical_key")),
    ("algebra.check_class.calls", _N, "lower", _calls("check_class")),
    ("algebra.check_class.s", _S, "lower", _self_s("check_class")),
    ("algebra.eval_formula.calls", _N, "lower", _calls("eval_formula")),
    ("algebra.eval_formula.s", _S, "lower", _self_s("eval_formula")),
    ("algebra.falsifying_assignment.calls", _N, "lower", _calls("falsifying_assignment")),
    ("algebra.falsifying_assignment.s", _S, "lower", _self_s("falsifying_assignment")),
    ("algebra.find_countermodel.calls", _N, "lower", _calls("find_countermodel")),
    ("algebra.find_countermodel.s", _S, "lower", _self_s("find_countermodel")),
    ("algebra.find_countermodel.found", _N, "higher", _count("find_countermodel.found")),
    ("corpus.register_kit.s", _S, "lower", _self_s("register_kit")),
)
# Filled by the corpus workload from its reports; 0 elsewhere.
CORPUS_LAYER = (("corpus.entries_ok", _N, "higher"),) + tuple(
    (f"corpus.kind_s.{k}", _S, "lower") for k in CORPUS_KINDS
)
# Self time of the traced set-up, where the enumeration cache is filled.
SETUP_LAYER = (
    ("setup.algebra.enumerate.s", "enumerate"),
    ("setup.algebra.canonical_key.s", "canonical_key"),
    ("setup.algebra.check_class.s", "check_class"),
    ("setup.sequent.bounded_prove.s", "bounded_prove"),
)
OVERHEAD = tuple(
    (f"trace_overhead.{name}", unit, "lower") for name, unit in END_TO_END
)
# The untraced set-ups and ops unscaled, and the host's pace that scaled them.
HOST = (
    ("wall.setup_s", "s", "lower"),
    ("wall.op_ms_p50", "ms", "lower"),
    ("wall.op_ms_mean", "ms", "lower"),
    ("host.probe_ms_p50", "ms", "lower"),
)


def per_layer_spec():
    """(name, unit, better) of every metric a `--trace 1` run prints."""
    return (
        [(n, u, b) for n, u, b, _ in LAYER]
        + list(CORPUS_LAYER)
        + [(n, _S, "lower") for n, _ in SETUP_LAYER]
        + list(OVERHEAD)
        + list(HOST)
    )


def per_layer(r: Run) -> dict[str, float]:
    tr = r.op_tracer
    sec = tr.self_seconds()
    out = {}
    for name, unit, _, fn in LAYER:
        value = fn(tr, sec)
        out[name] = value if unit == _R else value / r.traced_ops
    for name, _, _ in CORPUS_LAYER:
        out[name] = r.extra_layer.get(name, 0.0)
    setup_sec = r.setup_tracer.self_seconds() if r.setup_tracer is not None else {}
    for name, span in SETUP_LAYER:
        out[name] = setup_sec.get(span, 0.0)
    untraced = end_to_end(r)
    traced = {
        "setup_s": r.traced_setup_s,
        "op_ms_p50": statistics.median(r.traced_op_s) * 1000,
        "op_ms_mean": statistics.fmean(r.traced_op_s) * 1000,
        "decided_share": r.traced_decided_share,
        "peak_rss_mb": r.traced_rss_mb,
    }
    for name, _ in END_TO_END:
        out[f"trace_overhead.{name}"] = traced[name] - untraced[name]
    out.update(wall(r))
    return out


def wall(r: Run) -> dict[str, float]:
    return {
        "wall.setup_s": statistics.median(r.wall_setup_s),
        "wall.op_ms_p50": statistics.median(r.wall_op_s) * 1000,
        "wall.op_ms_mean": statistics.fmean(r.wall_op_s) * 1000,
        "host.probe_ms_p50": statistics.median(r.pace.probes) * 1000,
    }


# ------------------------------------------------------------------ main


def _child_main(args) -> None:
    if args.child == "setup":
        tracer = None
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer()
        if args.workload == "corpus":
            import refcheck

            setup_s, report = _corpus_setup(tracer)
            ok = refcheck.corpus_report_ok(report.render(), refcheck.corpus_reference())
        elif args.workload == "search":
            setup_s, ok = _search_setup(tracer), True
        else:
            t0 = perf_counter()
            use_checkout_source()
            with tracer or nullcontext():
                pass
            setup_s, ok = perf_counter() - t0, True
        print(json.dumps({"setup_s": setup_s, "ok": ok}))
    else:
        print(json.dumps(_enum_child(bool(args.trace), args.spans)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("corpus", "enum", "search"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "enum"), help=argparse.SUPPRESS)
    p.add_argument("--spans", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child_main(args)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "hooplog" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hooplog source at {SRC}")
    # One CPU for this process, its probes and its children, so that the
    # probe runs at the pace the ops get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The build step: byte-compile once so that no set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    trace = bool(args.trace)
    if args.workload == "corpus":
        r = run_corpus(args.seconds, trace)
    elif args.workload == "enum":
        r = run_enum(args.seconds, trace)
    else:
        r = run_search(args.seconds, trace, args.seed)

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}")
    for note in r.notes:
        print(note)
    print(f"unscaled, with the probe's pace (n={len(r.pace.probes)} probes):")
    for name, value in wall(r).items():
        print(f"  {name} {value}")
    for err in r.errors:
        print(f"FAILED: {err}")
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.bin"
        r.op_tracer.write_spans(spans)
        print(f"spans: {r.op_tracer.span_count()} op spans in {spans.relative_to(ROOT)}")
        if r.setup_tracer is not None:
            r.setup_tracer.write_spans(OUT / f"spans-{args.workload}-setup.bin")
        values = per_layer(r)
        units = {n: u for n, u, _ in per_layer_spec()}
    else:
        values = end_to_end(r)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": r.failed == 0,
                "attempted": r.attempted,
                "failed": r.failed,
                "metrics": {
                    n: {"value": v, "unit": units[n]} for n, v in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
