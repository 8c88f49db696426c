"""Tests of the benchmark's own parts: the seeded sequent generator, the
tracing wrappers and the reference checks."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

H = run.use_checkout_source()

import layertrace  # noqa: E402
import pace  # noqa: E402
import refcheck  # noqa: E402
import seqgen  # noqa: E402


def _listing(seed, count):
    return [(t.name, repr(s)) for t, s in seqgen.sequents(seed, count)]


def test_generator_is_deterministic_for_a_seed():
    first = _listing(7, 300)
    assert first == _listing(7, 300)
    assert first != _listing(8, 300)
    for theory, seq in seqgen.sequents(7, 300):
        assert len(seq.context) <= 2
        names = set().union(*(H.syntax.variables(f) for f in (*seq.context, seq.goal)))
        assert names <= {"A", "B", "C"}


def _snapshot():
    layertrace.import_all()
    return {
        (m.__name__, name): value
        for m in layertrace.hooplog_modules()
        for name, value in vars(m).items()
        if callable(value)
    } | {("LemmaRegistry", "register"): H.LemmaRegistry.register}


def test_tracer_leaves_no_patched_function_behind():
    before = _snapshot()
    tracer = layertrace.Tracer()
    with tracer:
        assert layertrace.patched_names()
        assert "hooplog.corpus.builtins.check_dns" in layertrace.patched_names()
        theory, seq = H.ALm, H.parse_sequent("A, A -o B |- B")
        assert run.search_op(H, theory, seq)[0] == "proved"
        assert run.search_op(H, theory, H.parse_sequent("A |- A * A"))[0] == "refuted"
        pattern = H.parse_formula("X * Y")
        assert next(H.eqengine.ac_match(pattern, H.parse_formula("A * B * C")), None)
    assert layertrace.patched_names() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.counters["bounded_prove.found"] >= 1
    assert tracer.counters["find_countermodel.found"] == 1
    assert tracer.counters["ac_match.calls"] >= 1
    assert tracer.counters["ac_match.yields"] >= 1
    seconds = tracer.self_seconds()
    assert all(v > -1e-9 for v in seconds.values())
    assert tracer.span_count() > 0


def test_recursive_calls_count_once():
    tracer = layertrace.Tracer()
    formula = H.parse_formula("(A /\\ B) => (C \\/ A^)")
    with tracer:
        H.expand_derived(formula)
        H.expand_derived(formula)
    assert tracer.counters["expand_derived.calls"] == 2
    assert tracer.span_count() == 2


def test_spans_survive_a_write_and_read(tmp_path):
    tracer = layertrace.Tracer()
    with tracer:
        list(H.enumerate_algebras(3))
    path = tmp_path / "spans.bin"
    tracer.write_spans(path)
    back = layertrace.Tracer.read_spans(path)
    assert back.names == tracer.names
    assert list(back.span_parent) == list(tracer.span_parent)
    assert back.self_seconds() == tracer.self_seconds()
    assert back.counters == tracer.counters


def test_reference_check_rejects_a_one_byte_difference():
    reference = refcheck.corpus_reference()
    assert reference.splitlines()[-1] == "92/92 entries verified"
    assert refcheck.corpus_report_ok(reference, reference)
    k = len(reference) // 2
    flipped = reference[:k] + chr(ord(reference[k]) ^ 1) + reference[k + 1 :]
    assert not refcheck.corpus_report_ok(flipped, reference)
    assert not refcheck.corpus_report_ok(reference + "\n", reference)


def test_enum_reference_pins_the_known_counts():
    ref = refcheck.enum_reference()
    assert ref["per_size"] == [1, 1, 2, 7, 26, 129]
    assert ref["per_class"]["all"] == 166


def test_pace_scales_a_block_by_the_probes_around_it():
    assert pace.probe() == pace.probe()
    p = pace.Pace()
    scale = p.next_scale()
    assert len(p.probes) == 2
    assert scale == 2 * pace.REF_PROBE_S / (p.probes[0] + p.probes[1])


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(x) for x in run.per_layer_spec()
    ]
