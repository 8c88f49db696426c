"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance and budget is pinned here.
"""

import time
from itertools import product

from hooplog.syntax import Imp, ONE, Var, expand_derived, parse_formula
from hooplog.theories import ALi, LLc, LLi, ALL_THEORIES
from hooplog.sequent import Sequent, parse_sequent
from hooplog.eqengine import GEQ, EqScript, EqStep, check_script
from hooplog.hilbert import (
    SCHEMAS,
    check_derivation,
    curry_sequent,
    sequent_to_hilbert,
)
from hooplog.algebra import (
    canonical_key,
    enumerate_algebras,
    falsifying_assignment,
    find_countermodel,
    lukasiewicz_chain,
    seq_holds,
    theory_class,
    valid,
)
from hooplog.translate import check_dns, translate
from hooplog.corpus import generate_k_contradiction
from hooplog.corpus.builtins import regression_list

P, Q = Var("P"), Var("Q")


def _dd(f):
    return Imp(Imp(f, ONE), ONE)


def _line(n, ok, detail):
    print(f"criterion {n:2d}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_corpus_completeness(corpus_run):
    corpus, report, elapsed = corpus_run
    bad = [r.entry.id for r in report.results if not r.ok]
    core = [e for e in corpus.entries if e.core]
    core_proved = [e for e in core if e.tier == "proved"]
    rechecked = all(r.ok for r in report.results if r.entry.core)
    ok = not bad and len(core) >= 35 and rechecked and elapsed < 600
    _line(
        1,
        ok,
        f"{len(core)} catalogued core results ({len(core_proved)} proved tier), "
        f"{len(report.results)} entries recheck in {elapsed:.1f}s"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_2_contraction_separation():
    t0 = time.perf_counter()
    got = find_countermodel(parse_sequent("A |- A * A"), LLc, 10)
    elapsed = time.perf_counter() - t0
    ok = got is not None
    alg, witness = got if got else (None, None)
    ok = (
        ok
        and alg.size == 3
        and canonical_key(alg) == canonical_key(lukasiewicz_chain(3))
        and witness == {"A": 1}
        and elapsed < 1.0
    )
    _line(
        2,
        ok,
        f"A |- A*A refuted in the three-element chain, middle-element witness, "
        f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_3_a6_separation(corpus_run):
    corpus, report, _ = corpus_run
    s = parse_sequent("(A -o B) -o C, (B -o A) -o C |- C")
    t0 = time.perf_counter()
    got = find_countermodel(s, LLi, 10)
    elapsed = time.perf_counter() - t0
    ok = got is not None and got[0].size <= 10 and elapsed < 60
    if ok:
        alg, v = got
        ok = not seq_holds(s, alg, v)
    proved = next(r for r in report.results if r.entry.id == "cor-b6")
    ok = ok and proved.ok and proved.entry.tier == "proved"
    _line(
        3,
        ok,
        f"A6 refuted by a bounded hoop of size {got[0].size if got else '?'} in "
        f"{elapsed:.1f}s; the doubly negated form is proved tier",
    )


def test_criterion_4_translation_negatives_and_positives(corpus_run):
    corpus, _, _ = corpus_run
    x = expand_derived(parse_formula("P * Q"))
    gentzen_bad = translate("gentzen", Imp(_dd(x), x))
    glivenko_bad = translate("glivenko", Imp(_dd(P), P))
    g1 = find_countermodel(Sequent((), gentzen_bad), ALi, 10)
    g2 = find_countermodel(Sequent((), glivenko_bad), ALi, 10)
    ok = g1 is not None and g2 is not None
    details = []
    if ok:
        details.append(f"negatives refuted at sizes {g1[0].size} and {g2[0].size}")
    for scheme, theory in (
        ("kolmogorov", ALi),
        ("goedel", ALi),
        ("gentzen", LLi),
        ("glivenko", LLi),
    ):
        rep = check_dns(scheme, theory, regression_list(theory), corpus.registry)
        ok = ok and rep.ok
        details.append(f"{scheme}/{theory.name} {'pass' if rep.ok else 'FAIL'}")
    _line(4, ok, "; ".join(details))


def test_criterion_5_soundness_cross_check():
    schemas = {
        "ASM": parse_sequent("A |- A"),
        "CON": parse_sequent("A |- A * A"),
        "EFQ": parse_sequent("1 |- A"),
        "DNE": parse_sequent("A^^ |- A"),
        "CWC": parse_sequent("A, A -o B |- B * (B -o A)"),
    }
    violations = 0
    algebras = 0
    for t in ALL_THEORIES:
        for alg in enumerate_algebras(4, theory_class(t)):
            algebras += 1
            for name in t.axioms():
                if not valid(schemas[name], alg):
                    violations += 1
            n = alg.size
            geq, add, res = alg.geq, alg.add, alg.res
            for g, a, b in product(range(n), repeat=3):
                # ImpI soundness in both directions is residuation
                if geq(add[g][a], b) != geq(g, res[a][b]):
                    violations += 1
                for d in range(n):
                    # ImpE: from g >= a and d >= a -o b conclude g+d >= b
                    if geq(g, a) and geq(d, res[a][b]) and not geq(add[g][d], b):
                        violations += 1
                    # TensorI: from g >= a and d >= b conclude g+d >= a*b
                    if geq(g, a) and geq(d, b) and not geq(add[g][d], add[a][b]):
                        violations += 1
                    # TensorE: from g >= a*b and d+a+b >= c conclude g+d >= c
                    for c in range(n):
                        if (
                            geq(g, add[a][b])
                            and geq(add[d][add[a][b]], c)
                            and not geq(add[g][d], c)
                        ):
                            violations += 1
    _line(
        5,
        violations == 0,
        f"axioms and rules of all nine theories sound across {algebras} algebras "
        f"of size <= 4, zero violations",
    )


def test_criterion_6_hilbert_round_trip(corpus_run):
    corpus, _, _ = corpus_run
    from hooplog.corpus.builtins import _collect_proofs

    trees = _collect_proofs(corpus)
    assert trees
    failures = []
    for name, tree, theory in trees:
        try:
            der, order = sequent_to_hilbert(tree, theory)
            if not check_derivation(der, f"H-{theory.name}") or der.final != (
                curry_sequent(tree.conclusion, order)
            ):
                failures.append(name)
        except Exception:
            failures.append(name)
    _line(
        6,
        not failures,
        f"{len(trees)}/{len(trees)} corpus sequent proofs translate and recheck"
        + (f"; failures {failures[:3]}" if failures else ""),
    )


def _geq_rewrite_mutants(script):
    """Direction flips and opposite-polarity moves for every >= rewrite."""
    from hooplog.syntax import positions, signed_polarity, subterm_at

    prev = script.start
    for i, step in enumerate(script.steps):
        if step.kind == "rewrite" and step.relation == GEQ:
            flipped = EqStep(
                "rewrite",
                step.relation,
                step.result,
                lemma=step.lemma,
                reverse=not step.reverse,
                pos=step.pos,
            )
            yield i, flipped
            try:
                orig = signed_polarity(prev, step.pos)
            except Exception:
                orig = None
            if orig in ("positive", "negative"):
                want = "negative" if orig == "positive" else "positive"
                for p in positions(prev):
                    if p == step.pos:
                        continue
                    try:
                        if signed_polarity(prev, p) != want:
                            continue
                        subterm_at(prev, p)
                    except Exception:
                        continue
                    yield i, EqStep(
                        "rewrite",
                        step.relation,
                        step.result,
                        lemma=step.lemma,
                        reverse=step.reverse,
                        pos=p,
                    )
        prev = step.result


def test_criterion_7_mutation_robustness(corpus_run):
    corpus, _, _ = corpus_run
    total = 0
    killed = 0
    survivors = []
    for name, script in sorted(corpus.scripts.items()):
        for i, mutant_step in _geq_rewrite_mutants(script):
            steps = list(script.steps)
            steps[i] = mutant_step
            mutant = EqScript(
                script.id,
                script.theory,
                script.claim_lhs,
                script.claim_rel,
                script.claim_rhs,
                script.start,
                tuple(steps),
                script.assumes,
            )
            total += 1
            if not check_script(mutant, corpus.registry):
                killed += 1
            else:
                survivors.append((name, i))
    _line(
        7,
        total > 0 and killed == total,
        f"{killed}/{total} direction-flip and polarity-move mutants rejected"
        + (f"; survivors {survivors[:3]}" if survivors else ""),
    )


def test_criterion_8_rose_rosser_chains():
    checked = 0
    for n in range(2, 12):
        chain = lukasiewicz_chain(n)
        for name in ("A1", "A2", "A3", "A4"):
            f = expand_derived(SCHEMAS[name])
            w = falsifying_assignment(Sequent((), f), chain)
            assert w is None, (name, n, w)
            checked += 1
    _line(8, checked == 40, "A1-A4 hold in every chain with 2..11 elements")


def test_criterion_9_conjectures_model_checked():
    curry1 = parse_sequent("(A /\\ B) => C |- A => (B => C)")
    curry2 = parse_sequent("A => (B => C) |- (A /\\ B) => C")
    copies = [
        parse_sequent(f"({t} -o B) * (B \\/ A) |- A \\/ B")
        for t in ("A", "A * A", "A * (A * A)", "A * (A * (A * A))")
    ]
    count = 0
    for alg in enumerate_algebras(6, required={"hoop"}):
        count += 1
        for s in (curry1, curry2, *copies):
            w = falsifying_assignment(s, alg)
            assert w is None, (s, alg, w)
    _line(
        9,
        count > 0,
        f"both conjecture schemas hold in all {count} hoops of size <= 6 "
        f"(model-checked only, no proof claimed)",
    )


def test_criterion_10_k_family(corpus_run):
    corpus, _, _ = corpus_run
    results = []
    for k in range(1, 5):
        seq, script, rep = generate_k_contradiction(k, corpus.registry)
        results.append(bool(rep.ok))
    _line(10, all(results), "generated entries check for k = 1..4")
