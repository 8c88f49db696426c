import gc
import importlib
import random
import weakref
from itertools import product

import pytest

from hooplog.eqengine import EQUIV, EqStep, LemmaEntry, ac_match, ac_normalize
from hooplog.syntax import (
    Imp,
    ONE,
    Tensor,
    Var,
    expand_derived,
    parse_formula,
    positions,
    replace_at,
    substitute,
    subterm_at,
)
from hooplog.theories import ALi, ALm, LLi
from hooplog.translate import (
    TRANSLATIONS,
    _MAX_REDUCE,
    _kit_for,
    check_dns,
    equivalence_script,
    provability_script,
    reduce_with_kit,
    translate,
)
from hooplog.algebra import enumerate_algebras, eval_formula, theory_class
from hooplog.theories import ALc

# the module itself: the package attribute `hooplog.translate` is the function
translate_module = importlib.import_module("hooplog.translate")

P, Q = Var("P"), Var("Q")


def _dd(f):
    return Imp(Imp(f, ONE), ONE)


def test_translate_examples():
    assert translate("kolmogorov", P) == _dd(P)
    x = parse_formula("(P * Q)^^ -o P * Q")
    g = translate("gentzen", x)
    assert g == parse_formula("(P^^ * Q^^)^^ -o P^^ * Q^^".replace("^", " -o 1").replace(" -o 1 -o 1", "^^") ) or g == expand_derived(
        parse_formula("((P^^ * Q^^)^)^ -o P^^ * Q^^")
    )
    gl = translate("glivenko", parse_formula("P^^ -o P"))
    assert gl == _dd(expand_derived(parse_formula("P^^ -o P")))


def test_every_translation_fixes_one():
    for t in TRANSLATIONS:
        assert translate(t, ONE) == ONE


def test_goedel_shape():
    g = translate("goedel", parse_formula("P -o Q"))
    assert g == expand_derived(parse_formula("(P * Q^)^"))


def test_negation_commutes_with_translations(corpus):
    # the translation of A^ is interderivable with (translation of A)^
    for scheme in ("kolmogorov", "goedel", "gentzen"):
        for a in (P, parse_formula("P * Q"), parse_formula("P -o Q")):
            lhs = translate(scheme, Imp(a, ONE))
            rhs = Imp(translate(scheme, a), ONE)
            s = equivalence_script("negcomm", lhs, rhs, ALi, corpus.registry, 8)
            assert s is not None, (scheme, a)


def test_dns1_semantically_in_involutive_algebras():
    probes = [P, parse_formula("P * Q"), parse_formula("P -o Q"), parse_formula("P^")]
    for alg in enumerate_algebras(4, theory_class(ALc)):
        for scheme in TRANSLATIONS:
            for f in probes:
                t = translate(scheme, f)
                for vec in product(range(alg.size), repeat=2):
                    v = dict(zip("PQ", vec))
                    assert eval_formula(t, alg, v) == eval_formula(
                        expand_derived(f), alg, v
                    )


def test_kolmogorov_stability_script(corpus):
    # (K(A))^^ interderivable with K(A) using only triple negation collapse
    for a in (P, parse_formula("P * Q"), parse_formula("P -o Q")):
        k = translate("kolmogorov", a)
        s = equivalence_script("stab", _dd(k), k, ALi, corpus.registry, 8)
        assert s is not None


def test_glivenko_matches_kolmogorov_over_lli(corpus):
    for a in (P, parse_formula("P * Q"), parse_formula("P -o Q")):
        k = translate("kolmogorov", a)
        gl = translate("glivenko", a)
        s = equivalence_script("match", k, gl, LLi, corpus.registry, 8)
        assert s is not None


def test_the_gap_between_normal_forms_is_left_to_the_easy_step(corpus):
    # P /\ Q ~= Q /\ P is CWC: no kit lemma applies, so the script is one
    # easy step, which check_script discharges in LLi and not in ALm
    from hooplog.eqengine import check_script

    lhs, rhs = parse_formula("P /\\ Q"), parse_formula("Q /\\ P")
    assert equivalence_script("cwc", lhs, rhs, ALm, corpus.registry) is None
    s = equivalence_script("cwc", lhs, rhs, LLi, corpus.registry)
    assert [st.kind for st in s.steps] == ["easy"]
    assert check_script(s, corpus.registry)


def test_dns_reports_are_pinned(corpus):
    # every scheme in every theory with EFQ, over its regression list
    import hashlib
    from collections import Counter

    from hooplog.corpus.builtins import regression_list
    from hooplog.theories import ALL_THEORIES

    renders, statuses = [], Counter()
    for scheme in TRANSLATIONS:
        for t in ALL_THEORIES:
            if t.level != "minimal":
                rep = check_dns(scheme, t, regression_list(t), corpus.registry)
                renders.append(rep.render())
                statuses.update(e.status for e in rep.entries)
    assert len(renders) == 24
    assert statuses == {"pass": 443, "fail": 7, "inconclusive": 6}
    digest = hashlib.sha256("\n".join(renders).encode()).hexdigest()
    assert digest == "e8549a1fc65cb47b839bf00042a3673a0bb03535c053c4b507056ed0aa6eaafd"


def test_check_dns_positive_and_evidence_rechecks(corpus):
    from hooplog.corpus.builtins import regression_list
    from hooplog.eqengine import check_script

    rep = check_dns("glivenko", LLi, regression_list(LLi), corpus.registry)
    assert rep.ok
    for e in rep.entries:
        assert e.script is not None
        assert check_script(e.script, corpus.registry)


def test_check_dns_reports_goedel_atom_instability(corpus):
    # fed a bare atom, the third requirement genuinely fails for the
    # atom-preserving translation; the harness reports a countermodel
    rep = check_dns("goedel", ALi, [P], corpus.registry)
    dns3 = [e for e in rep.entries if e.requirement == "DNS3"][0]
    assert dns3.status == "fail" and dns3.countermodel is not None


def test_check_dns_reports_no_countermodel_that_the_kernel_rejects(corpus, monkeypatch):
    from hooplog.algebra import boolean_algebra

    # P = 0 satisfies the DNS3 sequent P^^ |- P, so this model falsifies nothing
    monkeypatch.setattr(translate_module, "find_countermodel", lambda s, t, n: (boolean_algebra(), {"P": 0}))
    rep = check_dns("goedel", ALi, [P], corpus.registry)
    dns3 = [e for e in rep.entries if e.requirement == "DNS3"][0]
    assert not rep.ok and dns3.status == "inconclusive" and dns3.countermodel is None
    assert dns3.evidence == (
        "the countermodel of (P -o 1) -o 1 |- P is rejected: the sequent holds under the assignment"
    )


def test_check_dns_needs_efq():
    from hooplog.corpus.builtins import regression_list

    with pytest.raises(ValueError):
        check_dns("glivenko", ALm, [], None)


def test_provability_script_discharges_simple(corpus):
    s = provability_script("prov", parse_formula("P -o P"), ALm, corpus.registry, 4)
    assert s is not None


def test_dns2_failure_has_countermodel(corpus):
    x = expand_derived(parse_formula("P * Q"))
    bad = translate("gentzen", Imp(_dd(x), x))
    rep = check_dns("gentzen", ALi, [Imp(_dd(x), x)], corpus.registry, 8, 6)
    dns2 = [e for e in rep.entries if e.requirement == "DNS2"][0]
    assert dns2.status == "fail" and dns2.countermodel is not None
    alg, v = dns2.countermodel
    from hooplog.algebra import seq_holds
    from hooplog.sequent import Sequent

    assert not seq_holds(Sequent((), bad), alg, v)


def _per_lemma_reduce_once(cur, kit):
    """One kit rewrite that rescans every position for every lemma."""
    for entry in kit:
        for pos in sorted(positions(cur), key=len, reverse=True):
            sub = subterm_at(cur, pos)
            for sigma in ac_match(entry.lhs, sub):
                out = replace_at(cur, pos, substitute(entry.rhs, sigma))
                if ac_normalize(out) == ac_normalize(cur):
                    continue
                return out, EqStep("rewrite", EQUIV, out, lemma=entry.id, pos=pos)
    return None


def _per_lemma_reduce(f, kit):
    trace = [(f, None)]
    for _ in range(400):
        nxt = _per_lemma_reduce_once(trace[-1][0], kit)
        if nxt is None:
            return trace
        trace.append(nxt)
    raise AssertionError("no fixed point within 400 steps")


@pytest.mark.parametrize("theory", [ALi, LLi], ids=lambda t: t.name)
def test_one_pass_reduction_matches_the_per_lemma_scan(corpus, theory):
    from hooplog.corpus.builtins import regression_list

    inputs = []
    for f in regression_list(theory):
        inputs.append(expand_derived(f))
        for scheme in TRANSLATIONS:
            inputs += [translate(scheme, f), _dd(translate(scheme, f))]
    steps = 0
    for t in (theory, theory.classical()):
        kit = _kit_for(t, corpus.registry)
        for g in inputs:
            trace = reduce_with_kit(g, kit)
            assert trace == _per_lemma_reduce(g, kit), (t.name, g)
            steps += len(trace) - 1
    assert steps > 0


def _random_kit_formula(rng, depth):
    """A core formula over P, Q and 1, rich in single and double negations."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((P, Q, ONE))
    kind = rng.choice((Imp, Tensor, Imp, Tensor, "neg", "dneg"))
    if kind == "neg":
        return Imp(_random_kit_formula(rng, depth - 1), ONE)
    if kind == "dneg":
        return _dd(_random_kit_formula(rng, depth - 1))
    return kind(_random_kit_formula(rng, depth - 1), _random_kit_formula(rng, depth - 1))


@pytest.mark.parametrize("theory", [ALi, LLi, ALc], ids=lambda t: t.name)
def test_seeded_reduction_matches_the_per_lemma_scan(corpus, theory):
    rng = random.Random(201411)
    kit = _kit_for(theory, corpus.registry)
    steps = 0
    for _ in range(200):
        g = _random_kit_formula(rng, 3)
        trace = reduce_with_kit(g, kit)
        assert trace == _per_lemma_reduce(g, kit), (theory.name, g)
        steps += len(trace) - 1
    assert steps > 0


def test_a_rewrite_that_keeps_the_normal_form_is_skipped():
    # every instance of the swap here has AC-equal sides, so none is a step
    swap = LemmaEntry("swap", parse_formula("X -o Y"), parse_formula("Y -o X"), EQUIV, ALm)
    kit = [swap]
    for text in ("P * Q -o Q * P", "(P * Q -o Q * P) * (R * (P -o P))"):
        f = parse_formula(text)
        assert reduce_with_kit(f, kit) == _per_lemma_reduce(f, kit) == [(f, None)]


def test_second_reduction_with_the_same_kit_makes_no_match(corpus, monkeypatch):
    calls = []
    real = translate_module.ac_match

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(translate_module, "ac_match", counting)
    kit = _kit_for(LLi, corpus.registry)
    g = translate("kolmogorov", parse_formula("(Memo1 -o Memo2) * Memo1^^"))
    first = reduce_with_kit(g, kit)
    assert len(first) > 1 and calls
    calls.clear()
    assert reduce_with_kit(g, kit) == first
    assert calls == []


def test_budget_error_names_the_formula_and_the_last_lemma(monkeypatch):
    steps = []
    real = translate_module._reduce_once

    def counting(cur, kit):
        out = real(cur, kit)
        steps.append(out)
        return out

    monkeypatch.setattr(translate_module, "_reduce_once", counting)
    # undoing a double negation first and adding one otherwise loops
    undo = LemmaEntry("loop", parse_formula("X^^"), Var("X"), EQUIV, ALm)
    add = LemmaEntry("loop", Var("X"), parse_formula("X^^"), EQUIV, ALm)
    with pytest.raises(RuntimeError) as err:
        reduce_with_kit(parse_formula("P * Q"), [undo, add])
    assert len(steps) == _MAX_REDUCE and None not in steps
    msg = str(err.value)
    assert "P * Q" in msg and "'loop'" in msg and str(_MAX_REDUCE) in msg


def test_the_redex_memo_dies_with_its_entry():
    entry = LemmaEntry("tn", parse_formula("X^^^"), parse_formula("X^"), EQUIV, ALm)
    f = parse_formula("Lifetime^^^ -o Lifetime")
    ref = weakref.ref(f)
    trace = reduce_with_kit(f, [entry])
    assert len(trace) == 2 and f in entry.redexes
    del entry, f, trace
    gc.collect()
    assert ref() is None
