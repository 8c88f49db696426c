import hashlib
import random
from collections import Counter

import pytest

from hooplog import sequent
from hooplog.algebra import find_countermodel, format_algebra
from hooplog.hilbert import format_derivation, sequent_to_hilbert
from hooplog.syntax import (
    ONE,
    ZERO,
    Imp,
    Neg,
    Nor,
    SDisj,
    SImp,
    Tensor,
    Var,
    WConj,
    expand_derived,
    formula_key,
    parse_formula,
)
from hooplog.theories import ALL_THEORIES, ALm, ALi, ALc, BL, LLc, LLm, LLi, ML, theory_by_name
from hooplog.sequent import (
    _Search,
    _search,
    ProofTree,
    Sequent,
    admit,
    ax_asm,
    ax_con,
    ax_cwc,
    bounded_prove,
    check_proof,
    contraction_axiom_premise,
    contraction_rule_from_axiom,
    format_proof,
    imp_i,
    parse_proof,
    parse_sequent,
    substitute_proof,
    tensor_i,
    weaken,
)

A, B, P = Var("A"), Var("B"), Var("P")


def test_theory_axiom_sets():
    assert theory_by_name("ALm").axioms() == frozenset({"ASM"})
    assert theory_by_name("LLi").axioms() == frozenset({"ASM", "CWC", "EFQ"})
    assert theory_by_name("BL").axioms() == frozenset({"ASM", "CON", "EFQ", "DNE"})
    assert ALm.leq(LLi) and not LLi.leq(ALm) and not ALc.leq(LLm)
    assert LLi.axioms() is theory_by_name("LLi").axioms()


def test_asm_leaf_with_extra_context():
    p = ax_asm(A, gamma=(B,))
    assert check_proof(p, ALm)
    assert p.conclusion == parse_sequent("B, A |- A")


def test_cwc_leaf_filtered_by_theory():
    p = ax_cwc(A, B)
    assert check_proof(p, LLm)
    v = check_proof(p, ALm)
    assert not v and "CWC" in v.message


def test_two_node_tree():
    p = imp_i(ax_asm(A), A)
    assert p.conclusion == parse_sequent("|- A -o A")
    assert check_proof(p, ALm)


def test_check_rejects_bad_split():
    good = tensor_i(ax_asm(A), ax_asm(B))
    assert check_proof(good, ALm)
    from hooplog.sequent import ProofTree

    bad = ProofTree(Sequent((A,), Tensor(A, B)), "TensorI", good.premises)
    v = check_proof(bad, ALm)
    assert not v and "split" in v.message


def test_check_rejects_each_malformed_rule():
    from hooplog.sequent import ProofTree
    from hooplog.syntax import Imp as I, Tensor as T, ONE, Neg

    # ImpI whose premise context does not add the antecedent
    bad_impi = ProofTree(
        Sequent((), I(A, A)), "ImpI", (ax_asm(A, gamma=(B,)),), inst=(A, A)
    )
    assert not check_proof(bad_impi, ALm)
    # ImpE whose major premise proves the wrong implication
    bad_impe = ProofTree(
        Sequent((A, I(A, B)), A), "ImpE", (ax_asm(A), ax_asm(I(A, B))), inst=(A, A)
    )
    assert not check_proof(bad_impe, ALm)
    # TensorE with a component missing from the body premise
    bad_te = ProofTree(
        Sequent((T(A, B),), A),
        "TensorE",
        (ax_asm(T(A, B)), ax_asm(A)),
        inst=(A, B),
    )
    assert not check_proof(bad_te, ALm)
    # DNE leaf whose context lacks the doubly negated goal
    bad_dne = ProofTree(Sequent((Neg(A),), A), "AxDNE", inst=(A,))
    assert not check_proof(bad_dne, ALc)
    # CON leaf whose goal is not a self-pairing
    bad_con = ProofTree(Sequent((A,), T(A, B)), "AxCON", inst=(A,))
    assert not check_proof(bad_con, ML)
    # CWC leaf with the wrong context formulas
    bad_cwc = ProofTree(Sequent((A, I(B, A)), T(B, I(B, A))), "AxCWC", inst=(A, B))
    assert not check_proof(bad_cwc, LLm)
    # axiom leaves never take premises
    bad_leaf = ProofTree(Sequent((A,), A), "AxASM", (ax_asm(A),), inst=(A,))
    assert not check_proof(bad_leaf, ALm)
    # unknown rule names are rejected
    assert not check_proof(ProofTree(Sequent((A,), A), "Cut", ()), ALm)


def _lemma(goal, cited, premises=(), context=()):
    return ProofTree(Sequent(context, goal), "Lem", premises, inst=(cited,))


def test_lemma_leaves_cite_only_admitted_instances():
    comm = parse_formula("A * B -o B * A")
    assert admit(bounded_prove(Sequent((), comm), ALm, 6), ALm)
    inst = parse_formula("(P -o A) * A -o A * (P -o A)")
    assert check_proof(_lemma(inst, comm), ALm)
    assert check_proof(_lemma(inst, comm, context=(B,)), LLc)  # weakened, above ALm
    # a non-instance: Comm cited for Wk
    v = check_proof(_lemma(parse_formula("A * B -o A"), comm), ALm)
    assert not v and v.message == "Lem |- A * B -o B * A: A * B -o A is not an instance"
    # one variable, two values
    assert not check_proof(_lemma(parse_formula("A * B -o A * A"), comm), ALm)
    # a lemma never admitted
    never = parse_formula("Q1 -o Q1 * Q1")
    v = check_proof(_lemma(never, never), ML)
    assert not v and v.message == "Lem |- Q1 -o Q1 * Q1: not admitted in ML or a theory below it"
    # a lemma leaf citing no formula, or two
    assert not check_proof(ProofTree(Sequent((), inst), "Lem"), ALm)
    assert not check_proof(ProofTree(Sequent((), inst), "Lem", inst=(comm, comm)), ALm)
    # a lemma leaf with premises
    v = check_proof(_lemma(inst, comm, premises=(ax_asm(A),)), ALm)
    assert not v and v.message == "Lem |- A * B -o B * A: lemma leaves take no premises"
    # nested in a tree, the path names the leaf
    v = check_proof(imp_i(_lemma(A, never, context=(B,)), B), ALm)
    assert not v and v.where == (0,) and "Q1 -o Q1 * Q1" in v.message


def test_a_lemma_admitted_in_a_stronger_theory_is_not_cited_below_it():
    cwc = parse_formula("A * (A -o B) -o B * (B -o A)")
    assert admit(bounded_prove(Sequent((), cwc), LLm, 4), LLm)
    inst = parse_formula("P * (P -o P) -o P * (P -o P)")
    for t in ALL_THEORIES:
        v = check_proof(_lemma(inst, cwc), t)
        assert bool(v) == LLm.leq(t), t
    v = check_proof(_lemma(inst, cwc), ALm)
    assert v.message == (
        "Lem |- A * (A -o B) -o B * (B -o A): not admitted in ALm or a theory below it"
    )


def test_admit_records_nothing_from_a_rejected_proof():
    goal = parse_formula("Q2 -o Q2")
    q2 = Var("Q2")
    bad = ProofTree(Sequent((), goal), "ImpI", (ax_asm(Var("Q3")),), inst=(q2, q2))
    v = admit(bad, ALm)
    assert not v and v.message == check_proof(bad, ALm).message
    assert goal not in sequent._ADMITTED
    assert not check_proof(_lemma(goal, goal), BL)
    # an open sequent is not admitted either, though its proof checks
    v = admit(ax_asm(q2), ALm)
    assert not v and v.message == "only a closed sequent is admitted, not Q2 |- Q2"
    assert q2 not in sequent._ADMITTED


def test_context_is_a_multiset():
    s1 = parse_sequent("A, A |- A * A")
    s2 = parse_sequent("A |- A * A")
    assert s1 != s2
    assert parse_sequent("A, B |- A") == parse_sequent("B, A |- A")


def test_weaken_examples():
    p = bounded_prove(parse_sequent("A |- A"), ALm, 2)
    w = weaken(p, B)
    assert w.conclusion == parse_sequent("A, B |- A")
    assert check_proof(w, ALm)

    q = bounded_prove(parse_sequent("|- A -o A"), ALm, 3)
    assert check_proof(weaken(q, Var("C")), ALm)

    w1 = weaken(weaken(p, B), Var("C"))
    w2 = weaken(weaken(p, Var("C")), B)
    assert check_proof(w1, ALm) and check_proof(w2, ALm)
    assert w1.conclusion == w2.conclusion


def test_weaken_adds_exactly_one_copy():
    p = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    w = weaken(p, A)
    assert sorted(map(formula_key, w.conclusion.context)) == sorted(
        map(formula_key, p.conclusion.context + (A,))
    )


def test_bounded_prove_examples():
    assert bounded_prove(parse_sequent("|- A -o A"), ALm, 3) is not None
    assert bounded_prove(parse_sequent("|- A -o A * A"), ALm, 8) is None
    p = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    assert p is not None and check_proof(p, ALm)


def test_bounded_prove_monotone_in_depth():
    s = parse_sequent("A * (A -o B) |- B")
    found_at = next(d for d in range(1, 9) if bounded_prove(s, ALm, d) is not None)
    for d in range(found_at, 9):
        assert bounded_prove(s, ALm, d) is not None


def test_bounded_prove_soundness_spot():
    # everything returned must pass the checker in the same theory
    cases = [
        ("|- 1 -o A", "ALi"),
        ("(A -o 1) -o 1 |- A", "ALc"),
        ("A, A -o B |- B * (B -o A)", "LLm"),
        ("P, P |- P * P", "ML"),
    ]
    for text, name in cases:
        t = theory_by_name(name)
        p = bounded_prove(parse_sequent(text), t, 8)
        assert p is not None and check_proof(p, t)


def test_contraction_interderivable():
    prem = tensor_i(ax_asm(A), ax_asm(A))
    derived = contraction_rule_from_axiom(weaken(prem, B), A)
    assert derived.conclusion == parse_sequent("B, A |- A * A")
    assert check_proof(derived, ML)
    assert not check_proof(derived, LLm)

    back = contraction_axiom_premise(A, gamma=(B,))
    assert back.conclusion == parse_sequent("B, A, A |- A * A")
    assert check_proof(back, ALm)
    # contracting the premise's A, A gives exactly the CON axiom's sequent
    assert ax_con(A, gamma=(B,)).conclusion == parse_sequent("B, A |- A * A")

    inst = substitute_proof(derived, {"A": P, "B": P})
    assert check_proof(inst, ML)


def test_proof_substitution_preserves_checking():
    p = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    q = substitute_proof(p, {"A": parse_formula("P * Q"), "B": parse_formula("P^")})
    assert check_proof(q, ALm)
    assert q.conclusion == parse_sequent("P * Q, P * Q -o P^ |- P^")


def test_proof_serialisation_roundtrip():
    p = bounded_prove(parse_sequent("A * (A -o B) |- B"), ALm, 6)
    text = format_proof(p)
    q = parse_proof(text)
    assert format_proof(q) == text
    assert check_proof(q, ALm)


def test_check_is_order_insensitive():
    p = bounded_prove(parse_sequent("A -o B, B -o C, A |- C"), ALm, 8)
    assert p is not None
    assert p.conclusion == parse_sequent("A, A -o B, B -o C |- C")


def test_search_is_sound_on_a_formula_pool():
    # every tree the search returns must pass the checker in the same theory
    from itertools import combinations_with_replacement

    pool = [
        parse_formula(t)
        for t in ("A", "B", "A -o B", "A * B", "B -o A", "(A -o B) -o B", "1")
    ]
    goals = [parse_formula(t) for t in ("A", "B", "A * B", "A -o B", "B * (B -o A)")]
    found = 0
    for theory in (ALm, ALi, LLm, ML):
        for ctx in combinations_with_replacement(pool, 2):
            for goal in goals:
                p = bounded_prove(Sequent(ctx, goal), theory, 5)
                if p is not None:
                    found += 1
                    assert check_proof(p, theory), (ctx, goal, theory)
                    assert p.conclusion == Sequent(ctx, goal)
    assert found > 50


def _random_formula(rng: random.Random, size: int):
    """A formula of `size` nodes over A, B and the constants."""
    if size == 1:
        r = rng.random()
        return ONE if r < 0.15 else ZERO if r < 0.2 else Var(rng.choice("AB"))
    if size == 2:
        return Neg(_random_formula(rng, 1))
    left = rng.randint(1, size - 2)
    op = rng.choice((Imp, Imp, Imp, Tensor, Tensor, WConj))
    return op(_random_formula(rng, left), _random_formula(rng, size - 1 - left))


def _text(p):
    return None if p is None else format_proof(p)


@pytest.fixture(scope="module")
def searched():
    """(theory, sequent, raw search result) for seeded random sequents, every
    theory in turn; the raw search is the one without the root pre-check."""
    rng = random.Random(5)
    out = []
    for k in range(900):
        t = ALL_THEORIES[k % 9]
        ctx = [_random_formula(rng, rng.randint(1, 4)) for _ in range(k // 9 % 3)]
        s = Sequent(ctx, _random_formula(rng, rng.randint(1, 5)))
        out.append((t, s, _search(s, 6, _Search(t))))
    return out


def test_root_pre_check_finds_the_raw_search_proofs(searched, monkeypatch):
    """`bounded_prove`, which refutes each sequent it meets, finds the proofs
    of the raw search, which refutes none; and it refutes inner nodes, not
    only roots."""
    logs = []  # per search, the refuter's verdicts in call order, root first
    real = sequent.refuter

    def logging(names, t):
        refutes, log = real(names, t), []
        logs.append(log)

        def logged(s):
            log.append(refutes(s))
            return log[-1]

        return logged

    monkeypatch.setattr(sequent, "refuter", logging)
    proved = refuted = 0
    for t, s, raw in searched:
        got = bounded_prove(s, t, 6)
        assert _text(got) == _text(raw), (t, s)
        proved += got is not None
        refuted += logs[-1][0]
    assert len(logs) == len(searched)
    assert proved > 150 and refuted > 450
    assert sum(sum(log[1:]) for log in logs) > 0


def test_refuted_root_runs_no_search(monkeypatch):
    calls = []
    try_all = sequent._try_all

    def counting(*args):
        calls.append(args)
        return try_all(*args)

    monkeypatch.setattr(sequent, "_try_all", counting)
    s = parse_sequent("A |- A * A")
    assert bounded_prove(s, ALm, 10) is None
    assert calls == []
    assert _search(s, 10, _Search(ALm)) is None and calls


def test_pre_check_skips_roots_with_many_variables(monkeypatch):
    built = []
    real = sequent.refuter

    def counting(names, t):
        built.append(names)
        return real(names, t)

    monkeypatch.setattr(sequent, "refuter", counting)
    five = parse_sequent("A1, A2, A3, A4, A5 |- A1")
    six = parse_sequent("A1, A2, A3, A4, A5, A6 |- A1 * A1")
    assert bounded_prove(five, ALm, 10) is not None
    assert bounded_prove(six, ALm, 10) is None
    assert built == [["A1", "A2", "A3", "A4", "A5"]]


# Run in a child interpreter: seeded random sequents in the style of the
# `search` benchmark (2-3 variables, formula sizes 1-6, 0-2 context
# formulas, theories in turn), proved and translated twice, with garbage
# churned in between so the second pass's formulas sit at other addresses.
_HASH_ORDER_CHILD = r"""
import gc, random, sys
from hooplog.hilbert import format_derivation, sequent_to_hilbert
from hooplog.sequent import Sequent, bounded_prove, format_proof
from hooplog.syntax import ONE, ZERO, Imp, Neg, Nor, SDisj, SImp, Tensor, Var, WConj, expand_derived
from hooplog.theories import ALL_THEORIES

def formula(rng, size, names):
    if size <= 1:
        r = rng.random()
        return ONE if r < 0.1 else ZERO if r < 0.15 else Var(rng.choice(names))
    if size == 2 or rng.random() < 0.15:
        return Neg(formula(rng, size - 1, names))
    left = rng.randint(1, size - 2)
    op = rng.choice((Imp,) * 5 + (Tensor,) * 3 + (WConj, SDisj, SImp, Nor))
    return op(formula(rng, left, names), formula(rng, size - 1 - left, names))

rng = random.Random(1515)
pool = []
for k in range(30):
    names = "ABC"[: rng.randint(2, 3)]
    ctx = [expand_derived(formula(rng, rng.randint(1, 6), names)) for _ in range(k // 9 % 3)]
    pool.append((ALL_THEORIES[k % 9], Sequent(ctx, expand_derived(formula(rng, 1 + k % 6, names)))))

def one_pass():
    out = []
    for t, s in pool:
        p = bounded_prove(s, t, 8)
        out.append("-" if p is None else format_proof(p) + format_derivation(sequent_to_hilbert(p, t)[0]))
    return out

first = one_pass()
junk = [Imp(Var("J%d" % i), Tensor(Var("A"), Var("J%d" % i))) for i in range(4000)]
keep = junk[::2]
del junk
gc.collect()
assert one_pass() == first, "a warm pass found other proofs"
sys.stdout.write("\n".join(first))
"""


def test_proofs_do_not_depend_on_hash_order():
    """Formulas hash by identity, which differs between runs and between
    passes of one run, and strings by PYTHONHASHSEED: two interpreters with
    different seeds, each proving the same sequents twice, print the same
    proofs and derivations."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hooplog

    src = str(Path(hooplog.__file__).parent.parent)
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _HASH_ORDER_CHILD],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        )
        for seed in ("1", "2")
    ]
    outs = []
    for child in children:
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].count("ImpI") > 5


def _pool_formula(rng, size, names):
    if size <= 1:
        r = rng.random()
        return ONE if r < 0.1 else ZERO if r < 0.15 else Var(rng.choice(names))
    if size == 2 or rng.random() < 0.15:
        return Neg(_pool_formula(rng, size - 1, names))
    left = rng.randint(1, size - 2)
    op = rng.choice((Imp,) * 5 + (Tensor,) * 3 + (WConj, SDisj, SImp, Nor))
    return op(_pool_formula(rng, left, names), _pool_formula(rng, size - 1 - left, names))


def test_search_outcomes_are_pinned():
    """The proof texts, Hilbert derivations and countermodels (algebra and
    assignment) of a seeded pool of 297 sequents, searched at depth 10 and
    refuted up to size 5, hash to a pinned SHA-256: a change to the search
    or to the countermodel walk that finds other outcomes fails here.  The
    pool is in the style of the `search` benchmark: 1-4 variables, formula
    sizes 1-6, 0-2 context formulas, every connective, theories in turn."""
    rng = random.Random(2222)
    digest = hashlib.sha256()
    kinds = []
    for k in range(297):
        t = ALL_THEORIES[k % 9]
        names = "ABCD"[: rng.randint(1, 4)]
        ctx = [expand_derived(_pool_formula(rng, rng.randint(1, 6), names)) for _ in range(k // 9 % 3)]
        s = Sequent(ctx, expand_derived(_pool_formula(rng, 1 + k // 27 % 6, names)))
        p = bounded_prove(s, t, 10)
        if p is not None:
            kinds.append("proved")
            text = format_proof(p) + format_derivation(sequent_to_hilbert(p, t)[0])
        elif (got := find_countermodel(s, t, 5)) is not None:
            kinds.append("refuted")
            text = format_algebra(got[0]) + repr(sorted(got[1].items()))
        else:
            kinds.append("open")
            text = "open"
        digest.update(f"{k} {t} {s!r}\n{text}\n".encode())
    assert Counter(kinds) == {"proved": 98, "refuted": 190, "open": 9}
    assert digest.hexdigest() == "aa228d57a53085550492a68f897f5e933bf5ff38617e45201f92fb9a745338a2"


def test_a_search_leaves_no_cyclic_garbage():
    import gc

    s = parse_sequent("A * A^, A !! B^ |- A * (B * B)")
    gc.collect()
    gc.disable()  # reference counting alone must free the search and its refuter
    try:
        assert bounded_prove(s, theory_by_name("LLc"), 10) is None
        assert bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 5) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
