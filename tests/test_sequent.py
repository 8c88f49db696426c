import random

import pytest

from hooplog import sequent
from hooplog.algebra import _first_countermodel
from hooplog.syntax import ONE, ZERO, Imp, Neg, Tensor, Var, WConj, parse_formula
from hooplog.theories import ALL_THEORIES, ALm, ALi, ALc, LLm, LLi, ML, theory_by_name
from hooplog.sequent import (
    _REFUTE_SIZE,
    _Search,
    _search,
    Sequent,
    ax_asm,
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
    assert sorted(f._hash for f in w.conclusion.context) == sorted(
        f._hash for f in p.conclusion.context + (A,)
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


def test_contraction_interderivable_dispatcher():
    from hooplog.sequent import ax_con, contraction_interderivable

    prem = weaken(tensor_i(ax_asm(A), ax_asm(A)), B)
    tree = contraction_interderivable("rule-from-axiom", A, premise=prem)
    assert check_proof(tree, ML) and tree.conclusion == parse_sequent("B, A |- A * A")

    back, contracted = contraction_interderivable("axiom-from-rule", A, gamma=(B,))
    assert check_proof(back, ALm)
    assert contracted == ax_con(A, gamma=(B,)).conclusion


def test_contraction_interderivable():
    prem = tensor_i(ax_asm(A), ax_asm(A))
    derived = contraction_rule_from_axiom(weaken(prem, B), A)
    assert derived.conclusion == parse_sequent("B, A |- A * A")
    assert check_proof(derived, ML)
    assert not check_proof(derived, LLm)

    back = contraction_axiom_premise(A, gamma=(B,))
    assert back.conclusion == parse_sequent("B, A, A |- A * A")
    assert check_proof(back, ALm)

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


def test_root_pre_check_finds_the_raw_search_proofs(searched):
    proved = refuted = 0
    for t, s, raw in searched:
        got = bounded_prove(s, t, 6)
        assert _text(got) == _text(raw), (t, s)
        proved += got is not None
        refuted += _first_countermodel(s, t, _REFUTE_SIZE) is not None
    assert proved > 150 and refuted > 450


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
    checked = []
    first = sequent._first_countermodel

    def counting(s, *args):
        checked.append(s)
        return first(s, *args)

    monkeypatch.setattr(sequent, "_first_countermodel", counting)
    five = parse_sequent("A1, A2, A3, A4, A5 |- A1")
    six = parse_sequent("A1, A2, A3, A4, A5, A6 |- A1 * A1")
    assert bounded_prove(five, ALm, 10) is not None
    assert bounded_prove(six, ALm, 10) is None
    assert checked == [five]
