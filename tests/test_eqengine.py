import random

import pytest

from hooplog.algebra import enumerate_algebras, value_tables
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
    parse_formula,
    positions,
    replace_at,
    variables,
)
from hooplog.theories import ALm, ALi, LLm
from hooplog.sequent import Sequent, bounded_prove
from hooplog.eqengine import (
    EQUIV,
    EqError,
    GEQ,
    LEQ,
    LemmaEntry,
    LemmaRegistry,
    RewriteError,
    _compose,
    _spine,
    ac_eq,
    ac_match,
    ac_normalize,
    apply_rewrite,
    check_script,
    format_script,
    parse_script,
)

A, B, C = Var("A"), Var("B"), Var("C")


def _registry():
    from hooplog.corpus import register_kit

    reg = LemmaRegistry()
    register_kit(reg)
    return reg


def test_ac_normalize_examples():
    spine = ac_normalize(parse_formula("B * (A * 0)"))
    assert spine == ac_normalize(Tensor(A, B))
    assert ac_normalize(parse_formula("A * B")) == ac_normalize(parse_formula("B * A"))
    f = parse_formula("A -o B")
    assert ac_normalize(f) == f


def _random_formula(rng, depth):
    """A formula over A, B, C, 0 and 1 and every connective."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((A, B, C, ZERO, ONE))
    kind = rng.choice((Imp, Tensor, Neg, WConj, SDisj, SImp, Nor))
    if kind is Neg:
        return Neg(_random_formula(rng, depth - 1))
    return kind(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_ac_normalize_keeps_the_value_tables_of_random_formulas():
    rng = random.Random(4)
    formulas = [_random_formula(rng, 4) for _ in range(300)]
    algebras = [m for m in enumerate_algebras(4) if m.top is not None]
    assert len(algebras) == 11
    for f in formulas:
        nf = ac_normalize(f)
        names = sorted(variables(f) | variables(nf))
        for m in algebras:
            for _, (tf, tnf) in value_tables((f, nf), m, names):
                assert tf == tnf, (f, nf, m)


def _ac_variant(rng, f):
    """A formula with the AC normal form of f: * spines shuffled and
    regrouped, 0 factors added, 0 and ^ written out."""
    if f is ZERO:
        return rng.choice((ZERO, Imp(ONE, ONE), Neg(ONE)))
    if isinstance(f, Neg):
        body = _ac_variant(rng, f.body)
        return rng.choice((Neg(body), Imp(body, ONE)))
    if isinstance(f, Tensor):
        parts = [_ac_variant(rng, g) for g in _spine(f)] + [ZERO] * rng.randint(0, 1)
        rng.shuffle(parts)
        while len(parts) > 1:
            i = rng.randrange(len(parts) - 1)
            parts[i : i + 2] = [Tensor(parts[i], parts[i + 1])]
        return parts[0]
    return type(f)(*(_ac_variant(rng, c) for c in f.children())) if f.children() else f


def test_ac_normalization_cancels_in_context():
    # nf(C[x]) is nf(C[y]) exactly when nf(x) is nf(y): so whether a rewrite
    # changes a formula's normal form can be judged at the rewritten subterm
    rng = random.Random(20142)
    seen = {True: 0, False: 0}
    for _ in range(400):
        ctx = _random_formula(rng, 3)
        pos = rng.choice(list(positions(ctx)))
        x = _random_formula(rng, 3)
        y = _ac_variant(rng, x) if rng.random() < 0.5 else _random_formula(rng, 3)
        same = ac_normalize(x) is ac_normalize(y)
        in_context = ac_normalize(replace_at(ctx, pos, x)) is ac_normalize(replace_at(ctx, pos, y))
        assert in_context == same, (ctx, pos, x, y)
        if x is not y:
            seen[same] += 1
    assert min(seen.values()) > 100, seen


def test_ac_normalize_idempotent_and_permutation_invariant():
    f = parse_formula("(C * A) * (B * 0)")
    g = parse_formula("B * (C * A)")
    assert ac_normalize(f) == ac_normalize(g)
    assert ac_normalize(ac_normalize(f)) == ac_normalize(f)


def test_notation_is_transparent():
    assert ac_eq(parse_formula("A^"), parse_formula("A -o 1"))
    assert ac_eq(parse_formula("0"), parse_formula("1 -o 1"))
    assert ac_eq(parse_formula("A * (1 -o 1)"), A)


def test_ac_match_binds_spines():
    subj = parse_formula("(C -o B) * (C * X)")
    assert list(ac_match(parse_formula("A * B"), subj))
    pat = parse_formula("A * (A -o B)")
    sols = list(ac_match(pat, parse_formula("C * (C -o B)")))
    assert [sorted(s.items()) for s in sols] == [[("A", C), ("B", B)]]


def test_apply_rewrite_cwc_at_root():
    reg = _registry()
    cwc = reg.get("cwc")
    f = parse_formula("A * (A -o B)")
    out, rel = apply_rewrite(f, cwc, "lr", (), {"A": A, "B": B})
    assert rel == EQUIV and ac_eq(out, parse_formula("B * (B -o A)"))


def test_apply_rewrite_polarity():
    reg = _registry()
    wk = reg.get("wk-tensor")  # A * B >= A
    pos = parse_formula("C -o A * B")
    out, rel = apply_rewrite(pos, wk, "lr", (1,), {"A": A, "B": B})
    assert rel == GEQ and out == parse_formula("C -o A")
    neg = parse_formula("(A * B) -o C")
    out2, rel2 = apply_rewrite(neg, wk, "lr", (0,), {"A": A, "B": B})
    assert rel2 == LEQ and out2 == parse_formula("A -o C")
    with pytest.raises(RewriteError):
        apply_rewrite(parse_formula("A /\\ (A * B)"), wk, "lr", (0,), {"A": A, "B": B})


def test_apply_rewrite_mismatch():
    reg = _registry()
    with pytest.raises(RewriteError):
        apply_rewrite(parse_formula("A -o B"), reg.get("cwc"), "lr", (), {"A": A, "B": B})


def test_relation_composition_table():
    rels = (EQUIV, GEQ)
    for r in rels:
        assert _compose(EQUIV, r) == r and _compose(r, EQUIV) == r
    assert _compose(GEQ, GEQ) == GEQ
    for a in rels:
        for b in rels:
            for c in rels:
                assert _compose(_compose(a, b), c) == _compose(a, _compose(b, c))


def test_reflexivity_script():
    reg = _registry()
    s = parse_script("lemma refl theory ALm claim A ~= A\nstart A\n")
    assert check_script(s, reg)


def test_cwc_lub_script_and_polarity_mutation():
    reg = _registry()
    text = """
lemma demo theory LLm claim C >= A * (A -o B)
assume hyp-a C >= A
assume hyp-b C >= B
start C
= C * (C -o A) by ins C -o A at root by hyp-a
= A * (A -o C) by cwc at root
>= A * (A -o B) by hyp-b at 1.1
"""
    s = parse_script(text)
    assert check_script(s, reg)
    flipped = parse_script(text.replace("by hyp-b at 1.1", "by hyp-b at 1.1 rev"))
    assert not check_script(flipped, reg)


def test_register_rejects_duplicates_and_unproved():
    reg = _registry()
    entry = LemmaEntry("again", A, parse_formula("B -o A"), GEQ, ALm, "")
    proof = bounded_prove(Sequent((A,), parse_formula("B -o A")), ALm, 4)
    reg.register(entry, proof)
    with pytest.raises(EqError):
        reg.register(entry, proof)
    with pytest.raises(EqError):
        reg.register(LemmaEntry("nope", A, B, GEQ, ALm, ""), None)


def test_validate_names_what_is_wrong_with_the_evidence():
    # a single tree or script, or a (forward, backward) pair of them
    reg = _registry()
    ab, ba = Tensor(A, B), Tensor(B, A)
    entry = LemmaEntry("swap", ab, ba, EQUIV, ALm, "")
    fwd = bounded_prove(Sequent((ab,), ba), ALm, 4)
    bwd = bounded_prove(Sequent((ba,), ab), ALm, 4)
    geq = parse_script(
        """
lemma swap-geq theory ALm claim A * B >= B * A
start A * B
>= B * A by easy 4
"""
    )
    assert reg.validate(entry, None) == (False, "unproved registration")
    assert reg.validate(entry, fwd) == (False, "an equivalence needs proofs in both directions")
    assert reg.validate(entry, geq) == (
        False,
        "lemma claims an equivalence, script proves only >=",
    )
    assert reg.validate(entry, "junk") == (False, "unrecognised evidence 'junk'")
    assert reg.validate(entry, (fwd, "junk")) == (False, "unrecognised evidence 'junk'")
    assert reg.validate(entry, (fwd, fwd)) == (
        False,
        "proof tree conclusion does not match the claim",
    )
    assert reg.validate(entry, (geq, bwd)) == (True, "")
    assert reg.validate(entry, (fwd, bwd)) == (True, "")


def test_lattice_gates_citations():
    reg = _registry()
    text = """
lemma uses-cwc theory ALm claim A * (A -o B) >= B * (B -o A)
start A * (A -o B)
= B * (B -o A) by cwc at root
"""
    rep = check_script(parse_script(text), reg)
    assert not rep.ok and "above the script theory" in rep.message
    ok = check_script(parse_script(text.replace("theory ALm", "theory LLm")), reg)
    assert ok


def test_def_fold_and_unfold():
    reg = _registry()
    text = """
lemma defs theory ALm claim A /\\ B ~= A * (A -o B)
start A /\\ B
= A * (A -o B) by def /\\ at root
"""
    assert check_script(parse_script(text), reg)
    back = """
lemma defs2 theory ALm claim A * (A -o B) ~= A /\\ B
start A * (A -o B)
= A /\\ B by def /\\ at root
"""
    assert check_script(parse_script(back), reg)


def test_easy_step_uses_theory():
    reg = _registry()
    text = """
lemma efq-easy theory {T} claim 1 >= A
start 1
>= A by easy 3
"""
    assert check_script(parse_script(text.format(T="ALi")), reg)
    assert not check_script(parse_script(text.format(T="ALm")), reg)


def test_insert_requires_provable_conjunct():
    reg = _registry()
    text = """
lemma bad-ins theory ALm claim A ~= A * B
start A
= A * B by ins B at root by easy 4
"""
    rep = check_script(parse_script(text), reg)
    assert not rep.ok and "discharge" in rep.message


def test_script_format_roundtrip():
    reg = _registry()
    text = """
lemma rt theory LLm claim A * (A -o B) >= B
start A * (A -o B)
>= B by mp-tensor at root
"""
    s = parse_script(text)
    assert check_script(s, reg)
    assert format_script(parse_script(format_script(s))) == format_script(s)


def test_lemma_forms_equal_their_per_call_constructions(corpus):
    # the forms each entry keeps, against the constructions that rewriting
    # and provability citations used to rebuild on every step
    from itertools import permutations

    from hooplog.eqengine import _spine
    from hooplog.syntax import expand_derived, is_zero, substitute

    def curried(lhs, rhs):
        parts = _spine(ac_normalize(lhs))
        if not 2 <= len(parts) <= 4:
            return []
        out = []
        for perm in permutations(parts):
            f = rhs
            for p in reversed(perm):
                f = Imp(p, f)
            out.append(f)
        return out

    def patterns(e):
        pats = [Imp(e.lhs, e.rhs)] + curried(e.lhs, e.rhs)
        if e.relation == EQUIV:
            pats += [Imp(e.rhs, e.lhs)] + curried(e.rhs, e.lhs)
            if is_zero(e.rhs):
                pats.append(e.lhs)
        if is_zero(e.lhs):
            pats.append(e.rhs)
        return tuple(expand_derived(p) for p in pats)

    entries = list(corpus.registry.entries.values())
    assert len(entries) > 60
    for e in entries:
        names = variables(e.lhs) | variables(e.rhs)
        ren = {v: Var("?" + v) for v in names}
        want = (substitute(e.lhs, ren), substitute(e.rhs, ren), {"?" + v for v in names})
        assert e.fresh == want, e.id
        assert e.fresh is e.fresh
        assert e.provable_patterns == patterns(e), e.id


def _one_step(reg, claim, start, step):
    return check_script(parse_script(f"lemma t theory ALm claim {claim}\nstart {start}\n{step}\n"), reg)


def test_a_ground_rewrite_that_differs_outside_its_position_is_rejected():
    reg = _registry()
    assert reg.get("wk-tensor").bound_targets == (True, False)  # A * B >= A
    assert _one_step(reg, "C -o A * B >= C -o A", "C -o A * B", ">= C -o A by wk-tensor at 1")
    rep = _one_step(reg, "C -o A * B >= D -o A", "C -o A * B", ">= D -o A by wk-tensor at 1")
    assert not rep and rep.step == 0
    assert rep.message == "lemma 'wk-tensor' does not rewrite A * B to the stated result at (1,)"


def test_a_target_only_metavariable_is_solved_from_the_stated_result():
    reg = _registry()
    assert reg.get("wk-imp").bound_targets == (False, True)  # A >= B -o A: B only on the right
    assert _one_step(reg, "C >= D -o C", "C", ">= D -o C by wk-imp at root")
    assert _one_step(reg, "C * E >= (D * F -o C) * E", "C * E", ">= (D * F -o C) * E by wk-imp at 0")
    for wrong in (">= D -o E by wk-imp at root", ">= D * C by wk-imp at root"):
        rep = _one_step(reg, "C >= D -o C", "C", wrong)
        assert not rep and rep.message.startswith("lemma 'wk-imp' does not rewrite C "), wrong
    rep = _one_step(reg, "C * E >= (D -o C) * F", "C * E", ">= (D -o C) * F by wk-imp at 0")
    assert not rep and "does not rewrite C to the stated result at (0,)" in rep.message


def _rewrite_by_whole_formula_matching(cur, step, entry):
    """The rewrite check that matches the whole rewritten formula against
    the stated result for every lemma, ground or not."""
    from hooplog.eqengine import _matches_provable, _rewrite_relation
    from hooplog.syntax import substitute, subterm_at

    sub = subterm_at(cur, step.pos)
    lhs, rhs, fresh = entry.fresh
    src, tgt = (rhs, lhs) if step.reverse else (lhs, rhs)
    for sigma in ac_match(src, sub, metavars=fresh):
        shape = replace_at(cur, step.pos, substitute(tgt, sigma))
        for _ in ac_match(shape, step.result, metavars=fresh):
            return _rewrite_relation(cur, step, entry)
    if not step.reverse and _matches_provable(entry, sub):
        if ac_eq(replace_at(cur, step.pos, ZERO), step.result):
            return EQUIV
    raise RewriteError("no match")


def test_rewrite_verdicts_equal_whole_formula_matching_over_a_corpus_run(monkeypatch):
    # every rewrite step of one corpus run, its chain scripts and the DNS
    # harness's scripts alike, and each step again with the stated result
    # of another step
    import dataclasses

    import hooplog.eqengine as eqengine
    from hooplog.corpus import Corpus

    real = eqengine._check_rewrite
    steps = []

    def recording(cur, step, entry):
        steps.append((cur, step, entry))
        return real(cur, step, entry)

    monkeypatch.setattr(eqengine, "_check_rewrite", recording)
    report = Corpus().run()
    monkeypatch.undo()
    assert all(r.ok for r in report.results)
    bound = [e.bound_targets[st.reverse] for _, st, e in steps]
    assert len(steps) > 500 and bound.count(False) > 10

    def verdict(check, cur, step, entry):
        try:
            return check(cur, step, entry)
        except RewriteError:
            return None

    results = [st.result for _, st, _ in steps]
    for k, (cur, step, entry) in enumerate(steps):
        other = dataclasses.replace(step, result=results[k - 1])
        for st in (step, other):
            want = verdict(_rewrite_by_whole_formula_matching, cur, st, entry)
            assert verdict(real, cur, st, entry) == want, (k, entry.id, st)
