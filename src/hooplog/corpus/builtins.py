"""Python-verified corpus evidence: constructions checked at run time."""

from __future__ import annotations

from ..syntax import Imp, Tensor, Var, core_dneg, expand_derived, parse_formula
from ..sequent import (
    Sequent,
    bounded_prove,
    check_proof,
    contraction_axiom_premise,
    contraction_rule_from_axiom,
    cut,
    parse_sequent,
    tensor_i,
    ax_asm,
    weaken,
)
from ..hilbert import (
    check_derivation,
    curry_sequent,
    hilbert_to_sequent,
    rose_rosser_embed,
    sequent_to_hilbert,
    SCHEMAS,
)
from ..theories import ALc, ALi, ALm, LLc, LLi, ML
from ..algebra import (
    enumerate_algebras,
    enumerate_classified,
    falsifying_assignment,
    find_countermodel,
    lukasiewicz_chain,
    seq_holds,
    theory_class,
    valid,
    value_tables,
)
from ..translate import check_dns, translate

P, Q, R = Var("P"), Var("Q"), Var("R")
A, B, C = Var("A"), Var("B"), Var("C")


def _f(text: str):
    return parse_formula(text)


# Regression theorems of theory+DNE used as the DNS2 premise list; the same
# list is the formula sample for DNS1 and DNS3.

A3_FORMULA = _f("((P -o Q) -o Q) -o (Q -o P) -o P")
A4_FORMULA = _f("(P^ -o Q^) -o Q -o P")
A6_FORMULA = _f("((P -o Q) -o R) -o ((Q -o P) -o R) -o R")
DNE_INSTANCES = [
    Imp(core_dneg(expand_derived(x)), expand_derived(x))
    for x in (P, Q, _f("P * Q"), _f("P -o Q"))
]


def regression_list(theory):
    out = [expand_derived(A4_FORMULA)] + list(DNE_INSTANCES)
    if theory.base in ("lukasiewicz", "full"):
        out = [expand_derived(A3_FORMULA), expand_derived(A6_FORMULA)] + out
    return out


def bi_conr(corpus, entry):
    """The contraction axiom and the contraction rule are inter-derivable."""
    for a, gamma in ((A, (B,)), (P, (P,)), (A, ())):
        prem = tensor_i(ax_asm(a), ax_asm(a))
        for g in gamma:
            prem = weaken(prem, g)
        derived = contraction_rule_from_axiom(prem, a)
        want = Sequent(tuple(gamma) + (a,), Tensor(a, a))
        if derived.conclusion != want or not check_proof(derived, ML):
            return False, "rule-from-axiom construction failed"
        back = contraction_axiom_premise(a, gamma)
        if not check_proof(back, ALm):
            return False, "axiom-from-rule premise does not check in ALm"
        if back.conclusion != Sequent(tuple(gamma) + (a, a), Tensor(a, a)):
            return False, "axiom-from-rule premise has the wrong shape"
    return True, "both directions constructed and checked"


def bi_weakening(corpus, entry):
    """Weakening is admissible: threading a formula along one path works."""
    p = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    w1 = weaken(p, C)
    if not check_proof(w1, ALm):
        return False, "weakened proof rejected"
    from ..syntax import formula_key
    if sorted(w1.conclusion.context, key=formula_key) != sorted(p.conclusion.context + (C,), key=formula_key):
        return False, "weakening changed more than one context slot"
    w12 = weaken(weaken(p, C), Q)
    w21 = weaken(weaken(p, Q), C)
    if not (check_proof(w12, ALm) and check_proof(w21, ALm)):
        return False, "double weakening failed"
    if w12.conclusion != w21.conclusion:
        return False, "double weakening orders disagree on the sequent"
    q = bounded_prove(parse_sequent("|- A -o A"), ALm, 3)
    if not check_proof(weaken(q, C), ALm):
        return False, "weakening an empty-context proof failed"
    return True, "weakening preserves checking; both orders commute"


def bi_prov_zero(corpus, entry):
    """A provable iff 0 >= A iff A ~= 0, constructively on a sample."""
    f = Imp(A, A)
    direct = bounded_prove(Sequent((), f), ALm, 3)
    zero = expand_derived(parse_formula("0"))
    from_zero = weaken(direct, zero)  # 0 |- f
    down = bounded_prove(Sequent((f,), zero), ALm, 3)  # f |- 0
    zero_proof = bounded_prove(Sequent((), zero), ALm, 2)
    rebuilt = cut(zero_proof, zero, from_zero)  # |- f  from 0 |- f
    for tree, th in ((direct, ALm), (from_zero, ALm), (down, ALm), (rebuilt, ALm)):
        if tree is None or not check_proof(tree, th):
            return False, "a direction of the provability bridge failed"
    if rebuilt.conclusion != Sequent((), f):
        return False, "cut composition produced the wrong sequent"
    return True, "|- A, 0 |- A and A ~= 0 interconstructed"


def bi_hilbert_equivalence(corpus, entry):
    """Sequent proofs translate to checked Hilbert derivations and back."""
    trees = _collect_proofs(corpus)
    if not trees:
        return False, "no sequent proofs collected"
    for name, tree, theory in trees:
        der, order = sequent_to_hilbert(tree, theory)
        v = check_derivation(der, f"H-{theory.name}")
        if not v:
            return False, f"{name}: derivation rejected: {v.message}"
        if der.final != curry_sequent(tree.conclusion, order):
            return False, f"{name}: wrong final formula"
    # replay direction on a representative derivation
    sample = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    der, _ = sequent_to_hilbert(sample, ALm)
    back = hilbert_to_sequent(der, ALm)
    if not check_proof(back, ALm) or back.conclusion.goal != der.final:
        return False, "replay into the sequent calculus failed"
    return True, f"{len(trees)} proofs round-tripped"


def _collect_proofs(corpus):
    out = []
    theory_of = {}
    for name, lemma in corpus.registry.entries.items():
        theory_of[name] = lemma.theory
    for name, ev in corpus.registry.evidence.items():
        items = ev if isinstance(ev, tuple) else (ev,)
        for i, item in enumerate(items):
            if hasattr(item, "conclusion"):
                out.append((f"{name}[{i}]", item, theory_of[name]))
    for name, tree in corpus.proofs.items():
        base = name.split("[")[0].removesuffix(".rev")
        th = theory_of.get(base)
        if th is None:
            for e in corpus.entries:
                if e.id == base:
                    th = e.theory
                    break
        if th is not None:
            out.append((name, tree, th))
    seen = set()
    uniq = []
    for name, tree, th in out:
        if id(tree) in seen:
            continue
        seen.add(id(tree))
        uniq.append((name, tree, th))
    return uniq


def bi_rose_rosser(corpus, entry):
    """A1-A4 hold in every chain L_n for n = 2..11, exhaustively, and the
    defined conjunction agrees with * in small involutive hoops."""
    axioms = {k: expand_derived(SCHEMAS[k]) for k in ("A1", "A2", "A3", "A4")}
    for n in range(2, 12):
        chain = lukasiewicz_chain(n)
        for name, f in axioms.items():
            w = falsifying_assignment(Sequent((), f), chain)
            if w is not None:
                return False, f"{name} fails in the {n}-chain at {w}"
    probes = [Tensor(A, B), _f("(A * B) * C"), _f("A * (B -o A)"), _f("A * B -o C")]
    count = 0
    for alg in enumerate_algebras(5, theory_class(LLc)):
        count += 1
        for f in probes:
            pair = (f, rose_rosser_embed(f))
            for cols, (tf, tg) in value_tables(pair, alg, ["A", "B", "C"]):
                if tf != tg:
                    i = next(i for i, (a, b) in enumerate(zip(tf, tg)) if a != b)
                    v = {x: c[i] for x, c in cols.items()}
                    return False, f"embedding changes the value of {f} at {v}"
    return True, f"A1-A4 valid in L_2..L_11; embedding exact in {count} algebras"


def bi_dns_kolmogorov_goedel(corpus, entry):
    fs = regression_list(ALi)
    for scheme in ("kolmogorov", "goedel"):
        rep = check_dns(scheme, ALi, fs, corpus.registry)
        if not rep.ok:
            bad = [e for e in rep.entries if e.status != "pass"]
            return False, f"{scheme}: {bad[0].requirement} failed on {bad[0].formula}"
    return True, f"kolmogorov and goedel pass DNS1-3 over {len(fs)} formulas"


def bi_dns_gentzen(corpus, entry):
    fs = regression_list(LLi)
    rep = check_dns("gentzen", LLi, fs, corpus.registry)
    if not rep.ok:
        bad = [e for e in rep.entries if e.status != "pass"]
        return False, f"{bad[0].requirement} failed on {bad[0].formula}"
    return True, f"gentzen passes DNS1-3 over {len(fs)} formulas"


def bi_dns_glivenko(corpus, entry):
    fs = regression_list(LLi)
    rep = check_dns("glivenko", LLi, fs, corpus.registry)
    if not rep.ok:
        bad = [e for e in rep.entries if e.status != "pass"]
        return False, f"{bad[0].requirement} failed on {bad[0].formula}"
    return True, f"glivenko passes DNS1-3 over {len(fs)} formulas"


def bi_gentzen_not_ali(corpus, entry):
    """DNS2 fails for the Gentzen translation over ALi: the translated DNE
    instance on P * Q has a finite countermodel."""
    x = expand_derived(_f("P * Q"))
    failing = translate("gentzen", Imp(core_dneg(x), x))
    got = find_countermodel(Sequent((), failing), ALi, 10)
    if got is None:
        return False, "no countermodel within size 10"
    alg, v = got
    if seq_holds(Sequent((), failing), alg, v):
        return False, "witness does not recheck"
    return True, f"DNS2 instance refuted in a pocrim of size {alg.size}"


def bi_glivenko_not_ali(corpus, entry):
    x = expand_derived(P)
    failing = translate("glivenko", Imp(core_dneg(x), x))
    got = find_countermodel(Sequent((), failing), ALi, 10)
    if got is None:
        return False, "no countermodel within size 10"
    alg, v = got
    if seq_holds(Sequent((), failing), alg, v):
        return False, "witness does not recheck"
    return True, f"DNS2 instance refuted in a pocrim of size {alg.size}"


def bi_kcontr_family(corpus, entry):
    from . import generate_k_contradiction

    for k in range(1, 5):
        seq, script, rep = generate_k_contradiction(k, corpus.registry)
        if not rep.ok:
            return False, f"k={k}: step {rep.step}: {rep.message}"
        want = script.claim_rhs
        got = curry_sequent(seq, list(seq.context))
        if expand_derived(want) != expand_derived(
            got
        ) and not _curries_match(want, seq):
            return False, f"k={k}: script claim does not curry the sequent"
    return True, "k = 1..4 generated and checked"


def _curries_match(want, seq):
    from ..eqengine import ac_eq

    orders = [list(seq.context), list(reversed(seq.context))]
    return any(
        ac_eq(expand_derived(want), expand_derived(curry_sequent(seq, o)))
        for o in orders
    )


def bi_remark_vee(corpus, entry):
    """Over the affine class: commutativity of \\/, its left monotonicity and
    one direction of its associativity hold in exactly the same algebras
    (size <= 5); the other associativity direction already holds in the
    Goedel chains, so it is the nesting-in direction that carries content."""
    comm = parse_sequent("A \\/ B |- B \\/ A")
    mono = parse_sequent("A -o B, A \\/ C |- B \\/ C")
    assoc = parse_sequent("A \\/ (B \\/ C) |- (A \\/ B) \\/ C")
    n = 0
    for alg in enumerate_algebras(5, theory_class(ALm)):
        n += 1
        vals = {valid(comm, alg), valid(mono, alg), valid(assoc, alg)}
        if len(vals) != 1:
            return False, f"properties disagree in a size-{alg.size} algebra"
    return True, f"equivalence holds across {n} algebras"


def bi_remark_nor(corpus, entry):
    """!! is never associative in a nontrivial bounded algebra; over the
    involutive class its commutativity coincides with divisibility, and over
    the bounded class with its left anti-monotonicity."""
    assoc = parse_sequent("(A !! B) !! C |- A !! (B !! C)")
    comm = parse_sequent("A !! B |- B !! A")
    anti = parse_sequent("A -o B, B !! C |- A !! C")
    for alg in enumerate_algebras(5, theory_class(ALi)):
        if alg.size >= 2 and valid(assoc, alg):
            return False, f"!! associative in a size-{alg.size} algebra"
        if valid(comm, alg) != valid(anti, alg):
            return False, f"commutativity vs anti-monotonicity split at size {alg.size}"
    for alg, flags in enumerate_classified(5, theory_class(ALc)):
        if valid(comm, alg) != ("hoop" in flags):
            return False, f"!!-commutativity vs divisibility split at size {alg.size}"
    return True, "all three remark-level equivalences confirmed"


TABLE = {
    "conr": bi_conr,
    "weakening": bi_weakening,
    "prov-zero": bi_prov_zero,
    "hilbert-equivalence": bi_hilbert_equivalence,
    "rose-rosser": bi_rose_rosser,
    "dns-kolmogorov-goedel": bi_dns_kolmogorov_goedel,
    "dns-gentzen": bi_dns_gentzen,
    "dns-glivenko": bi_dns_glivenko,
    "gentzen-not-ali": bi_gentzen_not_ali,
    "glivenko-not-ali": bi_glivenko_not_ali,
    "kcontr-family": bi_kcontr_family,
    "remark-vee": bi_remark_vee,
    "remark-nor": bi_remark_nor,
}
