"""Python-verified corpus evidence: constructions checked at run time."""

from __future__ import annotations

from functools import partial

from ..syntax import (
    Imp,
    Neg,
    Tensor,
    Var,
    ZERO,
    core_dneg,
    expand_derived,
    formula_key,
    parse_formula,
)
from ..sequent import (
    ProofTree,
    Sequent,
    bounded_prove,
    check_proof,
    contraction_axiom_premise,
    contraction_rule_from_axiom,
    cut,
    parse_sequent,
    weaken,
)
from ..eqengine import GEQ, EqScript, EqStep, LemmaRegistry, ac_eq, check_script
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
    falsifier,
    find_countermodel,
    lukasiewicz_chain,
    seq_holds,
    theory_class,
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
        prem = contraction_axiom_premise(a, gamma)
        derived = contraction_rule_from_axiom(prem, a)
        want = Sequent(tuple(gamma) + (a,), Tensor(a, a))
        if derived.conclusion != want or not check_proof(derived, ML):
            return False, "rule-from-axiom construction failed"
        if not check_proof(prem, ALm):
            return False, "axiom-from-rule premise does not check in ALm"
        if prem.conclusion != Sequent(tuple(gamma) + (a, a), Tensor(a, a)):
            return False, "axiom-from-rule premise has the wrong shape"
    return True, "both directions constructed and checked"


def bi_weakening(corpus, entry):
    """Weakening is admissible: threading a formula along one path works."""
    p = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    w1 = weaken(p, C)
    if not check_proof(w1, ALm):
        return False, "weakened proof rejected"
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
    """(name, tree, theory) for every sequent proof among the registry's
    evidence so far, named id[i]."""
    out = []
    for name, ev in corpus.registry.evidence.items():
        theory = corpus.registry.entries[name].theory
        for i, item in enumerate(ev if isinstance(ev, tuple) else (ev,)):
            if isinstance(item, ProofTree):
                out.append((f"{name}[{i}]", item, theory))
    return out


def bi_rose_rosser(corpus, entry):
    """A1-A4 hold in every chain L_n for n = 2..11, exhaustively, and the
    defined conjunction agrees with * in small involutive hoops."""
    axioms = {
        k: falsifier(Sequent((), expand_derived(SCHEMAS[k])))
        for k in ("A1", "A2", "A3", "A4")
    }
    for n in range(2, 12):
        chain = lukasiewicz_chain(n)
        for name, falsify in axioms.items():
            w = falsify(chain)
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


def bi_dns_lli(scheme, corpus, entry):
    fs = regression_list(LLi)
    rep = check_dns(scheme, LLi, fs, corpus.registry)
    if not rep.ok:
        bad = [e for e in rep.entries if e.status != "pass"]
        return False, f"{bad[0].requirement} failed on {bad[0].formula}"
    return True, f"{scheme} passes DNS1-3 over {len(fs)} formulas"


def bi_not_ali(scheme, x, corpus, entry):
    """DNS2 fails for the scheme over ALi: its translation of the DNE
    instance on x has a finite countermodel."""
    x = expand_derived(x)
    failing = Sequent((), translate(scheme, Imp(core_dneg(x), x)))
    got = find_countermodel(failing, ALi, 10)
    if got is None:
        return False, "no countermodel within size 10"
    alg, v = got
    if seq_holds(failing, alg, v):
        return False, "witness does not recheck"
    return True, f"DNS2 instance refuted in a pocrim of size {alg.size}"


# k-indexed family: (A * ... * A)^, A^^ |- A, assembled from the proved
# induction-step lemma by iterating its rewrite k-1 times.


def k_contradiction_sequent(k: int) -> Sequent:
    t = A
    for _ in range(k - 1):
        t = Tensor(A, t)
    return Sequent((Neg(t), Neg(Neg(A))), A)


def k_contradiction_script(k: int) -> EqScript:
    if k < 1:
        raise ValueError("k must be at least 1")
    goal_of = []
    t = A
    for _ in range(k):
        goal_of.append(Imp(Neg(t), Imp(Neg(Neg(A)), A)))
        t = Tensor(A, t)
    steps = [EqStep("easy", GEQ, goal_of[0], depth=8)]
    for j in range(1, k):
        steps.append(
            EqStep("rewrite", GEQ, goal_of[j], lemma="kcontr-step", pos=())
        )
    return EqScript(f"kcontr-{k}", LLi, ZERO, GEQ, goal_of[k - 1], ZERO, tuple(steps))


def generate_k_contradiction(k: int, registry: LemmaRegistry):
    """The sequent for k copies plus a script assembled from the induction
    lemma; returns (sequent, script, verdict)."""
    script = k_contradiction_script(k)
    rep = check_script(script, registry)
    return k_contradiction_sequent(k), script, rep


def bi_kcontr_family(corpus, entry):
    for k in range(1, 5):
        seq, script, rep = generate_k_contradiction(k, corpus.registry)
        if not rep.ok:
            return False, f"k={k}: {rep}"
        if not _curries_match(script.claim_rhs, seq):
            return False, f"k={k}: script claim does not curry the sequent"
    return True, "k = 1..4 generated and checked"


def _curries_match(want, seq):
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
    comm = falsifier(parse_sequent("A \\/ B |- B \\/ A"))
    mono = falsifier(parse_sequent("A -o B, A \\/ C |- B \\/ C"))
    assoc = falsifier(parse_sequent("A \\/ (B \\/ C) |- (A \\/ B) \\/ C"))
    n = 0
    for alg in enumerate_algebras(5, theory_class(ALm)):
        n += 1
        vals = {comm(alg) is None, mono(alg) is None, assoc(alg) is None}
        if len(vals) != 1:
            return False, f"properties disagree in a size-{alg.size} algebra"
    return True, f"equivalence holds across {n} algebras"


def bi_remark_nor(corpus, entry):
    """!! is never associative in a nontrivial bounded algebra; over the
    involutive class its commutativity coincides with divisibility, and over
    the bounded class with its left anti-monotonicity."""
    assoc = falsifier(parse_sequent("(A !! B) !! C |- A !! (B !! C)"))
    comm = falsifier(parse_sequent("A !! B |- B !! A"))
    anti = falsifier(parse_sequent("A -o B, B !! C |- A !! C"))
    for alg in enumerate_algebras(5, theory_class(ALi)):
        if alg.size >= 2 and assoc(alg) is None:
            return False, f"!! associative in a size-{alg.size} algebra"
        if (comm(alg) is None) != (anti(alg) is None):
            return False, f"commutativity vs anti-monotonicity split at size {alg.size}"
    for alg, flags in enumerate_classified(5, theory_class(ALc)):
        if (comm(alg) is None) != ("hoop" in flags):
            return False, f"!!-commutativity vs divisibility split at size {alg.size}"
    return True, "all three remark-level equivalences confirmed"


TABLE = {
    "conr": bi_conr,
    "weakening": bi_weakening,
    "prov-zero": bi_prov_zero,
    "hilbert-equivalence": bi_hilbert_equivalence,
    "rose-rosser": bi_rose_rosser,
    "dns-kolmogorov-goedel": bi_dns_kolmogorov_goedel,
    "dns-gentzen": partial(bi_dns_lli, "gentzen"),
    "dns-glivenko": partial(bi_dns_lli, "glivenko"),
    "gentzen-not-ali": partial(bi_not_ali, "gentzen", _f("P * Q")),
    "glivenko-not-ali": partial(bi_not_ali, "glivenko", P),
    "kcontr-family": bi_kcontr_family,
    "remark-vee": bi_remark_vee,
    "remark-nor": bi_remark_nor,
}
