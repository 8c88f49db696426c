import functools
import random
from itertools import product

import pytest

from hooplog.syntax import (
    ONE,
    FormulaError,
    Imp,
    Tensor,
    Var,
    core_dneg,
    expand_derived,
    parse_formula,
    replace_at,
    substitute,
)
from hooplog.theories import ALc, ALi, ALm, LLm, ML
from hooplog.sequent import (
    ProofTree,
    Sequent,
    ax_asm,
    ax_con,
    ax_cwc,
    bounded_prove,
    check_proof,
    format_proof,
    imp_e,
    imp_i,
    parse_proof,
    parse_sequent,
    substitute_proof,
    tensor_e,
    tensor_i,
)
from hooplog.hilbert import (
    HilbertDerivation,
    SCHEMAS,
    _Builder,
    _comb,
    _is_instance,
    check_derivation,
    curry_sequent,
    format_derivation,
    hilbert_to_sequent,
    parse_derivation,
    rose_rosser_embed,
    schema_proof,
    sequent_to_hilbert,
    system_for,
)
from hooplog.algebra import (
    enumerate_algebras,
    eval_formula,
    falsifying_assignment,
    lukasiewicz_chain,
    theory_class,
)
from hooplog.theories import LLc

A, B, C, P, Q = (Var(x) for x in "ABCPQ")


def test_single_axiom_line():
    wk = HilbertDerivation(
        ((parse_formula("A * B -o A"), ("axiom", "Wk", {"A": A, "B": B})),)
    )
    assert check_derivation(wk, "H-ALm")


def test_schema_filtering():
    cwc_line = HilbertDerivation(
        ((SCHEMAS["CWC"], ("axiom", "CWC", {"A": A, "B": B})),)
    )
    assert check_derivation(cwc_line, "H-LLm")
    v = check_derivation(cwc_line, "H-ALm")
    assert not v and "CWC" in v.message


def test_modus_ponens_shapes():
    f = parse_formula("A * B -o A")
    g = Imp(f, parse_formula("A -o B -o A"))
    d = HilbertDerivation(
        (
            (f, ("axiom", "Wk", {"A": A, "B": B})),
            (g, ("axiom", "Curry", {"A": A, "B": B, "C": A})),
            (parse_formula("A -o B -o A"), ("mp", 0, 1)),
        )
    )
    assert check_derivation(d, "H-ALm")
    bad = HilbertDerivation(d.lines[:2] + ((parse_formula("B -o A"), ("mp", 0, 1)),))
    assert not check_derivation(bad, "H-ALm")


def test_curry_sequent():
    s = parse_sequent("A, B |- C")
    assert curry_sequent(s, [A, B]) == parse_formula("A -o B -o C")
    assert curry_sequent(parse_sequent("|- C"), []) == C
    dup = parse_sequent("A, A |- C")
    assert curry_sequent(dup, [A, A]) == parse_formula("A -o A -o C")
    with pytest.raises(Exception):
        curry_sequent(s, [A, A])


@pytest.mark.parametrize(
    "text,theory,depth",
    [
        ("A |- A", ALm, 3),
        ("|- 1 -o A", ALi, 3),
        ("A, A -o B |- B", ALm, 4),
        ("A, A -o B |- B * (B -o A)", LLm, 6),
        ("(A -o 1) -o 1 |- A", ALc, 3),
        ("P, P |- P * P", ML, 5),
        ("A -o B, B -o C, A |- C", ALm, 8),
        ("X, Y, Z |- (X * Y) * Z", ALm, 8),
    ],
)
def test_sequent_to_hilbert_round_trip(text, theory, depth):
    p = bounded_prove(parse_sequent(text), theory, depth)
    assert p is not None
    der, order = sequent_to_hilbert(p, theory)
    assert check_derivation(der, f"H-{theory.name}")
    assert der.final == curry_sequent(p.conclusion, order)


def test_hilbert_to_sequent_replay():
    p = bounded_prove(parse_sequent("A * B |- B * A"), ALm, 8)
    der, _ = sequent_to_hilbert(p, ALm)
    back = hilbert_to_sequent(der, ALm)
    assert check_proof(back, ALm)
    assert back.conclusion == Sequent((), der.final)


def test_a_replayed_tree_with_lemma_leaves_prints_and_reads_back():
    p = bounded_prove(parse_sequent("A -o B, B -o C, A |- C"), ALm, 8)
    der, _ = sequent_to_hilbert(p, ALm)
    back = hilbert_to_sequent(der, ALm)
    text = format_proof(back)
    axioms = sum(just[0] == "axiom" for _, just in der.lines)
    assert text.count("Lem | |- ") == axioms > 0
    q = parse_proof(text)
    assert format_proof(q) == text
    assert check_proof(q, ALm) and q.conclusion == back.conclusion


def test_derivation_file_roundtrip():
    p = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    der, _ = sequent_to_hilbert(p, ALm)
    text = format_derivation(der)
    assert parse_derivation(text) == der


def test_rose_rosser_embed():
    assert rose_rosser_embed(Tensor(A, B)) == parse_formula("(A -o B -o 1) -o 1")
    assert rose_rosser_embed(Imp(A, B)) == Imp(A, B)
    nested = rose_rosser_embed(parse_formula("(A * B) * C"))
    from hooplog.syntax import Tensor as T

    def has_tensor(f):
        return isinstance(f, T) or any(has_tensor(c) for c in f.children())

    assert not has_tensor(nested)


def test_rose_rosser_axioms_valid_in_chains():
    for n in range(2, 12):
        chain = lukasiewicz_chain(n)
        for name in ("A1", "A2", "A3", "A4"):
            f = expand_derived(SCHEMAS[name])
            assert falsifying_assignment(Sequent((), f), chain) is None, (name, n)


def test_embed_preserves_evaluation():
    probes = [parse_formula(t) for t in ("A * B", "(A * B) -o C", "A * (B -o C)")]
    for alg in enumerate_algebras(5, theory_class(LLc)):
        for f in probes:
            g = rose_rosser_embed(f)
            for vec in product(range(alg.size), repeat=3):
                v = dict(zip("ABC", vec))
                assert eval_formula(f, alg, v) == eval_formula(g, alg, v)


def test_identity_is_dropped_by_composition_without_lines():
    b = _Builder(system_for(ALm))
    j = b.axiom("Wk", A=A, B=B)
    built = list(b.lines)
    assert b.comp(b.ident(Tensor(A, B)), j) == j
    assert b.comp(j, b.ident(A)) == j
    assert b.mp(j, b.ident(Imp(Tensor(A, B), A))) == j
    assert b.lines == built


@pytest.mark.parametrize("text", ["A", "A * B", "A -o B -o C", "(A -o B) -o C", "1"])
def test_identity_lines_are_emitted_where_cited(text):
    a = parse_formula(text)
    b = _Builder(system_for(ALm))
    der = b.extract(b.ident(a))
    assert der.final == Imp(a, a)
    assert check_derivation(der, "H-ALm")


def _random_core(rng, size):
    if size <= 1:
        return ONE if rng.random() < 0.1 else Var(rng.choice("AB"))
    left = rng.randint(1, size - 1)
    cls = Imp if rng.random() < 0.6 else Tensor
    return cls(_random_core(rng, left), _random_core(rng, size - left))


@functools.cache
def _seeded_translations():
    """(theory, sequent, proof, derivation, order) for the first 150
    provable sequents of a seeded list over every theory."""
    from hooplog.theories import ALL_THEORIES

    rng = random.Random(20141)
    out = []
    for k in range(2000):
        theory = ALL_THEORIES[k % len(ALL_THEORIES)]
        context = tuple(_random_core(rng, rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
        seq = Sequent(context, _random_core(rng, rng.randint(1, 4)))
        p = bounded_prove(seq, theory, 5)
        if p is None:
            continue
        out.append((theory, seq, p, *sequent_to_hilbert(p, theory)))
        if len(out) == 150:
            break
    return tuple(out)


def _assert_round_trip(p, theory):
    """p translates to a checked derivation of its curried conclusion, and
    the derivation replays to a checked proof of its final line."""
    der, order = sequent_to_hilbert(p, theory)
    assert check_derivation(der, f"H-{theory.name}"), p.conclusion
    assert der.final == curry_sequent(p.conclusion, order), p.conclusion
    back = hilbert_to_sequent(der, theory)
    assert check_proof(back, theory) and back.conclusion == Sequent((), der.final)


def test_seeded_round_trip_through_hilbert():
    # sequent proof -> Hilbert derivation -> sequent proof, over small
    # provable sequents of every theory
    translations = _seeded_translations()
    assert len(translations) == 150
    for theory, seq, p, der, order in translations:
        assert check_proof(p, theory)
        assert check_derivation(der, f"H-{theory.name}"), seq
        assert der.final == curry_sequent(seq, order), seq
        back = hilbert_to_sequent(der, theory)
        assert check_proof(back, theory) and back.conclusion == Sequent((), der.final)


def test_seeded_round_trip_over_three_to_five_context_formulas():
    # long combs with tensors and repeats, which TensorE and the root curry
    # their elements out of; every theory in turn
    from hooplog.theories import ALL_THEORIES

    rng = random.Random(1701)
    rules = set()
    proved = 0
    for k in range(80):
        theory = ALL_THEORIES[k % len(ALL_THEORIES)]
        context = _random_context(rng, rng.randint(3, 5))
        if rng.random() < 0.5:
            goal = Tensor(*_random_context(rng, 2))
        else:
            goal = _random_core(rng, rng.randint(1, 4))
        p = bounded_prove(Sequent(context, goal), theory, 6)
        if p is None:
            continue
        _assert_round_trip(p, theory)
        rules.update(q.rule for q in p.nodes())
        proved += 1
    assert proved >= 50
    assert {"TensorE", "TensorI", "ImpI", "ImpE"} <= rules
    # and each place a formula the leaves do not use is weakened in by K
    for p in _WEAKENINGS:
        assert check_proof(p, ALm)
        _assert_round_trip(p, ALm)


_WEAKENINGS = [
    # a vacuous ImpI over an empty comb: |- C -o A -o B -o A
    imp_i(imp_i(imp_i(ax_asm(A, (B, C)), B), A), C),
    # over a non-empty comb, an assumption's (A |- C -o A) and a line's
    # (A, A -o B |- C -o B)
    imp_i(ax_asm(A, (C,)), C),
    imp_i(imp_e(ax_asm(A), ax_asm(Imp(A, B), (C,))), C),
    # over a closed identity: |- C -o A -o A
    imp_i(imp_i(ax_asm(A, (C,)), A), C),
    # TensorE with one copy of A * A used
    tensor_e(ax_asm(Tensor(A, A)), ax_asm(A, (A,))),
    # root contexts with unused and repeated formulas: B, B, A * B, A, A |- A
    # and A, A, B, B, A -o B |- B
    ax_asm(A, (B, B, Tensor(A, B), A)),
    imp_e(ax_asm(A, (A, B)), ax_asm(Imp(A, B), (B,))),
]


_AA, _BB = Imp(A, A), Imp(B, B)


@pytest.mark.parametrize(
    "body",
    [
        tensor_i(ax_asm(_AA), ax_asm(_BB)),
        tensor_i(ax_asm(_BB), ax_asm(_AA)),
        tensor_i(tensor_i(ax_asm(C), ax_asm(_BB)), ax_asm(_AA)),
        tensor_i(tensor_i(ax_asm(_AA), ax_asm(C)), ax_asm(_BB)),
        # one component unused, or both
        ax_asm(_AA, (_BB,)),
        ax_asm(_BB, (_AA,)),
        ax_asm(C, (_AA, _BB)),
    ],
    ids=["a,b", "b,a", "C,b,a", "a,C,b", "a", "b", "C"],
)
@pytest.mark.parametrize("closed", [False, True], ids=["assumed", "closed"])
def test_tensor_e_translates_wherever_its_components_sit(body, closed):
    # the body's order is its TensorI leaves' left to right; the tensor
    # premise is an assumption, or a proof with no context
    if closed:
        tprem = tensor_i(imp_i(ax_asm(A), A), imp_i(ax_asm(B), B))
    else:
        tprem = ax_asm(Tensor(_AA, _BB))
    p = tensor_e(tprem, body)
    assert check_proof(p, ALm)
    _assert_round_trip(p, ALm)


_AXIOM_LEAVES = [
    # (leaf over the extra context, the weakest theory with its axiom, the
    # formula the axiom itself needs in the context)
    (lambda g: ax_asm(A, g), ALm, A),
    (lambda g: ax_con(A, g), ML, A),
    (lambda g: ProofTree(Sequent(g + (ONE,), A), "AxEFQ", inst=(A,)), ALi, ONE),
    (lambda g: ProofTree(Sequent(g + (core_dneg(A),), A), "AxDNE", inst=(A,)), ALc, core_dneg(A)),
    (lambda g: ax_cwc(A, B, g), LLm, A),
]


@pytest.mark.parametrize("leaf,theory,own", _AXIOM_LEAVES, ids=["ASM", "CON", "EFQ", "DNE", "CWC"])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_axiom_leaves_translate_with_extra_context(leaf, theory, own, extra):
    # the extra context, none of it used: a tensor, a repeat of the axiom's
    # own formula, then the tensor again
    p = leaf((Tensor(A, B), own, Tensor(A, B))[:extra])
    assert check_proof(p, theory)
    _assert_round_trip(p, theory)


def test_derivation_lengths_stay_within_their_pins(corpus):
    # Upper bounds at the lengths the constructions reach; a construction
    # that emits more lines fails here.
    from hooplog.corpus.builtins import _collect_proofs

    # TensorE with its components behind the rest: body (C * B) * A, and
    # C * (B * A)
    body = tensor_i(tensor_i(ax_asm(C), ax_asm(B)), ax_asm(A))
    tensor_e_behind = tensor_e(ax_asm(Tensor(A, B)), body)
    assert len(sequent_to_hilbert(tensor_e_behind, ALm)[0]) <= 33
    body = tensor_i(ax_asm(C), tensor_i(ax_asm(B), ax_asm(A)))
    assert len(sequent_to_hilbert(tensor_e(ax_asm(Tensor(A, B)), body), ALm)[0]) <= 13
    # TensorE with one component unused: the tensor weakened, one Wk
    assert len(sequent_to_hilbert(tensor_e(ax_asm(Tensor(A, B)), ax_asm(A, (B,))), ALm)[0]) <= 1
    # an AxCWC leaf with one formula of context, weakened in at the root
    assert len(sequent_to_hilbert(ax_cwc(A, B, (C,)), LLm)[0]) <= 9
    # A, B, C |- A: two unused formulas, each one K
    assert len(sequent_to_hilbert(ax_asm(A, (B, C)), ALm)[0]) <= 9
    # ImpI discharging the last of three hypotheses, one of them unused
    impi = bounded_prove(parse_sequent("A, B |- C -o A"), ALm, 4)
    assert impi.rule == "ImpI" and len(sequent_to_hilbert(impi, ALm)[0]) <= 9
    # a K over the closed identity |- B -o B, without its lines
    vacuous = bounded_prove(parse_sequent("|- (A -o A) -o B -o B"), ALm, 4)
    assert vacuous.rule == "ImpI" and len(sequent_to_hilbert(vacuous, ALm)[0]) <= 7
    # TensorI whose premises both carry context
    left = bounded_prove(parse_sequent("A, A -o B |- B"), ALm, 4)
    right = bounded_prove(parse_sequent("C, C -o D |- D"), ALm, 4)
    both = tensor_i(left, right)
    _assert_round_trip(both, ALm)
    assert len(sequent_to_hilbert(both, ALm)[0]) <= 87
    assert sum(len(t[3]) for t in _seeded_translations()) <= 1542
    proofs = list(_collect_proofs(corpus))
    assert len(proofs) == 55
    assert sum(len(sequent_to_hilbert(tree, theory)[0]) for _, tree, theory in proofs) <= 1149


def _random_context(rng, n):
    """n context formulas over A, B, C with tensors and repeats."""
    pool = [A, B, Tensor(A, B), Imp(A, C), Tensor(B, Tensor(A, C))]
    return [rng.choice(pool) for _ in range(n)]


def test_seeded_uncurry_comb_derivations_check():
    rng = random.Random(1302)
    b = _Builder(system_for(ALm))
    for _ in range(60):
        order = _random_context(rng, rng.randint(2, 5))
        k = rng.randint(1, len(order) - 1)
        o1, o2 = order[:k], order[k:]
        goal = rng.choice([A, C, Tensor(A, B)])
        der = b.extract(b.uncurry_comb(o1, o2, goal))
        assert check_derivation(der, "H-ALm"), (o1, o2)
        want = Imp(Imp(_comb(o1), Imp(_comb(o2), goal)), Imp(_comb(order), goal))
        assert der.final == want, (o1, o2)


def test_seeded_curry_out_derivations_check():
    rng = random.Random(1401)
    b = _Builder(system_for(ALm))
    for _ in range(60):
        order = _random_context(rng, rng.randint(2, 5))
        goal = rng.choice([A, C, Tensor(A, B)])
        for k in range(len(order)):
            der = b.extract(b.curry_out(order, k, goal))
            assert check_derivation(der, "H-ALm"), (order, k)
            rest = _comb(order[:k] + order[k + 1 :])
            want = Imp(Imp(_comb(order), goal), Imp(rest, Imp(order[k], goal)))
            assert der.final == want, (order, k)


def test_compiled_schema_proofs_instantiate_as_substitute_proof():
    """An axiom line replays as one `Lem` leaf citing its schema, and the
    kernel accepts it exactly where it accepts the schema's proof under the
    line's substitution, which the leaf stands for."""
    from hooplog.theories import ALL_THEORIES

    rng = random.Random(1402)
    fixed = [
        {"A": Tensor(A, B), "B": ONE, "C": A},  # a tensor, 1, a repeat
        {"A": B, "B": B, "C": B},  # one variable for all
        {"A": Imp(C, Tensor(C, ONE))},  # B and C left unmapped
        {},
    ]
    for theory in ALL_THEORIES:
        for name in system_for(theory):
            sigmas = fixed + [
                {v: _random_core(rng, rng.randint(1, 4)) for v in "ABC"} for _ in range(4)
            ]
            for sigma in sigmas:
                line = substitute(SCHEMAS[name], sigma)
                leaf = hilbert_to_sequent(
                    HilbertDerivation(((line, ("axiom", name, sigma)),)), theory
                )
                full = substitute_proof(schema_proof(name, theory), sigma)
                assert leaf.rule == "Lem" and leaf.inst == (SCHEMAS[name],)
                assert leaf.conclusion == full.conclusion == Sequent((), line)
                assert check_proof(leaf, theory), (theory, name, sigma)
                assert check_proof(full, theory), (theory, name, sigma)
    # every schema's instance check, Rose-Rosser's included: the line that
    # substitute builds passes, and the line with one leaf changed fails
    assert len(SCHEMAS) == 13
    pick = random.Random(1403)
    for name, schema in SCHEMAS.items():
        sigmas = fixed + [
            {v: _random_core(rng, rng.randint(1, 4)) for v in "ABC"} for _ in range(4)
        ]
        for sigma in sigmas:
            line = substitute(schema, sigma)
            assert _is_instance(schema, sigma, line), (name, sigma)
            mutant = replace_at(line, pick.choice(_leaf_positions(line)), Var("Z"))
            assert not _is_instance(schema, sigma, mutant), (name, sigma, mutant)


def _leaf_positions(f, pos=()):
    kids = f.children()
    if not kids:
        return [pos]
    return [p for i, c in enumerate(kids) for p in _leaf_positions(c, pos + (i,))]


_WK = parse_formula("A * B -o A")
_WK_CURRY = (
    (_WK, ("axiom", "Wk", {"A": A, "B": B})),
    (Imp(_WK, parse_formula("A -o B -o A")), ("axiom", "Curry", {"A": A, "B": B, "C": A})),
)


@pytest.mark.parametrize(
    "line",
    [
        (B, ("mp", 0, 1)),  # replays to |- A -o B -o A, not to B
        (parse_formula("A -o B -o A"), ("mp", -2, 1)),  # -2 would wrap around to line 1
        (A, ("mp", 1, 0)),  # the major premise does not match
        (Imp(A, A), ("axiom", "Id", {"A": A})),  # no such schema
        (SCHEMAS["CWC"], ("axiom", "CWC", {"A": A, "B": B})),  # not a schema of H-ALm
        # an instance of Wk, but under {A=B; B=A}, not under its substitution
        (parse_formula("B * A -o B"), ("axiom", "Wk", {"A": A, "B": B})),
        (parse_formula("A -o B -o A"), ("bogus", 0, 1)),  # no such justification
    ],
    ids=[
        "not-its-conclusion",
        "negative-index",
        "major-mismatch",
        "unknown-schema",
        "schema-outside-system",
        "instance-under-another-substitution",
        "unknown-justification",
    ],
)
def test_replay_names_the_bad_line(line):
    d = HilbertDerivation(_WK_CURRY + (line,))
    assert not check_derivation(d, "H-ALm")
    with pytest.raises(FormulaError, match="line 3"):
        hilbert_to_sequent(d, ALm)
