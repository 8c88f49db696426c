import random
import re
from pathlib import Path

import pytest

from hooplog.syntax import (
    DEFINITIONS,
    FormulaError,
    Imp,
    Neg,
    Nor,
    ONE,
    ParseError,
    SDisj,
    SImp,
    Tensor,
    Var,
    WConj,
    ZERO,
    expand_derived,
    expand_one_level,
    format_formula,
    parse_formula,
    positions,
    replace_at,
    signed_polarity,
    substitute,
    subterm_at,
)

A, B, C, D, F, P, Q = (Var(x) for x in "ABCDFPQ")


def test_parse_redundant_brackets_flat():
    f = parse_formula("A * B^ -o C -o D * F")
    assert f == Imp(Tensor(A, Neg(B)), Imp(C, Tensor(D, F)))
    assert f == parse_formula("(A * (B^)) -o (C -o (D * F))")


def test_parse_required_brackets():
    f = parse_formula("(((A -o B) -o C) * D)^")
    assert f == Neg(Tensor(Imp(Imp(A, B), C), D))


def test_parse_right_assoc():
    assert parse_formula("A -o B -o C") == Imp(A, Imp(B, C))
    assert parse_formula("A => B => C") == SImp(A, SImp(B, C))


def test_parse_tier2_left_assoc_and_mixing():
    assert parse_formula("A * B * C") == Tensor(Tensor(A, B), C)
    with pytest.raises(ParseError):
        parse_formula("A * B /\\ C")
    assert parse_formula("(A * B) /\\ C") == WConj(Tensor(A, B), C)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_formula("A -o")
    with pytest.raises(ParseError):
        parse_formula("a -o B")
    with pytest.raises(ParseError):
        parse_formula("(A -o B")


@pytest.mark.parametrize(
    "text",
    [
        "A -o B -o C",
        "A^",
        "A * 0",
        "A * B^ -o C -o D * F",
        "(((A -o B) -o C) * D)^",
        "(A \\/ B) /\\ (A => B)",
        "A !! (B -o A)",
        "1 -o 0",
        "A => B => C",
        "A \\/ B \\/ C",
    ],
)
def test_print_parse_roundtrip(text):
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


def test_print_examples():
    assert format_formula(Imp(A, Imp(B, C))) == "A -o B -o C"
    assert format_formula(Neg(A)) == "A^"
    assert format_formula(Tensor(A, ZERO)) == "A * 0"


def test_expand_derived_table():
    assert expand_derived(WConj(A, B)) == Tensor(A, Imp(A, B))
    assert expand_derived(Nor(A, B)) == Tensor(Imp(A, ONE), Imp(B, A))
    assert expand_derived(ZERO) == Imp(ONE, ONE)
    assert expand_derived(SDisj(A, B)) == Imp(Imp(B, A), A)
    assert expand_derived(SImp(A, B)) == Imp(A, Tensor(A, B))
    assert expand_derived(Neg(A)) == Imp(A, ONE)


def test_expand_derived_idempotent_and_core():
    f = parse_formula("(A \\/ B) /\\ ((A => B) !! 0)")
    e = expand_derived(f)
    assert expand_derived(e) == e
    for p in positions(e):
        g = subterm_at(e, p)
        assert isinstance(g, (Var, Imp, Tensor)) or g is ONE


def test_substitute():
    assert substitute(Imp(A, B), {"A": Tensor(P, Q)}) == Imp(Tensor(P, Q), B)
    assert substitute(A, {}) == A
    assert substitute(WConj(A, A), {"A": ONE}) == WConj(ONE, ONE)


def test_substitute_composes_on_disjoint_domains():
    f = parse_formula("A -o B * C")
    sigma = {"A": Tensor(P, Q)}
    tau = {"B": Neg(P)}
    combined = dict(sigma)
    combined.update(tau)
    assert substitute(substitute(f, sigma), tau) == substitute(f, combined)


def test_polarity():
    f = Imp(A, B)
    assert signed_polarity(f, (0,)) == "negative"
    assert signed_polarity(Imp(Imp(A, B), C), (0, 0)) == "positive"
    assert signed_polarity(Tensor(A, B), (1,)) == "positive"
    assert signed_polarity(Neg(Imp(A, B)), (0, 0)) == "positive"
    assert signed_polarity(Imp(WConj(A, B), C), (0, 0)) == "mixed"
    with pytest.raises(Exception):
        signed_polarity(f, (2,))


def test_signed_polarity_mixed_on_derived_left():
    f = WConj(A, B)
    assert signed_polarity(f, (0,)) == "mixed"
    assert signed_polarity(f, (1,)) == "positive"
    assert signed_polarity(Nor(A, B), (1,)) == "negative"
    assert signed_polarity(SDisj(A, B), (1,)) == "positive"


def _random_formula(rng, size):
    if size <= 1:
        return rng.choice((ONE, ZERO, A, B, C))
    if size == 2 or rng.random() < 0.2:
        return Neg(_random_formula(rng, size - 1))
    left = rng.randint(1, size - 2)
    return rng.choice((Imp, Tensor, WConj, SDisj, SImp, Nor))(
        _random_formula(rng, left), _random_formula(rng, size - 1 - left)
    )


def test_print_parse_roundtrip_on_random_formulas():
    rng = random.Random(6)
    formulas = [_random_formula(rng, rng.randint(1, 16)) for _ in range(500)]
    subterms = {subterm_at(f, p) for f in formulas for p in positions(f)}
    assert {Imp, Tensor, WConj, SDisj, SImp, Nor, Neg, Var} <= {type(g) for g in subterms}
    assert ONE in subterms and ZERO in subterms
    for f in formulas:
        assert parse_formula(format_formula(f)) is f, format_formula(f)


def _replace_by_recursion(f, pos, new):
    """The reference: rebuild each level from the replaced child below it."""
    if not pos:
        return new
    kids = f.children()
    child = _replace_by_recursion(kids[pos[0]], pos[1:], new)
    if isinstance(f, Neg):
        return Neg(child)
    return type(f)(child, kids[1]) if pos[0] == 0 else type(f)(kids[0], child)


def test_replace_at_matches_the_recursive_rebuild_on_random_formulas():
    rng = random.Random(33)
    for _ in range(300):
        f = _random_formula(rng, rng.randint(1, 16))
        new = _random_formula(rng, rng.randint(1, 4))
        pos = rng.choice(list(positions(f)))
        got = replace_at(f, pos, new)
        assert got is _replace_by_recursion(f, pos, new), (f, pos)
        assert subterm_at(got, pos) is new


def test_invalid_deep_position_names_the_whole_position_and_formula():
    f = A
    for _ in range(30):
        f = Neg(Tensor(B, f))
    pos = (0, 1) * 30 + (0,)
    with pytest.raises(FormulaError) as err:
        replace_at(f, pos, C)
    assert str(err.value) == f"invalid position {pos} in {f!r}"


def test_readme_definitions_match_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Formula grammar")[1].split("```")[1]
    rows = [re.split(r"\s{2,}", line.strip()) for line in block.strip().splitlines()]
    covered = set()
    for lhs, _equals, rhs, _name in rows:
        f = parse_formula(lhs)
        # A^ on a right side is read through its own row, A -o 1
        assert expand_one_level(f) is parse_formula(rhs.replace("A^", "(A -o 1)")), lhs
        covered.add(type(f))
    assert covered == {cls for cls, _ in DEFINITIONS.values()}


def test_positions_and_replace():
    f = parse_formula("A -o B * C")
    ps = list(positions(f))
    assert () in ps and (1, 0) in ps
    assert subterm_at(f, (1, 0)) == B
    assert replace_at(f, (1, 0), P) == parse_formula("A -o P * C")


def test_polarity_stable_under_tensor_reassociation():
    from hooplog.eqengine import ac_normalize

    grouped = parse_formula("((A * B) * C) -o D")
    normal = ac_normalize(grouped)
    # each spine element keeps its sign wherever it lands after sorting
    for g in (grouped, normal):
        for pos in positions(g):
            if subterm_at(g, pos) in (A, B, C):
                assert signed_polarity(g, pos) == "negative"
            if subterm_at(g, pos) == D:
                assert signed_polarity(g, pos) == "positive"


# Hash-consing: one node per structure


def test_every_route_to_a_structure_gives_the_same_node():
    import pickle

    f = parse_formula("(A /\\ B^) -o C * (D !! 0)")
    built = Imp(WConj(A, Neg(B)), Tensor(C, Nor(D, ZERO)))
    assert f is built
    assert substitute(parse_formula("P -o C * Q"), {"P": WConj(A, Neg(B)), "Q": Nor(D, ZERO)}) is f
    assert replace_at(parse_formula("P -o C * (D !! 0)"), (0,), WConj(A, Neg(B))) is f
    for g in (f, A, ONE, ZERO, Neg(B), SImp(A, B), SDisj(A, B)):
        assert pickle.loads(pickle.dumps(g)) is g
    assert Var("A") is A and Imp(A, B) is not Imp(B, A)


def test_unheld_nodes_leave_the_table():
    import gc
    import weakref

    from hooplog.eqengine import ac_normalize
    from hooplog.syntax import _NODES

    name = "Only_in_this_test"
    v = Var(name)
    f = Tensor(Neg(v), Tensor(v, ZERO))
    normal = ac_normalize(f)
    core = expand_derived(f)
    assert normal is not f and core is not f
    refs = [weakref.ref(g) for g in (v, f, normal, core)]
    assert (Var, name) in _NODES
    gc.disable()  # the caches hold no cycles: reference counting frees them
    try:
        del v, f, normal, core
        assert [r() for r in refs] == [None] * len(refs)
        assert [k for k in _NODES if name in repr(k)] == []
    finally:
        gc.enable()


def test_no_entry_of_the_table_is_dead_after_a_warm_corpus_run():
    import gc

    from hooplog.corpus import Corpus
    from hooplog.syntax import _NODES

    Corpus().run()
    corpus = Corpus()
    report = corpus.run()
    assert all(r.ok for r in report.results)
    # a collection while the entries are read would free garbage nodes
    # whose references the snapshot still holds
    gc.disable()
    try:
        entries = list(_NODES.items())
        dead = [k for k, r in entries if r() is None]
    finally:
        gc.enable()
    assert len(entries) > 1000
    assert dead == []
    assert all(r.key is k for k, r in entries)


def test_a_late_callback_leaves_a_rebuilt_node_in_the_table():
    # weak reference callbacks run newest first, so `hook` rebuilds the
    # structure after the old node has died and before its own callback
    # runs; that callback must not remove the new node's entry
    import gc
    import weakref

    from hooplog.syntax import _NODES

    name = "Rebuilt_in_this_test"
    key = (Var, name)
    v = Var(name)
    old = _NODES[key]
    rebuilt = []
    hook = weakref.ref(v, lambda _: rebuilt.append(Var(name)))
    gc.disable()
    try:
        del v
        assert hook() is None and old() is None
        (v,) = rebuilt
        assert _NODES[key] is not old and _NODES[key]() is v
        assert Var(name) is v
    finally:
        gc.enable()


def _corpus_formulas():
    from pathlib import Path

    import hooplog.corpus
    from hooplog.eqengine import parse_script

    out = []
    for path in sorted((Path(hooplog.corpus.__file__).parent / "data").glob("*.eq")):
        s = parse_script(path.read_text())
        out += [s.claim_lhs, s.claim_rhs, s.start]
        out += [g for a in s.assumes for g in (a.lhs, a.rhs)]
        out += [g for st in s.steps for g in (st.result, st.formula) if g is not None]
    return out


def _uncached_ac_normal_form(f):
    """The AC normal form computed from scratch: * spines flattened, 0 and
    its core form 1 -o 1 dropped as units, factors sorted, A^ as A -o 1."""
    from hooplog.syntax import formula_key

    unit = Imp(ONE, ONE)
    if f is ZERO:
        return unit
    if isinstance(f, Neg):
        return Imp(_uncached_ac_normal_form(f.body), ONE)
    if isinstance(f, Tensor):

        def spine(g):
            return spine(g.left) + spine(g.right) if isinstance(g, Tensor) else [g]

        parts = []
        for g in spine(f):
            if g is not ZERO:
                h = _uncached_ac_normal_form(g)
                if h is not unit:
                    parts += spine(h)
        if not parts:
            return unit
        parts.sort(key=formula_key)
        out = parts.pop()
        while parts:
            out = Tensor(parts.pop(), out)
        return out
    if isinstance(f, (Var, type(ONE))):
        return f
    return type(f)(_uncached_ac_normal_form(f.left), _uncached_ac_normal_form(f.right))


def test_cached_ac_normal_form_matches_a_fresh_computation():
    from hooplog.eqengine import ac_normalize

    formulas = _corpus_formulas()
    assert len(formulas) > 400
    for f in formulas:
        n = ac_normalize(f)
        assert n is _uncached_ac_normal_form(f), format_formula(f)
        assert n is _uncached_ac_normal_form(n), format_formula(f)
        assert n is ac_normalize(n) is ac_normalize(f)
        core = expand_derived(f)
        assert core is expand_derived(core) is expand_derived(f)


def test_every_source_file_compiles_without_warnings():
    import warnings
    from pathlib import Path

    import hooplog

    files = sorted(Path(hooplog.__file__).parent.rglob("*.py"))
    assert len(files) >= 10
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
