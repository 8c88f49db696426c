from itertools import permutations, product

import pytest

from hooplog.algebra import (
    FLAGS,
    FiniteAlgebra,
    _complete_tables,
    _pocrims_of_size,
    _poset_representatives,
    _posets_with_bottom,
    boolean_algebra,
    canonical_key,
    check_class,
    enumerate_algebras,
    eval_formula,
    falsifying_assignment,
    find_countermodel,
    format_algebra,
    godel_chain,
    lukasiewicz_chain,
    parse_algebra,
    seq_holds,
    theory_class,
    valid,
)
from hooplog.sequent import parse_sequent
from hooplog.syntax import FormulaError, parse_formula
from hooplog.theories import ALm, LLi, ALL_THEORIES


def test_boolean_flags():
    rep = check_class(boolean_algebra())
    assert rep.flags == {"pocrim", "hoop", "bounded", "involutive", "idempotent"}


def test_l3_flags_and_witness():
    l3 = lukasiewicz_chain(3)
    rep = check_class(l3)
    assert "idempotent" not in rep.flags
    assert {"pocrim", "hoop", "bounded", "involutive"} <= rep.flags
    # the middle element does not multiply to itself
    assert l3.add[1][1] != 1


def test_non_commutative_rejected():
    bad = FiniteAlgebra(
        2, ((0, 1), (0, 1)), ((0, 1), (0, 0)), top=1
    )
    rep = check_class(bad)
    assert rep.failure is not None and "commutative" in rep.failure


def test_chain_arithmetic_matches_min_max():
    l3 = lukasiewicz_chain(3)
    # divisibility instance at a = 1/2, b = 0 evaluates to 1/2 on both sides
    a, b = 1, 0
    assert l3.add[a][l3.res[a][b]] == l3.add[b][l3.res[b][a]] == 1
    # contraction is refuted by the middle element
    assert l3.res[1][l3.add[1][1]] == 1


def test_chain_flags_through_11():
    for k in range(2, 12):
        flags = check_class(lukasiewicz_chain(k)).flags
        assert {"pocrim", "hoop", "bounded", "involutive"} <= flags
        assert ("idempotent" in flags) == (k == 2)


def test_chain_res_monotonicity():
    for k in range(2, 12):
        m = lukasiewicz_chain(k)
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if a <= b:
                        assert m.res[b][c] <= m.res[a][c]
                        assert m.res[c][a] <= m.res[c][b]


def test_eval_examples():
    l3 = lukasiewicz_chain(3)
    assert eval_formula(parse_formula("0"), l3, {}) == 0
    assert eval_formula(parse_formula("P^^"), l3, {"P": 1}) == 1
    assert eval_formula(parse_formula("P /\\ Q"), l3, {"P": 1, "Q": 2}) == 2
    g3 = godel_chain(3)
    assert eval_formula(parse_formula("P^^"), g3, {"P": 1}) == 0


def test_eval_zero_needs_no_top():
    m = lukasiewicz_chain(3)
    unbounded = FiniteAlgebra(m.size, m.add, m.res, top=None)
    assert eval_formula(parse_formula("A * 0"), unbounded, {"A": 2}) == 2
    with pytest.raises(Exception):
        eval_formula(parse_formula("1 -o A"), unbounded, {"A": 0})


def test_valid_examples():
    l3 = lukasiewicz_chain(3)
    assert valid(parse_sequent("A |- A"), l3)
    assert not valid(parse_sequent("A |- A * A"), l3)
    assert falsifying_assignment(parse_sequent("A |- A * A"), l3) == {"A": 1}
    for n in range(2, 12):
        assert valid(
            parse_sequent("A, A -o B |- B * (B -o A)"), lukasiewicz_chain(n)
        )


def test_divisibility_identity_in_hoops():
    wedge = parse_formula("A /\\ B")
    wedge_flipped = parse_formula("B /\\ A")
    for alg in enumerate_algebras(5, required={"hoop"}):
        for a, b in product(range(alg.size), repeat=2):
            v = {"A": a, "B": b}
            assert eval_formula(wedge, alg, v) == eval_formula(wedge_flipped, alg, v)


def test_enumerate_small_counts():
    bounded2 = [a for a in enumerate_algebras(2, required={"pocrim", "bounded"})]
    assert len([a for a in bounded2 if a.size == 2]) == 1
    hoops3 = [
        a
        for a in enumerate_algebras(3, required={"hoop"}, forbidden={"idempotent"})
        if a.size == 3
    ]
    from hooplog.algebra import canonical_key

    assert canonical_key(lukasiewicz_chain(3)) in {canonical_key(a) for a in hoops3}


def test_smallest_non_hoop_pocrim_is_size_four():
    first = next(iter(enumerate_algebras(6, forbidden={"hoop"})))
    assert first.size == 4


def test_every_enumerated_algebra_passes_check_class():
    for alg in enumerate_algebras(4):
        rep = check_class(alg)
        assert "pocrim" in rep.flags
        if alg.top is not None:
            assert "bounded" in rep.flags


def test_find_countermodel_examples():
    got = find_countermodel(parse_sequent("A^^ |- A"), LLi, 3)
    assert got is not None
    alg, v = got
    assert alg.size <= 3
    assert not seq_holds(parse_sequent("A^^ |- A"), alg, v)

    assert find_countermodel(parse_sequent("A |- A"), ALm, 3) is None


def test_axiom_schemata_sound_in_matching_classes():
    schemas = {
        "ASM": "A |- A",
        "CON": "A |- A * A",
        "EFQ": "1 |- A",
        "DNE": "A^^ |- A",
        "CWC": "A, A -o B |- B * (B -o A)",
    }
    for t in ALL_THEORIES:
        for name in t.axioms():
            s = parse_sequent(schemas[name])
            for alg in enumerate_algebras(4, theory_class(t)):
                assert valid(s, alg), (t.name, name, format_algebra(alg))


def test_algebra_file_roundtrip():
    l4 = lukasiewicz_chain(4)
    text = format_algebra(l4)
    back = parse_algebra(text)
    assert back == l4


def test_pocrim_counts_per_size():
    sizes = [alg.size for alg in enumerate_algebras(6)]
    assert [sizes.count(n) for n in range(1, 7)] == [1, 1, 2, 7, 26, 129]


def test_one_poset_per_isomorphism_class():
    # a poset with a bottom is a poset on the other n - 1 points plus a bottom
    counts = [len(list(_poset_representatives(n))) for n in range(1, 7)]
    assert counts == [1, 1, 2, 5, 16, 63]


def _relabel(m, p):
    """The algebra with element p[i] renamed i."""
    inv = {x: i for i, x in enumerate(p)}
    n = m.size

    def table(t):
        return tuple(tuple(inv[t[p[i]][p[j]]] for j in range(n)) for i in range(n))

    return FiniteAlgebra(n, table(m.add), table(m.res), None if m.top is None else inv[m.top])


def _full_key(m):
    """canonical_key by brute force: every relabelling fixing 0, whole keys."""
    keys = []
    for perm in permutations(range(1, m.size)):
        r = _relabel(m, (0,) + perm)
        keys.append((r.add, r.res, -1 if r.top is None else r.top))
    return min(keys)


def test_canonical_key_is_invariant_under_relabelling():
    for alg in enumerate_algebras(5):
        if alg.size != 5:
            continue
        key = canonical_key(alg)
        assert key == _full_key(alg), format_algebra(alg)
        for perm in permutations(range(1, 5)):
            assert canonical_key(_relabel(alg, (0,) + perm)) == key


def _residuals(n, add, leq):
    res = []
    for b in range(n):
        row = []
        for c in range(n):
            sat = [a for a in range(n) if leq[c][add[a][b]]]
            least = [a for a in sat if all(leq[a][x] for x in sat)]
            if not least:
                return None
            row.append(least[0])
        res.append(tuple(row))
    return tuple(res)


def _labelled_reference(n):
    """The non-chain pocrims of size n from every labelled poset: every
    table whose cells dominate their arguments, in the cell order and
    ascending value order of the enumeration, kept when check_class accepts
    it; the first table of each class stands for it, classes sorted by key."""
    found = {}
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for leq in _posets_with_bottom(n):
        if all(leq[i][j] for i in range(n) for j in range(i, n)):
            continue
        choices = [[c for c in range(n) if leq[i][c] and leq[j][c]] for i, j in cells]
        tops = [t for t in range(n) if all(leq[a][t] for a in range(n))]
        for values in product(*choices):
            add = [list(range(n)) if i == 0 else [i] + [0] * (n - 1) for i in range(n)]
            for (i, j), c in zip(cells, values):
                add[i][j] = add[j][i] = c
            res = _residuals(n, add, leq)
            if res is None:
                continue
            alg = FiniteAlgebra(n, tuple(map(tuple, add)), res, tops[0] if tops else None)
            if "pocrim" in check_class(alg).flags:
                found.setdefault(_full_key(alg), alg)
    return [found[k] for k in sorted(found)]


def test_representative_posets_give_the_labelled_enumeration():
    for n in range(1, 6):
        got = _pocrims_of_size(n, False)
        assert [alg for alg, _ in got] == _labelled_reference(n), n
        assert all(flags == check_class(alg).flags for alg, flags in got)


def test_completed_tables_are_associative():
    for n in range(1, 6):
        for leq in _posets_with_bottom(n):
            for add, _, _ in _complete_tables(n, leq):
                r = range(n)
                assert all(
                    add[add[a][b]][c] == add[a][add[b][c]] for a in r for b in r for c in r
                )


@pytest.mark.parametrize("required, forbidden", [({"hoopz"}, set()), (set(), {"idempotnt"})])
def test_unknown_class_flags_are_rejected(required, forbidden):
    with pytest.raises(ValueError, match="FLAGS"):
        enumerate_algebras(3, required, forbidden)


def test_enumeration_accepts_every_flag():
    for flag in FLAGS:
        assert all(a.size <= 2 for a in enumerate_algebras(2, {flag}))
        assert all(a.size <= 2 for a in enumerate_algebras(2, forbidden={flag}))


@pytest.mark.parametrize(
    "text, message",
    [
        ("size 2\nadd:\n0 1\n1 5\nres:\n0 0\n1 0\n", "add row 1: entry 5"),
        ("size 2\nadd:\n0 1\n1 1\nres:\n0 0\n1 -1\n", "res row 1: entry -1"),
        ("size 2\nadd:\n0 1\n1\nres:\n0 0\n1 0\n", "add row 1 has 1 entries"),
        ("size 2\ntop 2\nadd:\n0 1\n1 1\nres:\n0 0\n1 0\n", "top 2"),
    ],
)
def test_parse_algebra_rejects_out_of_range_tables(text, message):
    with pytest.raises(FormulaError, match=message):
        parse_algebra(text)
