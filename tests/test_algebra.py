import gc
import hashlib
import random
import weakref
from functools import cache
from itertools import permutations, product
from operator import itemgetter

import pytest

import hooplog.algebra as algebra_module
from hooplog.algebra import (
    FLAGS,
    AlgebraError,
    ClassReport,
    FiniteAlgebra,
    _BLOCK_ROWS,
    _blocks,
    _bounded_posets,
    _chain_poset,
    _class_flags,
    _complete_tables,
    _mark_relabellings,
    _pocrims_of_size,
    _poset_representatives,
    _posets_with_bottom,
    boolean_algebra,
    canonical_key,
    check_class,
    enumerate_algebras,
    enumerate_classified,
    eval_formula,
    falsifier,
    falsifying_assignment,
    find_countermodel,
    format_algebra,
    godel_chain,
    lukasiewicz_chain,
    parse_algebra,
    refuter,
    seq_holds,
    theory_class,
    valid,
    value_tables,
)
from hooplog.hilbert import system_for
from hooplog.sequent import Sequent, parse_sequent
from hooplog.syntax import (
    DEFINITIONS,
    ONE,
    ZERO,
    FormulaError,
    Imp,
    Neg,
    Nor,
    SDisj,
    SImp,
    Tensor,
    Var,
    WConj,
    expand_derived,
    parse_formula,
    variables,
)
from hooplog.theories import ALm, LLc, LLi, ALL_THEORIES


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


@pytest.mark.parametrize("top", [None, 1, 2, 3, -1])
def test_declared_top_must_be_the_maximum(top):
    l3 = lukasiewicz_chain(3)
    rep = check_class(FiniteAlgebra(3, l3.add, l3.res, top))
    if top in (None, 2):
        assert rep.failure is None and "bounded" in rep.flags
    else:
        assert rep == ClassReport(frozenset(), f"declared top {top} is not the maximum")


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
    # a poset with a bottom is a poset on the other n - 1 points plus a bottom,
    # and a bounded one is a poset with a bottom on n - 1 points plus a top
    counts = [len(list(_poset_representatives(_posets_with_bottom(n)))) for n in range(1, 7)]
    assert counts == [1, 1, 2, 5, 16, 63]
    bounded = [len(list(_poset_representatives(_bounded_posets(n)))) for n in range(1, 7)]
    assert bounded == [1, 1, 1, 2, 5, 16]


def _relabel(m, p):
    """The algebra with element p[i] renamed i."""
    inv = {x: i for i, x in enumerate(p)}
    n = m.size

    def table(t):
        return tuple(tuple(inv[t[p[i]][p[j]]] for j in range(n)) for i in range(n))

    return FiniteAlgebra(n, table(m.add), table(m.res), None if m.top is None else inv[m.top])


@cache
def _relabellings(n):
    """Every permutation p fixing 0, as p, its inverse as a bytes translation
    table, and a getter of the entries of a row in the order of p."""
    out = []
    for q in permutations(range(1, n)):
        p = (0,) + q
        inverse = bytes(p.index(x) for x in range(n)).ljust(256, b"\0")
        # itemgetter of one index returns the entry, not a 1-tuple
        get = itemgetter(*p) if n > 1 else lambda row: (row[0],)
        out.append((p, inverse, get))
    return out


def _full_key(m):
    """canonical_key by brute force: every relabelling fixing 0 is a
    candidate, and the key is built row by row, each row the least over the
    candidates left, which keep only the relabellings giving that row.  Row
    i under p is row p[i] of the table mapped through the inverse of p and
    read in the order of p."""
    n = m.size
    candidates = _relabellings(n)
    key = []
    for table in (m.add, m.res):
        rows = [bytes(row) for row in table]
        for i in range(n):
            relabelled = [get(rows[p[i]].translate(inv)) for p, inv, get in candidates]
            least = min(relabelled)
            key.append(least)
            candidates = [c for c, row in zip(candidates, relabelled) if row == least]
    top = min(-1 if m.top is None else inv[m.top] for _, inv, _ in candidates)
    return tuple(key[:n]), tuple(key[n:]), top


def test_canonical_key_is_invariant_under_relabelling():
    for alg in enumerate_algebras(5):
        if alg.size != 5:
            continue
        key = canonical_key(alg)
        assert key == _full_key(alg), format_algebra(alg)
        for perm in permutations(range(1, 5)):
            assert canonical_key(_relabel(alg, (0,) + perm)) == key


def test_canonical_key_is_the_brute_force_key_with_the_top_anywhere():
    algs = list(enumerate_algebras(5))
    assert [a.size for a in algs[:3]] == [1, 2, 3]
    for alg in algs:
        n, top = alg.size, alg.top
        rest = [x for x in range(1, n) if x != top]
        # the top at every label but 0, the identity's, unless n is 1
        perms = [[0] + rest[: k - 1] + [top] + rest[k - 1 :] for k in range(1, n)]
        for p in perms or [[0]]:
            moved = _relabel(alg, p)
            assert moved.top == p.index(top)
            assert canonical_key(moved) == _full_key(moved), format_algebra(moved)


@pytest.mark.parametrize(
    "base, top",
    [(lukasiewicz_chain(3), None), (lukasiewicz_chain(3), 1), (boolean_algebra(), 0)],
    ids=["no-top", "top-not-absorbing", "identity-as-top"],
)
def test_canonical_key_needs_an_absorbing_top(base, top):
    alg = FiniteAlgebra(base.size, base.add, base.res, top)
    with pytest.raises(ValueError, match=f"size {base.size}, top {top}$"):
        canonical_key(alg)


def test_canonical_key_of_sizes_1_and_2_is_the_algebra_itself():
    one = FiniteAlgebra(1, ((0,),), ((0,),), 0)
    for alg in (one, boolean_algebra()):
        assert canonical_key(alg) == (alg.add, alg.res, alg.top) == _full_key(alg)


def _label2_ranks(alg):
    """The rank of each element x but 0 and the top: 0 if x + x is the top,
    1 if x is idempotent, else 2."""
    add, top = alg.add, alg.top
    return {
        x: 0 if add[x][x] == top else 1 if add[x][x] == x else 2
        for x in range(1, alg.size)
        if x != top
    }


def test_canonical_key_is_the_brute_force_key_at_size_6():
    rng = random.Random(6)
    algs = [alg for alg in enumerate_algebras(6) if alg.size == 6]
    assert len(algs) == 129
    # label 2 ranges over the elements of least rank; all three ranks occur,
    # but the least is 0 or 1, since a coatom c has c + c in {c, top}
    ranks = [_label2_ranks(alg) for alg in algs]
    assert {r for rs in ranks for r in rs.values()} == {0, 1, 2}
    assert {min(rs.values()) for rs in ranks} == {0, 1}
    for alg in algs:
        key = canonical_key(alg)
        assert key == _full_key(alg), format_algebra(alg)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        assert canonical_key(_relabel(alg, [0] + perm)) == key, perm


def _poset(n, covers):
    """The down-set matrix of the order on 0..n-1 generated by covers."""
    leq = [[x == y or (x, y) in covers for y in range(n)] for x in range(n)]
    for z in range(n):
        for x in range(n):
            for y in range(n):
                leq[x][y] = leq[x][y] or (leq[x][z] and leq[z][y])
    return tuple(map(tuple, leq))


def test_canonical_key_is_the_brute_force_key_at_size_7():
    # Size 7 is the first size whose label-2 groups hold 4! relabellings
    # each.  On the chain and the order between, the least rank is shared
    # by two to five elements in 363 of the 475 tables, so the minimum runs
    # over up to 120 relabellings, across groups.
    rng = random.Random(7)
    chain = _chain_poset(7)
    flat = _poset(7, {(0, x) for x in range(1, 7)})
    between = _poset(7, {(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)})
    tables = [_complete_tables(7, leq) for leq in (chain, flat, between)]
    # the flat order has no top: no two of 1..6 have an upper bound, so no
    # sum exists
    assert [len(t) for t in tables] == [451, 0, 24]
    for add, res, top in tables[0] + tables[2]:
        alg = FiniteAlgebra(7, add, res, top)
        key = canonical_key(alg)
        assert key == _full_key(alg), format_algebra(alg)
        perm = list(range(1, 7))
        rng.shuffle(perm)
        assert canonical_key(_relabel(alg, [0] + perm)) == key, perm


def _extension_relabellings(leq):
    """The relabellings of leq by the permutations fixing 0 that list it in
    a linear extension, found among all (n-1)! of them."""
    n = len(leq)
    return {
        tuple(tuple(leq[x][y] for y in p) for x in p)
        for p in ((0,) + q for q in permutations(range(1, n)))
        if not any(leq[p[j]][p[i]] for j in range(n) for i in range(j))
    }


def test_marked_relabellings_are_those_by_linear_extensions():
    for n in range(1, 7):
        for leq in _poset_representatives(_posets_with_bottom(n)):
            seen = set()
            _mark_relabellings(leq, seen)
            assert seen == _extension_relabellings(leq), leq


def test_poset_representatives_are_those_of_the_permutation_rule():
    for n in range(1, 7):
        seen, expected = set(), []
        for leq in _posets_with_bottom(n):
            if leq not in seen:
                expected.append(leq)
                seen |= _extension_relabellings(leq)
        assert list(_poset_representatives(_posets_with_bottom(n))) == expected, n
        # the orders with a top (n - 1, the last label) come in stream order,
        # so each class of them keeps its first order
        bounded = [leq for leq in _posets_with_bottom(n) if all(row[-1] for row in leq)]
        assert list(_bounded_posets(n)) == bounded, n
        expected = [leq for leq in expected if all(row[-1] for row in leq)]
        assert list(_poset_representatives(_bounded_posets(n))) == expected, n


def _stream_digest(size_max):
    digest = hashlib.sha256()
    for alg, flags in enumerate_classified(size_max):
        digest.update((format_algebra(alg) + " ".join(sorted(flags)) + "\n").encode())
    return digest.hexdigest()


def test_enumeration_stream_up_to_size_6_is_pinned():
    assert _stream_digest(6) == (
        "a37cc0b44e35783b727015de982609c54e6a7be795dc178964f9d521b19392c8"
    )


def test_enumeration_stream_up_to_size_7_is_pinned():
    assert _stream_digest(7) == (
        "a17e67b1b2f54520bd27192c317ada1aa2d5f39702512210522a76ad462a48f1"
    )


def test_completed_tables_up_to_size_7_are_pinned():
    # every table completion yields, in order, with the relabelled
    # duplicates that the stream drops: 1,036 tables
    digest = hashlib.sha256()
    for n in range(1, 8):
        for leq in _poset_representatives(_bounded_posets(n)):
            digest.update(repr(_complete_tables(n, leq)).encode())
    assert digest.hexdigest() == (
        "15a5e7c7a81cda04370b7874ac59e9e36f910d7946c20c4d3d6e46ec697e5bc8"
    )


def _chain_lengths(points, budget):
    """The tuples of `points` chain lengths, each at least 2, with
    sum(k - 1) <= budget."""
    if points == 0:
        yield ()
        return
    for k in range(2, budget + 2):
        for rest in _chain_lengths(points - 1, budget - (k - 1)):
            yield (k,) + rest


def _poset_products(size_max):
    """The poset products of finite MV-chains (Jipsen and Montagna, 2010)
    with at most size_max elements, in this package's convention: 0 is
    truth and the identity, larger is falser, so the chain at point i is
    0..k_i-1 with a + b = min(k_i - 1, a + b).  Over a poset I of p points,
    the elements are the f with f(i) < k_i such that i < j and f(i) != 0
    imply f(j) = k_j - 1; + is pointwise, and res(f, g)(i) is
    max(0, g(i) - f(i)) when f(j) >= g(j) for every j < i, else k_i - 1.
    The all-0 function is labelled 0 and the all-top one n-1.  A product
    has at least 1 + sum(k_i - 1) elements, with equality for a chain I,
    so only the k within that bound are tried."""
    for p in range(size_max):
        for leq in _poset_representatives(_posets_with_bottom(p + 1)):
            # I is the order with its bottom, 0, dropped: lt[i][j] is i < j
            lt = [[i != j and leq[i + 1][j + 1] for j in range(p)] for i in range(p)]
            for ks in _chain_lengths(p, size_max - 1):

                def element(f):
                    above = (j for i in range(p) if f[i] for j in range(p) if lt[i][j])
                    return all(f[j] == ks[j] - 1 for j in above)

                def plus(f, g):
                    return tuple(min(k - 1, a + b) for k, a, b in zip(ks, f, g))

                def arrow(f, g):
                    return tuple(
                        max(0, g[i] - f[i])
                        if all(f[j] >= g[j] for j in range(p) if lt[j][i])
                        else ks[i] - 1
                        for i in range(p)
                    )

                elems = list(filter(element, product(*map(range, ks))))
                n = len(elems)
                if n <= size_max:
                    label = {f: v for v, f in enumerate(elems)}
                    add, res = (
                        tuple(tuple(label[op(f, g)] for g in elems) for f in elems)
                        for op in (plus, arrow)
                    )
                    yield FiniteAlgebra(n, add, res, n - 1)


def test_poset_products_of_mv_chains_are_the_enumerated_hoops():
    # a second source for the hoops: every finite hoop is a poset product
    # of finite MV-chains
    products = {n: set() for n in range(1, 8)}
    for alg in _poset_products(7):
        assert "hoop" in check_class(alg).flags, format_algebra(alg)
        products[alg.size].add(canonical_key(alg))
    enumerated = {n: set() for n in range(1, 8)}
    for alg in enumerate_algebras(7, {"hoop"}):
        enumerated[alg.size].add(canonical_key(alg))
    assert products == enumerated
    assert [len(products[n]) for n in range(1, 8)] == [1, 1, 2, 5, 10, 23, 49]


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
    """The pocrims of size n from every labelled poset, with or without a
    top: every table whose cells dominate their arguments, in the cell order
    and ascending value order of the enumeration, kept when check_class
    accepts it; the first table of each class stands for it, the chains'
    classes first, each block sorted by key."""
    found = {}
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for leq in _posets_with_bottom(n):
        chain = all(leq[i][j] for i in range(n) for j in range(i, n))
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
                found.setdefault((not chain, _full_key(alg)), alg)
    return [found[k] for k in sorted(found)]


def test_representative_posets_give_the_labelled_enumeration():
    for n in range(1, 6):
        got = _pocrims_of_size(n)
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


def test_completed_tables_are_all_pocrims():
    # completion guarantees the laws, so enumeration computes only `_class_flags`
    for n in range(1, 7):
        for leq in _poset_representatives(_posets_with_bottom(n)):
            for add, res, top in _complete_tables(n, leq):
                alg = FiniteAlgebra(n, add, res, top)
                flags = check_class(alg).flags
                assert "pocrim" in flags, (n, add)
                assert _class_flags(alg) == flags, (n, add)


def test_every_finite_pocrim_is_bounded():
    # a + b >= a + 0 = a, so the sum of all the elements is the top
    for n in range(1, 7):
        for leq in _posets_with_bottom(n):
            if not all(row[-1] for row in leq):
                assert _complete_tables(n, leq) == [], leq
    for alg, flags in enumerate_classified(6):
        assert alg.top == alg.size - 1 and "bounded" in flags, format_algebra(alg)


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


# Each axiom beyond ASM adds one class flag and one Hilbert schema.
_CLASS_AND_SYSTEM = {
    "ALm": ("", ""),
    "ALi": ("bounded", "EFQ"),
    "ALc": ("bounded involutive", "EFQ DNE"),
    "LLm": ("hoop", "CWC"),
    "LLi": ("bounded hoop", "CWC EFQ"),
    "LLc": ("bounded hoop involutive", "CWC EFQ DNE"),
    "ML": ("idempotent", "Con"),
    "IL": ("bounded idempotent", "Con EFQ"),
    "BL": ("bounded idempotent involutive", "Con EFQ DNE"),
}


@pytest.mark.parametrize("t", ALL_THEORIES, ids=lambda t: t.name)
def test_theory_class_and_hilbert_system_follow_the_axioms(t):
    flags, schemas = _CLASS_AND_SYSTEM[t.name]
    assert theory_class(t) == frozenset(["pocrim", *flags.split()])
    assert system_for(t) == ("Comp", "Comm", "Curry", "Uncurry", "Wk", *schemas.split())
    if t.level != "minimal":  # 1 is read as the top, which every finite pocrim has
        assert all(alg.top is not None for alg in enumerate_algebras(5, theory_class(t)))


# The value-table kernel against an uncached evaluator that walks the
# formula once per assignment.


def _reference_eval(f, m, v):
    if isinstance(f, Var):
        if f.name not in v:
            raise AlgebraError(f"unassigned variable {f.name}")
        return v[f.name]
    if f is ONE:
        if m.top is None:
            raise AlgebraError("the constant 1 needs a bounded algebra")
        return m.top
    if f is ZERO:
        return 0
    if isinstance(f, Neg):
        if m.top is None:
            raise AlgebraError("negation needs a bounded algebra")
        return m.res[_reference_eval(f.body, m, v)][m.top]
    a = _reference_eval(f.left, m, v)
    b = _reference_eval(f.right, m, v)
    add, res = m.add, m.res
    if isinstance(f, Imp):
        return res[a][b]
    if isinstance(f, Tensor):
        return add[a][b]
    if isinstance(f, WConj):
        return add[a][res[a][b]]
    if isinstance(f, SDisj):
        return res[res[b][a]][a]
    if isinstance(f, SImp):
        return res[a][add[a][b]]
    assert isinstance(f, Nor)
    if m.top is None:
        raise AlgebraError("!! needs a bounded algebra")
    return add[res[a][m.top]][res[b][a]]


def _reference_holds(s, m, v):
    acc = 0
    for f in s.context:
        acc = m.add[acc][_reference_eval(f, m, v)]
    return m.res[acc][_reference_eval(s.goal, m, v)] == 0


def _reference_falsifying(s, m):
    names = sorted(set().union(*(variables(f) for f in (*s.context, s.goal))))
    for vec in product(range(m.size), repeat=len(names)):
        v = dict(zip(names, vec))
        if not _reference_holds(s, m, v):
            return v
    return None


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except AlgebraError as e:
        return "error", str(e)


def _nodes(f):
    yield f
    for c in f.children():
        yield from _nodes(c)


_CONNECTIVES = (Imp, Tensor, WConj, SDisj, SImp, Nor)
_LEAVES = (ONE, ZERO, Var("A"), Var("B"), Var("C"), Var("A"), Var("B"))


def _random_formula(rng, size, leaves=_LEAVES):
    if size <= 1:
        return rng.choice(leaves)
    if size == 2 or rng.random() < 0.2:
        return Neg(_random_formula(rng, size - 1, leaves))
    left = rng.randint(1, size - 2)
    return rng.choice(_CONNECTIVES)(
        _random_formula(rng, left, leaves), _random_formula(rng, size - 1 - left, leaves)
    )


def _random_sequents(seed, count):
    rng = random.Random(seed)
    return [
        Sequent(
            tuple(_random_formula(rng, rng.randint(1, 5)) for _ in range(rng.randint(0, 2))),
            _random_formula(rng, rng.randint(1, 7)),
        )
        for _ in range(count)
    ]


def test_value_lines_agree_with_the_definitions():
    """The evaluator has a value line of its own for each derived
    connective; each must give the value of the connective's definition."""
    a, b = Var("A"), Var("B")
    derived = (ZERO, Neg(a), WConj(a, b), SDisj(a, b), SImp(a, b), Nor(a, b))
    assert {type(f) for f in derived} == {cls for cls, _ in DEFINITIONS.values()}
    algs = list(enumerate_algebras(4))
    algs += [lukasiewicz_chain(k) for k in range(2, 6)]
    algs += [godel_chain(k) for k in range(2, 6)]
    for m in algs:
        for x, y in product(range(m.size), repeat=2):
            v = {"A": x, "B": y}
            for f in derived:
                want = eval_formula(expand_derived(f), m, v)
                assert eval_formula(f, m, v) == want, (f, m, v)


@pytest.mark.parametrize("block_rows", [_BLOCK_ROWS, 5], ids=["default-blocks", "5-row-blocks"])
def test_value_tables_agree_with_a_per_assignment_evaluator(monkeypatch, block_rows):
    monkeypatch.setattr(algebra_module, "_BLOCK_ROWS", block_rows)
    sequents = _random_sequents(4, 80)
    used = {type(g) for s in sequents for f in (*s.context, s.goal) for g in _nodes(f)}
    assert set(_CONNECTIVES) | {Neg, Var} <= used
    # no variables; and a first failure past the first block in the 17-chain
    sequents += [parse_sequent(t) for t in ("|- 0", "1 |- 1", "|- 1", "B |- A")]
    algs = list(enumerate_algebras(4))
    algs += [lukasiewicz_chain(k) for k in range(2, 8)]
    algs += [godel_chain(k) for k in range(2, 8)]
    # past _PACKED_MAX elements tables are looked up row by row
    algs += [lukasiewicz_chain(algebra_module._PACKED_MAX + 1)]
    topless = [FiniteAlgebra(m.size, m.add, m.res, None) for m in algs if m.top is not None]
    errors = 0
    for m in algs + topless:
        v = {x: (3 * i + 1) % m.size for i, x in enumerate("ABC")}
        for s in sequents:
            got = _outcome(falsifying_assignment, s, m)
            assert got == _outcome(_reference_falsifying, s, m), (s, m)
            errors += got[0] == "error"
            assert _outcome(seq_holds, s, m, v) == _outcome(_reference_holds, s, m, v)
            assert _outcome(eval_formula, s.goal, m, v) == _outcome(
                _reference_eval, s.goal, m, v
            )
    assert errors > 0


def test_unassigned_variable_is_reported_in_evaluation_order():
    m = lukasiewicz_chain(3)
    s = parse_sequent("A, B -o 1 |- C")
    unbounded = FiniteAlgebra(m.size, m.add, m.res, None)
    for alg in (m, unbounded):
        for v in ({"B": 0, "C": 0}, {"A": 0, "C": 0}, {"A": 0, "B": 0}, {"A": 0}):
            assert _outcome(seq_holds, s, alg, v) == _outcome(_reference_holds, s, alg, v)
    assert _outcome(seq_holds, s, unbounded, {"A": 0}) == ("error", "unassigned variable B")
    # ^ is checked before its body, !! after its operands
    v = {"A": 0}
    for text, unassigned, assigned in [
        ("|- (C)^", "negation needs a bounded algebra", "negation needs a bounded algebra"),
        ("|- C !! A", "unassigned variable C", "!! needs a bounded algebra"),
    ]:
        s = parse_sequent(text)
        for got, want, message in [
            ((eval_formula, s.goal, unbounded, v), (_reference_eval, s.goal, unbounded, v), unassigned),
            ((seq_holds, s, unbounded, v), (_reference_holds, s, unbounded, v), unassigned),
            ((falsifying_assignment, s, unbounded), (_reference_falsifying, s, unbounded), assigned),
        ]:
            assert _outcome(*got) == _outcome(*want) == ("error", message), (text, got[0])


def test_blocks_cover_the_assignments_in_product_order():
    blocks = list(_blocks([Var(x) for x in "ABCDE"], lukasiewicz_chain(7)._tables))
    assert len(blocks) > 1 and all(len(tails) <= _BLOCK_ROWS for _, tails, _ in blocks)
    rows = [head + tail for head, tails, _ in blocks for tail in tails]
    assert rows == list(product(range(7), repeat=5))


def test_first_falsifying_assignment_in_a_later_block():
    m = lukasiewicz_chain(7)
    s = parse_sequent("A * B, C -o D |- E \\/ (B * B)")
    head, tails, _ = next(_blocks([Var(x) for x in "ABCDE"], m._tables))
    w = falsifying_assignment(s, m)
    assert w == _reference_falsifying(s, m) == {"A": 0, "B": 1, "C": 0, "D": 0, "E": 2}
    assert list(w) == ["A", "B", "C", "D", "E"]
    # B leads, so it is 0 on every row of the first block
    assert len(tails) < m.size**5 and head[:2] == (0, 0)
    big = lukasiewicz_chain(algebra_module._PACKED_MAX + 1)
    head, tails, _ = next(_blocks([Var("A"), Var("B")], big._tables))
    assert len(tails) == big.size and head == (0,)
    assert falsifying_assignment(parse_sequent("B |- A"), big) == {"A": 1, "B": 0}


def test_value_tables_give_one_list_per_formula_and_block():
    m = lukasiewicz_chain(4)
    f, g = parse_formula("A -o B"), parse_formula("B^ -o A^")
    for cols, (tf, tg) in value_tables((f, g), m, ["A", "B"]):
        assert tf == tg == [
            _reference_eval(f, m, {"A": a, "B": b}) for a, b in zip(cols["A"], cols["B"])
        ]


@pytest.mark.parametrize(
    "text, v, message",
    [
        ("|- A", {"A": -1}, "A=-1 is outside 0..2"),
        ("|- A", {"A": 3}, "A=3 is outside 0..2"),
        ("|- A -o B", {"A": -1, "B": 0}, "A=-1 is outside 0..2"),
        ("|- A -o B", {"A": 0, "B": 5}, "B=5 is outside 0..2"),
        ("|- A -o B", {"A": 0, "B": 1, "C": 7}, "C=7 is outside 0..2"),
        ("A |- A * A", {"A": -2}, "A=-2 is outside 0..2"),
    ],
)
def test_values_outside_the_carrier_are_rejected(text, v, message):
    l3, s = lukasiewicz_chain(3), parse_sequent(text)
    for evaluate, arg in ((eval_formula, s.goal), (seq_holds, s)):
        with pytest.raises(AlgebraError) as err:
            evaluate(arg, l3, v)
        assert str(err.value) == message


def test_lookup_tables_do_not_keep_their_algebra_alive():
    m = lukasiewicz_chain(5)
    assert falsifying_assignment(parse_sequent("A |- A * A"), m) == {"A": 1}
    assert m._tables
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
    # the evaluator builds the derived connectives' tables itself, and
    # reference counting alone frees the algebra and its tables
    fresh = lukasiewicz_chain(6)
    s = parse_sequent("A^, A /\\ B, A \\/ B |- (A => B) !! B")
    assert falsifying_assignment(s, fresh) == _reference_falsifying(s, fresh)
    assert set(fresh._tables) == {Imp, Tensor, Neg, WConj, SDisj, SImp, Nor}
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(fresh)
        del fresh
        assert ref() is None and gc.collect() == 0
    finally:
        gc.enable()


def test_evaluation_leaves_no_cyclic_garbage():
    s = parse_sequent("A * A^, A !! B^ |- A /\\ (B => B)")
    refuted = parse_sequent("A \\/ B |- A")
    deep = parse_sequent(_DEEP_COUNTERMODELS[0])
    six = parse_sequent("B, C -o D, E * F |- A -o A * A")
    gc.collect()
    gc.disable()
    try:
        m = godel_chain(5)
        assert eval_formula(s.goal, m, {"A": 2, "B": 1}) == 2
        assert falsifying_assignment(s, m) == _reference_falsifying(s, m)
        assert find_countermodel(s, LLc, 5) is None
        assert find_countermodel(refuted, LLc, 5)[0].size == 2
        assert find_countermodel(deep, ALm, 5)[0].size == 4
        assert find_countermodel(six, LLi, 5)[0].size == 3
        refutes = refuter(["A", "B"], LLc)
        assert refutes(refuted) and not refutes(s)
        del refutes, m
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for n in range(2, 7):
            algebra_module._pocrims_of_size(n)
            assert gc.collect() == 0, n
    finally:
        gc.enable()


def test_a_falsifier_gathers_its_names_once_for_every_algebra(monkeypatch):
    gathered = []
    real = algebra_module.sequent_names

    def counting(s):
        gathered.append(s)
        return real(s)

    monkeypatch.setattr(algebra_module, "sequent_names", counting)
    algebras = list(enumerate_algebras(4)) + [lukasiewicz_chain(algebra_module._PACKED_MAX + 1)]
    for text in ("A |- A * A", "A \\/ B |- B \\/ A", "A !! B |- B !! A", "|- A -o B -o A"):
        s = parse_sequent(text)
        falsify = falsifier(s)
        got = [falsify(m) for m in algebras]
        assert len(gathered) == 1
        want = [_reference_falsifying(s, m) for m in algebras]
        assert got == want and [list(w or ()) for w in got] == [list(w or ()) for w in want]
        assert got == [falsifying_assignment(s, m) for m in algebras]
        assert [w is None for w in got] == [valid(s, m) for m in algebras]
        gathered.clear()


def test_a_corpus_run_gathers_each_checked_sequents_names_once(monkeypatch):
    from hooplog.corpus import Corpus

    gathered = []
    real = algebra_module.sequent_names

    def counting(s):
        gathered.append(s)
        return real(s)

    monkeypatch.setattr(algebra_module, "sequent_names", counting)
    # a run reports an entry's exception as its failure, so check the report
    assert Corpus().run().ok
    # 18 gatherings: the `checked` entries and the remark and Rose-Rosser
    # builtins gather each sequent's names once, not once per algebra
    # (626), and `find_countermodel` once for each of its two calls
    assert len(gathered) <= 160


def _reference_countermodel(s, t, size_max):
    for alg in enumerate_algebras(size_max, theory_class(t)):
        v = falsifying_assignment(s, alg)
        if v is not None:
            return alg, v
    return None


# Random sequents are refuted at size 2 or 3; these need sizes 4 and 5 in
# some classes (divisibility, prelinearity, distributivity).
_DEEP_COUNTERMODELS = (
    "A * (A -o B) |- B * (B -o A)",
    "|- (A -o B) \\/ (B -o A)",
    "(A -o B) -o B |- (B -o A) -o A",
    "A /\\ (B \\/ C) |- (A /\\ B) \\/ (A /\\ C)",
    "(A -o B) -o C, (B -o A) -o C |- C",
)


def _sequents_over(names, seed, count):
    """Random sequents with every connective and both constants, over
    exactly names: each name x also occurs in a context formula x -o x."""
    rng = random.Random(seed)
    leaves = (ONE, ZERO) + tuple(map(Var, names)) * 2
    every = [Imp(Var(x), Var(x)) for x in names]  # 0 everywhere
    return [
        Sequent(
            [_random_formula(rng, rng.randint(1, 5), leaves) for _ in range(rng.randint(0, 2))]
            + every,
            _random_formula(rng, rng.randint(1, 7), leaves),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("t", ALL_THEORIES, ids=lambda t: t.name)
def test_countermodel_walk_agrees_with_a_walk_of_the_whole_stream(t):
    # up to 5 names, sizes 2 and 3 are read off the refuter's union and the
    # walk reads class blocks from size 4; with 6 names it walks from size
    # 2.  The reference walks the stream from size 1 and must meet the same
    # algebra object first, with the same assignment in the same key order
    deep = [parse_sequent(text) for text in _DEEP_COUNTERMODELS]
    over = _sequents_over((), 23, 6) + _sequents_over(tuple("ABCDEF"), 24, 4)
    assert {len(set().union(*map(variables, (*s.context, s.goal)))) for s in over} == {0, 6}
    for s in _random_sequents(21, 25) + deep + over:
        for size_max in range(1, 6):
            got, want = find_countermodel(s, t, size_max), _reference_countermodel(s, t, size_max)
            if want is None:
                assert got is None, (s, size_max)
            else:
                assert got[0] is want[0] and list(got[1].items()) == list(want[1].items())


def test_the_union_finds_small_countermodels_without_walking_a_block(monkeypatch):
    """A sequent over at most 5 names refuted at size 2 or 3 is read off
    the refuter's union: no single-algebra block is walked.  One that needs
    size 4, or has 6 names, walks each algebra's blocks once, and one that
    holds up to size 3 walks none with no size left."""
    cases = [
        ("A -o B |- B -o A", ALm, 2, 2),
        ("A |- A * A", LLi, 3, 3),
        ("A, B * C, D -o E |- E * A", ALm, 2, 2),
        ("A * (A -o B) |- B * (B -o A)", ALm, 4, 4),
        ("B, C -o D, E * F |- A -o A * A", LLi, 3, 2),
    ]
    for text, theory, _, _ in cases:  # first build the unions and their tables
        find_countermodel(parse_sequent(text), theory, 5)
    walked = []
    real = algebra_module._blocks

    def spying(xs, tables):
        walked.append(tables)
        return real(xs, tables)

    monkeypatch.setattr(algebra_module, "_blocks", spying)
    for text, theory, size, first in cases:
        walked.clear()
        alg, v = find_countermodel(parse_sequent(text), theory, 5)
        assert alg.size == size, text
        assert not seq_holds(parse_sequent(text), alg, v)
        if first == size and size <= 3:
            assert not walked, text
        else:
            assert walked[0].size == first and walked[-1] is alg._tables, text
            assert len({id(t) for t in walked}) == len(walked), text
    walked.clear()  # nothing is left to walk past size 3
    assert find_countermodel(parse_sequent("A |- A"), ALm, 3) is None and not walked


@pytest.mark.parametrize("t", ALL_THEORIES, ids=lambda t: t.name)
def test_a_refuter_agrees_with_validity_in_the_small_class_algebras(t):
    """refutes(s) iff an algebra of t's class of size 2 or 3 fails `valid`
    on s, for sequents over 0 to 5 variables with both constants and every
    connective; one refuter per number of variables serves all its
    sequents, so the value tables it keeps are read across sequents."""
    algebras = list(enumerate_algebras(3, theory_class(t)))
    rng = random.Random(22)
    verdicts = set()
    for k in range(6):
        names = list("ABCDE"[:k])
        refutes = refuter(names, t)
        leaves = (ONE, ZERO) + tuple(Var(x) for x in names) * 2
        for _ in range(25):
            s = Sequent(
                [_random_formula(rng, rng.randint(1, 5), leaves) for _ in range(rng.randint(0, 2))],
                _random_formula(rng, rng.randint(1, 7), leaves),
            )
            want = any(not valid(s, m) for m in algebras)
            assert refutes(s) == want, (k, s)
            verdicts.add(want)
    assert verdicts == {False, True}


_LAZY_WALK_CHILD = r"""
import hooplog.algebra as algebra
from hooplog.sequent import parse_sequent
from hooplog.theories import ALm

sizes = set()
real = algebra._pocrims_of_size

def spy(n):
    sizes.add(n)
    return real(n)

algebra._pocrims_of_size = spy
alg, v = algebra.find_countermodel(parse_sequent("A |- A * A"), ALm, 10)
print(alg.size, v, sorted(sizes))
"""


def test_countermodel_walk_enumerates_no_size_past_its_countermodel():
    # in a fresh interpreter, so no earlier test has filled the blocks; a
    # walk that built the whole stream to size 10 would take many minutes
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(algebra_module.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_WALK_CHILD],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "3 {'A': 1} [2, 3]\n"
