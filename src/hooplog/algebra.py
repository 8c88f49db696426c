"""Finite algebraic semantics: pocrims, hoops, chains, countermodel search.

Carrier elements are indices 0..n-1 with 0 the monoid identity, which
interprets the formula 0 (truth).  `add` interprets * and `res` interprets
-o; `a >= b` holds when res[a][b] == 0, and 0 is the least element, so
larger means logically stronger (falser).  A bounded algebra has a top
element interpreting the constant 1 (falsehood).

Class flags on top of pocrim: hoop (divisibility, the algebraic CWC),
bounded (EFQ), involutive (DNE), idempotent (CON).  Enumeration yields one
representative per isomorphism class, chains before non-linear orders,
sorted by canonical table form within each size; countermodel search walks
that stream and returns the first falsifying (algebra, assignment).

How a size is enumerated: the partial orders with bottom 0 are generated
with the numeric order as a linear extension, and only the first of each
isomorphism class is kept (an isomorphism of such orders fixes 0, so every
algebra class first shows up on that labelling).  For each kept order the
add table is filled cell by cell, by backtracking, with monotone candidates;
after each placement only the associativity instances that read the new
cell are checked.  Completed tables get their residuals derived, are
verified by `check_class`, whose flags are kept with the algebra, and are
merged by `canonical_key`, the first labelling found standing for its
class.  Each size is enumerated once per process and cached.

How formulas are evaluated: assignments to the sorted variables come in
product order, in blocks of at most _BLOCK_ROWS rows over the trailing
variables.  In a block each subformula node gets its value table (its
values over the rows), computed once as one list comprehension over its
operands' tables; the tensored context is one more table, and search stops
at the first block with a failing row.  `eval_formula` and `seq_holds` are
the one-row case of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import TYPE_CHECKING

from .syntax import (
    Formula,
    FormulaError,
    Imp,
    Neg,
    Nor,
    SDisj,
    SImp,
    Tensor,
    Var,
    WConj,
    is_one,
    is_zero,
    variables,
)
from .theories import TheoryId

if TYPE_CHECKING:
    from .sequent import Sequent

FLAGS = ("pocrim", "hoop", "bounded", "involutive", "idempotent")


class AlgebraError(Exception):
    pass


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    add: tuple[tuple[int, ...], ...]
    res: tuple[tuple[int, ...], ...]
    top: int | None = None

    def geq(self, a: int, b: int) -> bool:
        return self.res[a][b] == 0

    def __repr__(self):
        return f"<FiniteAlgebra n={self.size} top={self.top}>"


def lukasiewicz_chain(k: int) -> FiniteAlgebra:
    """The chain on {0, 1/(k-1), ..., 1} with truncated addition; index i
    stands for the exact rational i/(k-1)."""
    if k < 2:
        raise ValueError("a chain needs at least two elements")
    m = k - 1
    add = tuple(tuple(min(m, i + j) for j in range(k)) for i in range(k))
    res = tuple(tuple(max(0, j - i) for j in range(k)) for i in range(k))
    return FiniteAlgebra(k, add, res, top=m)


def boolean_algebra() -> FiniteAlgebra:
    return lukasiewicz_chain(2)


def godel_chain(k: int) -> FiniteAlgebra:
    """Chain with add = max; bounded hoop that is not involutive for k >= 3."""
    if k < 2:
        raise ValueError("a chain needs at least two elements")
    add = tuple(tuple(max(i, j) for j in range(k)) for i in range(k))
    res = tuple(tuple(0 if i >= j else j for j in range(k)) for i in range(k))
    return FiniteAlgebra(k, add, res, top=k - 1)


@dataclass
class ClassReport:
    flags: frozenset[str]
    failure: str | None = None


def check_class(m: FiniteAlgebra) -> ClassReport:
    """Verify the pocrim laws, then report the optional class flags."""
    n = m.size
    add, res = m.add, m.res
    rng = range(n)
    if len(add) != n or len(res) != n or any(len(r) != n for r in add + res):
        return ClassReport(frozenset(), "tables are not n x n")
    for a in rng:
        if add[0][a] != a:
            return ClassReport(frozenset(), f"0 is not an identity: 0+{a}={add[0][a]}")
        for b in rng:
            if add[a][b] != add[b][a]:
                return ClassReport(frozenset(), f"add not commutative at ({a},{b})")
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return ClassReport(
                        frozenset(), f"add not associative at ({a},{b},{c})"
                    )

    def geq(a, b):
        return res[a][b] == 0

    for a in rng:
        if not geq(a, a):
            return ClassReport(frozenset(), f"order not reflexive at {a}")
        if not geq(a, 0):
            return ClassReport(frozenset(), f"0 not least: {a} >= 0 fails")
        for b in rng:
            if a != b and geq(a, b) and geq(b, a):
                return ClassReport(frozenset(), f"order not antisymmetric at ({a},{b})")
            for c in rng:
                if geq(a, b) and geq(b, c) and not geq(a, c):
                    return ClassReport(
                        frozenset(), f"order not transitive at ({a},{b},{c})"
                    )
                if geq(add[a][b], c) != geq(a, res[b][c]):
                    return ClassReport(
                        frozenset(), f"residuation fails at ({a},{b},{c})"
                    )
    flags = {"pocrim"}
    if all(add[a][res[a][b]] == add[b][res[b][a]] for a in rng for b in rng):
        flags.add("hoop")
    tops = [t for t in rng if all(geq(t, a) for a in rng)]
    top = tops[0] if tops else None
    if m.top is not None and m.top != top:
        return ClassReport(frozenset(), f"declared top {m.top} is not the maximum")
    if top is not None:
        flags.add("bounded")
        if all(res[res[a][top]][top] == a for a in rng):
            flags.add("involutive")
    if all(add[a][a] == a for a in rng):
        flags.add("idempotent")
    return ClassReport(frozenset(flags))


Assignment = dict[str, int]

# The most assignments evaluated together; see `_assignment_blocks`.
_BLOCK_ROWS = 256


def _assignment_blocks(names: list[str], n: int):
    """All assignments of 0..n-1 to names in product order, as blocks of
    (columns, rows): the columns map each name to its values over the rows.
    Blocks span the trailing variables; the leading ones step."""
    k = 0
    while k < len(names) and n ** (k + 1) <= _BLOCK_ROWS:
        k += 1
    lead, trail = names[: len(names) - k], names[len(names) - k :]
    rows = list(product(range(n), repeat=k))
    tails = {x: list(col) for x, col in zip(trail, zip(*rows))}
    for head in product(range(n), repeat=len(lead)):
        yield {x: [a] * len(rows) for x, a in zip(lead, head)} | tails, len(rows)


def _table(f: Formula, m: FiniteAlgebra, cols, rows: int, memo: dict) -> list[int]:
    """The values of f over the rows of one block, memoised by node.
    Derived connectives evaluate through their definitions, with 0 read as
    the identity so unbounded algebras handle it without a top element."""
    t = memo.get(f)
    if t is not None:
        return t
    add, res, top = m.add, m.res, m.top
    if isinstance(f, Var):
        t = cols.get(f.name)
        if t is None:
            raise AlgebraError(f"unassigned variable {f.name}")
    elif is_one(f):
        if top is None:
            raise AlgebraError("the constant 1 needs a bounded algebra")
        t = [top] * rows
    elif is_zero(f):
        t = [0] * rows
    elif isinstance(f, Neg):
        if top is None:
            raise AlgebraError("negation needs a bounded algebra")
        t = [res[a][top] for a in _table(f.body, m, cols, rows, memo)]
    else:
        pairs = zip(
            _table(f.left, m, cols, rows, memo), _table(f.right, m, cols, rows, memo)
        )
        if isinstance(f, Imp):
            t = [res[a][b] for a, b in pairs]
        elif isinstance(f, Tensor):
            t = [add[a][b] for a, b in pairs]
        elif isinstance(f, WConj):
            t = [add[a][res[a][b]] for a, b in pairs]
        elif isinstance(f, SDisj):
            t = [res[res[b][a]][a] for a, b in pairs]
        elif isinstance(f, SImp):
            t = [res[a][add[a][b]] for a, b in pairs]
        elif isinstance(f, Nor):
            if top is None:
                raise AlgebraError("!! needs a bounded algebra")
            t = [add[res[a][top]][res[b][a]] for a, b in pairs]
        else:
            raise AlgebraError(f"cannot evaluate {f!r}")
    memo[f] = t
    return t


def value_tables(fs, m: FiniteAlgebra, names: list[str]):
    """Per block of `_assignment_blocks(names, m.size)`, in order: its
    columns and the value table of each formula of fs."""
    for cols, rows in _assignment_blocks(names, m.size):
        memo: dict = {}
        yield cols, [_table(f, m, cols, rows, memo) for f in fs]


def _one_row(fs, m: FiniteAlgebra, v: Assignment) -> list[list[int]]:
    cols, memo = {x: [a] for x, a in v.items()}, {}
    return [_table(f, m, cols, 1, memo) for f in fs]


def eval_formula(f: Formula, m: FiniteAlgebra, v: Assignment) -> int:
    """Homomorphic evaluation under one assignment."""
    return _one_row((f,), m, v)[0][0]


def _holds(m: FiniteAlgebra, tables) -> list[bool]:
    """Per row: does the tensored context (all but the last) dominate the goal?"""
    *context, goal = tables
    add, res = m.add, m.res
    acc = [0] * len(goal)
    for t in context:
        acc = [add[a][b] for a, b in zip(acc, t)]
    return [not res[a][g] for a, g in zip(acc, goal)]


def seq_holds(s: Sequent, m: FiniteAlgebra, v: Assignment) -> bool:
    return _holds(m, _one_row((*s.context, s.goal), m, v))[0]


def valid(s: Sequent, m: FiniteAlgebra) -> bool:
    """True iff the tensored context dominates the goal for all assignments."""
    return falsifying_assignment(s, m) is None


def falsifying_assignment(s: Sequent, m: FiniteAlgebra) -> Assignment | None:
    """The first assignment, in `_assignment_blocks` order, under which s fails."""
    names = sorted(set().union(*(variables(f) for f in s.context), variables(s.goal)))
    for cols, tables in value_tables((*s.context, s.goal), m, names):
        holds = _holds(m, tables)
        if not all(holds):
            i = holds.index(False)
            return {x: c[i] for x, c in cols.items()}
    return None


# Enumeration up to isomorphism


def _posets_with_bottom(n: int):
    """Down-set matrices leq[i][j] ('i <= j') with 0 the bottom and the
    numeric order a linear extension."""

    def extend(leq: list[list[bool]], j: int):
        if j == n:
            yield tuple(tuple(row) for row in leq)
            return
        below = list(range(j))
        for mask in range(1 << len(below)):
            down = [i for i in below if mask >> i & 1]
            if 0 not in down or any(
                leq[k][i] and k not in down for i in down for k in range(i)
            ):
                continue
            for i in down:
                leq[i][j] = True
            yield from extend(leq, j + 1)
            for i in down:
                leq[i][j] = False

    if n == 1:
        yield ((True,),)
        return
    leq = [[i == j for j in range(n)] for i in range(n)]
    yield from extend(leq, 1)


def _poset_representatives(n: int):
    """The first poset of each isomorphism class, in `_posets_with_bottom`
    order.  Isomorphisms of posets with a bottom fix 0, and relabelling a
    poset by the permutation p of its elements gives another poset of the
    stream exactly when p lists them in a linear extension; those
    relabellings are marked as seen when the class is first met."""
    perms = [(0,) + p for p in permutations(range(1, n))]
    seen = set()
    for leq in _posets_with_bottom(n):
        if leq in seen:
            continue
        yield leq
        for p in perms:
            if not any(leq[p[j]][p[i]] for j in range(n) for i in range(j)):
                seen.add(tuple(tuple(leq[x][y] for y in p) for x in p))


def _chain_poset(n: int):
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


def _complete_tables(n: int, leq) -> list[tuple]:
    """Backtrack over commutative monotone integral add tables for a fixed
    order, deriving residuals; returns completed (add, res, top) triples."""
    geq = [[leq[j][i] for j in range(n)] for i in range(n)]
    ups = [frozenset(j for j in range(n) if geq[j][i]) for i in range(n)]
    add = [[0] * n for _ in range(n)]
    for a in range(n):
        add[0][a] = add[a][0] = a
    filled = [[i == 0 or j == 0 for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    out: list[tuple] = []

    def candidates(i, j):
        # a+b must dominate both arguments and, for monotonicity, every
        # filled cell (x, y) below (i, j) in either orientation.  No filled
        # cell lies above (i, j): cells are filled in lexicographic order,
        # and the numeric order extends the partial one.
        lo = {
            add[x][y]
            for x in range(1, n)
            for y in range(x, n)
            if (x, y) < (i, j)
            and ((leq[x][i] and leq[y][j]) or (leq[y][i] and leq[x][j]))
        }
        return [c for c in sorted(ups[i] & ups[j]) if all(geq[c][v] for v in lo)]

    def holds(x, y, z):
        # (x+y)+z == x+(y+z), or one of its four sums is still unknown
        if not (filled[x][y] and filled[y][z]):
            return True
        xy, yz = add[x][y], add[y][z]
        if not (filled[xy][z] and filled[x][yz]):
            return True
        return add[xy][z] == add[x][yz]

    def assoc_ok(i, j):
        # Every instance whose sums were all known before (i,j) was placed
        # has been checked already; check those that read the new cell as
        # x+y, y+z, (x+y)+z or x+(y+z).
        for a, b in {(i, j), (j, i)}:
            for t in range(n):
                if not (holds(a, b, t) and holds(t, a, b)):
                    return False
            for x in range(n):
                for y in range(n):
                    if filled[x][y] and add[x][y] == a:
                        if not (holds(x, y, b) and holds(b, x, y)):
                            return False
        return True

    def place(k):
        if k == len(cells):
            res = _derive_res(n, add, leq, geq)
            if res is None:
                return
            tops = [t for t in range(n) if all(geq[t][a] for a in range(n))]
            out.append(
                (
                    tuple(tuple(row) for row in add),
                    res,
                    tops[0] if tops else None,
                )
            )
            return
        i, j = cells[k]
        for c in candidates(i, j):
            add[i][j] = add[j][i] = c
            filled[i][j] = filled[j][i] = True
            if assoc_ok(i, j):
                place(k + 1)
            filled[i][j] = filled[j][i] = False
        add[i][j] = add[j][i] = 0

    place(0)
    return out


def _derive_res(n, add, leq, geq):
    res = [[0] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            sat = [a for a in range(n) if geq[add[a][b]][c]]
            if not sat:
                return None
            least = [a for a in sat if all(leq[a][x] for x in sat)]
            if not least:
                return None
            res[b][c] = least[0]
    return tuple(tuple(row) for row in res)


def canonical_key(m: FiniteAlgebra) -> tuple:
    """Lexicographically minimal flattened (add, res, top) over carrier
    permutations fixing 0.  The permuted rows are built one at a time, and a
    permutation is dropped as soon as a row exceeds the best key's row."""
    n = m.size
    best: list | None = None
    for perm in permutations(range(1, n)):
        p = (0,) + perm
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        key = []
        tied = best is not None
        for src in [m.add[x] for x in p] + [m.res[x] for x in p]:
            row = tuple([inv[src[y]] for y in p])
            if tied:
                if row > best[len(key)]:
                    break
                tied = row == best[len(key)]
            key.append(row)
        else:
            top = -1 if m.top is None else inv[m.top]
            if not tied or top < best[-1]:
                best = key + [top]
    return tuple(best[:n]), tuple(best[n : 2 * n]), best[-1]


_ENUM_CACHE: dict[tuple[int, bool], list[tuple[FiniteAlgebra, frozenset[str]]]] = {}


def _pocrims_of_size(
    n: int, chains_only: bool
) -> list[tuple[FiniteAlgebra, frozenset[str]]]:
    """(algebra, class flags) for one representative of each isomorphism
    class of size-n pocrims whose order is the chain (chains_only) or is
    not, in canonical order."""
    key = (n, chains_only)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    found: dict[tuple, tuple[FiniteAlgebra, frozenset[str]]] = {}
    chain = _chain_poset(n)
    if chains_only:
        posets = [chain]
    else:
        posets = (leq for leq in _poset_representatives(n) if leq != chain)
    for leq in posets:
        for add, res, top in _complete_tables(n, leq):
            alg = FiniteAlgebra(n, add, res, top)
            flags = check_class(alg).flags
            if "pocrim" in flags:
                found.setdefault(canonical_key(alg), (alg, flags))
    result = [found[k] for k in sorted(found)]
    _ENUM_CACHE[key] = result
    return result


def enumerate_classified(
    size_max: int,
    required: frozenset[str] | set[str] = frozenset(("pocrim",)),
    forbidden: frozenset[str] | set[str] = frozenset(),
):
    """(algebra, class flags) pairs in the order of `enumerate_algebras`."""
    required = frozenset(required) | {"pocrim"}
    forbidden = frozenset(forbidden)
    unknown = (required | forbidden) - set(FLAGS)
    if unknown:
        raise ValueError(
            f"unknown class flag {', '.join(sorted(unknown))};"
            f" FLAGS are {', '.join(FLAGS)}"
        )
    return (
        (alg, flags)
        for n in range(1, size_max + 1)
        for alg, flags in _pocrims_of_size(n, True) + _pocrims_of_size(n, False)
        if required <= flags and not (forbidden & flags)
    )


def enumerate_algebras(
    size_max: int,
    required: frozenset[str] | set[str] = frozenset(("pocrim",)),
    forbidden: frozenset[str] | set[str] = frozenset(),
):
    """One representative per isomorphism class, sizes ascending, chains
    first within each size, canonical order within each block.  Raises
    ValueError at once for a flag name that is not in FLAGS."""
    return (alg for alg, _ in enumerate_classified(size_max, required, forbidden))


def theory_class(t: TheoryId) -> frozenset[str]:
    req = {"pocrim"}
    if t.base == "lukasiewicz":
        req.add("hoop")
    elif t.base == "full":
        req.add("idempotent")
    if t.level in ("intuitionistic", "classical"):
        req.add("bounded")
    if t.level == "classical":
        req.add("involutive")
    return frozenset(req)


def find_countermodel(
    s: Sequent, t: TheoryId, size_max: int
) -> tuple[FiniteAlgebra, Assignment] | None:
    """First algebra of t's class (by the enumeration order) falsifying s."""
    return _first_countermodel(s, t, size_max)


def _first_countermodel(
    s: Sequent, t: TheoryId, size_max: int
) -> tuple[FiniteAlgebra, Assignment] | None:
    """The body of `find_countermodel`.  `bounded_prove` calls it directly,
    so traces of `find_countermodel` count only countermodel searches.
    Theories above minimal interpret 1 as the top, so they skip algebras
    without one."""
    needs_top = t.level != "minimal"
    for alg in enumerate_algebras(size_max, theory_class(t)):
        if needs_top and alg.top is None:
            continue
        v = falsifying_assignment(s, alg)
        if v is not None:
            return alg, v
    return None


# Plain-text algebra files: `size n`, optional `top i`, `add:` rows, `res:` rows.


def format_algebra(m: FiniteAlgebra) -> str:
    lines = [f"size {m.size}"]
    if m.top is not None:
        lines.append(f"top {m.top}")
    lines.append("add:")
    lines.extend(" ".join(str(x) for x in row) for row in m.add)
    lines.append("res:")
    lines.extend(" ".join(str(x) for x in row) for row in m.res)
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> FiniteAlgebra:
    size = None
    top = None
    add: list[tuple[int, ...]] = []
    res: list[tuple[int, ...]] = []
    target = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("size"):
            size = int(line.split()[1])
        elif line.startswith("top"):
            top = int(line.split()[1])
        elif line == "add:":
            target = add
        elif line == "res:":
            target = res
        else:
            if target is None:
                raise FormulaError(f"unexpected algebra line {line!r}")
            target.append(tuple(int(x) for x in line.split()))
    if size is None or size < 1 or len(add) != size or len(res) != size:
        raise FormulaError("malformed algebra file")
    for name, rows in (("add", add), ("res", res)):
        for a, row in enumerate(rows):
            if len(row) != size:
                raise FormulaError(
                    f"{name} row {a} has {len(row)} entries, not {size}"
                )
            for x in row:
                if not 0 <= x < size:
                    raise FormulaError(
                        f"{name} row {a}: entry {x} is outside 0..{size - 1}"
                    )
    if top is not None and not 0 <= top < size:
        raise FormulaError(f"top {top} is outside 0..{size - 1}")
    return FiniteAlgebra(size, tuple(add), tuple(res), top)
