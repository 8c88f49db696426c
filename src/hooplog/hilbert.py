"""Hilbert-style systems, derivation checking, and proof translation.

Each sequent theory has a Hilbert twin whose only rule is modus ponens; the
base system has composition, commutativity, currying, uncurrying and
weakening, and the extensions add EFQ, DNE, CWC or Con.  The Rose-Rosser
system (A1-A4 over -o and ^ only) is registered alongside them.

`sequent_to_hilbert` realises one direction of the equivalence between the
two presentations constructively: by induction on the proof tree it keeps,
for every node `x1, ..., xk |- G`, a derived formula
`comb(x1, ..., xk) -o G` with `comb = x1 * (x2 * ... )`, and curries the
result at the root.  The five base schemata serve as the combinators of the
B, C, K reading of a Hilbert system (Troelstra and Schwichtenberg, *Basic
Proof Theory*, ch. 6): Comp composes, Curry, Uncurry and Comm flip two
antecedents, Wk drops one.  Every two-premise node, and every axiom leaf
with context, goes through `_apply`: it applies a step
`comb(o1) -o (X -o G)` to a premise `comb(o2) -o X`, chaining them into
`comb(o1) -o (comb(o2) -o G)` and uncurrying `comb(o2)` into the comb one
element of o1 at a time.  No step permutes a comb: ImpI curries its
hypothesis out where it stands (`curry_out`, the mirror of that uncurrying),
TensorE curries its two components out and uncurries them into their
tensor, and the root curries the sorted context out one element at a time,
last to second, leaving the first as the outermost antecedent.

`hilbert_to_sequent` replays the other direction, turning modus ponens into
ImpE and each axiom instance into one `Lem` leaf.  It only builds: the one
validator of a derivation is `check_derivation`, which the replay calls
first.  Each (schema, theory) sequent proof is found once and admitted by
the kernel (`sequent.admit`) when `schema_proof` first builds it, so the
leaf cites |- schema and the kernel checks that the line is an instance of
it, in time linear in the schema, not in its proof.  An axiom line is built
one way, as `substitute(SCHEMAS[name], sigma)`, and checked one way:
`check_derivation` walks the schema against the line under its substitution
(`_is_instance`), building nothing, and tests an mp line by identity, which
for interned formulas is equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Formula,
    FormulaError,
    Imp,
    ONE,
    ParseError,
    Tensor,
    Var,
    core_dneg,
    core_neg,
    expand_derived,
    format_formula,
    formula_key,
    parse_formula,
    substitute,
)
from .sequent import (
    ProofTree,
    Sequent,
    Verdict,
    _ctx_minus,
    admit,
    bounded_prove,
    check_proof,
    imp_e,
)
from .theories import ALL_THEORIES, TheoryId

_A, _B, _C = Var("A"), Var("B"), Var("C")

SCHEMAS: dict[str, Formula] = {
    "Comp": Imp(Imp(_A, _B), Imp(Imp(_B, _C), Imp(_A, _C))),
    "Comm": Imp(Tensor(_A, _B), Tensor(_B, _A)),
    "Curry": Imp(Imp(Tensor(_A, _B), _C), Imp(_A, Imp(_B, _C))),
    "Uncurry": Imp(Imp(_A, Imp(_B, _C)), Imp(Tensor(_A, _B), _C)),
    "Wk": Imp(Tensor(_A, _B), _A),
    "EFQ": Imp(ONE, _A),
    "DNE": Imp(core_dneg(_A), _A),
    "CWC": Imp(
        Tensor(_A, Imp(_A, _B)), Tensor(_B, Imp(_B, _A))
    ),
    "Con": Imp(_A, Tensor(_A, _A)),
    "A1": Imp(_A, Imp(_B, _A)),
    "A2": Imp(Imp(_A, _B), Imp(Imp(_B, _C), Imp(_A, _C))),
    "A3": Imp(Imp(Imp(_A, _B), _B), Imp(Imp(_B, _A), _A)),
    "A4": Imp(Imp(core_neg(_A), core_neg(_B)), Imp(_B, _A)),
}


def _is_instance(s: Formula, sigma: dict[str, Formula], f: Formula) -> bool:
    """Whether f is substitute(s, sigma) for a core schema s, walking s
    against f and building nothing."""
    if isinstance(s, Var):
        return sigma.get(s.name, s) is f
    if isinstance(s, (Imp, Tensor)):
        return (
            type(f) is type(s)
            and _is_instance(s.left, sigma, f.left)
            and _is_instance(s.right, sigma, f.right)
        )
    return s is f  # the constant 1


_BASE = ("Comp", "Comm", "Curry", "Uncurry", "Wk")

# The schema that adds each axiom beyond ASM, in the order systems list them.
_AXIOM_SCHEMA = {"CWC": "CWC", "CON": "Con", "EFQ": "EFQ", "DNE": "DNE"}


def system_for(theory: TheoryId) -> tuple[str, ...]:
    return _BASE + tuple(v for k, v in _AXIOM_SCHEMA.items() if k in theory.axioms())


ROSE_ROSSER = ("A1", "A2", "A3", "A4")

SYSTEMS: dict[str, tuple[str, ...]] = {
    f"H-{t.name}": system_for(t) for t in ALL_THEORIES
}
SYSTEMS["RoseRosser"] = ROSE_ROSSER


Justification = tuple  # ("axiom", schema, subst) | ("mp", i, j)


@dataclass(frozen=True)
class HilbertDerivation:
    lines: tuple[tuple[Formula, Justification], ...]

    @property
    def final(self) -> Formula:
        return self.lines[-1][0]

    def __len__(self):
        return len(self.lines)


def check_derivation(d: HilbertDerivation, system: str) -> Verdict:
    """Every line must be a schema instance of the system or follow by
    modus ponens from two earlier lines."""
    try:
        schemas = SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown Hilbert system {system!r}")
    for n, (f, just) in enumerate(d.lines):
        if just[0] == "axiom":
            _, name, subst = just
            if name not in schemas:
                return Verdict(False, f"line {n + 1}: schema {name} not in {system}")
            if not _is_instance(SCHEMAS[name], subst, f):
                return Verdict(False, f"line {n + 1}: not an instance of {name}")
        elif just[0] == "mp":
            _, i, j = just
            if not (0 <= i < n and 0 <= j < n):
                return Verdict(False, f"line {n + 1}: mp premises must be earlier")
            g = d.lines[j][0]
            if not (type(g) is Imp and g.left is d.lines[i][0] and g.right is f):
                return Verdict(
                    False,
                    f"line {n + 1}: line {j + 1} is not (line {i + 1}) -o this line",
                )
        else:
            return Verdict(False, f"line {n + 1}: unknown justification {just[0]!r}")
    return Verdict(True)


def curry_sequent(s: Sequent, order: list[Formula] | tuple[Formula, ...]) -> Formula:
    """The right-nested implication C1 -o ... -o Ck -o A."""
    if tuple(sorted(order, key=formula_key)) != s.context:
        raise FormulaError("order does not enumerate the context multiset")
    out = s.goal
    for c in reversed(tuple(order)):
        out = Imp(c, out)
    return out


def rose_rosser_embed(f: Formula) -> Formula:
    """Replace every A * B by (A -o B^)^, innermost first; output uses only
    variables, 1 and -o."""
    f = expand_derived(f)

    def go(g: Formula) -> Formula:
        if isinstance(g, Tensor):
            return core_neg(Imp(go(g.left), core_neg(go(g.right))))
        if isinstance(g, Imp):
            return Imp(go(g.left), go(g.right))
        return g

    return go(f)


class _Id:
    """|- a -o a, standing in for a line index until a line needs it."""

    __slots__ = ("a",)

    def __init__(self, a: Formula):
        self.a = a


Ref = int | _Id


class _Builder:
    """Accumulates derivation lines, each formula emitted once.

    Combinators take and return a `Ref`: a line index, or an `_Id` for an
    identity `|- a -o a` whose lines are not yet emitted.  Composition drops
    an identity, modus ponens against one returns the minor premise, and
    `lift` and `pre` map one to an identity; `line` emits its
    lines only where a line must cite it (an mp minor premise, `c_rule`,
    `extract`), so identities that the combinators cancel cost nothing.

    The comb combinators: `uncurry_comb` joins two combs, the last step of
    `_apply`, through which every two-premise node goes, and `curry_out`
    takes one element out of a comb into the goal, the only way a comb is
    reordered (`_curry_out` applies its steps to a node's line by mp, with
    no composition at the top)."""

    def __init__(self, schemas: tuple[str, ...]):
        self.schemas = schemas
        self.lines: list[tuple[Formula, Justification]] = []
        self.by_formula: dict[Formula, int] = {}

    def extract(self, ref: Ref) -> HilbertDerivation:
        """The sub-derivation reachable from ref, renumbered."""
        needed: set[int] = set()
        stack = [self.line(ref)]
        while stack:
            k = stack.pop()
            if k in needed:
                continue
            needed.add(k)
            just = self.lines[k][1]
            if just[0] == "mp":
                stack.extend(just[1:])
        keep = sorted(needed)
        renum = {old: new for new, old in enumerate(keep)}
        out = []
        for old in keep:
            f, just = self.lines[old]
            if just[0] == "mp":
                just = ("mp", renum[just[1]], renum[just[2]])
            out.append((f, just))
        return HilbertDerivation(tuple(out))

    def _emit(self, f: Formula, just: Justification) -> int:
        got = self.by_formula.get(f)
        if got is not None:
            return got
        self.lines.append((f, just))
        idx = len(self.lines) - 1
        self.by_formula[f] = idx
        return idx

    def axiom(self, name: str, **subst: Formula) -> int:
        if name not in self.schemas:
            raise FormulaError(f"schema {name} unavailable in this system")
        return self._emit(substitute(SCHEMAS[name], subst), ("axiom", name, subst))

    def mp(self, i: Ref, j: Ref) -> Ref:
        fi = self.formula(i)
        if isinstance(j, _Id):
            if j.a != fi:
                raise FormulaError("mp: major premise does not match")
            return i
        fj = self.lines[j][0]
        if not (isinstance(fj, Imp) and fj.left == fi):
            raise FormulaError("mp: major premise does not match")
        return self._emit(fj.right, ("mp", self.line(i), j))

    def formula(self, i: Ref) -> Formula:
        if isinstance(i, _Id):
            return Imp(i.a, i.a)
        return self.lines[i][0]

    def line(self, i: Ref) -> int:
        """The line index of i, emitting an identity's lines on first need:
        two commutations for a tensor, uncurry then curry for a curried
        implication, else a K instance flipped against a * a -o a."""
        if not isinstance(i, _Id):
            return i
        a = i.a
        got = self.by_formula.get(Imp(a, a))
        if got is not None:
            return got
        if isinstance(a, Tensor):
            x, y = a.left, a.right
            return self.comp(self.axiom("Comm", A=x, B=y), self.axiom("Comm", A=y, B=x))
        if isinstance(a, Imp) and isinstance(a.right, Imp):
            x, y, z = a.left, a.right.left, a.right.right
            return self.comp(
                self.axiom("Uncurry", A=x, B=y, C=z), self.axiom("Curry", A=x, B=y, C=z)
            )
        thm = self.axiom("Wk", A=a, B=a)  # the stock theorem t := a * a -o a
        t = self.formula(thm)
        k2 = self.mp(
            self.axiom("Wk", A=a, B=t), self.axiom("Curry", A=a, B=t, C=a)
        )  # a -o (t -o a)
        return self.mp(thm, self.c_rule(k2))

    # Derived combinators.

    def comp(self, i: Ref, j: Ref) -> Ref:
        """From |- X -o Y and |- Y -o Z conclude |- X -o Z."""
        if isinstance(i, _Id):
            return j
        if isinstance(j, _Id):
            return i
        fi, fj = self.formula(i), self.formula(j)
        step = self.axiom("Comp", A=fi.left, B=fi.right, C=fj.right)
        return self.mp(j, self.mp(i, step))

    def ident(self, a: Formula) -> _Id:
        """|- a -o a, emitted only where a line cites it."""
        return _Id(a)

    def c_rule(self, i: Ref) -> int:
        """From |- X -o (Y -o Z) conclude |- Y -o (X -o Z)."""
        f = self.formula(i)
        x, y, z = f.left, f.right.left, f.right.right
        unc = self.mp(i, self.axiom("Uncurry", A=x, B=y, C=z))  # x*y -o z
        comm = self.axiom("Comm", A=y, B=x)  # y*x -o x*y
        swapped = self.comp(comm, unc)  # y*x -o z
        return self.mp(swapped, self.axiom("Curry", A=y, B=x, C=z))

    def lift(self, c: Formula, i: Ref) -> Ref:
        """From |- P -o Q conclude |- (C -o P) -o (C -o Q)."""
        if isinstance(i, _Id):
            return _Id(Imp(c, i.a))
        f = self.formula(i)
        step = self.axiom("Comp", A=c, B=f.left, C=f.right)
        return self.mp(i, self.c_rule(step))

    def pair(self, a: Formula, b: Formula) -> int:
        """|- a -o (b -o a * b)."""
        t = Tensor(a, b)
        return self.mp(self.ident(t), self.axiom("Curry", A=a, B=b, C=t))

    def pre(self, i: Ref, goal: Formula) -> Ref:
        """From |- X -o Y conclude |- (Y -o goal) -o (X -o goal): one Comp
        instance, none for an identity."""
        if isinstance(i, _Id):
            return _Id(Imp(i.a, goal))
        f = self.formula(i)
        return self.mp(i, self.axiom("Comp", A=f.left, B=f.right, C=goal))

    # Right-nested combs over an explicit order.  All structure is driven by
    # the order lists: a context element may itself be a tensor, so the comb
    # shape cannot be recovered from the formula.

    def uncurry_comb(self, o1: list[Formula], o2: list[Formula], goal: Formula) -> Ref:
        """|- (comb(o1) -o (comb(o2) -o goal)) -o (comb(o1 ++ o2) -o goal):
        one Uncurry for a single x, else Curry x off, recurse under x, and
        Uncurry x back on."""
        x, rest = o1[0], o1[1:]
        if not rest:
            return self.axiom("Uncurry", A=x, B=_comb(o2), C=goal)
        curry = self.axiom("Curry", A=x, B=_comb(rest), C=Imp(_comb(o2), goal))
        inner = self.lift(x, self.uncurry_comb(rest, o2, goal))
        unc = self.axiom("Uncurry", A=x, B=_comb(rest + o2), C=goal)
        return self.comp(self.comp(curry, inner), unc)

    def curry_out_steps(self, order: list[Formula], k: int, goal: Formula) -> list[Ref]:
        """The implications whose chain is `curry_out(order, k, goal)`, so
        that a caller holding |- comb(order) -o goal can apply them by mp.
        For order[k] at the head: flip it behind the rest (Comm, Comp), then
        Curry; for [x, a], one Curry; else Curry x off, the lifted recursion,
        and Uncurry x back on."""
        a, rest = order[k], order[:k] + order[k + 1 :]
        if k == 0:
            r = _comb(rest)
            comm = self.axiom("Comm", A=r, B=a)  # r*a -o a*r
            flip = self.mp(comm, self.axiom("Comp", A=Tensor(r, a), B=Tensor(a, r), C=goal))
            return [flip, self.axiom("Curry", A=r, B=a, C=goal)]
        x = order[0]
        if len(order) == 2:
            return [self.axiom("Curry", A=x, B=a, C=goal)]
        return [
            self.axiom("Curry", A=x, B=_comb(order[1:]), C=goal),
            self.lift(x, self.curry_out(order[1:], k - 1, goal)),
            self.axiom("Uncurry", A=x, B=_comb(rest[1:]), C=Imp(a, goal)),
        ]

    def curry_out(self, order: list[Formula], k: int, goal: Formula) -> Ref:
        """|- (comb(order) -o goal) -o (comb(order less k) -o (order[k] -o goal)),
        the mirror of `uncurry_comb`."""
        steps = self.curry_out_steps(order, k, goal)
        out = steps[0]
        for step in steps[1:]:
            out = self.comp(out, step)
        return out


def _comb(order) -> Formula:
    if not order:
        raise FormulaError("empty comb")
    out = order[-1]
    for f in reversed(order[:-1]):
        out = Tensor(f, out)
    return out


@dataclass
class _Node:
    order: list[Formula]  # context enumeration; empty means |- goal directly
    idx: Ref  # comb(order) -o goal, or goal itself


def sequent_to_hilbert(
    p: ProofTree, theory: TheoryId
) -> tuple[HilbertDerivation, list[Formula]]:
    """Translate a checked proof into the matching Hilbert system.

    Returns the derivation and the context order; the final line is
    curry_sequent(conclusion, order) with the context in canonical order.
    """
    v = check_proof(p, theory)
    if not v:
        raise FormulaError(f"sequent proof does not check: {v.message}")
    b = _Builder(system_for(theory))
    node = _translate(p, b)
    order = sorted(node.order, key=formula_key)
    idx, rest, goal = node.idx, node.order, p.conclusion.goal
    # the sorted order's elements curried out last to second; the one left
    # is the outermost antecedent
    for x in reversed(order[1:]):
        idx, rest, goal = _curry_out(b, idx, rest, x, goal)
    want = curry_sequent(p.conclusion, order)
    if b.formula(idx) != want:
        raise FormulaError("internal translation error: wrong final formula")
    return b.extract(idx), order


def _translate(p: ProofTree, b: _Builder) -> _Node:
    rule = p.rule
    s = p.conclusion
    if rule == "AxASM":
        return _asm(b, s.context, s.goal)
    # an axiom |- hyp -o goal applied to the leaf hyp, weakened
    if rule == "AxCON":
        con = b.axiom("Con", A=s.goal.left)
        return _apply(b, _Node([], con), _asm(b, s.context, s.goal.left), s.goal)
    if rule == "AxEFQ":
        efq = b.axiom("EFQ", A=s.goal)
        return _apply(b, _Node([], efq), _asm(b, s.context, ONE), s.goal)
    if rule == "AxDNE":
        dne = b.axiom("DNE", A=s.goal)
        return _apply(b, _Node([], dne), _asm(b, s.context, core_dneg(s.goal)), s.goal)
    if rule == "AxCWC":
        bb, a = s.goal.left, s.goal.right.right
        ab = Imp(a, bb)
        rest = _ctx_minus(s.context, (a,))
        cwc = b.axiom("CWC", A=a, B=bb)
        if rest == (ab,):
            return _Node([a, ab], cwc)
        curried = b.mp(cwc, b.axiom("Curry", A=a, B=ab, C=s.goal))  # a -o (ab -o goal)
        return _apply(b, _Node([a], curried), _asm(b, rest, ab), s.goal)
    if rule == "ImpI":
        sub = _translate(p.premises[0], b)
        if len(sub.order) == 1:
            return _Node([], sub.idx)
        idx, order, _ = _curry_out(b, sub.idx, sub.order, s.goal.left, s.goal.right)
        return _Node(order, idx)
    if rule == "ImpE":
        minor = _translate(p.premises[0], b)
        major = _translate(p.premises[1], b)
        return _apply(b, major, minor, s.goal)
    if rule == "TensorI":
        l = _translate(p.premises[0], b)
        r = _translate(p.premises[1], b)
        a = p.premises[0].conclusion.goal
        bb = p.premises[1].conclusion.goal
        # comb(l) -o (b -o a*b), from a -o (b -o a*b)
        part = _apply(b, _Node([], b.pair(a, bb)), l, Imp(bb, s.goal))
        return _apply(b, part, r, s.goal)
    if rule == "TensorE":
        tprem = _translate(p.premises[0], b)
        body = _translate(p.premises[1], b)
        t = p.premises[0].conclusion.goal
        a, bb = t.left, t.right
        goal = s.goal
        if body.order == [a, bb]:  # its comb is exactly a*b
            curried, rest = body.idx, []
        else:
            # b, then a, curried out of the body: comb(rest) -o (a -o (b -o goal))
            idx, order, g = _curry_out(b, body.idx, body.order, bb, goal)
            unc = b.axiom("Uncurry", A=a, B=bb, C=goal)
            if len(order) == 1:  # order == [a]
                curried, rest = b.mp(idx, unc), []
            else:
                idx, rest, _ = _curry_out(b, idx, order, a, g)
                curried = b.comp(idx, unc)  # comb(rest) -o (a*b -o goal)
        return _apply(b, _Node(rest, curried), tprem, goal)
    raise FormulaError(f"unknown rule {rule!r}")


def _asm(b: _Builder, ctx: tuple[Formula, ...], hyp: Formula) -> _Node:
    """The node for the ASM leaf ctx |- hyp: an identity, or hyp with the
    rest of ctx weakened away."""
    gamma = list(_ctx_minus(ctx, (hyp,)))
    if not gamma:
        return _Node([hyp], b.ident(hyp))
    return _Node([hyp] + gamma, b.axiom("Wk", A=hyp, B=_comb(gamma)))


def _apply(b: _Builder, f: _Node, x: _Node, goal: Formula) -> _Node:
    """From a step f, |- comb(f.order) -o (X -o goal), and a premise x,
    |- comb(x.order) -o X, the node for f.order ++ x.order.  A node with an
    empty order proves its formula without a comb."""
    if not f.order:
        if not x.order:
            return _Node([], b.mp(x.idx, f.idx))
        return _Node(x.order, b.comp(x.idx, f.idx))
    if not x.order:
        return _Node(f.order, b.mp(x.idx, b.c_rule(f.idx)))
    # f, then (X -o goal) -o (comb(x.order) -o goal) from x; comb(x.order)
    # uncurried into the comb one element of f.order at a time
    chained = b.comp(f.idx, b.pre(x.idx, goal))
    return _Node(f.order + x.order, b.mp(chained, b.uncurry_comb(f.order, x.order, goal)))


def _curry_out(
    b: _Builder, idx: Ref, order: list[Formula], x: Formula, goal: Formula
) -> tuple[Ref, list[Formula], Formula]:
    """From |- comb(order) -o goal at idx, with x in order and at least one
    more element: |- comb(order less x) -o (x -o goal), each step of
    `curry_out_steps` applied by mp, with no composition at the top.
    Returns the new line, order less x and x -o goal."""
    k = order.index(x)
    for step in b.curry_out_steps(order, k, goal):
        idx = b.mp(idx, step)
    return idx, order[:k] + order[k + 1 :], Imp(x, goal)


# Hilbert -> sequent replay

_SCHEMA_PROOFS: dict[tuple[str, TheoryId], ProofTree] = {}


def schema_proof(name: str, theory: TheoryId) -> ProofTree:
    """A once-computed sequent proof of |- schema, admitted in theory when
    it is built."""
    key = (name, theory)
    tree = _SCHEMA_PROOFS.get(key)
    if tree is None:
        tree = bounded_prove(Sequent((), SCHEMAS[name]), theory, 8)
        if tree is None:
            raise FormulaError(f"no sequent proof for schema {name} in {theory}")
        v = admit(tree, theory)
        if not v:
            raise FormulaError(f"schema {name}'s proof is rejected in {theory}: {v.message}")
        _SCHEMA_PROOFS[key] = tree
    return tree


def hilbert_to_sequent(d: HilbertDerivation, theory: TheoryId) -> ProofTree:
    """Replay a derivation as a sequent proof of |- final line: an axiom
    line is a `Lem` leaf concluding it and citing its schema, whose proof
    `schema_proof` admits on first use, and an mp line is ImpE.  The
    derivation is checked first, by `check_derivation` in the theory's
    system; a rejected one raises FormulaError with its message, which
    names the line."""
    v = check_derivation(d, f"H-{theory.name}")
    if not v:
        raise FormulaError(v.message)
    proofs: list[ProofTree] = []
    for f, just in d.lines:
        if just[0] == "axiom":
            schema_proof(just[1], theory)  # admits |- schema on first use
            proofs.append(ProofTree(Sequent((), f), "Lem", inst=(SCHEMAS[just[1]],)))
        else:
            proofs.append(imp_e(proofs[just[1]], proofs[just[2]]))
    return proofs[-1]


# Derivation file format: numbered lines
#   n. <formula> | axiom SCHEMA {X=f; Y=g}
#   n. <formula> | mp i j


def format_derivation(d: HilbertDerivation) -> str:
    out = []
    for n, (f, just) in enumerate(d.lines, start=1):
        if just[0] == "axiom":
            _, name, subst = just
            s = "; ".join(
                f"{k}={format_formula(v)}" for k, v in sorted(subst.items())
            )
            out.append(f"{n}. {format_formula(f)} | axiom {name} {{{s}}}")
        else:
            out.append(f"{n}. {format_formula(f)} | mp {just[1] + 1} {just[2] + 1}")
    return "\n".join(out) + "\n"


def parse_derivation(text: str) -> HilbertDerivation:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            number, parsed = _parse_derivation_line(line)
        except ValueError:  # a split with too few parts, or a bad number
            raise FormulaError(f"malformed derivation line {line!r}") from None
        except ParseError as e:  # the formula or a substitution value
            raise FormulaError(f"{e}: {line!r}") from None
        if number != len(lines) + 1:
            raise FormulaError(
                f"derivation line numbered {number} at position {len(lines) + 1}: {line!r}"
            )
        lines.append(parsed)
    if not lines:
        raise FormulaError("empty derivation")
    return HilbertDerivation(tuple(lines))


def _parse_derivation_line(line: str):
    """The line's number and its (formula, justification)."""
    numbered, rest = line.split(".", 1)
    number = int(numbered)
    body, just = rest.rsplit("|", 1)
    f = parse_formula(body.strip())
    just = just.strip()
    if just.startswith("axiom"):
        _, name, braces = just.split(" ", 2)
        braces = braces.strip()
        if not (braces.startswith("{") and braces.endswith("}")):
            raise FormulaError(f"bad substitution in {line!r}")
        subst = {}
        inner = braces[1:-1].strip()
        if inner:
            for item in inner.split(";"):
                k, v = item.split("=", 1)
                subst[k.strip()] = parse_formula(v.strip())
        return number, (f, ("axiom", name, subst))
    if just.startswith("mp"):
        _, i, j = just.split()
        return number, (f, ("mp", int(i) - 1, int(j) - 1))
    raise FormulaError(f"bad justification in {line!r}")
