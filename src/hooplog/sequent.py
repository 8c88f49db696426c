"""Sequent proof objects, checking, constructive weakening, bounded search.

Sequents are multiset-context judgements `Gamma |- A`.  The four inference
rules introduce and eliminate -o and *; everything else enters through axiom
leaves (ASM, CON, EFQ, DNE, CWC) which may carry an arbitrary extra context.
Proof trees store premise sequents explicitly, so context splits are checked
rather than inferred and checking is linear in the tree size.

One more leaf, `Lem`, cites a lemma: a closed sequent |- G that `admit` has
accepted, after `check_proof` passed a proof of it, in the leaf's theory or
one below it.  The leaf concludes an instance of G under one substitution
for G's variables, as rules and axioms are closed under substitution (the
LCF discipline: Gordon, Milner and Wadsworth, *Edinburgh LCF*, 1979).  The
table of admitted lemmas is part of the kernel, and `admit` is its only
writer.

Search works backwards from the goal: axioms, then ImpI, TensorI, chains of
ImpE over an implication drawn from the context (plus the DNE and EFQ cut
candidates `G^^ -o G` and `1 -o G` when the theory has those axioms), then
TensorE on a context tensor.  Failed (sequent, budget) pairs are memoised per
invocation.

When the root has at most 5 variables, each sequent the search meets is
first evaluated in the theory's class algebras of size 2 and 3 by one
`algebra.refuter`.  Every rule and axiom of a theory is sound in its class,
so a sequent they falsify has no proof at any depth: it fails at every
budget unsearched, as Gelernter's geometry machine dropped subgoals false in
its diagram.  Verdicts are unchanged.  Proofs could change, as the memo
then holds less, but are the same on every seeded pool tried; tests pin one.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import product
from operator import attrgetter

from .algebra import _REFUTE_VARS, refuter, sequent_names
from .syntax import (
    Formula,
    FormulaError,
    Imp,
    ONE,
    Tensor,
    Var,
    core_dneg,
    format_formula,
    parse_formula,
    substitute,
)
from .theories import ALL_THEORIES, TheoryId

AXIOMS = ("AxASM", "AxCON", "AxEFQ", "AxDNE", "AxCWC")


# The order of `syntax.formula_key`, read without a Python-level call.
_KEY = attrgetter("_key")


def _sorted_ctx(ctx) -> tuple[Formula, ...]:
    return tuple(sorted(ctx, key=_KEY))


class Sequent:
    """Multiset context plus goal; context order is never significant.

    The context is stored sorted by `formula_key`, so equal multisets give
    equal tuples, and the hash of (context, goal) is computed once, here.
    Formulas hash by identity, so neither the sort nor the hash makes a
    Python-level call per formula."""

    __slots__ = ("context", "goal", "_hash")

    def __init__(self, context, goal: Formula):
        self.context = context = _sorted_ctx(context)
        self.goal = goal
        self._hash = hash((context, goal))

    def __eq__(self, other):
        return (
            isinstance(other, Sequent)
            and self._hash == other._hash
            and self.goal == other.goal
            and self.context == other.context
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_sequent(self)

    def __reduce__(self):
        return (Sequent, (self.context, self.goal))


def format_sequent(s: Sequent) -> str:
    ctx = ", ".join(format_formula(f) for f in s.context)
    return f"{ctx} |- {format_formula(s.goal)}" if ctx else f"|- {format_formula(s.goal)}"


def parse_sequent(text: str) -> Sequent:
    if "|-" not in text:
        raise FormulaError("a sequent needs '|-'")
    left, right = text.split("|-", 1)
    ctx = [parse_formula(p) for p in _split_context(left)]
    return Sequent(ctx, parse_formula(right))


def _split_context(text: str) -> list[str]:
    """The context's formulas, split at the commas outside parentheses; a
    blank context has none, and an empty one between commas is an error."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur).strip())
    if parts == [""]:
        return []
    if "" in parts:
        raise FormulaError(
            f"context formula {parts.index('') + 1} is empty in {text.strip()!r}"
        )
    return parts


def _ctx_minus(ctx: tuple[Formula, ...], remove) -> tuple[Formula, ...] | None:
    """Multiset difference, None when `remove` is not contained."""
    out = list(ctx)
    for f in remove:
        try:
            out.remove(f)
        except ValueError:
            return None
    return tuple(out)


class ProofTree:
    __slots__ = ("conclusion", "rule", "premises", "inst")

    def __init__(self, conclusion: Sequent, rule: str, premises=(), inst=()):
        self.conclusion = conclusion
        self.rule = rule
        self.premises = tuple(premises)
        self.inst = tuple(inst)

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)

    def nodes(self):
        yield self
        for p in self.premises:
            yield from p.nodes()

    def __repr__(self):
        return f"<ProofTree {self.rule} {self.conclusion!r}>"


class Verdict:
    """A checker's answer: true when it accepts; otherwise why not, and the
    path to the node at fault."""

    __slots__ = ("ok", "message", "where")

    def __init__(self, ok: bool, message: str = "", where: tuple[int, ...] = ()):
        self.ok, self.message, self.where = ok, message, where

    def __bool__(self):
        return self.ok


def _reject(msg: str, path) -> Verdict:
    return Verdict(False, msg, tuple(path))


def check_proof(p: ProofTree, theory: TheoryId) -> Verdict:
    """Accept iff every node instantiates a rule or an axiom of `theory`, or
    is a `Lem` leaf citing a lemma admitted in `theory` or a theory below."""
    return _check_node(p, theory, ())


# Each admitted formula G, with the theories in which a `Lem` leaf may cite
# |- G.  `admit` is the only writer.
_ADMITTED: dict[Formula, set[TheoryId]] = {}


def admit(p: ProofTree, theory: TheoryId) -> Verdict:
    """Check p in theory and, if it passes and concludes a closed sequent
    |- G, admit G: from then on a `Lem` leaf may cite it in theory and in
    every theory above.  A rejected proof admits nothing."""
    s = p.conclusion
    if s.context:
        return Verdict(False, f"only a closed sequent is admitted, not {s!r}")
    v = check_proof(p, theory)
    if v:
        _ADMITTED.setdefault(s.goal, set()).update(
            t for t in ALL_THEORIES if theory.leq(t)
        )
    return v


def _check_node(p: ProofTree, theory: TheoryId, path) -> Verdict:
    s = p.conclusion
    r = p.rule
    if r == "Lem":
        return _check_lemma(p, theory, path)
    if r in AXIOMS:
        if p.premises:
            return _reject(f"{r}: axiom leaves take no premises", path)
        name = r.removeprefix("Ax")
        if name not in theory.axioms():
            return _reject(f"{r}: schema {name} is not available in {theory}", path)
        v = _check_axiom_shape(p, path)
        if not v:
            return v
    elif r == "ImpI":
        if len(p.premises) != 1:
            return _reject("ImpI: exactly one premise", path)
        if not isinstance(s.goal, Imp):
            return _reject("ImpI: goal is not an implication", path)
        a, b = s.goal.left, s.goal.right
        prem = p.premises[0].conclusion
        if prem.goal != b:
            return _reject("ImpI: premise goal mismatch", path)
        if prem != Sequent(s.context + (a,), b):
            return _reject("ImpI: premise context must add the antecedent", path)
    elif r == "ImpE":
        if len(p.premises) != 2:
            return _reject("ImpE: exactly two premises", path)
        minor, major = (q.conclusion for q in p.premises)
        if major.goal != Imp(minor.goal, s.goal):
            return _reject("ImpE: major premise must prove minor -o goal", path)
        if _sorted_ctx(minor.context + major.context) != s.context:
            return _reject("ImpE: context split does not match", path)
    elif r == "TensorI":
        if len(p.premises) != 2:
            return _reject("TensorI: exactly two premises", path)
        if not isinstance(s.goal, Tensor):
            return _reject("TensorI: goal is not a tensor", path)
        l, rgt = (q.conclusion for q in p.premises)
        if l.goal != s.goal.left or rgt.goal != s.goal.right:
            return _reject("TensorI: premise goals mismatch", path)
        if _sorted_ctx(l.context + rgt.context) != s.context:
            return _reject("TensorI: context split does not match", path)
    elif r == "TensorE":
        if len(p.premises) != 2:
            return _reject("TensorE: exactly two premises", path)
        tprem, body = (q.conclusion for q in p.premises)
        if not isinstance(tprem.goal, Tensor):
            return _reject("TensorE: first premise must prove a tensor", path)
        a, b = tprem.goal.left, tprem.goal.right
        if body.goal != s.goal:
            return _reject("TensorE: second premise goal mismatch", path)
        rest = _ctx_minus(body.context, (a, b))
        if rest is None:
            return _reject("TensorE: components missing from second premise", path)
        if _sorted_ctx(tprem.context + rest) != s.context:
            return _reject("TensorE: context split does not match", path)
    else:
        return _reject(f"unknown rule {r!r}", path)
    for i, q in enumerate(p.premises):
        v = _check_node(q, theory, path + (i,))
        if not v:
            return v
    return Verdict(True)


def _check_lemma(p: ProofTree, theory: TheoryId, path) -> Verdict:
    """A `Lem` leaf, inst (G,), concludes an instance of an admitted |- G.
    Like an axiom leaf it may carry any further context: every theory here
    has weakening."""
    if len(p.inst) != 1:
        return _reject("Lem: a lemma leaf cites exactly one formula", path)
    (g,) = p.inst
    if p.premises:
        why = "lemma leaves take no premises"
    elif theory not in _ADMITTED.get(g, ()):
        why = f"not admitted in {theory} or a theory below it"
    elif not _matches(g, p.conclusion.goal):
        why = f"{format_formula(p.conclusion.goal)} is not an instance"
    else:
        return Verdict(True)
    return _reject(f"Lem |- {format_formula(g)}: {why}", path)


def _matches(pattern: Formula, f: Formula) -> bool:
    """Whether f is pattern under one substitution for its variables."""
    sigma: dict[str, Formula] = {}
    stack = [(pattern, f)]
    while stack:
        p, g = stack.pop()
        if isinstance(p, Var):
            if sigma.setdefault(p.name, g) is not g:
                return False
        elif type(p) is not type(g):  # each constant is its class's one node
            return False
        else:
            stack.extend(zip(p.children(), g.children()))
    return True


def _check_axiom_shape(p: ProofTree, path) -> Verdict:
    s, r = p.conclusion, p.rule
    goal = s.goal
    if r == "AxASM":
        need = (goal,)
    elif r == "AxCON":
        if not (isinstance(goal, Tensor) and goal.left == goal.right):
            return _reject("AxCON: goal must be A * A", path)
        need = (goal.left,)
    elif r == "AxEFQ":
        need = (ONE,)
    elif r == "AxDNE":
        need = (core_dneg(goal),)
    elif r == "AxCWC":
        # goal B * (B -o A); context must contain A and A -o B
        if not (
            isinstance(goal, Tensor)
            and isinstance(goal.right, Imp)
            and goal.right.left == goal.left
        ):
            return _reject("AxCWC: goal must be B * (B -o A)", path)
        b, a = goal.left, goal.right.right
        need = (a, Imp(a, b))
    else:  # pragma: no cover
        return _reject(f"unknown axiom {r!r}", path)
    if _ctx_minus(s.context, need) is None:
        return _reject(f"{r}: context lacks the schema formulas", path)
    return Verdict(True)


# Constructors used throughout (they do not validate; check_proof does).


def ax_asm(a: Formula, gamma=()) -> ProofTree:
    return ProofTree(Sequent(tuple(gamma) + (a,), a), "AxASM", inst=(a,))


def ax_con(a: Formula, gamma=()) -> ProofTree:
    return ProofTree(Sequent(tuple(gamma) + (a,), Tensor(a, a)), "AxCON", inst=(a,))


def ax_cwc(a: Formula, b: Formula, gamma=()) -> ProofTree:
    ctx = tuple(gamma) + (a, Imp(a, b))
    return ProofTree(Sequent(ctx, Tensor(b, Imp(b, a))), "AxCWC", inst=(a, b))


def imp_i(p: ProofTree, a: Formula) -> ProofTree:
    prem = p.conclusion
    ctx = _ctx_minus(prem.context, (a,))
    if ctx is None:
        raise FormulaError("imp_i: antecedent not in premise context")
    return ProofTree(Sequent(ctx, Imp(a, prem.goal)), "ImpI", (p,), inst=(a, prem.goal))


def imp_e(minor: ProofTree, major: ProofTree) -> ProofTree:
    a = minor.conclusion.goal
    g = major.conclusion.goal
    if not (isinstance(g, Imp) and g.left == a):
        raise FormulaError("imp_e: major premise does not match minor")
    ctx = minor.conclusion.context + major.conclusion.context
    return ProofTree(Sequent(ctx, g.right), "ImpE", (minor, major), inst=(a, g.right))


def tensor_i(l: ProofTree, r: ProofTree) -> ProofTree:
    ctx = l.conclusion.context + r.conclusion.context
    goal = Tensor(l.conclusion.goal, r.conclusion.goal)
    return ProofTree(Sequent(ctx, goal), "TensorI", (l, r), inst=(l.conclusion.goal, r.conclusion.goal))


def tensor_e(tprem: ProofTree, body: ProofTree) -> ProofTree:
    t = tprem.conclusion.goal
    if not isinstance(t, Tensor):
        raise FormulaError("tensor_e: first premise must prove a tensor")
    rest = _ctx_minus(body.conclusion.context, (t.left, t.right))
    if rest is None:
        raise FormulaError("tensor_e: components not in body context")
    ctx = tprem.conclusion.context + rest
    return ProofTree(
        Sequent(ctx, body.conclusion.goal), "TensorE", (tprem, body), inst=(t.left, t.right)
    )


def substitute_proof(p: ProofTree, sigma: dict[str, Formula]) -> ProofTree:
    """Rules and axioms are closed under substitution, so this maps proofs
    to proofs of the substituted sequents.  One memo serves the whole tree,
    so each distinct subformula is substituted once."""
    memo: dict[Formula, Formula] = {}

    def go(q: ProofTree) -> ProofTree:
        s = q.conclusion
        new = Sequent(
            tuple(substitute(f, sigma, memo) for f in s.context), substitute(s.goal, sigma, memo)
        )
        inst = tuple(substitute(f, sigma, memo) for f in q.inst)
        return ProofTree(new, q.rule, tuple(go(r) for r in q.premises), inst)

    return go(p)


def weaken(p: ProofTree, extra: Formula) -> ProofTree:
    """Add `extra` to every sequent along one root-to-leaf path.

    Axiom leaves absorb any further context, so threading the new formula
    down the first-premise spine keeps every node a rule instance.
    """
    s = p.conclusion
    new_concl = Sequent(s.context + (extra,), s.goal)
    if not p.premises:
        return ProofTree(new_concl, p.rule, (), p.inst)
    prems = (weaken(p.premises[0], extra),) + p.premises[1:]
    return ProofTree(new_concl, p.rule, prems, p.inst)


def cut(minor: ProofTree, x: Formula, body: ProofTree) -> ProofTree:
    """From Gamma |- X and Delta, X |- C build Gamma, Delta |- C.

    There is no cut rule; the composition goes through ImpI then ImpE.
    """
    return imp_e(minor, imp_i(body, x))


def contraction_rule_from_axiom(premise: ProofTree, a: Formula) -> ProofTree:
    """Derive Gamma, A |- B from Gamma, A, A |- B using the CON axiom."""
    return tensor_e(ax_con(a), premise)


def contraction_axiom_premise(a: Formula, gamma=()) -> ProofTree:
    """The contraction-free proof of Gamma, A, A |- A * A; one application
    of the contraction rule to it yields the CON axiom's conclusion."""
    p = tensor_i(ax_asm(a), ax_asm(a))
    for g in gamma:
        p = weaken(p, g)
    return p


# Bounded backward search


class _Search:
    __slots__ = ("theory", "refutes", "fail", "hit", "dneg")

    def __init__(self, theory: TheoryId, refutes: Callable[[Sequent], bool] | None = None):
        self.theory = theory
        self.refutes = refutes  # see `algebra.refuter`
        self.fail: dict[Sequent, int] = {}
        self.hit: dict[Sequent, ProofTree] = {}
        self.dneg: dict[Formula, Formula] = {}  # goal -> core_dneg(goal)


def bounded_prove(s: Sequent, theory: TheoryId, depth: int) -> ProofTree | None:
    """Deterministic depth-bounded search; sound, complete only up to depth.
    With a refuter (s has at most _REFUTE_VARS variables), a refuted root
    returns None at once, and a refuted inner node fails unsearched."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    names = sequent_names(s)
    refutes = refuter(names, theory) if len(names) <= _REFUTE_VARS else None
    return _search(s, depth, _Search(theory, refutes))


def _splits(ctx: tuple[Formula, ...], parts: int):
    """All ordered multiset splits, enumerated by assignment vector."""
    if parts == 1:
        yield (ctx,)
        return
    for vec in product(range(parts), repeat=len(ctx)):
        out = [[] for _ in range(parts)]
        for f, k in zip(ctx, vec):
            out[k].append(f)
        yield tuple(tuple(g) for g in out)


def _search(s: Sequent, depth: int, st: _Search) -> ProofTree | None:
    if depth <= 0:
        return None
    got = st.hit.get(s)
    if got is not None and got.height() <= depth:
        return got
    failed = st.fail.get(s)
    if failed is None:
        if got is None and st.refutes is not None and st.refutes(s):
            st.fail[s] = float("inf")  # failed at every budget
            return None
    elif failed >= depth:
        return None

    p = _try_all(s, depth, st)
    if p is None:
        # fail[s] is below depth: it was at entry, and inner calls search shallower
        st.fail[s] = depth
    else:
        old = st.hit.get(s)
        if old is None or p.height() < old.height():
            st.hit[s] = p
    return p


def _try_all(s: Sequent, depth: int, st: _Search) -> ProofTree | None:
    axioms = st.theory.axioms()
    ctx, goal = s.context, s.goal

    # Axiom leaves, ASM first, then the theory axioms in a fixed order.
    if goal in ctx:
        return ProofTree(s, "AxASM", inst=(goal,))
    if "CWC" in axioms and isinstance(goal, Tensor):
        b = goal.left
        r = goal.right
        if isinstance(r, Imp) and r.left == b:
            a = r.right
            if _ctx_minus(ctx, (a, Imp(a, b))) is not None:
                return ProofTree(s, "AxCWC", inst=(a, b))
    if "CON" in axioms and isinstance(goal, Tensor) and goal.left == goal.right:
        if goal.left in ctx:
            return ProofTree(s, "AxCON", inst=(goal.left,))
    if "EFQ" in axioms and ONE in ctx:
        return ProofTree(s, "AxEFQ", inst=(goal,))
    dd = None
    if "DNE" in axioms:
        dd = st.dneg.get(goal)
        if dd is None:
            dd = st.dneg[goal] = core_dneg(goal)
        if dd in ctx:
            return ProofTree(s, "AxDNE", inst=(goal,))

    if depth == 1:
        return None

    # ImpI
    if isinstance(goal, Imp):
        sub = _search(Sequent(ctx + (goal.left,), goal.right), depth - 1, st)
        if sub is not None:
            return ProofTree(s, "ImpI", (sub,), inst=(goal.left, goal.right))

    # TensorI
    if isinstance(goal, Tensor):
        for left_ctx, right_ctx in _splits(ctx, 2):
            l = _search(Sequent(left_ctx, goal.left), depth - 1, st)
            if l is None:
                continue
            r = _search(Sequent(right_ctx, goal.right), depth - 1, st)
            if r is not None:
                return ProofTree(s, "TensorI", (l, r), inst=(goal.left, goal.right))

    # ImpE: chains over a context implication ending at the goal.
    seen: set[Formula] = set()
    for d in ctx:
        if not isinstance(d, Imp) or d in seen:
            continue
        seen.add(d)
        rest = _ctx_minus(ctx, (d,))
        args: list[Formula] = []
        tail = d
        while isinstance(tail, Imp):
            args.append(tail.left)
            tail = tail.right
            n = len(args)
            if tail != goal:
                continue
            if depth - n < 1:
                break
            p = _chain(d, args, rest, depth, st)
            if p is not None:
                return p

    # Cut candidates licensed by DNE / EFQ.
    if dd is not None:
        minor = _search(Sequent(ctx, dd), depth - 1, st)
        if minor is not None:
            major = _search(Sequent((), Imp(dd, goal)), depth - 1, st)
            if major is not None:
                return ProofTree(s, "ImpE", (minor, major), inst=(dd, goal))
    if "EFQ" in axioms and goal != ONE:
        minor = _search(Sequent(ctx, ONE), depth - 1, st)
        if minor is not None:
            major = ProofTree(
                Sequent((), Imp(ONE, goal)),
                "ImpI",
                (ProofTree(Sequent((ONE,), goal), "AxEFQ", inst=(goal,)),),
                inst=(ONE, goal),
            )
            if depth >= 3:
                return ProofTree(s, "ImpE", (minor, major), inst=(ONE, goal))

    # TensorE on a context tensor.
    seen.clear()
    for d in ctx:
        if not isinstance(d, Tensor) or d in seen:
            continue
        seen.add(d)
        rest = _ctx_minus(ctx, (d,))
        for extra, body_ctx in _splits(rest, 2):
            tprem = ProofTree(Sequent((d,) + extra, d), "AxASM", inst=(d,))
            body = _search(
                Sequent(body_ctx + (d.left, d.right), goal), depth - 1, st
            )
            if body is not None:
                return ProofTree(s, "TensorE", (tprem, body), inst=(d.left, d.right))

    # TensorE on a tensor obtained by applying a context implication.
    seen.clear()
    for d in ctx:
        if not isinstance(d, Imp) or d in seen:
            continue
        seen.add(d)
        rest = _ctx_minus(ctx, (d,))
        args: list[Formula] = []
        tail = d
        while isinstance(tail, Imp):
            args.append(tail.left)
            tail = tail.right
            n = len(args)
            if not isinstance(tail, Tensor) or depth - n - 1 < 1:
                continue
            for parts in _splits(rest, n + 1):
                minor_parts, body_extra = parts[:n], parts[n]
                tprem = _chain_to(d, args, minor_parts, depth - 1, st)
                if tprem is None:
                    continue
                body = _search(
                    Sequent(body_extra + (tail.left, tail.right), goal),
                    depth - 1,
                    st,
                )
                if body is not None:
                    return ProofTree(
                        s, "TensorE", (tprem, body), inst=(tail.left, tail.right)
                    )
    return None


def _chain_to(d: Formula, args, minor_parts, depth: int, st: _Search):
    """ImpE spine applying d to proofs of its arguments; None if a minor
    cannot be proved within the budget."""
    n = len(args)
    minors = []
    for i, (arg, part) in enumerate(zip(args, minor_parts)):
        m = _search(Sequent(part, arg), depth - 1 - (n - 1 - i), st)
        if m is None:
            return None
        minors.append(m)
    spine = ProofTree(Sequent((d,), d), "AxASM", inst=(d,))
    cur = d
    for m in minors:
        spine = ProofTree(
            Sequent(m.conclusion.context + spine.conclusion.context, cur.right),
            "ImpE",
            (m, spine),
            inst=(cur.left, cur.right),
        )
        cur = cur.right
    return spine


def _chain(d: Formula, args, rest, depth: int, st: _Search):
    """Nested ImpE spine applying context implication d to n minor proofs,
    the rest of the context split among them."""
    for parts in _splits(rest, len(args)):
        spine = _chain_to(d, args, parts, depth, st)
        if spine is not None:
            return spine
    return None


# Plain-text serialisation: one node per line,
# `rule | conclusion | inst`, children indented two spaces.


def format_proof(p: ProofTree) -> str:
    lines: list[str] = []
    _fmt_node(p, 0, lines)
    return "\n".join(lines) + "\n"


def _fmt_node(p: ProofTree, indent: int, lines: list[str]):
    inst = "; ".join(format_formula(f) for f in p.inst)
    lines.append("  " * indent + f"{p.rule} | {format_sequent(p.conclusion)} | {inst}")
    for q in p.premises:
        _fmt_node(q, indent + 1, lines)


def parse_proof(text: str) -> ProofTree:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        stripped = raw.lstrip(" ")
        indent, odd = divmod(len(raw) - len(stripped), 2)
        if odd:
            raise FormulaError(f"bad indentation on proof line {line!r}")
        try:
            rows.append((indent, *_parse_proof_line(stripped), line))
        except ValueError:  # no ' | ' after the rule name
            raise FormulaError(f"malformed proof line {line!r}") from None
        except FormulaError as e:  # the sequent or an instantiation formula
            raise FormulaError(f"{e}: {line!r}") from None
    if not rows:
        raise FormulaError("empty proof text")
    tree, rest = _build(rows, 0, 0)
    if rest != len(rows):
        raise FormulaError(f"dangling proof lines from {rows[rest][-1]!r}")
    return tree


def _parse_proof_line(line: str):
    # ' | ' separates the fields; it cannot occur inside '|-'
    rule, rest = line.split(" | ", 1)
    seq, _, inst = rest.rpartition(" | ")
    if not seq:
        seq, inst = inst, ""
    inst_formulas = tuple(parse_formula(t) for t in inst.split(";") if t.strip())
    return rule.strip(), parse_sequent(seq), inst_formulas


def _build(rows, i, indent):
    ind, rule, seq, inst, line = rows[i]
    if ind != indent:
        raise FormulaError(f"bad indentation on proof line {line!r}")
    prems = []
    j = i + 1
    while j < len(rows) and rows[j][0] == indent + 1:
        child, j = _build(rows, j, indent + 1)
        prems.append(child)
    return ProofTree(seq, rule, tuple(prems), inst), j
