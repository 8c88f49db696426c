"""The machine-checked result catalogue.

Every catalogued result carries an id, a statement, a theory and a tier:

  proved              a chain script, sequent proof or bounded proof that
                      rechecks on every run;
  refuted             a pinned finite countermodel that rechecks as
                      falsifying;
  model-checked-only  validated in every algebra of the matching class up
                      to a size bound, with no syntactic proof claimed.

Entries are processed in index order; an entry whose claim has lemma shape
is registered and becomes citable by later scripts.  `run_corpus` rebuilds
the registry from scratch and re-verifies every entry, so a regression in
any proof, script or model is a hard failure naming the entry.

Each proof is kept once: a registered lemma's trees and scripts live in
`registry.evidence`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

from ..syntax import expand_derived, variables
from ..sequent import Sequent, bounded_prove, format_sequent, parse_sequent
from ..theories import TheoryId, theory_by_name
from ..eqengine import (
    EQUIV,
    EqScript,
    GEQ,
    LemmaEntry,
    LemmaRegistry,
    _split_claim,
    ac_eq,
    check_script,
    parse_script,
)
from ..algebra import (
    enumerate_algebras,
    falsifier,
    parse_algebra,
    seq_holds,
    split_model_file,
    theory_class,
)
from .builtins import TABLE, generate_k_contradiction  # the latter is re-exported


@dataclass
class CorpusEntry:
    id: str
    tier: str
    theory: TheoryId
    statement: str
    evidence: tuple
    core: bool = False


@dataclass
class EntryResult:
    entry: CorpusEntry
    ok: bool
    detail: str
    seconds: float


@dataclass
class CorpusReport:
    results: list[EntryResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self, timing: bool = False) -> str:
        # timing is off by default so identical runs print identical bytes
        lines = []
        for r in self.results:
            mark = "ok  " if r.ok else "FAIL"
            clock = f"{r.seconds:7.2f}s  " if timing else ""
            lines.append(
                f"{mark} {r.entry.id:24s} {r.entry.tier:18s} "
                f"{r.entry.theory.name:3s} {clock}{r.detail}"
            )
        n_ok = sum(1 for r in self.results if r.ok)
        lines.append(f"{n_ok}/{len(self.results)} entries verified")
        return "\n".join(lines)


def _data_text(name: str) -> str:
    return resources.files(__package__).joinpath("data", name).read_text()


# The primitive kit: schema lemmas discharged by bounded sequent search at
# registration time.  Columns: id, claim, relation, theory, search depth.

_KIT = [
    ("wk-tensor", "A * B >= A", "ALm", 5),
    ("wk-imp", "A >= B -o A", "ALm", 3),
    ("mp-tensor", "A * (A -o B) >= B", "ALm", 5),
    ("curry", "A * B -o C ~= A -o B -o C", "ALm", 7),
    ("comp-tensor", "(A -o B) * (B -o C) >= A -o C", "ALm", 7),
    ("comp-right", "B -o C >= (A -o B) -o A -o C", "ALm", 7),
    ("dn-intro", "A >= A^^", "ALm", 5),
    ("tripleneg", "A^^^ ~= A^", "ALm", 8),
    ("contrapose", "A -o B >= B^ -o A^", "ALm", 7),
    ("imp-dd-left", "A^^ -o B^^ ~= A -o B^^", "ALm", 8),
    ("imp-dd-left-neg", "A^^ -o B^ ~= A -o B^", "ALm", 8),
    ("stab-imp-dd", "(A -o B^^)^^ ~= A -o B^^", "ALm", 8),
    ("stab-imp-neg", "(A -o B^)^^ ~= A -o B^", "ALm", 8),
    ("curry-neg", "(A * B)^ ~= A -o B^", "ALm", 8),
    ("dn-push-imp", "(A -o B)^^ >= A -o B^^", "ALm", 8),
    ("contrapose-dd", "A^^ -o B^^ ~= B^ -o A^", "ALm", 8),
    ("dn-tensor-half", "A^^ * B^^ >= (A * B)^^", "ALm", 9),
    ("vee-upper-left", "A >= A \\/ B", "ALm", 4),
    ("pair-imp", "B >= A -o A * B", "ALm", 5),
    ("cwc", "A * (A -o B) ~= B * (B -o A)", "LLm", 6),
    ("cwc-wconj", "A /\\ B ~= B /\\ A", "LLm", 6),
    ("efq-lemma", "1 >= A", "ALi", 2),
    ("neg-imp-any", "A^ >= A -o B", "ALi", 6),
    ("one-split", "1 ~= A * A^", "ALi", 5),
    ("dne-equiv", "A^^ ~= A", "ALc", 3),
]


def _auto_evidence(entry: LemmaEntry, depth: int):
    l = expand_derived(entry.lhs)
    r = expand_derived(entry.rhs)
    fwd = bounded_prove(Sequent((l,), r), entry.theory, depth)
    if fwd is None:
        return None
    if entry.relation == GEQ:
        return fwd
    bwd = bounded_prove(Sequent((r,), l), entry.theory, depth)
    if bwd is None:
        return None
    return (fwd, bwd)


def register_kit(registry: LemmaRegistry) -> None:
    for name, claim, theory, depth in _KIT:
        lhs, rel, rhs = _split_claim(claim, claim)
        entry = LemmaEntry(name, lhs, rhs, rel, theory_by_name(theory), "kit")
        proof = _auto_evidence(entry, depth)
        if proof is None:
            raise RuntimeError(f"kit lemma {name} did not prove at depth {depth}")
        registry.register(entry, proof)


# Index parsing.  One entry per line:
#   id | core? | tier | theory | statement | evidence...
# Evidence forms:
#   auto <depth>                    claim: statement is `lhs >= rhs`/`lhs ~= rhs`
#   script <file>                   the script's claim is the statement
#   scripts <fwd> <bwd>             equivalence from two >= scripts
#   script+auto <file> <depth>      forward script, bounded converse
#   model <file>                    pinned countermodel for a sequent statement
#   checked <size>                  valid in every algebra of the class <= size
#   builtin <name>                  python-verified construction
#   group <id,id,...>               all member entries passed


def load_index() -> list[CorpusEntry]:
    out = []
    for raw in _data_text("index.txt").splitlines():
        line = raw.split("#", 1)[0].strip() if raw.lstrip().startswith("#") else raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("::")]
        if len(parts) != 6:
            raise ValueError(f"malformed index line: {raw!r}")
        eid, coreflag, tier, theory, statement, evidence = parts
        out.append(
            CorpusEntry(
                eid,
                tier,
                theory_by_name(theory),
                statement,
                tuple(evidence.split()),
                core=coreflag == "core",
            )
        )
    return out


class Corpus:
    def __init__(self):
        self.registry = LemmaRegistry()
        self.entries = load_index()
        self.scripts: dict[str, EqScript] = {}
        self.verified: set[str] = set()

    def run(self, pattern: str | None = None) -> CorpusReport:
        register_kit(self.registry)
        report = CorpusReport()
        for entry in self.entries:
            t0 = time.perf_counter()
            try:
                ok, detail = self._verify(entry)
            except Exception as e:  # a broken entry is a failure, not a crash
                ok, detail = False, f"error: {e}"
            dt = time.perf_counter() - t0
            if ok:
                self.verified.add(entry.id)
            if pattern is None or pattern in entry.id:
                report.results.append(EntryResult(entry, ok, detail, dt))
        return report

    # evidence handlers

    def _verify(self, entry: CorpusEntry) -> tuple[bool, str]:
        kind = entry.evidence[0]
        handler = getattr(self, f"_ev_{kind.replace('+', '_')}", None)
        if handler is None:
            return False, f"unknown evidence kind {kind!r}"
        return handler(entry)

    def _ev_auto(self, entry: CorpusEntry):
        depth = int(entry.evidence[1])
        lhs, rel, rhs = _split_claim(entry.statement, entry.statement)
        lemma = LemmaEntry(entry.id, lhs, rhs, rel, entry.theory, "auto")
        proof = _auto_evidence(lemma, depth)
        if proof is None:
            return False, f"bounded search failed at depth {depth}"
        self.registry.register(lemma, proof)
        return True, f"bounded proof, depth {depth}"

    # `registry.register` checks a lemma's scripts; only a script with
    # `assume` lines, which is never registered, is checked here.

    def _ev_script(self, entry: CorpusEntry):
        script = parse_script(_data_text(entry.evidence[1]))
        if script.assumes:
            rep = check_script(script, self.registry)
            if not rep.ok:
                return False, str(rep)
        else:
            lemma = LemmaEntry(
                entry.id, script.claim_lhs, script.claim_rhs, script.claim_rel,
                entry.theory, "script",
            )
            self.registry.register(lemma, script)
        self.scripts[entry.id] = script
        return True, f"script, {len(script.steps)} steps"

    def _ev_scripts(self, entry: CorpusEntry):
        fwd = parse_script(_data_text(entry.evidence[1]))
        bwd = parse_script(_data_text(entry.evidence[2]))
        if not (ac_eq(fwd.claim_lhs, bwd.claim_rhs) and ac_eq(fwd.claim_rhs, bwd.claim_lhs)):
            return False, "the two scripts are not converse to each other"
        lemma = LemmaEntry(
            entry.id, fwd.claim_lhs, fwd.claim_rhs, EQUIV, entry.theory, "scripts"
        )
        self.registry.register(lemma, (fwd, bwd))
        self.scripts[entry.id] = fwd
        self.scripts[entry.id + ".rev"] = bwd
        return True, f"two scripts, {len(fwd.steps)}+{len(bwd.steps)} steps"

    def _ev_script_auto(self, entry: CorpusEntry):
        fwd = parse_script(_data_text(entry.evidence[1]))
        depth = int(entry.evidence[2])
        l = expand_derived(fwd.claim_lhs)
        r = expand_derived(fwd.claim_rhs)
        bwd = bounded_prove(Sequent((r,), l), entry.theory, depth)
        if bwd is None:
            return False, f"converse search failed at depth {depth}"
        lemma = LemmaEntry(
            entry.id, fwd.claim_lhs, fwd.claim_rhs, EQUIV, entry.theory, "script+auto"
        )
        self.registry.register(lemma, (fwd, bwd))
        self.scripts[entry.id] = fwd
        return True, f"script ({len(fwd.steps)} steps) + converse depth {depth}"

    def _ev_model(self, entry: CorpusEntry):
        text = _data_text(entry.evidence[1])
        seq_line, assign_line, alg_text = split_model_file(text)
        if seq_line is None or assign_line is None:
            raise ValueError("model file needs sequent: and assign: lines")
        seq = parse_sequent(seq_line)
        if format_sequent(seq) != format_sequent(parse_sequent(entry.statement)):
            return False, "model file sequent differs from the statement"
        alg = parse_algebra(alg_text)
        v = {}
        for item in filter(str.strip, assign_line.split(",")):
            name, _, value = item.partition("=")
            try:
                v[name.strip()] = int(value)
            except ValueError:
                return False, f"malformed assignment {item.strip()!r}"
        unknown = set(v).difference(*map(variables, (*seq.context, seq.goal)))
        if unknown:
            return False, f"assigns {', '.join(sorted(unknown))}, not in the sequent"
        if seq_holds(seq, alg, v):
            return False, "pinned witness no longer falsifies the sequent"
        return True, f"countermodel of size {alg.size} rechecked"

    def _ev_checked(self, entry: CorpusEntry):
        size = int(entry.evidence[1])
        seqs = [parse_sequent(s.strip()) for s in entry.statement.split(";;")]
        algebras = list(enumerate_algebras(size, theory_class(entry.theory)))
        falsifiers = [falsifier(seq) for seq in seqs]
        for alg in algebras:
            for falsify in falsifiers:
                w = falsify(alg)
                if w is not None:
                    return False, f"fails in a size-{alg.size} algebra at {w}"
        return True, f"valid in all {len(algebras)} algebras of size <= {size}"

    def _ev_builtin(self, entry: CorpusEntry):
        fn = TABLE.get(entry.evidence[1])
        if fn is None:
            return False, f"unknown builtin {entry.evidence[1]!r}"
        return fn(self, entry)

    def _ev_group(self, entry: CorpusEntry):
        members = entry.evidence[1].split(",")
        missing = [m for m in members if m not in self.verified]
        if missing:
            return False, f"members not verified: {missing}"
        return True, f"{len(members)} members verified"


def run_corpus(pattern: str | None = None) -> CorpusReport:
    return Corpus().run(pattern)
