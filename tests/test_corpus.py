import pytest

from hooplog.eqengine import EQUIV
from hooplog.syntax import format_formula, parse_formula
from hooplog.sequent import parse_sequent


def test_index_is_well_formed(corpus):
    ids = [e.id for e in corpus.entries]
    assert len(ids) == len(set(ids)), "duplicate entry ids"
    tiers = {e.tier for e in corpus.entries}
    assert tiers <= {"proved", "refuted", "model-checked-only"}


def test_core_entry_count(corpus):
    core = [e for e in corpus.entries if e.core]
    assert len(core) >= 35


def test_script_formulas_roundtrip(corpus):
    for name, script in corpus.scripts.items():
        for f in (script.claim_lhs, script.claim_rhs, script.start) + tuple(
            st.result for st in script.steps
        ):
            assert parse_formula(format_formula(f)) == f, name


def test_script_easy_depths_within_budget(corpus):
    for name, script in corpus.scripts.items():
        for st in script.steps:
            if st.depth is not None:
                assert st.depth <= 8, (name, st.depth)


def test_an_evidence_kind_without_a_handler_fails_its_entry():
    from hooplog.corpus import Corpus, CorpusEntry
    from hooplog.theories import ALm

    entry = CorpusEntry("no-kind", "proved", ALm, "A |- A", ("proof", "a.proof"))
    assert Corpus()._verify(entry) == (False, "unknown evidence kind 'proof'")


def test_group_members_exist(corpus):
    ids = {e.id for e in corpus.entries}
    for e in corpus.entries:
        if e.evidence[0] == "group":
            for m in e.evidence[1].split(","):
                assert m in ids, (e.id, m)


def test_registered_lemmas_match_their_scripts(corpus):
    from hooplog.eqengine import ac_eq

    for name, script in corpus.scripts.items():
        base = name.removesuffix(".rev")
        if base in corpus.registry and not script.assumes and name == base:
            lemma = corpus.registry.get(base)
            assert ac_eq(lemma.lhs, script.claim_lhs)
            assert ac_eq(lemma.rhs, script.claim_rhs)


def test_generate_k_contradiction(corpus):
    from hooplog.corpus import generate_k_contradiction

    seq, script, rep = generate_k_contradiction(1, corpus.registry)
    assert rep.ok and len(script.steps) == 1
    assert seq == parse_sequent("A^, A^^ |- A")
    for k in (2, 3, 4):
        seq, script, rep = generate_k_contradiction(k, corpus.registry)
        assert rep.ok, (k, rep.message)
        assert len(script.steps) == k


def test_refuted_entry_rechecks(corpus):
    a6 = [e for e in corpus.entries if e.id == "a6"][0]
    assert a6.tier == "refuted"


def test_corpus_rerun_is_stable(corpus):
    from hooplog.corpus import run_corpus

    rep = run_corpus("axiom-l")
    assert rep.ok and len(rep.results) == 1


def test_corpus_proof_conclusions_are_semantically_sound(corpus):
    from hooplog.algebra import enumerate_algebras, theory_class, valid
    from hooplog.corpus.builtins import _collect_proofs

    for name, tree, theory in _collect_proofs(corpus):
        for alg in enumerate_algebras(3, theory_class(theory)):
            assert valid(tree.conclusion, alg), (name, alg)


def test_accepted_scripts_are_semantically_sound(corpus):
    # every unconditional script claim, read as sequents, holds in all
    # algebras of the matching class up to size 4
    from hooplog.algebra import enumerate_algebras, theory_class, valid
    from hooplog.eqengine import EQUIV
    from hooplog.sequent import Sequent
    from hooplog.syntax import expand_derived

    for name, script in sorted(corpus.scripts.items()):
        if script.assumes:
            continue
        lhs = expand_derived(script.claim_lhs)
        rhs = expand_derived(script.claim_rhs)
        seqs = [Sequent((lhs,), rhs)]
        if script.claim_rel == EQUIV:
            seqs.append(Sequent((rhs,), lhs))
        for alg in enumerate_algebras(4, theory_class(script.theory)):
            for s in seqs:
                assert valid(s, alg), (name, s, alg)


def test_broken_script_is_a_hard_failure(corpus, tmp_path, monkeypatch):
    import hooplog.corpus as cp

    real = cp._data_text

    def poisoned(name):
        text = real(name)
        if name == "axiom-l-fwd.eq":
            return text.replace("at 0.1.0", "at 0.1.0 rev")
        return text

    monkeypatch.setattr(cp, "_data_text", poisoned)
    rep = cp.run_corpus("axiom-l")
    assert not rep.ok
    assert any(r.entry.id == "axiom-l" and not r.ok for r in rep.results)
    detail = rep.results[0].detail
    assert "'axiom-l'" in detail and "axiom-l-fwd" in detail and "step 2" in detail
    assert "lemma 'vee-upper-left' does not rewrite B" in detail


_SWAP_BROKEN = "lemma swap theory ALm claim A * B ~= B * A\nstart A * B\n= B * A by wk-tensor at root\n"
_SWAP_FWD = "lemma swap theory ALm claim A * B >= B * A\nstart A * B\n>= B * A by easy\n"
_SWAP_REV_BROKEN = "lemma swap-rev theory ALm claim B * A >= A * B\nstart B * A\n>= A * B by wk-tensor at root\n"


@pytest.mark.parametrize(
    "evidence, script_id",
    [
        (("script", "broken.eq"), "swap"),
        (("script+auto", "broken.eq", "5"), "swap"),
        (("scripts", "fwd.eq", "rev-broken.eq"), "swap-rev"),
    ],
    ids=["script", "script+auto", "scripts"],
)
def test_broken_registered_script_names_entry_step_and_message(monkeypatch, evidence, script_id):
    # a registered script is checked only by the registry; its rejection
    # is the entry's detail
    import hooplog.corpus as cp
    from hooplog.theories import ALm

    files = {"broken.eq": _SWAP_BROKEN, "fwd.eq": _SWAP_FWD, "rev-broken.eq": _SWAP_REV_BROKEN}
    c = cp.Corpus()
    monkeypatch.setattr(cp, "_data_text", files.__getitem__)
    c.entries = [cp.CorpusEntry("swap-entry", "proved", ALm, "A * B ~= B * A", evidence)]
    (result,) = c.run().results
    assert not result.ok
    assert "'swap-entry'" in result.detail
    assert f"script {script_id} rejected at step 0" in result.detail
    assert "lemma 'wk-tensor' does not rewrite" in result.detail
    assert "swap-entry" not in c.registry and "swap-entry" not in c.scripts


def test_each_corpus_script_is_checked_once_per_run(corpus_run, script_checks):
    from pathlib import Path

    import hooplog.corpus as cp
    import hooplog.eqengine as eq

    assert corpus_run[1].ok
    files = sorted(Path(cp.__file__).parent.joinpath("data").glob("*.eq"))
    ids = {f.name: eq.parse_script(f.read_text()).id for f in files}
    assert len(ids) == 64 and len(set(ids.values())) == 64
    assert {name: script_checks[sid] for name, sid in ids.items()} == {name: 1 for name in ids}


@pytest.mark.parametrize(
    "assign, message",
    [
        ("A=2, B=-2, C=-4", "B=-2 is outside 0..4"),
        ("A=2, B=3, C=5", "C=5 is outside 0..4"),
        ("A=2, B=3, C=1, X=7", "assigns X, not in the sequent"),
        ("A=2, B=3, C=1, X=1", "assigns X, not in the sequent"),
        ("A", "malformed assignment 'A'"),
        ("A=2, B=x, C=1", "malformed assignment 'B=x'"),
    ],
)
def test_model_evidence_rejects_a_bad_assignment(corpus, monkeypatch, assign, message):
    import hooplog.corpus as corpus_module
    from hooplog.algebra import AlgebraError

    pinned = corpus_module._data_text("a6.model")
    text = pinned.replace("assign: A=2, B=3, C=1", f"assign: {assign}")
    assert text != pinned
    monkeypatch.setattr(corpus_module, "_data_text", lambda name: text)
    a6 = next(e for e in corpus.entries if e.id == "a6")
    try:
        ok, detail = corpus._ev_model(a6)
    except AlgebraError as e:  # reported by `Corpus.run` as the entry's error
        ok, detail = False, str(e)
    assert not ok and detail == message
