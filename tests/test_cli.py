import hashlib
from pathlib import Path

import pytest

from hooplog.cli import main


def test_parse_exit_codes(capsys):
    assert main(["parse", "A -o B"]) == 0
    out = capsys.readouterr().out
    assert "A -o B" in out and "Imp" in out
    assert main(["parse", "a -o"]) == 2


def test_prove_found_and_not_found(capsys):
    assert main(["prove", "A, A -o B |- B", "--theory", "ALm", "--depth", "4"]) == 0
    assert "ImpE" in capsys.readouterr().out
    assert main(["prove", "|- A -o A * A", "--theory", "ALm", "--depth", "6"]) == 1


def test_prove_prints_no_proof_that_the_kernel_rejects(capsys, monkeypatch):
    import hooplog.cli as cli
    from hooplog.sequent import ProofTree, bounded_prove, parse_sequent
    from hooplog.syntax import Var
    from hooplog.theories import ALm

    bad = ProofTree(parse_sequent("A |- B"), "AxASM", inst=(Var("B"),))
    other = bounded_prove(parse_sequent("B |- B"), ALm, 2)
    for tree, asked, why in [
        (bad, "A |- B", "AxASM: context lacks the schema formulas"),
        (other, "A |- A", "it concludes B |- B"),
    ]:
        monkeypatch.setattr(cli, "bounded_prove", lambda s, t, d: tree)
        assert main(["prove", asked, "--theory", "ALm"]) == 1
        out = capsys.readouterr().out
        assert out == f"the search's proof of {asked} is rejected: {why}\n"


def test_prove_searches_the_core_form_of_derived_connectives(capsys):
    # the proof printed is of the expanded sequent, as the kernel checked it
    assert main(["prove", "A /\\ B |- A", "--theory", "ALm"]) == 0
    assert capsys.readouterr().out == (
        "TensorE | A * (A -o B) |- A | A; A -o B\n"
        "  AxASM | A * (A -o B) |- A * (A -o B) | A * (A -o B)\n"
        "  AxASM | A, A -o B |- A | A\n"
    )
    assert main(["prove", "A^^ |- A", "--theory", "LLc", "--depth", "12"]) == 0
    assert capsys.readouterr().out == "AxDNE | (A -o 1) -o 1 |- A | A\n"


@pytest.mark.parametrize(
    "sequent, slot",
    [(", |- A", 1), ("A,, B |- A", 2), ("A, |- A", 2)],  # leading, doubled, trailing
)
def test_prove_rejects_an_empty_context_formula(capsys, sequent, slot):
    assert main(["prove", sequent, "--theory", "ALm"]) == 2
    assert f"error: context formula {slot} is empty" in capsys.readouterr().err
    # an empty context still parses
    assert main(["prove", "|- A -o A", "--theory", "ALm"]) == 0


def test_models_find_below_size_2_refutes_nothing(capsys):
    # the one-element algebra validates every sequent, so the walk skips it
    rc = main(["models", "find", "--max-size", "1", "--falsify", "A |- A * A"])
    assert rc == 1
    assert capsys.readouterr().out == "not refuted in the ALm class up to size 1\n"


def test_models_find(capsys):
    rc = main(
        ["models", "find", "--theory", "LLc", "--max-size", "10", "--falsify", "A |- A * A"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "size 3" in out and "assign: A=1" in out
    rc = main(
        ["models", "find", "--theory", "ALm", "--max-size", "3", "--falsify", "A |- A"]
    )
    assert rc == 1


_SIZE_2 = "size 2\ntop 1\nadd:\n0 1\n1 1\nres:\n0 1\n0 0\n"
_SIZE_3 = "size 3\ntop 2\nadd:\n0 1 2\n1 2 2\n2 2 2\nres:\n0 1 2\n0 0 1\n0 0 0\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (
            ["--falsify", "A -o B |- B -o A"],
            0,
            "sequent: A -o B |- B -o A\nassign: A=1, B=0\n" + _SIZE_2,
        ),
        (
            ["--theory", "LLc", "--falsify", "A |- A * A"],
            0,
            "sequent: A |- A * A\nassign: A=1\n" + _SIZE_3,
        ),
        (
            ["--falsify", "A * (A -o B) |- B * (B -o A)"],
            0,
            "sequent: A * (A -o B) |- B * (B -o A)\nassign: A=2, B=1\n"
            "size 4\ntop 3\nadd:\n0 1 2 3\n1 3 3 3\n2 3 3 3\n3 3 3 3\n"
            "res:\n0 1 2 3\n0 0 1 1\n0 0 0 1\n0 0 0 0\n",
        ),
        (
            ["--theory", "LLc", "--falsify", "B, C -o D, E * F |- A -o A * A"],
            0,
            "sequent: B, C -o D, E * F |- A -o A * A\n"
            "assign: A=1, B=0, C=0, D=0, E=0, F=0\n" + _SIZE_3,
        ),
        (
            ["--theory", "LLc", "--max-size", "2", "--falsify", "A |- A * A"],
            1,
            "not refuted in the LLc class up to size 2\n",
        ),
    ],
)
def test_models_find_output_is_pinned(capsys, argv, code, out):
    # sizes 2, 3 and 4, six names (walked from size 2), and a first
    # countermodel of size 3 past --max-size 2
    assert main(["models", "find", *argv]) == code
    assert capsys.readouterr().out == out


def test_models_find_prints_no_countermodel_that_the_kernel_rejects(capsys, monkeypatch):
    import hooplog.cli as cli
    from hooplog.algebra import FiniteAlgebra, boolean_algebra, godel_chain

    not_a_pocrim = FiniteAlgebra(2, ((0, 1), (1, 0)), ((0, 1), (0, 0)), 1)
    for model, theory, asked, why in [
        ((boolean_algebra(), {"A": 0, "B": 0}), "ALm", "A |- B", "the sequent holds under the assignment"),
        ((boolean_algebra(), {"B": 1}), "ALm", "A |- B", "unassigned variable A"),
        ((godel_chain(3), {"A": 1}), "LLc", "A^^ |- A", "the algebra is not in the LLc class"),
        ((not_a_pocrim, {"A": 1}), "ALm", "A |- 0", "residuation fails at (1,1,1)"),
    ]:
        monkeypatch.setattr(cli, "find_countermodel", lambda s, t, n: model)
        assert main(["models", "find", "--theory", theory, "--falsify", asked]) == 1
        out = capsys.readouterr().out
        assert out == f"the countermodel of {asked} is rejected: {why}\n"


def test_models_enum_deterministic(capsys):
    assert main(["models", "enum", "--max-size", "3", "--require", "hoop"]) == 0
    first = capsys.readouterr().out
    assert main(["models", "enum", "--max-size", "3", "--require", "hoop"]) == 0
    assert capsys.readouterr().out == first


def test_models_enum_strips_spaces_round_class_flags(capsys):
    def enum(require, forbid):
        args = ["--max-size", "4", "--require", require, "--forbid", forbid]
        assert main(["models", "enum", *args]) == 0
        return capsys.readouterr().out

    plain = enum("hoop,bounded", "idempotent")
    assert "# 0 algebras" not in plain
    assert enum("hoop, bounded", " , idempotent ") == plain


def test_models_enum_output_is_pinned(capsys):
    assert main(["models", "enum", "--max-size", "6"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "8a55d2c9eb882e558b1812579b31ee2d98ce3c8cfd73c049e8da65dce8472709"
    )


def test_translate(capsys):
    assert main(["translate", "--scheme", "glivenko", "P"]) == 0
    assert capsys.readouterr().out.strip() == "(P -o 1) -o 1"


def test_check_proof_file(tmp_path, capsys):
    from hooplog.sequent import bounded_prove, format_proof, parse_sequent
    from hooplog.theories import ALm

    p = bounded_prove(parse_sequent("A * (A -o B) |- B"), ALm, 6)
    f = tmp_path / "mp.proof"
    f.write_text(format_proof(p))
    assert main(["check", str(f), "--theory", "ALm"]) == 0
    assert main(["check", str(f), "--theory", "ALm", "--kind", "proof"]) == 0


def test_check_proof_rejects_an_unadmitted_lemma(tmp_path, capsys):
    f = tmp_path / "lemma.proof"
    f.write_text("Lem | |- X1 -o Y1 -o X1 | X1 -o Y1 -o X1\n")
    assert main(["check", str(f), "--theory", "ALm", "--kind", "proof"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "proof of |- X1 -o Y1 -o X1 in ALm: rejected: "
        "Lem |- X1 -o Y1 -o X1: not admitted in ALm or a theory below it\n"
    )
    assert captured.err == ""


def test_check_derivation_file(tmp_path):
    from hooplog.hilbert import format_derivation, sequent_to_hilbert
    from hooplog.sequent import bounded_prove, parse_sequent
    from hooplog.theories import ALm

    p = bounded_prove(parse_sequent("A |- A"), ALm, 3)
    der, _ = sequent_to_hilbert(p, ALm)
    f = tmp_path / "id.hilbert"
    f.write_text(format_derivation(der))
    assert main(["check", str(f), "--theory", "ALm"]) == 0


@pytest.mark.parametrize(
    "line, code, verdict",
    [
        ("A * B -o A", 0, "accepted"),
        # C is no value of the substitution: unmapped, B stands for itself
        ("A * C -o A", 1, "rejected: line 1: not an instance of Wk"),
    ],
    ids=["instance", "not-an-instance"],
)
def test_check_derivation_keeps_an_unmapped_schema_variable(
    tmp_path, capsys, line, code, verdict
):
    f = tmp_path / "wk.hilbert"
    f.write_text(f"1. {line} | axiom Wk {{A=A}}\n")
    assert main(["check", str(f), "--kind", "derivation", "--theory", "ALm"]) == code
    captured = capsys.readouterr()
    assert captured.out == f"derivation of {line} in H-ALm: {verdict}\n"
    assert captured.err == ""


def test_check_script_that_ends_elsewhere_names_no_step(tmp_path, capsys):
    from importlib.resources import files

    text = (files("hooplog.corpus") / "data" / "a3-rr.eq").read_text()
    f = tmp_path / "bad.eq"
    f.write_text("".join(text.splitlines(keepends=True)[:5]))
    assert main(["check", str(f), "--kind", "script", "--theory", "LLc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "script a3-rr in LLc: rejected: chain does not end at the claim's right side: "
        "it ends at B \\/ A -o A \\/ B\n"
    )
    assert captured.err == ""


def test_corpus_run_filter(capsys):
    assert main(["corpus", "run", "--filter", "axiom-l"]) == 0
    out = capsys.readouterr().out
    assert "axiom-l" in out and "1/1" in out


def test_corpus_run_filter_matching_no_entry_is_an_input_error(capsys):
    assert main(["corpus", "run", "--filter", "no-such-entry"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no corpus entry id contains 'no-such-entry'\n"


def test_corpus_show(capsys):
    assert main(["corpus", "show", "axiom-l"]) == 0
    out = capsys.readouterr().out
    assert "scripts axiom-l-fwd.eq" in out and "start (B -o A) -o A -o B" in out
    assert main(["corpus", "show", "no-such-entry"]) == 2


def test_models_find_default_budget_finishes(capsys):
    assert main(["models", "find", "--theory", "ALm", "--falsify", "A |- A"]) == 1
    assert "up to size 6" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--require", "--forbid"])
def test_models_enum_rejects_unknown_flags(capsys, flag):
    assert main(["models", "enum", "--max-size", "3", flag, "hoopz"]) == 2
    captured = capsys.readouterr()
    assert "hoopz" in captured.err and "FLAGS" in captured.err
    assert captured.out == ""


def test_models_find_output_passes_through_classify(tmp_path, capsys):
    assert main(["models", "find", "--theory", "LLc", "--falsify", "A |- A * A"]) == 0
    f = tmp_path / "found.model"
    f.write_text(capsys.readouterr().out)
    assert main(["models", "classify", str(f)]) == 0
    assert capsys.readouterr().out == "bounded,hoop,involutive,pocrim\n"
    # the corpus's pinned model files too
    a6 = Path(__file__).resolve().parents[1] / "src/hooplog/corpus/data/a6.model"
    assert main(["models", "classify", str(a6)]) == 0
    assert capsys.readouterr().out == "bounded,hoop,idempotent,pocrim\n"


def test_models_classify_out_of_range_entry(tmp_path, capsys):
    f = tmp_path / "bad.model"
    f.write_text("size 2\nadd:\n0 1\n1 5\nres:\n0 0\n1 0\n")
    assert main(["models", "classify", str(f)]) == 2
    assert "add row 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("size\nadd:\n0\nres:\n0\n", "size"),
        ("size 1\ntop\nadd:\n0\nres:\n0\n", "top"),
        ("size x\nadd:\n0\nres:\n0\n", "size x"),
        ("size 2\nadd:\n0 1\n1 y\nres:\n0 0\n1 0\n", "1 y"),
        ("size 1 7\nadd:\n0\nres:\n0\n", "size 1 7"),
        ("size 1\ntop 0 junk\nadd:\n0\nres:\n0\n", "top 0 junk"),
    ],
    ids=[
        "size-without-number", "top-without-number", "size-not-integer", "entry-not-integer",
        "size-trailing-number", "top-trailing-word",
    ],
)
def test_models_classify_names_the_malformed_line(tmp_path, capsys, text, bad_line):
    f = tmp_path / "bad.model"
    f.write_text(text)
    assert main(["models", "classify", str(f)]) == 2
    captured = capsys.readouterr()
    assert f"error: malformed algebra line {bad_line!r}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_check_malformed_script_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.eq"
    f.write_text("lemma bad theory ALm claim A ~= A\nstart A\nthis is not a step\n")
    assert main(["check", str(f), "--kind", "script"]) == 2
    captured = capsys.readouterr()
    assert "error: unparsable script line: 'this is not a step'" in captured.err
    assert captured.out == ""


def test_check_derivation_without_substitution_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.hilbert"
    f.write_text("1. A -o A | axiom I\n")
    assert main(["check", str(f), "--theory", "ALm"]) == 2
    err = capsys.readouterr().err
    assert "malformed derivation line '1. A -o A | axiom I'" in err


def test_check_derivation_with_no_lines_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.hilbert"
    f.write_text("# only a comment\n\n")
    assert main(["check", str(f), "--kind", "derivation", "--theory", "ALm"]) == 2
    captured = capsys.readouterr()
    assert "error: empty derivation" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("second", ["3", "1"], ids=["skipped", "repeated"])
def test_check_derivation_line_numbers_must_count_up(tmp_path, capsys, second):
    wk = " A * B -o A | axiom Wk {A=A; B=B}"
    bad = f"{second}.{wk}"
    f = tmp_path / "bad.hilbert"
    f.write_text(f"1.{wk}\n{bad}\n")
    assert main(["check", str(f), "--theory", "ALm"]) == 2
    err = capsys.readouterr().err
    assert f"derivation line numbered {second} at position 2: {bad!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("1. A -o (A | axiom Wk {A=A; B=A}", "expected ')'"),
        ("1. A -o A | axiom Wk {A=(A; B=A}", "expected ')'"),
    ],
    ids=["formula", "substitution"],
)
def test_check_derivation_names_the_line_of_a_parse_error(tmp_path, capsys, line, message):
    f = tmp_path / "bad.hilbert"
    f.write_text(line + "\n")
    assert main(["check", str(f), "--theory", "ALm"]) == 2
    err = capsys.readouterr().err
    assert message in err and repr(line) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "lines, bad_line, message",
    [
        (["AxASM A |- A"], "AxASM A |- A", "malformed proof line"),
        (["AxASM | A |- (A | A"], "AxASM | A |- (A | A", "expected ')'"),
        (["AxASM | A |- A | (A"], "AxASM | A |- A | (A", "expected ')'"),
        (["AxASM | A, A | A"], "AxASM | A, A | A", "a sequent needs '|-'"),
        (["AxASM | A |- A | A", "    AxASM | B |- B | B"], "AxASM | B |- B | B",
         "dangling proof lines from"),
        (["ImpI | |- A -o A | A", "   AxASM | A |- A | A"], "AxASM | A |- A | A",
         "bad indentation on proof line"),
    ],
    ids=["no-fields", "sequent-formula", "instance-formula", "no-turnstile", "dangling",
         "odd-indent"],
)
def test_check_proof_names_the_bad_line(tmp_path, capsys, lines, bad_line, message):
    f = tmp_path / "bad.proof"
    f.write_text("\n".join(lines) + "\n")
    assert main(["check", str(f), "--kind", "proof"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and repr(bad_line) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


_HEADER = "lemma bad theory ALm claim A ~= A"


@pytest.mark.parametrize(
    "bad_line, lines, message",
    [
        ("lemma bad theory ALm A ~= A", [], "no ' claim '"),
        ("lemma bad claim A ~= A", [], "no 'theory <name>'"),
        ("lemma theory ALm claim A ~= A", [], "no id before 'theory'"),
        ("= A by axiom-l", [_HEADER, "start A"], "no ' at '"),
        ("= A by def /\\", [_HEADER, "start A"], "no ' at '"),
        ("= A by ins 0 by easy", [_HEADER, "start A"], "no ' at '"),
        ("= A by del 0 by easy", [_HEADER, "start A"], "no ' at '"),
        ("= A by easy deep", [_HEADER, "start A"], "'deep' is not an integer"),
        ("assume foo", [_HEADER], "no claim after its id"),
        ("= A by axiom-l at x.1", [_HEADER, "start A"], "'x.1' is not dot-joined integers"),
        ("assume foo bar", [_HEADER], "claim needs '~=' or '>='"),
        ("lemma x theory ALm claim A B", [], "claim needs '~=' or '>='"),
        ("lemma bad theory ALm claim A ~= (A", [], "expected ')'"),
        ("assume foo A ~= B -o", [_HEADER], "expected a formula"),
        ("start (A -o B)^ (", [_HEADER], "unexpected '('"),
        ("= (A by easy", [_HEADER, "start A"], "expected ')'"),
        ("= A by ins (B at 1 by easy", [_HEADER, "start A"], "expected ')'"),
    ],
    ids=[
        "no-claim", "no-theory", "no-id", "rewrite", "def", "ins", "del", "easy-depth",
        "assume", "position", "assume-relation", "claim-relation",
        "claim-formula", "assume-formula", "start-formula", "step-formula", "ins-formula",
    ],
)
def test_check_script_names_the_bad_line(tmp_path, capsys, bad_line, lines, message):
    f = tmp_path / "bad.eq"
    f.write_text("\n".join(lines + [bad_line]) + "\n")
    assert main(["check", str(f), "--kind", "script"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and repr(bad_line) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["models", "enum", "--max-size", "-3"], "--max-size"),
        (["models", "enum", "--max-size", "0"], "--max-size"),
        (["models", "find", "--falsify", "A |- B", "--max-size", "-1"], "--max-size"),
        (["dns-check", "--scheme", "kolmogorov", "--budget", "-1"], "--budget"),
        (["dns-check", "--scheme", "kolmogorov", "--max-size", "0"], "--max-size"),
        (["prove", "A |- A", "--depth", "0"], "--depth"),
        (["check", "any.proof", "--depth", "-2"], "--depth"),
        (["corpus", "gen-k", "0"], "k"),
    ],
    ids=[
        "enum-negative", "enum-zero", "find", "dns-budget", "dns-size", "prove", "check",
        "gen-k",
    ],
)
def test_size_and_depth_flags_below_1_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be at least 1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "formula, code", [("A -o B", 0), ("a -o", 2)], ids=["parses", "parse-error"]
)
def test_python_dash_m_runs_the_cli(formula, code):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hooplog

    env = dict(os.environ, PYTHONPATH=str(Path(hooplog.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "hooplog", "parse", formula],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert ("Imp" in done.stdout) == (code == 0)
