"""One verified corpus for the whole test session."""

import time
from collections import Counter

import pytest

import hooplog.corpus as corpus_module
import hooplog.eqengine as eqengine
from hooplog.corpus import Corpus


@pytest.fixture(scope="session")
def script_checks():
    """`check_script` calls per script id during the run of `corpus_run`."""
    return Counter()


@pytest.fixture(scope="session")
def corpus_run(script_checks):
    """(corpus, report, seconds) of one full run.  Tests only read its
    registry; the teardown fails if one of them registered into it."""
    real = eqengine.check_script

    def counting(script, *args, **kwargs):
        script_checks[script.id] += 1
        return real(script, *args, **kwargs)

    c = Corpus()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eqengine, "check_script", counting)
        mp.setattr(corpus_module, "check_script", counting)
        t0 = time.perf_counter()
        report = c.run()
        elapsed = time.perf_counter() - t0
    lemmas = list(c.registry.entries)
    yield c, report, elapsed
    assert list(c.registry.entries) == lemmas, "a test registered into the shared registry"


@pytest.fixture(scope="session")
def corpus(corpus_run):
    """The corpus of `corpus_run`, after checking that every entry passed."""
    c, report, _ = corpus_run
    bad = [r for r in report.results if not r.ok]
    assert not bad, [(r.entry.id, r.detail) for r in bad]
    return c
