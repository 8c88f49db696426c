"""One verified corpus for the whole test session."""

import time

import pytest

from hooplog.corpus import Corpus


@pytest.fixture(scope="session")
def corpus_run():
    """(corpus, report, seconds) of one full run.  Tests only read its
    registry; the teardown fails if one of them registered into it."""
    c = Corpus()
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
