"""Answers and refusals match the committed corpora of ``tests/golden/``.

The seed-1 ``table-full``, ``sat-market``, ``tm-wcg`` and ``tm-anon`` pools
are generated through ``perfbench/inputs.py`` into ``tmp_path``, every step
is run, and each output (without ``wall_ms``) and each digest of a compiled
document must equal the committed one. Every hostile document of the
refusal corpus must be refused with the committed path and text, or load.
``tests/golden/update.py`` rewrites the files.
"""

import json
from pathlib import Path

import pytest

from golden.update import corpus, corpus_path

CORPORA = ["table-full-seed1-improvement", "table-full-seed1-best-response",
           "sat-market-seed1", "tm-wcg-seed1", "tm-anon-seed1", "refusals"]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return corpus(tmp_path_factory.mktemp("pools"))


def _compare(generated, name):
    committed = json.loads(corpus_path(name).read_text())
    rows = generated[name]
    assert len(rows) == len(committed)
    for got, want in zip(rows, committed):
        assert got == want, json.dumps(want.get("argv") or want.get("at") or want.get("name"))


def test_every_corpus_file_is_generated(generated):
    assert sorted(generated) == sorted(CORPORA)


@pytest.mark.parametrize("semantics", ["improvement", "best-response"])
def test_table_pool_answers_match_the_corpus(generated, semantics):
    _compare(generated, f"table-full-seed1-{semantics}")


@pytest.mark.parametrize("pool", ["sat-market", "tm-wcg", "tm-anon"])
def test_pool_answers_match_the_corpus(generated, pool):
    _compare(generated, f"{pool}-seed1")


def test_hostile_documents_are_refused_as_the_corpus_says(generated):
    _compare(generated, "refusals")
