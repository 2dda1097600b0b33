"""The table questions answer the committed corpus of ``tests/golden/``.

The seed-1 ``table-full`` pool is generated through ``perfbench/inputs.py``
into ``tmp_path``, and every ``sinks``, ``has-non-singleton`` and
``has-pure`` output under both semantics, and the SHA-256 of every
full-space ``export-dot`` text, must equal the committed ones (see
``tests/golden/update.py``, which rewrites them).
"""

import json
from pathlib import Path

import pytest

from golden.update import corpus, corpus_path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return corpus(tmp_path_factory.mktemp("table-full"))


@pytest.mark.parametrize("semantics", ["improvement", "best-response"])
def test_table_pool_answers_match_the_corpus(generated, semantics):
    committed = json.loads(corpus_path(semantics).read_text())
    rows = generated[semantics]
    assert [row["argv"] for row in rows] == [row["argv"] for row in committed]
    for got, want in zip(rows, committed):
        assert got == want, " ".join(got["argv"])
