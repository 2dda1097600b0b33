"""The committed answer corpus of the seed-1 ``table-full`` pool.

The pool is generated by ``perfbench/inputs.py`` (seed 1, 18 tables), and
every table question of the pool (``sinks``, ``has-non-singleton`` and
``has-pure``) is run through ``sinkeq.cli.run_cli`` with ``--format json``
under each edge semantics. An entry keeps the argv, with the game's path
relative to the pool directory, the exit code and the parsed output
without ``stats.wall_ms``. The full-space ``export-dot`` text of every
table of at most 4096 profiles is kept as its SHA-256. There is one file
per semantics, ``table-full-seed1-<semantics>.json``.

``tests/test_golden.py`` regenerates the corpus and compares. A change
that alters an output on purpose rewrites the files with::

    python tests/golden/update.py

and names the changed commands.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED = 1
DOT_MAX_PROFILES = 4096


def corpus_path(semantics: str) -> Path:
    return HERE / f"table-full-seed{SEED}-{semantics}.json"


def _run(argv: list[str]) -> tuple[int, str]:
    from sinkeq.cli import run_cli

    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue() + err.getvalue()


def corpus(workdir: Path) -> dict[str, list[dict]]:
    """Every entry of the corpus, by semantics, generated under ``workdir``."""
    from inputs import make_inputs
    from sinkeq.dynamics import EdgeSemantics
    from sinkeq.io import parse_game_file

    manifest = make_inputs("table-full", SEED, workdir)
    entries: dict[str, list[dict]] = {}
    for semantics in (s.value for s in EdgeSemantics):
        rows = entries[semantics] = []
        for item in manifest["items"]:
            game, name = item["game"], Path(item["game"]).name
            for step in item["steps"]:
                argv = ["--semantics", semantics, *step]
                code, text = _run(argv)
                doc = json.loads(text)
                del doc["stats"]["wall_ms"]
                rows.append({"argv": [name if a == game else a for a in argv],
                             "exit": code, "output": doc})
            if parse_game_file(Path(game).read_text()).codec.num_profiles <= DOT_MAX_PROFILES:
                argv = ["--semantics", semantics, "--format", "json", "export-dot", game]
                code, text = _run(argv)
                dot = json.loads(text)["answer"].encode()
                rows.append({"argv": [name if a == game else a for a in argv],
                             "exit": code, "sha256": hashlib.sha256(dot).hexdigest()})
    return entries


def dumps(rows: list[dict]) -> str:
    """One entry per line, so a changed output shows as a changed line."""
    return "[\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]\n"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as workdir:
        entries = corpus(Path(workdir))
    for semantics, rows in entries.items():
        corpus_path(semantics).write_text(dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
