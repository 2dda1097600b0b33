"""The committed answer and refusal corpora of ``tests/golden/``.

Answers. The seed-1 pools of four benchmark workloads are generated by
``perfbench/inputs.py``, and every step of every item is run through
``sinkeq.cli.run_cli``:

- ``table-full`` (18 tables): ``sinks``, ``has-non-singleton`` and
  ``has-pure`` under each edge semantics, one file per semantics,
  ``table-full-seed1-<semantics>.json``. The full-space ``export-dot``
  text of every table of at most 4096 profiles is kept as its SHA-256.
- ``sat-market`` (168 formulas): ``compile sat2market`` and ``has-pure``,
  in ``sat-market-seed1.json``.
- ``tm-wcg`` and ``tm-anon`` (36 machines each): ``compile tm2wcg`` or
  ``compile tm2anon`` and ``in-sink @initial``, in ``<pool>-seed1.json``.

Gadgets. ``gadgets.json`` holds the compile steps of ``tm2wcg``,
``tm2psg``, ``tm2market`` and ``tm2anon`` on the four machines of
``tests/conftest.py`` (flipper, walker, halter and halter3). ``tm2market``
is the only compiler whose transition player's Halt strategy holds a
resource of its own.

A question's entry keeps the argv, with every path in the pool directory
reduced to its file name, the exit code and the parsed ``--format json``
output without ``stats.wall_ms``. A compile step's entry keeps the argv, the
exit code and the SHA-256 of the game document and of its sidecar.

Refusals. ``refusals.json`` holds what the loaders make of hostile
documents. Each base document has every leaf (a scalar or an empty
container) replaced in turn by each of ``VALUES``: a small table, a
compiled ``sat2market`` market, a shared-mode weighted and a
player-specific congestion game (``parse_game_file``), a machine
(``parse_tm_file``) and a sidecar (``parse_sidecar``, against the
prisoner's dilemma). Named game documents set traps: numbers equal to an
integer but of another type, and several faults in one document. A result
is ``"ok"`` or the ``[path, text]`` of the ``FormatError``.

``tests/test_golden.py`` regenerates every file and compares. A change
that alters an output on purpose rewrites the files with::

    python tests/golden/update.py

and names the changed commands.
"""

from __future__ import annotations

import copy
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
POOLS = ("sat-market", "tm-wcg", "tm-anon")
GADGET_KINDS = ("tm2wcg", "tm2psg", "tm2market", "tm2anon")
# what replaces each leaf of a refusal base document
VALUES = (None, 0.5, 2.0, "x", "1", True, False, [], {}, -1, 0)


def corpus_path(name: str) -> Path:
    return HERE / f"{name}.json"


def _run(argv: list[str]) -> tuple[int, str]:
    from sinkeq.cli import run_cli

    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue() + err.getvalue()


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _entry(argv: list[str], workdir: Path) -> dict:
    """One step's entry; the step runs here."""
    code, text = _run(argv)
    short = [Path(a).name if a.startswith(str(workdir)) else a for a in argv]
    if argv[0] == "compile":
        game = argv[argv.index("-o") + 1]
        sidecar = Path(game).with_suffix(".symbols.json")
        return {"argv": short, "exit": code,
                "game_sha256": _digest(game), "sidecar_sha256": _digest(sidecar)}
    if "export-dot" in argv:
        dot = json.loads(text)["answer"].encode()
        return {"argv": short, "exit": code, "sha256": hashlib.sha256(dot).hexdigest()}
    doc = json.loads(text)
    del doc["stats"]["wall_ms"]
    return {"argv": short, "exit": code, "output": doc}


def _table_corpus(workdir: Path) -> dict[str, list[dict]]:
    from inputs import make_inputs
    from sinkeq.dynamics import EdgeSemantics
    from sinkeq.io import parse_game_file

    manifest = make_inputs("table-full", SEED, workdir)
    entries: dict[str, list[dict]] = {}
    for semantics in (s.value for s in EdgeSemantics):
        rows = entries[f"table-full-seed{SEED}-{semantics}"] = []
        for item in manifest["items"]:
            game = item["game"]
            for step in item["steps"]:
                rows.append(_entry(["--semantics", semantics, *step], workdir))
            if parse_game_file(Path(game).read_text()).codec.num_profiles <= DOT_MAX_PROFILES:
                rows.append(_entry(["--semantics", semantics, "--format", "json",
                                    "export-dot", game], workdir))
    return entries


def _pool_corpus(pool: str, workdir: Path) -> list[dict]:
    from inputs import make_inputs

    manifest = make_inputs(pool, SEED, workdir)
    return [_entry(step, workdir) for item in manifest["items"] for step in item["steps"]]


def _gadget_corpus(workdir: Path) -> list[dict]:
    from conftest import MACHINES
    from sinkeq.io import serialize_tm

    workdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, spec in MACHINES.items():
        machine = workdir / f"{name}.tm.json"
        machine.write_text(serialize_tm(spec))
        for kind in GADGET_KINDS:
            game = str(workdir / f"{name}.{kind}.json")
            rows.append(_entry(["compile", kind, str(machine), "-o", game], workdir))
    return rows


def _leaves(doc, at=()):
    """The path of every scalar and empty container in ``doc``, in document order."""
    children = (list(doc.items()) if isinstance(doc, dict)
                else list(enumerate(doc)) if isinstance(doc, list) else [])
    if not children:
        yield list(at)
    for key, value in children:
        yield from _leaves(value, (*at, key))


def _replaced(doc, at: list, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = copy.deepcopy(value)
    return doc


def refusal_bases() -> dict[str, dict]:
    from sinkeq.cnf import CnfFormula
    from sinkeq.compilers import compile_sat_market
    from sinkeq.games import CongestionGame
    from sinkeq.io import game_to_json, serialize_tm
    from sinkeq.turing import TMSpec

    machine = TMSpec(num_states=2, q0=0, q_halt=1, t_prime=2, delta={
        (0, "b"): (1, "1", "R"), (0, "0"): (0, "1", "L"), (0, "1"): (1, "b", "S")},
        state_names=("run", "halt"))
    return {
        "table": {"class": "table", "strategy_counts": [2, 2],
                  "tables": [[2, 3, 0, 1], [2, 0, 3, 1]]},
        "market": game_to_json(compile_sat_market(CnfFormula(1, ((1, 1, 1),))).game),
        "congestion-weighted": game_to_json(CongestionGame(
            ["e", "f"], [[[0], [1]], [[0]]], [{1: 1, 2: 2, 3: 4}, {1: 3}], weights=[1, 2])),
        "congestion-player-specific": game_to_json(CongestionGame(
            ["e"], [[[0], []], [[0]]], [[{1: 1, 2: 3}, {1: 2, 2: 5}]],
            mode="player_specific")),
        "machine": json.loads(serialize_tm(machine)),
        "sidecar": {"players": {"row": 0, "col": 1},
                    "strategies": {"row": {"C": 0, "D": 1}, "col": {"C": 0}},
                    "initial": [1, 0], "penalty": 4, "market_base": None, "machine": None},
    }


def _loader(base: str):
    """The function that reads the text of a ``base`` document."""
    from sinkeq.games import prisoners_dilemma
    from sinkeq.io import parse_game_file, parse_sidecar, parse_tm_file

    if base == "machine":
        return parse_tm_file
    if base == "sidecar":
        return lambda text: parse_sidecar(text, prisoners_dilemma())
    return parse_game_file


def _market(strategies, passive=None, name="x") -> dict:
    return {"class": "market",
            "passive": passive or [{"name": "y", "value": 1, "preference": [0]}],
            "active": [{"name": name, "strategies": strategies}]}


def _table(counts, tables) -> dict:
    return {"class": "table", "strategy_counts": counts, "tables": tables}


# documents with a number equal to an integer but of another type, where a
# set or a dict key would merge them, and documents with more than one fault
TRAPS = {
    "market-strategy-int-and-float": _market([[], [0, 0.0]]),
    "market-strategy-int-and-true": _market([[], [0, True]]),
    "market-strategy-float-alone": _market([[], [0.0]]),
    "market-preference-int-and-float": _market(
        [[], [0]], [{"name": "y", "value": 1, "preference": [0, 0.0]}]),
    "table-row-float-one": _table([2], [[0, 1.0]]),
    "table-row-true": _table([2], [[0, True]]),
    "table-zero-count-and-float": _table([0], [[1.5]]),
    "table-float-count-and-float": _table([2.0], [[1.5, 1]]),
    "table-short-row-and-float": _table([2], [[1.5]]),
    "table-extra-table-and-float": _table([2], [[0, 1], [2, 0.5]]),
    "table-non-array-after-float": _table([2], [[0, 0.5], 5]),
    "table-non-array-before-float": _table([2], [5, [0, 0.5]]),
    "table-float-in-second-table": _table([2, 1], [[0, 1], [1.5, 0]]),
    "market-bad-name-before-bad-value": _market(
        [[], [0]], [{"name": False, "value": 1.5, "preference": [0]}]),
    "market-bad-passive-name-before-bad-strategy": _market(
        [[], [0.5]], [{"name": None, "value": 1, "preference": [0]}]),
    "market-bad-strategy-before-bad-active-name": _market([[], [0.5]], name=1),
    "market-bad-active-name-and-range": _market([[], [3]], name=1),
    "market-range-and-bad-strategy-later": {
        "class": "market", "passive": [{"name": "y", "value": 1, "preference": [0, 1]}],
        "active": [{"name": "x", "strategies": [[], [3]]},
                   {"name": "z", "strategies": [[0], [True]]}]},
    "market-no-active-and-bad-value": {
        "class": "market", "passive": [{"name": "y", "value": 2.0, "preference": [0]}]},
    "market-passive-not-object-after-bad-value": {
        "class": "market",
        "passive": [{"name": "y", "value": 2.0, "preference": [0]}, 5],
        "active": [{"name": "x", "strategies": [[], [0]]}]},
    "market-missing-name-and-bad-strategy": {
        "class": "market", "passive": [{"name": "y", "value": 1, "preference": [0]}],
        "active": [{"strategies": [[], [0.5]]}]},
    "market-value-zero-and-unranked-demander": _market(
        [[], [0]], [{"name": "y", "value": 0, "preference": []}]),
}


def refusal(doc, base: str = "game") -> str | list[str]:
    """``"ok"``, or the path and text of the ``FormatError`` that ``doc``,
    read as a ``base`` document, raises."""
    from sinkeq.errors import FormatError

    try:
        _loader(base)(json.dumps(doc))
    except FormatError as exc:
        return [exc.path, str(exc)]
    return "ok"


def refusal_corpus() -> list[dict]:
    rows: list[dict] = [{"bases": refusal_bases(), "values": list(VALUES)}]
    for base, doc in rows[0]["bases"].items():
        for at in _leaves(doc):
            rows.append({"base": base, "at": at,
                         "results": [refusal(_replaced(doc, at, v), base) for v in VALUES]})
    for name, doc in TRAPS.items():
        rows.append({"name": name, "document": doc, "result": refusal(doc)})
    return rows


def corpus(workdir: Path) -> dict[str, list[dict]]:
    """Every corpus file's entries, by file stem, pools generated under ``workdir``."""
    entries = _table_corpus(workdir / "table-full")
    for pool in POOLS:
        entries[f"{pool}-seed{SEED}"] = _pool_corpus(pool, workdir / pool)
    entries["gadgets"] = _gadget_corpus(workdir / "gadgets")
    entries["refusals"] = refusal_corpus()
    return entries


def dumps(rows: list[dict]) -> str:
    """One entry per line, so a changed output shows as a changed line."""
    return "[\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]\n"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(HERE.parent)]
    with tempfile.TemporaryDirectory() as workdir:
        entries = corpus(Path(workdir))
    for name, rows in entries.items():
        corpus_path(name).write_text(dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
