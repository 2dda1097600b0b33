"""Span tracing around the public functions of each sinkeq layer.

The benchmark never edits the program: ``Tracer.install`` swaps every
binding of a traced function, in every loaded ``sinkeq`` module, for a
wrapper that records a span (name, start, end, parent). ``cli.py`` binds
``forward_closure``, ``sccs``, ``in_a_sink`` and friends by name at import,
so patching only ``sinkeq.dynamics`` would miss the CLI's own recomputation;
scanning every module's namespace catches those bindings too. Methods are
patched on their classes, which covers ``StateGraph``'s ``getattr`` lookup
of ``deviation_utilities``.

Spans live in flat arrays while the run goes on and are written out once at
the end. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Traced functions and methods, by the layer their span is charged to.
FUNCTIONS = {
    "dynamics": ("forward_closure", "sccs", "bottom_sccs", "in_a_sink", "sinks",
                 "has_singleton_sink", "has_non_singleton_sink"),
    "compilers": ("compile_tm_weighted", "compile_tm_player_specific",
                  "compile_tm_anonymous", "compile_tm_market", "compile_sat_market"),
    "io": ("parse_game_file", "parse_sidecar", "parse_tm_file", "parse_dimacs",
           "serialize_game", "serialize_sidecar"),
    "cli": ("run_cli",),
}
QUESTIONS = ("in_a_sink", "sinks", "has_singleton_sink", "has_non_singleton_sink")
TRAVERSALS = ("forward_closure", "sccs", "bottom_sccs")
GAME_CLASSES = ("TableGame", "CongestionGame", "AnonymousGame", "TwoSidedMarketGame")


def _game_size(game) -> tuple[int, int, int]:
    """(players, resources, strategy-resource incidences) of a compiled game.

    Resources are congestion resources, market passive agents, or the
    strategy names an anonymous game's histogram counts.
    """
    if hasattr(game, "resources"):
        return (game.num_players, len(game.resources),
                sum(len(s) for per in game.strategies for s in per))
    if hasattr(game, "passive"):
        return (game.num_players, len(game.passive),
                sum(len(s) for a in game.active for s in a.strategies))
    return (game.num_players, len(game.strategy_names),
            sum(len(p.allowed) for p in game.players))


def _sinkeq_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "sinkeq" or name.startswith("sinkeq.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._expanded: set = set()
        self._restore: list = []

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- counters attached to spans -------------------------------------

    def _after_moves(self, args, result):
        self._expanded.add(args[1])

    def _after_closure(self, args, result):
        self.counts["closure_states"] += len(result)

    def _after_sccs(self, args, result):
        self.counts["scc_vertices"] += len(args[0])

    def _after_compile(self, args, result):
        players, resources, incidences = _game_size(result.game)
        self.counts["players"] += players
        self.counts["resources"] += resources
        self.counts["incidences"] += incidences

    def _after_io(self, args, result):
        if self._stack and self.names[self.name[self._stack[-1]]].startswith("io."):
            return  # bytes already counted by the enclosing document
        data = result if isinstance(result, str) else args[0]
        self.counts["doc_bytes"] += len(data)

    def _after_cli(self, args, result):
        # One CLI command ends: count the distinct states it expanded.
        self.counts["distinct_expanded"] += len(self._expanded)
        self._expanded.clear()

    # --- install / uninstall --------------------------------------------

    def install(self):
        import sinkeq.cli
        import sinkeq.dynamics
        import sinkeq.games
        import sinkeq.report

        after = {
            "forward_closure": self._after_closure, "sccs": self._after_sccs,
            "run_cli": self._after_cli,
        }
        originals = {}
        for layer, names in FUNCTIONS.items():
            for fname in names:
                fn = next((vars(mod)[fname] for mod in _sinkeq_modules()
                           if fname in vars(mod)), None)
                if fn is None:
                    raise RuntimeError(f"cannot find sinkeq function {fname}")
                hook = after.get(fname)
                if layer == "compilers":
                    hook = self._after_compile
                elif layer == "io":
                    hook = self._after_io
                originals[fn] = self._wrap(f"{layer}.{fname}", fn, hook)
        for mod in _sinkeq_modules():
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = originals.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        methods = [(getattr(sinkeq.games, c), "deviation_utilities", f"games.{c}", None)
                   for c in GAME_CLASSES]
        methods += [
            (sinkeq.dynamics.StateGraph, "improving_moves", "dynamics.improving_moves",
             self._after_moves),
            (sinkeq.report.AnalysisReport, "to_json", "cli.report", None),
            (sinkeq.report.AnalysisReport, "to_text", "cli.report", None),
        ]
        for cls, attr, name, hook in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hook))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- analysis ---------------------------------------------------------

    def write(self, path: Path):
        """Write every span as parallel arrays (indices into ``names``)."""
        path.write_text(json.dumps({
            "names": self.names, "name": self.name.tolist(),
            "parent": self.parent.tolist(), "start": self.start.tolist(),
            "end": self.end.tolist(),
        }))

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics and a breakdown of self time and calls per span.

        ``dynamics.traversal_s`` is the self time of the closure, the SCC
        passes and the question functions' own loops (``has_singleton_sink``
        scans the profile space itself), so it is never zero where a question
        ran; ``closure_s``, ``scc_s``, ``states_per_s``, ``compile_s`` and
        ``serialize_s`` are zero on workloads that bypass that code.
        """
        n = len(self.name)
        names = [self.names[k] for k in self.name]
        duration = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += duration[k]
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for k in range(n):
            self_time[names[k]] += duration[k] - child[k]
            calls[names[k]] += 1

        def short(name):
            return name.rsplit(".", 1)[-1]

        def outermost(k, group):
            p = self.parent[k]
            while p >= 0:
                if short(names[p]) in group:
                    return False
                p = self.parent[p]
            return True

        question_s = traversal_s = 0.0
        for k in range(n):
            base = short(names[k])
            if base in QUESTIONS and outermost(k, QUESTIONS):
                question_s += duration[k]
            if base in TRAVERSALS and outermost(k, TRAVERSALS):
                traversal_s += duration[k]

        def total(prefix, which=None):
            return sum(v for k, v in self_time.items()
                       if k.startswith(prefix) and (which is None or short(k) in which))

        eval_calls = sum(v for k, v in calls.items() if k.startswith("games."))
        eval_s = total("games.")
        successor_calls = calls["dynamics.improving_moves"]
        states = self.counts["closure_states"] + self.counts["scc_vertices"]
        metrics = {
            "games.eval_calls": (eval_calls, "count"),
            "games.eval_s": (eval_s, "s"),
            "games.eval_us": (eval_s / eval_calls * 1e6 if eval_calls else 0.0, "us"),
            "dynamics.successor_calls": (successor_calls, "count"),
            "dynamics.successor_s": (self_time["dynamics.improving_moves"], "s"),
            "dynamics.successor_reuse": (
                self.counts["distinct_expanded"] / successor_calls if successor_calls else 0.0,
                "ratio"),
            "dynamics.closure_calls": (calls["dynamics.forward_closure"], "count"),
            "dynamics.closure_s": (self_time["dynamics.forward_closure"], "s"),
            "dynamics.closure_states": (self.counts["closure_states"], "count"),
            "dynamics.scc_calls": (calls["dynamics.sccs"], "count"),
            "dynamics.scc_s": (total("dynamics.", ("sccs", "bottom_sccs")), "s"),
            "dynamics.states_per_s": (states / traversal_s if traversal_s else 0.0, "1/s"),
            "dynamics.traversal_s": (total("dynamics.", TRAVERSALS + QUESTIONS), "s"),
            "dynamics.question_s": (question_s, "s"),
            "compilers.compile_s": (total("compilers."), "s"),
            "compilers.players": (self.counts["players"], "count"),
            "compilers.resources": (self.counts["resources"], "count"),
            "compilers.incidences": (self.counts["incidences"], "count"),
            "io.parse_s": (total("io.", {"parse_game_file", "parse_sidecar",
                                         "parse_tm_file", "parse_dimacs"}), "s"),
            "io.serialize_s": (total("io.", {"serialize_game", "serialize_sidecar"}), "s"),
            "io.doc_bytes": (self.counts["doc_bytes"], "bytes"),
            "cli.self_s": (self_time["cli.run_cli"], "s"),
            "cli.report_s": (self_time["cli.report"], "s"),
        }
        breakdown = {k: {"calls": calls[k], "self_s": self_time[k]} for k in sorted(calls)}
        return metrics, breakdown
