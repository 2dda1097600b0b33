"""Reference verdicts for the benchmark, computed outside the timed region.

None of these call ``sinkeq.dynamics``: each follows the definition of the
question directly, so a wrong answer from the engine or the CLI shows up as
a mismatch instead of being checked against itself.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from inputs import machine_class, satisfiable


def _load_tm(path):
    from sinkeq.io import parse_tm_file

    return parse_tm_file(Path(path).read_bytes())


def tm_wcg_in_sink(item) -> str:
    """The weighted gadget's start profile lies in a sink exactly when the
    machine loops back to its own start configuration (prefix 0)."""
    from sinkeq.turing import run_bounded

    return "true" if machine_class(run_bounded(_load_tm(item["machine"]))) == "loop0" else "false"


def _closure_is_strongly_connected(start, moves) -> bool:
    """BFS forward from ``start``, then check every state reaches it back."""
    seen = {start}
    reverse: dict = {start: []}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in moves(p):
            reverse.setdefault(q, []).append(p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    back = {start}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for p in reverse.get(q, ()):
            if p not in back:
                back.add(p)
                queue.append(p)
    return len(back) == len(seen)


def _anonymous_moves(game):
    """Strictly improving unilateral moves, from ``game.utility`` alone.

    A strategy outside a player's allowed set scores 0 and every utility is
    at least 0, so such a move never improves and is not tried.
    """
    allowed = [sorted(p.allowed) for p in game.players]

    def moves(profile):
        out = []
        for i, choices in enumerate(allowed):
            here = game.utility(profile, i)
            for s in choices:
                if s != profile[i]:
                    moved = profile[:i] + (s,) + profile[i + 1:]
                    if game.utility(moved, i) > here:
                        out.append(moved)
        return out

    return moves


def tm_anon_in_sink(item) -> str:
    """Halting machines answer NO; otherwise decide by the definition."""
    from sinkeq.io import parse_game_file, parse_sidecar
    from sinkeq.turing import run_bounded

    if run_bounded(_load_tm(item["machine"])).halted:
        return "false"
    game_path = Path(item["game"])
    game = parse_game_file(game_path.read_bytes())
    sidecar = parse_sidecar(game_path.with_suffix(".symbols.json").read_bytes(), game)
    ok = _closure_is_strongly_connected(tuple(sidecar.initial), _anonymous_moves(game))
    return "true" if ok else "false"


def sat_has_pure(item) -> str:
    from sinkeq.cnf import parse_dimacs

    formula = parse_dimacs(Path(item["cnf"]).read_bytes())
    return "true" if satisfiable(formula.num_vars, formula.clauses) else "false"


def table_sinks(item) -> dict:
    """Pure equilibria and sink sizes of a table game, from its raw tables.

    Profiles are mixed-radix indices (player 0 varies fastest), the layout
    the document format specifies. Sinks are the bottom components of the
    improvement graph, found here with Kosaraju's two passes.
    """
    doc = json.loads(Path(item["game"]).read_text())
    counts, tables = doc["strategy_counts"], doc["tables"]
    weights, size = [], 1
    for c in counts:
        weights.append(size)
        size *= c
    succ = [[] for _ in range(size)]
    for k in range(size):
        for c, w, table in zip(counts, weights, tables):
            mine = (k // w) % c
            base = k - mine * w
            here = table[k]
            succ[k].extend(base + s * w for s in range(c) if table[base + s * w] > here)
    pure = sum(1 for k in range(size) if not succ[k])

    order, seen = [], [False] * size
    for root in range(size):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = [[] for _ in range(size)]
    for v in range(size):
        for w in succ[v]:
            pred[w].append(v)
    comp = [-1] * size
    sizes = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        label = len(sizes)
        comp[root] = label
        members, todo = 1, [root]
        while todo:
            v = todo.pop()
            for u in pred[v]:
                if comp[u] < 0:
                    comp[u] = label
                    members += 1
                    todo.append(u)
        sizes.append(members)
    closed = [True] * len(sizes)
    for v in range(size):
        for w in succ[v]:
            if comp[w] != comp[v]:
                closed[comp[v]] = False
    sink_sizes = sorted(s for s, c in zip(sizes, closed) if c)
    return {"pure": pure, "sink_sizes": sink_sizes}


def check_table(question: str, report: dict, ref: dict) -> bool:
    extra = report.get("extra", {})
    if question == "has-pure":
        return report["answer"] == ("true" if ref["pure"] else "false")
    if question == "sinks":
        return (extra.get("singletons") == ref["pure"]
                and sorted(extra.get("sink_sizes", [])) == ref["sink_sizes"])
    if question == "has-non-singleton":
        non_singleton = any(s > 1 for s in ref["sink_sizes"])
        return report["answer"] == ("true" if non_singleton else "false")
    raise ValueError(question)
