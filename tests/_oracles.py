"""Independent oracles the tests check the library against.

Everything here is deliberately written from the definitions, without reusing
the library's graph code paths; only ``successors_by_rows`` reads the
library's evaluation hook, and it is checked against ``successors_pointwise``.
"""

from __future__ import annotations

import itertools

from sinkeq.compilers.tm_gadget import ControlTuple, GadgetStructure, control_tuples
from sinkeq.turing import MOVE_OFFSET, SYMBOLS


def congestion_cost_by_resource(game, profile, player):
    """Per-resource accumulation written independently of CongestionGame.cost."""
    total = 0
    for e in game.strategies[player][profile[player]]:
        users = [i for i, c in enumerate(profile) if e in game.strategies[i][c]]
        if game.mode == "shared":
            load = sum(game.weights[i] for i in users)
            total += game.delays[e][load]
        else:
            total += game.delays[e][player][len(users)]
    return total


def alpha_ne_pointwise(game, profile, alpha):
    """alpha-Nash from the definition: no player has a move that costs less
    than (1 - alpha) of its current cost, every cost priced per resource."""
    for player, current in enumerate(profile):
        here = congestion_cost_by_resource(game, profile, player)
        for s in range(len(game.strategies[player])):
            moved = profile[:player] + (s,) + profile[player + 1:]
            if s != current and (
                    congestion_cost_by_resource(game, moved, player) < (1 - alpha) * here):
                return False
    return True


def market_utility_by_winner_sets(game, profile, player):
    """Recompute a market utility by scanning every passive agent."""
    total = 0
    for y, passive in enumerate(game.passive):
        demanders = [
            x for x, c in enumerate(profile) if y in game.active[x].strategies[c]
        ]
        if not demanders:
            continue
        best = min(demanders, key=lambda x: passive.preference.index(x))
        if best == player:
            total += passive.value
    return total


def is_stable_pointwise(game, profile, p):
    """Whether player ``p``'s utility does not rise by changing only its own
    strategy, every utility evaluated pointwise through ``game.utility``."""
    profile = tuple(profile)
    here = game.utility(profile, p)
    return all(game.utility(profile[:p] + (s,) + profile[p + 1:], p) <= here
               for s in range(game.strategy_counts[p]))


def is_pure_ne_pointwise(game, profile):
    """Whether no player's utility rises by changing only its own strategy,
    every utility evaluated pointwise through ``game.utility``."""
    return all(is_stable_pointwise(game, profile, p) for p in range(game.num_players))


def brute_force_pure_nes(game):
    """Every pure Nash equilibrium, from the definition, at every profile."""
    return {profile for profile in itertools.product(*map(range, game.strategy_counts))
            if is_pure_ne_pointwise(game, profile)}


def successors_pointwise(game, profile, best_response=False):
    """(next profile, mover) for each qualifying move, movers ascending and
    each mover's strategies ascending, every utility evaluated pointwise
    through ``game.utility``: each strict improvement, or under best
    response each improving strategy of maximum utility."""
    profile = tuple(profile)
    out = []
    for p, count in enumerate(game.strategy_counts):
        moved = [profile[:p] + (s,) + profile[p + 1:] for s in range(count)]
        values = [game.utility(m, p) for m in moved]
        here, best = values[profile[p]], max(values)
        out.extend((m, p) for m, u in zip(moved, values)
                   if u > here and (u == best or not best_response))
    return out


def successors_by_rows(game, profile, best_response=False):
    """``successors_pointwise`` with each player's utilities read as one whole
    ``game.deviation_utilities`` row, fast enough for compiled gadgets; the
    improvement and best-response rules are applied here, not by the library."""
    profile = tuple(profile)
    out = []
    for p in range(len(profile)):
        row = list(game.deviation_utilities(profile, p))
        here, best = row[profile[p]], max(row)
        out.extend((profile[:p] + (s,) + profile[p + 1:], p) for s, u in enumerate(row)
                   if u > here and (u == best or not best_response))
    return out


def states_reaching_no_equilibrium(game, best_response=False):
    """Every profile from which no sequence of qualifying moves reaches a
    pure Nash equilibrium (a profile without a qualifying move), found by a
    breadth-first search backwards from the equilibria."""
    profiles = list(itertools.product(*map(range, game.strategy_counts)))
    predecessors = {v: [] for v in profiles}
    reached = []
    for v in profiles:
        successors = successors_pointwise(game, v, best_response)
        for w, _ in successors:
            predecessors[w].append(v)
        if not successors:
            reached.append(v)
    seen = set(reached)
    for w in reached:  # grows while it is read
        for v in predecessors[w]:
            if v not in seen:
                seen.add(v)
                reached.append(v)
    return set(profiles) - seen


def bitset_bottom_sccs(num_vertices, successor_indices):
    """Bottom SCCs via boolean transitive closure over integer bitsets.

    ``successor_indices(v)`` yields successor vertex indices. Two vertices are
    in one SCC iff they reach each other; a component is a sink iff its
    reachability set equals the component.
    """
    reach = []
    for v in range(num_vertices):
        mask = 1 << v
        for w in successor_indices(v):
            mask |= 1 << w
        reach.append(mask)
    changed = True
    while changed:
        changed = False
        for v in range(num_vertices):
            acc = reach[v]
            m = acc
            while m:
                low = m & -m
                w = low.bit_length() - 1
                acc |= reach[w]
                m ^= low
            if acc != reach[v]:
                reach[v] = acc
                changed = True
    assigned = [None] * num_vertices
    components = []
    for v in range(num_vertices):
        if assigned[v] is not None:
            continue
        comp = [
            w for w in range(num_vertices)
            if reach[v] >> w & 1 and reach[w] >> v & 1
        ]
        for w in comp:
            assigned[w] = len(components)
        components.append(comp)
    bottoms = []
    for comp in components:
        members = set(comp)
        if all(w in members for v in comp for w in successor_indices(v)):
            bottoms.append(frozenset(comp))
    return components, bottoms


def code_successors(game, best_response=False):
    """Every profile code's successor codes, in canonical order, from
    ``successors_pointwise``: entry k lists the moves of ``decode(k)``."""
    codec = game.codec
    return [[codec.encode(w) for w, _ in successors_pointwise(game, codec.decode(k), best_response)]
            for k in range(codec.num_profiles)]


def kosaraju_bottom_sccs(successors):
    """The bottom SCCs of the digraph whose vertex v has the successors
    ``successors[v]``, as frozensets, by two depth-first passes (Kosaraju):
    finish order on the graph, then components on the reversed graph in
    reverse finish order. Linear time, for graphs too large for
    ``bitset_bottom_sccs``."""
    n = len(successors)
    seen, finished = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(successors[root]))]
        while stack:
            v, targets = stack[-1]
            for w in targets:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(successors[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    predecessors = [[] for _ in range(n)]
    for v, targets in enumerate(successors):
        for w in targets:
            predecessors[w].append(v)
    component = [None] * n
    members = []
    for root in reversed(finished):
        if component[root] is not None:
            continue
        component[root] = len(members)
        todo, found = [root], [root]
        while todo:
            for u in predecessors[todo.pop()]:
                if component[u] is None:
                    component[u] = len(members)
                    todo.append(u)
                    found.append(u)
        members.append(found)
    return [frozenset(m) for c, m in enumerate(members)
            if all(component[w] == c for v in m for w in successors[v])]


def brute_force_satisfiable(formula):
    for bits in itertools.product([False, True], repeat=formula.num_vars):
        if formula.evaluate(dict(zip(range(1, formula.num_vars + 1), bits))):
            return True
    return False


def direct_tm_rejects(machine, x, t, halt_is_accept=False, max_steps=1_000_000):
    """Simulate a machine on input x within t cells, with cycle detection.

    Returns True when the run halts (and halting means reject). Leaving the
    workspace or cycling counts as non-rejecting, matching the wrapper's
    erase-and-restart behavior.
    """
    tape = ["b"] * t
    for k, ch in enumerate(x):
        tape[k] = ch
    state, head = machine.q0, 0
    seen = set()
    for _ in range(max_steps):
        if state == machine.q_halt:
            return not halt_is_accept
        key = (state, head, tuple(tape))
        if key in seen:
            return False
        seen.add(key)
        q2, write, move = machine.delta[(state, tape[head])]
        tape[head] = write
        head += {"L": -1, "S": 0, "R": 1}[move]
        state = q2
        if not 0 <= head < t:
            return False
    raise RuntimeError("oracle did not resolve")


def anonymous_predicate_holds(doc, hist):
    """Whether an anonymous-game predicate, given as its JSON form, holds on
    the occupancy histogram ``hist``; reads the document, not the AST."""
    if "and" in doc:
        return all(anonymous_predicate_holds(part, hist) for part in doc["and"])
    gap = _anonymous_expr_value(doc["lhs"], hist) - _anonymous_expr_value(doc["rhs"], hist)
    return {"==": gap == 0, "<": gap < 0, ">": gap > 0, "<=": gap <= 0, ">=": gap >= 0}[doc["cmp"]]


def _anonymous_expr_value(doc, hist):
    if "const" in doc:
        return doc["const"]
    if "count" in doc:
        return hist[doc["count"]]
    if "add" in doc:
        return sum(_anonymous_expr_value(operand, hist) for operand in doc["add"])
    lhs, rhs = doc["sub"]
    return _anonymous_expr_value(lhs, hist) - _anonymous_expr_value(rhs, hist)


def gadget_structure_by_name(spec, market_halt_nn=False):
    """The machine gadget's ``GadgetStructure``, every resource interned by
    its name on first use: the reference for ``build_structure``, which
    lays the resources out in index blocks instead."""
    tuples = control_tuples(spec)
    t_prime = spec.t_prime
    n_states = spec.num_states

    names: list[str] = []
    kinds: list[str] = []
    index: dict[str, int] = {}

    def res(name: str, kind: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
            kinds.append(kind)
        return index[name]

    a_state = [res(f"a_state_{q}", "alpha") for q in range(n_states)]
    b_state = [res(f"b_state_{q}", "beta") for q in range(n_states)]
    a_pos = [res(f"a_pos_{i}", "alpha") for i in range(t_prime + 1)]
    b_pos = [res(f"b_pos_{i}", "beta") for i in range(t_prime + 1)]
    cells = [(i, s) for i in range(t_prime + 1) for s in SYMBOLS]
    a_cell = {(i, s): res(f"a_cell_{i}_{s}", "alpha") for i, s in cells}
    b_cell = {(i, s): res(f"b_cell_{i}_{s}", "beta") for i, s in cells}
    ctrl = {}
    for kind in ("W", "V"):
        for t in tuples:
            for sup in ("0", "1"):
                ctrl[(kind, t, "a", sup)] = res(f"a{sup}_{kind}_{t.tag()}", "alpha")
                ctrl[(kind, t, "b", sup)] = res(f"b{sup}_{kind}_{t.tag()}", "beta")
    a0_d, a1_d = res("a0_D", "alpha"), res("a1_D", "alpha")
    b0_d, b1_d = res("b0_D", "beta"), res("b1_D", "beta")
    trigger_main = res("TriggerMain", "TriggerMain")
    trigger_clock = res("TriggerClock", "TriggerClock")

    player_roles: list[str] = []
    strategy_names: list[list[str]] = []
    strategy_resources: list[list[list[int]]] = []

    def add_player(role, strat_names, strat_resources):
        player_roles.append(role)
        strategy_names.append(strat_names)
        strategy_resources.append(strat_resources)

    add_player(
        "state",
        [f"q{q}" for q in range(n_states)],
        [[a_state[q], b_state[q]] for q in range(n_states)],
    )
    add_player(
        "position",
        [f"p{i}" for i in range(t_prime + 1)],
        [[a_pos[i], b_pos[i]] for i in range(t_prime + 1)],
    )
    for i in range(t_prime + 1):
        add_player(
            f"cell_{i}",
            list(SYMBOLS),
            [[a_cell[(i, s)], b_cell[(i, s)]] for s in SYMBOLS],
        )
    for kind in ("W", "V"):
        for t in tuples:
            add_player(
                f"control_{kind}_{t.tag()}",
                ["Zero", "One"],
                [
                    [ctrl[(kind, t, "b", "1")], ctrl[(kind, t, "a", "1")]],
                    [ctrl[(kind, t, "b", "0")], ctrl[(kind, t, "a", "0")]],
                ],
            )
    add_player("control_D", ["Zero", "One"], [[b0_d, a0_d], [b1_d, a1_d]])

    trans_names: list[str] = ["Wait"]
    wait_resources = (
        [ctrl[("W", t, "b", "1")] for t in tuples]
        + [ctrl[("V", t, "b", "1")] for t in tuples]
        + [a1_d, trigger_main]
    )
    trans_resources: list[list[int]] = [wait_resources]

    for q in range(n_states):
        if q == spec.q_halt:
            continue
        for i in range(t_prime + 1):
            for sym in SYMBOLS:
                q2, sym2, move = spec.delta[(q, sym)]
                i2 = i + MOVE_OFFSET[move]
                if not 0 <= i2 <= t_prime:
                    continue  # a strategy for an off-tape step is never emitted
                target = ControlTuple(q2, i2, i, sym2)
                trans_names.append(f"Read_{q}_{i}_{sym}")
                trans_resources.append(
                    [b_state[p] for p in range(n_states) if p != q]
                    + [b_pos[j] for j in range(t_prime + 1) if j != i]
                    + [b_cell[(i, s)] for s in SYMBOLS if s != sym]
                    + [b1_d, ctrl[("W", target, "a", "0")],
                       res(f"nn_read_{q}_{i}_{sym}", "nn_read")]
                )
    for t in tuples:
        trans_names.append(f"Write_{t.tag()}")
        trans_resources.append(
            [a_state[p] for p in range(n_states) if p != t.q2]
            + [a_pos[j] for j in range(t_prime + 1) if j != t.i2]
            + [a_cell[(t.i, s)] for s in SYMBOLS if s != t.sym2]
            + [ctrl[("V", t, "a", "0")], ctrl[("W", t, "b", "0")],
               res(f"nn_write_{t.tag()}", "nn_write")]
        )
    for t in tuples:
        trans_names.append(f"Verify_{t.tag()}")
        trans_resources.append(
            [b_state[p] for p in range(n_states) if p != t.q2]
            + [b_pos[j] for j in range(t_prime + 1) if j != t.i2]
            + [b_cell[(t.i, s)] for s in SYMBOLS if s != t.sym2]
            + [ctrl[("V", t, "b", "0")], a0_d, res(f"nn_verify_{t.tag()}", "nn_verify")]
        )
    trans_names.append("Done")
    trans_resources.append(
        [trigger_clock, b0_d]
        + [ctrl[("W", t, "a", "1")] for t in tuples]
        + [ctrl[("V", t, "a", "1")] for t in tuples]
        + [res("nn_done", "nn_done")]
    )
    trans_names.append("Halt")
    halt_resources = [b_state[p] for p in range(n_states) if p != spec.q_halt]
    if market_halt_nn:
        halt_resources.append(res("nn_halt", "nn_halt"))
    trans_resources.append(halt_resources)
    add_player("transition", trans_names, trans_resources)

    add_player(
        "clock",
        ["Trigger", "Wait"],
        [[trigger_main, trigger_clock], [res("nn_clock_wait", "nn_clock_wait")]],
    )

    return GadgetStructure(
        tuples=tuples,
        resource_names=names,
        resource_kinds=kinds,
        player_roles=player_roles,
        strategy_names=strategy_names,
        strategy_resources=strategy_resources,
    )
