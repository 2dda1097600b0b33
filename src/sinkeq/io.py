"""Game, machine, and symbol-table documents (JSON, round-trip stable).

Every game document carries a ``class`` tag; strategy subsets serialize as
sorted index arrays and delay tables as sorted [load, delay] pairs, so
parse -> serialize -> parse is bit-exact.
"""

from __future__ import annotations

import json
from itertools import product
from typing import Any

from .compilers.common import CompiledReduction, SymbolTable
from .errors import ConfigurationError, FormatError
from .games import (
    AnonymousGame,
    AnonymousPlayer,
    ActiveAgent,
    CongestionGame,
    PassiveAgent,
    SuccinctGame,
    TableGame,
    TwoSidedMarketGame,
    ValidUtilityInstance,
    predicate_from_json,
)
from .games.valid_utility import _powerset
from .turing import TMSpec

GAME_CLASSES = ("table", "congestion", "anonymous", "market", "valid_utility")


def _need(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise FormatError(f"missing key {key!r}", path)
    return doc[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError("expected an object", path)
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise FormatError("expected an array", path)
    return value


def parse_game_file(text: str | bytes) -> SuccinctGame:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
        return game_from_json(_as_dict(doc, "$"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", "$") from None
    except RecursionError:
        raise FormatError("document nested too deeply", "$") from None


def game_from_json(doc: dict) -> SuccinctGame:
    tag = _need(doc, "class", "$")
    try:
        if tag == "table":
            tables = _as_list(_need(doc, "tables", "$"), "$.tables")
            return TableGame(
                _as_list(_need(doc, "strategy_counts", "$"), "$.strategy_counts"),
                [_as_list(t, f"$.tables[{i}]") for i, t in enumerate(tables)],
            )
        if tag == "congestion":
            return _congestion_from_json(doc)
        if tag == "anonymous":
            return _anonymous_from_json(doc)
        if tag == "market":
            return _market_from_json(doc)
        if tag == "valid_utility":
            return _valid_utility_from_json(doc)
    except ConfigurationError as exc:
        raise FormatError(str(exc), f"$.{tag}") from None
    raise FormatError(f"unknown game class {tag!r}", "$.class")


def serialize_game(game: SuccinctGame) -> str:
    return json.dumps(game_to_json(game), sort_keys=True, indent=1) + "\n"


def game_to_json(game: SuccinctGame) -> dict:
    if isinstance(game, TableGame):
        return {
            "class": "table",
            "strategy_counts": list(game.strategy_counts),
            "tables": [list(t) for t in game.tables],
        }
    if isinstance(game, CongestionGame):
        return _congestion_to_json(game)
    if isinstance(game, AnonymousGame):
        return _anonymous_to_json(game)
    if isinstance(game, TwoSidedMarketGame):
        return _market_to_json(game)
    if isinstance(game, ValidUtilityInstance):
        return _valid_utility_to_json(game)
    raise FormatError(f"cannot serialize {type(game).__name__}")


def _delay_pairs(table: dict) -> list[list[int]]:
    return [[load, table[load]] for load in sorted(table)]


def _pairs_to_table(pairs, path) -> dict[int, int]:
    table = {}
    for k, pair in enumerate(_as_list(pairs, path)):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError("expected a [load, delay] pair", f"{path}[{k}]")
        table[int(pair[0])] = int(pair[1])
    return table


def _congestion_to_json(game: CongestionGame) -> dict:
    if game.mode == "shared":
        delays = [_delay_pairs(t) for t in game.delays]
    else:
        delays = [[_delay_pairs(t) for t in per] for per in game.delays]
    return {
        "class": "congestion",
        "resources": list(game.resources),
        "mode": game.mode,
        "weights": list(game.weights),
        "strategies": [
            [sorted(s) for s in per_player] for per_player in game.strategies
        ],
        "delays": delays,
    }


def _congestion_from_json(doc: dict) -> CongestionGame:
    mode = doc.get("mode", "shared")
    raw = _as_list(_need(doc, "delays", "$"), "$.delays")
    if mode == "shared":
        delays = [_pairs_to_table(t, f"$.delays[{e}]") for e, t in enumerate(raw)]
    else:
        delays = [
            [_pairs_to_table(t, f"$.delays[{e}][{i}]") for i, t in enumerate(per)]
            for e, per in enumerate(raw)
        ]
    return CongestionGame(
        resources=_need(doc, "resources", "$"),
        strategies=_need(doc, "strategies", "$"),
        delays=delays,
        weights=doc.get("weights"),
        mode=mode,
    )


def _anonymous_to_json(game: AnonymousGame) -> dict:
    return {
        "class": "anonymous",
        "strategies": list(game.strategy_names),
        "players": [
            {
                "name": p.name,
                "allowed": sorted(p.allowed),
                "rules": [
                    {"strategy": s, "when": pred.to_json()} for s, pred in p.rules
                ],
            }
            for p in game.players
        ],
    }


def _anonymous_from_json(doc: dict) -> AnonymousGame:
    players = []
    for k, raw in enumerate(_as_list(_need(doc, "players", "$"), "$.players")):
        path = f"$.players[{k}]"
        raw = _as_dict(raw, path)
        rules = []
        for r, rule in enumerate(_as_list(raw.get("rules", []), f"{path}.rules")):
            rule_path = f"{path}.rules[{r}]"
            rule = _as_dict(rule, rule_path)
            strategy = int(_need(rule, "strategy", rule_path))
            try:
                when = predicate_from_json(_need(rule, "when", rule_path))
            except ConfigurationError as exc:
                raise FormatError(str(exc), f"{rule_path}.when") from None
            rules.append((strategy, when))
        players.append(AnonymousPlayer(
            name=str(raw.get("name", f"player_{k}")),
            allowed=frozenset(int(s) for s in _need(raw, "allowed", path)),
            rules=tuple(rules),
        ))
    return AnonymousGame(_as_list(_need(doc, "strategies", "$"), "$.strategies"), players)


def _market_to_json(game: TwoSidedMarketGame) -> dict:
    return {
        "class": "market",
        "passive": [
            {"name": p.name, "value": p.value, "preference": list(p.preference)}
            for p in game.passive
        ],
        "active": [
            {"name": a.name, "strategies": [sorted(s) for s in a.strategies]}
            for a in game.active
        ],
    }


def _market_from_json(doc: dict) -> TwoSidedMarketGame:
    passive = []
    for k, raw in enumerate(_as_list(_need(doc, "passive", "$"), "$.passive")):
        raw = _as_dict(raw, f"$.passive[{k}]")
        passive.append(PassiveAgent(
            name=str(_need(raw, "name", f"$.passive[{k}]")),
            value=int(_need(raw, "value", f"$.passive[{k}]")),
            preference=tuple(int(x) for x in _need(raw, "preference", f"$.passive[{k}]")),
        ))
    active = []
    for k, raw in enumerate(_as_list(_need(doc, "active", "$"), "$.active")):
        raw = _as_dict(raw, f"$.active[{k}]")
        active.append(ActiveAgent(
            name=str(_need(raw, "name", f"$.active[{k}]")),
            strategies=tuple(
                frozenset(int(y) for y in s)
                for s in _need(raw, "strategies", f"$.active[{k}]")
            ),
        ))
    return TwoSidedMarketGame(passive, active)


def _valid_utility_to_json(inst: ValidUtilityInstance) -> dict:
    utilities = []
    for profile in inst.codec.all_profiles():
        sets = inst.set_profile(profile)
        utilities.append([inst.utility_fn(sets, i) for i in range(inst.num_players)])
    social = [inst.social_fn(p) for p in product(*map(_powerset, inst.ground_sets))]
    return {
        "class": "valid_utility",
        "ground_sets": [list(g) for g in inst.ground_sets],
        "feasible": [
            [sorted(s) for s in family] for family in inst.feasible
        ],
        "utilities": utilities,
        "social": social,
    }


def _valid_utility_from_json(doc: dict) -> ValidUtilityInstance:
    ground_sets = [tuple(g) for g in _need(doc, "ground_sets", "$")]
    feasible = [
        tuple(frozenset(s) for s in family)
        for family in _need(doc, "feasible", "$")
    ]
    utilities = _need(doc, "utilities", "$")
    social = _as_list(_need(doc, "social", "$"), "$.social")
    subsets = list(product(*map(_powerset, ground_sets)))
    if len(social) != len(subsets):
        raise FormatError(
            f"social table has {len(social)} entries, subset lattice {len(subsets)}",
            "$.social",
        )
    lattice = dict(zip(subsets, social))
    fam_index = {}
    for i, family in enumerate(feasible):
        for k, s in enumerate(family):
            fam_index[(i, s)] = k

    inst = ValidUtilityInstance.__new__(ValidUtilityInstance)

    def utility_fn(sets, player):
        profile = tuple(fam_index[(i, s)] for i, s in enumerate(sets))
        return utilities[inst.codec.encode(profile)][player]

    def social_fn(sets):
        return lattice[tuple(sets)]

    ValidUtilityInstance.__init__(inst, ground_sets, feasible, utility_fn, social_fn)
    expected = inst.codec.num_profiles
    if len(utilities) != expected:
        raise FormatError(
            f"utilities table has {len(utilities)} rows, profile space {expected}",
            "$.utilities",
        )
    return inst


def serialize_tm(spec: TMSpec) -> str:
    delta = [
        {"state": q, "read": sym, "next": q2, "write": w, "move": mv}
        for (q, sym), (q2, w, mv) in sorted(spec.delta.items())
    ]
    doc = {
        "states": spec.num_states,
        "q0": spec.q0,
        "q_halt": spec.q_halt,
        "t_prime": spec.t_prime,
        "delta": delta,
    }
    if spec.state_names:
        doc["state_names"] = list(spec.state_names)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_tm_file(text: str | bytes) -> TMSpec:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", "$") from None
    doc = _as_dict(doc, "$")
    delta = {}
    for k, rule in enumerate(_as_list(_need(doc, "delta", "$"), "$.delta")):
        rule = _as_dict(rule, f"$.delta[{k}]")
        key = (int(_need(rule, "state", f"$.delta[{k}]")),
               str(_need(rule, "read", f"$.delta[{k}]")))
        delta[key] = (
            int(_need(rule, "next", f"$.delta[{k}]")),
            str(_need(rule, "write", f"$.delta[{k}]")),
            str(_need(rule, "move", f"$.delta[{k}]")),
        )
    try:
        return TMSpec(
            num_states=int(_need(doc, "states", "$")),
            q0=int(_need(doc, "q0", "$")),
            q_halt=int(_need(doc, "q_halt", "$")),
            t_prime=int(_need(doc, "t_prime", "$")),
            delta=delta,
            state_names=tuple(doc.get("state_names", ())),
        )
    except ConfigurationError as exc:
        raise FormatError(str(exc), "$") from None


def serialize_sidecar(compiled: CompiledReduction) -> str:
    doc = {
        "players": dict(sorted(compiled.symbols.players.items())),
        "strategies": {
            role: dict(sorted(table.items()))
            for role, table in sorted(compiled.symbols.strategies.items())
        },
        "initial": list(compiled.initial),
        "penalty": compiled.penalty,
        "market_base": compiled.market_base,
        "machine": json.loads(serialize_tm(compiled.machine)) if compiled.machine else None,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_sidecar(text: str | bytes, game: SuccinctGame) -> CompiledReduction:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    doc = _as_dict(json.loads(text), "$")
    symbols = SymbolTable()
    for role, idx in sorted(
        _as_dict(_need(doc, "players", "$"), "$.players").items(), key=lambda kv: kv[1]
    ):
        symbols.add_player(role, int(idx))
    for role, table in _as_dict(_need(doc, "strategies", "$"), "$.strategies").items():
        for name, idx in table.items():
            symbols.add_strategy(role, name, int(idx))
    machine = doc.get("machine")
    spec = None
    if machine is not None:
        spec = parse_tm_file(json.dumps(machine))
    return CompiledReduction(
        game=game,
        initial=tuple(int(c) for c in _need(doc, "initial", "$")),
        symbols=symbols,
        machine=spec,
        penalty=doc.get("penalty"),
        market_base=doc.get("market_base"),
    )
