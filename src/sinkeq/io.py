"""Game, machine, and symbol-table documents (JSON, round-trip stable).

Every game document carries a ``class`` tag; strategy subsets serialize as
sorted index arrays and delay tables as sorted [load, delay] pairs, so
parse -> serialize -> parse is bit-exact. Every number in a document is a
JSON integer and every name a JSON string: anything else where a number or a
name belongs is a ``FormatError`` naming its path.

Each document's shape is written once, as data: ``int`` or ``str`` (a JSON
integer or string), ``list`` (an array of anything), ``[shape]`` (an array
whose entries have that shape), or a tuple of ``(key, shape)`` pairs (an
object with those keys, checked in that order). Two interpreters read a
shape. ``_fits`` checks documents in bulk, one C-level type pass per level,
and hands the loader the column of each key. ``_walk`` runs only when that
check refuses a document: it goes entry by entry and names the first bad
entry in document order. A sidecar's symbol tables follow the same pattern
with a check and a walk of their own (``_symbols_fit``, ``_symbols_walked``).
Delay tables, predicates and ground-set elements keep parsers of their own,
and every constructor still checks what it is given.
"""

from __future__ import annotations

import json
from itertools import chain, islice, product, repeat
from operator import itemgetter, lt
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
from .games.base import exact_ints
from .games.valid_utility import _powerset
from .turing import TMSpec

_TABLE = (("strategy_counts", [int]), ("tables", [[int]]))
_MARKET = (
    ("passive", [(("name", str), ("value", int), ("preference", [int]))]),
    ("active", [(("strategies", [[int]]), ("name", str))]),
)
# the strategies are named an array before the resources are checked, and
# their entries after: the order in which a document's faults are named
_CONGESTION = (("strategies", list), ("resources", [str]), ("strategies", [[[int]]]))
_RULE = (("state", int), ("read", str), ("next", int), ("write", str), ("move", str))
_MACHINE = (("delta", [_RULE]), ("states", int), ("q0", int), ("q_halt", int),
            ("t_prime", int))


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


def _int(value, path: str) -> int:
    if type(value) is not int:
        raise FormatError("expected an integer", path)
    return value


def _str(value, path: str) -> str:
    if type(value) is not str:
        raise FormatError("expected a string", path)
    return value


_ONLY_INT, _ONLY_LIST, _ONLY_DICT = frozenset({int}), frozenset({list}), frozenset({dict})
_LEAF_CHECKS = {int: _int, str: _str, list: _as_list}


def _fits(values: list, shape, columns: dict, scalars: bool = True, at: tuple = ()) -> bool:
    """Whether every one of ``values`` has ``shape``, checked with one
    C-level type pass per level. The column of each object key goes into
    ``columns`` under its path of keys, such as ``("passive", "name")``.
    With ``scalars`` false an array of integers or strings is checked as an
    array only, its entries left to a constructor that checks them itself."""
    if type(shape) is tuple:
        if not set(map(type, values)) <= _ONLY_DICT:
            return False
        for key, entry in shape:
            path = (*at, key)
            try:
                column = columns[path] = list(map(itemgetter(key), values))
            except KeyError:
                return False
            if not _fits(column, entry, columns, scalars, path):
                return False
        return True
    if type(shape) is not list:  # an integer, a string or an array of anything
        return set(map(type, values)) <= {shape}
    if not set(map(type, values)) <= _ONLY_LIST:
        return False
    entry = shape[0]
    if isinstance(entry, type):  # the last level, checked without a list of its entries
        return ((not scalars and entry is not list)
                or set(map(type, chain.from_iterable(values))) <= {entry})
    return _fits(list(chain.from_iterable(values)), entry, columns, scalars, at)


def _walk(value, shape, path: str) -> None:
    """Raise the ``FormatError`` of the first entry of ``value``, in
    document order, that does not have ``shape``."""
    if type(shape) is tuple:
        _as_dict(value, path)
        for key, entry in shape:
            _walk(_need(value, key, path), entry, f"{path}.{key}")
    elif type(shape) is list:
        for k, item in enumerate(_as_list(value, path)):
            _walk(item, shape[0], f"{path}[{k}]")
    else:
        _LEAF_CHECKS[shape](value, path)


def _check(value, shape, path: str, scalars: bool = True):
    """``value``, which must have ``shape``: checked in bulk, and walked to
    name its first bad entry only when the bulk check refuses it."""
    if not _fits([value], shape, {}, scalars):
        _walk(value, shape, path)
    return value


def _load_json(text: str | bytes) -> dict:
    """The top-level object of a document; bad JSON is a ``FormatError`` at ``$``."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return _as_dict(json.loads(text), "$")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"not valid JSON: {exc}", "$") from None
    except RecursionError:
        raise FormatError("document nested too deeply", "$") from None


def parse_game_file(text: str | bytes) -> SuccinctGame:
    doc = _load_json(text)
    try:
        return game_from_json(doc)
    except RecursionError:
        raise FormatError("document nested too deeply", "$") from None


def game_from_json(doc: dict) -> SuccinctGame:
    tag = _need(doc, "class", "$")
    try:
        if tag == "table":
            return _table_from_json(doc)
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


def _table_from_json(doc: dict) -> TableGame:
    # TableGame checks every number itself, in one pass: the bulk check here
    # takes the arrays only
    _check(doc, _TABLE, "$", scalars=False)
    try:
        return TableGame(doc["strategy_counts"], doc["tables"])
    except ConfigurationError:
        _walk(doc, _TABLE, "$")  # names a bad number before the constructor's fault
        raise


def _write(doc: dict) -> str:
    """A document as one line of compact JSON with sorted keys.

    ``indent`` would route every document through the pure-Python encoder;
    without it ``json.dumps`` uses its C encoder. The readers take any layout.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def serialize_game(game: SuccinctGame) -> str:
    return _write(game_to_json(game))


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


def _pairs_to_table(pairs, path) -> dict[int, int]:
    table = {}
    for k, pair in enumerate(_as_list(pairs, path)):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError("expected a [load, delay] pair", f"{path}[{k}]")
        if type(pair[0]) is not int or type(pair[1]) is not int:
            _walk(pair, [int], f"{path}[{k}]")
        if pair[0] in table:
            raise FormatError(f"load {pair[0]} is given twice", f"{path}[{k}]")
        table[pair[0]] = pair[1]
    return table


def _shared_tables(tables: list) -> list[dict[int, int]] | None:
    """Delay tables given as arrays of [load, delay] pairs, equal tables as
    one dict, parsed once; None unless every table is an array of pairs of
    two integers in which no load repeats."""
    if not set(map(type, tables)) <= _ONLY_LIST:
        return None
    pairs = list(chain.from_iterable(tables))
    # every number is checked before equal tables merge: 1, 1.0 and True are equal keys
    if not (set(map(type, pairs)) <= _ONLY_LIST and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= _ONLY_INT):
        return None
    # each table's loads and delays, interleaved, is its key
    keys = list(map(tuple, map(chain.from_iterable, tables)))
    parsed: dict[tuple, dict[int, int]] = dict.fromkeys(keys)
    for key in parsed:
        table = parsed[key] = dict(zip(key[::2], key[1::2]))
        if 2 * len(table) != len(key):  # a load repeats
            return None
    return list(map(parsed.__getitem__, keys))


def _delay_tables(value, path) -> list[dict[int, int]]:
    """An array of delay tables, each an array of [load, delay] pairs; a bad
    table is named by its first bad pair."""
    tables = _as_list(value, path)
    shared = _shared_tables(tables)
    if shared is None:
        return [_pairs_to_table(t, f"{path}[{k}]") for k, t in enumerate(tables)]
    return shared


def _congestion_to_json(game: CongestionGame) -> dict:
    pairs: dict[int, list] = {}  # id of a table -> its pairs, built once

    def delay_pairs(table):
        out = pairs.get(id(table))
        if out is None:
            out = pairs[id(table)] = [[load, table[load]] for load in sorted(table)]
        return out

    if game.mode == "shared":
        delays = list(map(delay_pairs, game.delays))
    else:
        delays = [list(map(delay_pairs, per)) for per in game.delays]
    return {
        "class": "congestion",
        "resources": list(game.resources),
        "mode": game.mode,
        "weights": list(game.weights),
        "strategies": [list(map(sorted, per_player)) for per_player in game.strategies],
        "delays": delays,
    }


def _congestion_from_json(doc: dict) -> CongestionGame:
    mode = doc.get("mode", "shared")
    raw = _need(doc, "delays", "$")
    if mode == "shared":
        delays = _delay_tables(raw, "$.delays")
    else:
        # one parse of every table in the document; per resource to name a bad one
        per_resource = _as_list(raw, "$.delays")
        shared = (_shared_tables(list(chain.from_iterable(per_resource)))
                  if set(map(type, per_resource)) <= _ONLY_LIST else None)
        if shared is None:
            delays = [_delay_tables(per, f"$.delays[{e}]")
                      for e, per in enumerate(per_resource)]
        else:
            tables = iter(shared)
            delays = [list(islice(tables, len(per))) for per in per_resource]
    _check(doc, _CONGESTION, "$")
    weights = doc.get("weights")
    return CongestionGame(
        resources=doc["resources"],
        strategies=doc["strategies"],
        delays=delays,
        weights=None if weights is None else _check(weights, [int], "$.weights"),
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
            strategy = _int(_need(rule, "strategy", rule_path), f"{rule_path}.strategy")
            try:
                when = predicate_from_json(_need(rule, "when", rule_path))
            except ConfigurationError as exc:
                raise FormatError(str(exc), f"{rule_path}.when") from None
            rules.append((strategy, when))
        players.append(AnonymousPlayer(
            name=_str(raw.get("name", f"player_{k}"), f"{path}.name"),
            allowed=frozenset(_check(_need(raw, "allowed", path), [int], f"{path}.allowed")),
            rules=tuple(rules),
        ))
    return AnonymousGame(_check(_need(doc, "strategies", "$"), [str], "$.strategies"), players)


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
    columns: dict = {}
    if not _fits([doc], _MARKET, columns):
        _walk(doc, _MARKET, "$")
    return TwoSidedMarketGame(
        list(map(PassiveAgent, columns["passive", "name"], columns["passive", "value"],
                 map(tuple, columns["passive", "preference"]))),
        list(map(ActiveAgent, columns["active", "name"],
                 [tuple(map(frozenset, per)) for per in columns["active", "strategies"]])),
    )


def _valid_utility_to_json(inst: ValidUtilityInstance) -> dict:
    utilities = []
    for profile in inst.codec.all_profiles():
        sets = inst.set_profile(profile)
        utilities.append([inst.utility_fn(sets, i) for i in range(inst.num_players)])
    subsets = list(product(*map(_powerset, inst.ground_sets)))
    social = list(map(inst.social_fn, subsets))
    # an oracle may return any number; a document holds integers only
    n = inst.num_players
    exact_ints(chain.from_iterable(utilities), lambda k: (
        f"profile {inst.codec.decode(k // n)}: the utility of player {k % n}"))
    exact_ints(social, lambda k: f"the social value at {[sorted(s) for s in subsets[k]]}")
    return {
        "class": "valid_utility",
        "ground_sets": [list(g) for g in inst.ground_sets],
        "feasible": [
            [sorted(s) for s in family] for family in inst.feasible
        ],
        "utilities": utilities,
        "social": social,
    }


def _elements(value, path: str) -> list:
    values = _as_list(value, path)
    for k, v in enumerate(values):
        if isinstance(v, (list, dict)):
            raise FormatError("expected a ground-set element, not a container",
                              f"{path}[{k}]")
    return values


def _valid_utility_from_json(doc: dict) -> ValidUtilityInstance:
    ground_sets = [
        tuple(_elements(g, f"$.ground_sets[{i}]"))
        for i, g in enumerate(_as_list(_need(doc, "ground_sets", "$"), "$.ground_sets"))
    ]
    feasible = [
        tuple(
            frozenset(_elements(s, f"$.feasible[{i}][{k}]"))
            for k, s in enumerate(_as_list(family, f"$.feasible[{i}]"))
        )
        for i, family in enumerate(_as_list(_need(doc, "feasible", "$"), "$.feasible"))
    ]
    if len(feasible) != len(ground_sets):
        raise FormatError(
            f"{len(feasible)} feasible families for {len(ground_sets)} ground sets",
            "$.feasible",
        )
    utilities = _check(_need(doc, "utilities", "$"), [[int]], "$.utilities")
    for k, row in enumerate(utilities):
        if len(row) != len(ground_sets):
            raise FormatError(f"expected {len(ground_sets)} utilities", f"$.utilities[{k}]")
    social = _check(_need(doc, "social", "$"), [int], "$.social")
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

    def utility_fn(sets, player):
        profile = tuple(fam_index[(i, s)] for i, s in enumerate(sets))
        return utilities[inst.codec.encode(profile)][player]

    def social_fn(sets):
        return lattice[tuple(sets)]

    inst = ValidUtilityInstance(ground_sets, feasible, utility_fn, social_fn)
    expected = inst.codec.num_profiles
    if len(utilities) != expected:
        raise FormatError(
            f"utilities table has {len(utilities)} rows, profile space {expected}",
            "$.utilities",
        )
    return inst


def serialize_tm(spec: TMSpec) -> str:
    return _write(_tm_to_json(spec))


def _tm_to_json(spec: TMSpec) -> dict:
    """The machine document, also a sidecar's ``machine`` entry."""
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
    return doc


def parse_tm_file(text: str | bytes) -> TMSpec:
    return _tm_from_json(_load_json(text), "$")


def _tm_from_json(doc: dict, path: str) -> TMSpec:
    """The machine of a machine document, or of a sidecar's ``machine`` entry."""
    columns: dict = {}
    if not _fits([doc], _MACHINE, columns):
        _walk(doc, _MACHINE, path)
    keys = list(zip(columns["delta", "state"], columns["delta", "read"]))
    delta = dict(zip(keys, zip(columns["delta", "next"], columns["delta", "write"],
                               columns["delta", "move"])))
    if len(delta) < len(keys):
        k = next(k for k, key in enumerate(keys) if keys.index(key) < k)
        raise FormatError(f"a second rule for state {keys[k][0]} reading {keys[k][1]!r}",
                          f"{path}.delta[{k}]")
    try:
        return TMSpec(
            num_states=doc["states"],
            q0=doc["q0"],
            q_halt=doc["q_halt"],
            t_prime=doc["t_prime"],
            delta=delta,
            state_names=tuple(_check(doc.get("state_names", []), [str], f"{path}.state_names")),
        )
    except ConfigurationError as exc:
        raise FormatError(str(exc), path) from None


def serialize_sidecar(compiled: CompiledReduction) -> str:
    return _write({
        "players": compiled.symbols.players,
        "strategies": compiled.symbols.strategies,
        "initial": list(compiled.initial),
        "penalty": compiled.penalty,
        "market_base": compiled.market_base,
        "machine": _tm_to_json(compiled.machine) if compiled.machine else None,
    })


def _int_values(value, path: str, bound: int) -> dict:
    """An object of integers in [0, ``bound``); the error names the bad key."""
    mapping = _as_dict(value, path)
    for key, index in mapping.items():
        if not 0 <= _int(index, f"{path}.{key}") < bound:
            raise FormatError(f"{index} is out of range [0, {bound})", f"{path}.{key}")
    return mapping


def _opt_int(value, path: str) -> int | None:
    return None if value is None else _int(value, path)


def _symbols_fit(players, strategies, counts) -> bool:
    """Whether ``players`` and ``strategies`` are a sidecar's symbol tables,
    checked in bulk: every index an integer in range for its player's
    strategy counts, and every role of ``strategies`` a role of ``players``."""
    if type(players) is not dict or type(strategies) is not dict:
        return False
    tables = strategies.values()
    if not (set(map(type, players.values())) <= _ONLY_INT
            and set(map(type, tables)) <= _ONLY_DICT and strategies.keys() <= players.keys()):
        return False
    if players and not (min(players.values()) >= 0 and max(players.values()) < len(counts)):
        return False
    indices = list(chain.from_iterable(map(dict.values, tables)))
    if indices and not (set(map(type, indices)) <= _ONLY_INT and min(indices) >= 0):
        return False
    bounds = map(counts.__getitem__, map(players.__getitem__, strategies))
    return all(map(lt, indices, chain.from_iterable(map(repeat, bounds, map(len, tables)))))


def _symbols_walked(doc: dict, counts) -> SymbolTable:
    """The symbol table of a sidecar, entry by entry: the first bad entry,
    in document order, raises its ``FormatError``."""
    symbols = SymbolTable()
    players = _int_values(_need(doc, "players", "$"), "$.players", len(counts))
    for role, idx in sorted(players.items(), key=itemgetter(1)):
        symbols.add_player(role, idx)
    for role, table in _as_dict(_need(doc, "strategies", "$"), "$.strategies").items():
        path = f"$.strategies.{role}"
        if role not in players:
            raise FormatError(f"role {role!r} is not in $.players", path)
        for name, idx in _int_values(table, path, counts[players[role]]).items():
            symbols.add_strategy(role, name, idx)
    return symbols


def parse_sidecar(text: str | bytes, game: SuccinctGame) -> CompiledReduction:
    """The reduction a sidecar describes, its indices and ``initial`` checked against ``game``."""
    doc = _load_json(text)
    counts = game.strategy_counts
    players, strategies = doc.get("players"), doc.get("strategies")
    if _symbols_fit(players, strategies, counts):
        players = dict(sorted(players.items(), key=itemgetter(1)))
        tables = dict.fromkeys(players) | strategies  # in player order
        if len(strategies) < len(players):
            for role in players.keys() - strategies.keys():
                tables[role] = {}
        symbols = SymbolTable.of(players, tables)
    else:
        symbols = _symbols_walked(doc, counts)
    try:
        initial = game.validate_profile(_check(_need(doc, "initial", "$"), [int], "$.initial"))
    except ValueError as exc:
        raise FormatError(str(exc), "$.initial") from None
    machine = doc.get("machine")
    return CompiledReduction(
        game=game,
        initial=initial,
        symbols=symbols,
        machine=None if machine is None else _tm_from_json(machine, "$.machine"),
        penalty=_opt_int(doc.get("penalty"), "$.penalty"),
        market_base=_opt_int(doc.get("market_base"), "$.market_base"),
    )
