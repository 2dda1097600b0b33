"""Anonymous games: utilities depend on own strategy plus occupancy counts.

The predicate mini-language is a closed AST over strategy-occupancy counts:
integer constants, count references, + and -, the five comparisons, and
conjunction. A rule list per (player, strategy) acts as a disjunction; any
firing rule yields utility 2, otherwise an allowed strategy yields 1 and a
disallowed one 0. Counts include the evaluating player's own choice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from ..errors import ConfigurationError
from ..profiles import Profile, ProfileCodec
from .base import SuccinctGame, exact_ints

_OPS = {
    "==": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        if type(self.value) is not int:
            raise ConfigurationError(f"constant {self.value!r} is not an integer")

    def eval(self, hist) -> int:
        return self.value

    def add_refs(self, refs: list):
        pass

    def to_json(self):
        return {"const": self.value}


@dataclass(frozen=True)
class Count:
    strategy: int

    def eval(self, hist) -> int:
        return hist[self.strategy]

    def add_refs(self, refs: list):
        refs.append(self.strategy)

    def to_json(self):
        return {"count": self.strategy}


@dataclass(frozen=True)
class Add:
    lhs: object
    rhs: object

    def eval(self, hist) -> int:
        return self.lhs.eval(hist) + self.rhs.eval(hist)

    def add_refs(self, refs: list):
        self.lhs.add_refs(refs)
        self.rhs.add_refs(refs)

    def to_json(self):
        return {"add": [self.lhs.to_json(), self.rhs.to_json()]}


@dataclass(frozen=True)
class Sub:
    lhs: object
    rhs: object

    def eval(self, hist) -> int:
        return self.lhs.eval(hist) - self.rhs.eval(hist)

    def add_refs(self, refs: list):
        self.lhs.add_refs(refs)
        self.rhs.add_refs(refs)

    def to_json(self):
        return {"sub": [self.lhs.to_json(), self.rhs.to_json()]}


@dataclass(frozen=True)
class Cmp:
    op: str
    lhs: object
    rhs: object

    def __post_init__(self):
        if not (isinstance(self.op, str) and self.op in _OPS):
            raise ConfigurationError(f"unknown comparison {self.op!r}")

    def eval(self, hist) -> bool:
        return _OPS[self.op](self.lhs.eval(hist), self.rhs.eval(hist))

    def add_refs(self, refs: list):
        self.lhs.add_refs(refs)
        self.rhs.add_refs(refs)

    def to_json(self):
        return {"cmp": self.op, "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json()}


@dataclass(frozen=True)
class And:
    parts: tuple

    def __init__(self, *parts):
        object.__setattr__(self, "parts", tuple(parts))

    def eval(self, hist) -> bool:
        for p in self.parts:
            if not p.eval(hist):
                return False
        return True

    def add_refs(self, refs: list):
        for p in self.parts:
            p.add_refs(refs)

    def to_json(self):
        return {"and": [p.to_json() for p in self.parts]}


# Deepest predicate document accepted; evaluation recurses a few frames per level.
MAX_NESTING = 100


def expr_from_json(doc):
    return _expr(doc, MAX_NESTING)


def predicate_from_json(doc):
    return _predicate(doc, MAX_NESTING)


def _node(doc, levels: int) -> dict:
    if levels == 0:
        raise ConfigurationError(f"predicate nested deeper than {MAX_NESTING} levels")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"expected an object, not {doc!r}")
    return doc


def _field(doc: dict, key: str):
    if key not in doc:
        raise ConfigurationError(f"missing key {key!r} in {doc!r}")
    return doc[key]


def _integer(doc: dict, key: str) -> int:
    if type(doc[key]) is not int:
        raise ConfigurationError(f"{key!r} needs an integer in {doc!r}")
    return doc[key]


def _expr(doc, levels: int):
    doc = _node(doc, levels)
    if "const" in doc:
        return Const(_integer(doc, "const"))
    if "count" in doc:
        return Count(_integer(doc, "count"))
    for key, node in (("add", Add), ("sub", Sub)):
        if key in doc:
            operands = doc[key]
            if not (isinstance(operands, list) and len(operands) == 2):
                raise ConfigurationError(f"{key!r} needs two operands in {doc!r}")
            return node(_expr(operands[0], levels - 1), _expr(operands[1], levels - 1))
    raise ConfigurationError(f"unknown expression node {doc!r}")


def _predicate(doc, levels: int):
    doc = _node(doc, levels)
    if "and" in doc:
        if not isinstance(doc["and"], list):
            raise ConfigurationError(f"'and' needs a list of predicates in {doc!r}")
        return And(*(_predicate(p, levels - 1) for p in doc["and"]))
    if "cmp" in doc:
        return Cmp(doc["cmp"], _expr(_field(doc, "lhs"), levels - 1),
                   _expr(_field(doc, "rhs"), levels - 1))
    raise ConfigurationError(f"unknown predicate node {doc!r}")


# Shorthand builders; keep gadget-definition code readable.
def count_eq(strategy: int, value: int) -> Cmp:
    return Cmp("==", Count(strategy), Const(value))


def count_ge(strategy: int, value: int) -> Cmp:
    return Cmp(">=", Count(strategy), Const(value))


@dataclass(frozen=True)
class AnonymousPlayer:
    name: str
    allowed: frozenset[int]
    rules: tuple  # of (strategy index, predicate)


class AnonymousGame(SuccinctGame):
    """Common strategy set, per-player allowed sets, and {0,1,2} utilities."""

    def __init__(self, strategy_names: Sequence[str], players: Sequence[AnonymousPlayer]):
        self.strategy_names = tuple(str(s) for s in strategy_names)
        if len(set(self.strategy_names)) != len(self.strategy_names):
            raise ConfigurationError("duplicate strategy names")
        k = len(self.strategy_names)
        self.players = tuple(players)
        # one pass over every strategy; the players are walked only to name a non-int
        if not set(map(type, chain(
                chain.from_iterable(map(operator.attrgetter("allowed"), self.players)),
                map(operator.itemgetter(0),
                    chain.from_iterable(map(operator.attrgetter("rules"),
                                            self.players)))))) <= {int}:
            for p in self.players:
                exact_ints(p.allowed, lambda _: f"player {p.name}: allowed strategy")
                exact_ints([strat for strat, _ in p.rules],
                           lambda r: f"player {p.name}: the strategy of rule {r}")
        # the value of each player's strategy s reads the counts its rules refer to
        reads = []
        for p in self.players:
            for s in p.allowed:
                if not 0 <= s < k:
                    raise ConfigurationError(
                        f"player {p.name}: allowed strategy {s} out of range"
                    )
            if not p.allowed:
                raise ConfigurationError(f"player {p.name}: empty allowed set")
            row = [frozenset()] * k
            for strat, pred in p.rules:
                if strat not in p.allowed:
                    raise ConfigurationError(
                        f"player {p.name}: rule on disallowed strategy {strat}"
                    )
                refs = []
                pred.add_refs(refs)
                for ref in refs:
                    if type(ref) is not int:
                        raise ConfigurationError(
                            f"player {p.name}: count reference {ref!r} is not an int")
                    if not 0 <= ref < k:
                        raise ConfigurationError(
                            f"player {p.name}: predicate references undeclared "
                            f"strategy {ref}"
                        )
                row[strat] = row[strat].union(refs)
            reads.append(row)
        self.strategy_counts = (k,) * len(self.players)
        self.codec = ProfileCodec(self.strategy_counts)
        self._rules_by_strategy = tuple(
            {s: tuple(pred for st, pred in p.rules if st == s) for s in p.allowed}
            for p in self.players
        )
        # a player on strategy s adds only to the count of s
        singletons = tuple(frozenset({s}) for s in range(k))
        self._footprint = ((singletons,) * len(self.players), reads)

    def histogram(self, profile: Profile) -> list[int]:
        hist = [0] * len(self.strategy_names)
        for choice in profile:
            hist[choice] += 1
        return hist

    _aggregate = histogram

    def _utility_from_hist(self, player: int, choice: int, hist) -> int:
        rules = self._rules_by_strategy[player].get(choice)
        if rules is None:
            return 0
        for pred in rules:
            if pred.eval(hist):
                return 2
        return 1

    def utility(self, profile: Profile, player: int) -> int:
        return self._utility_from_hist(player, profile[player],
                                       self._profile_aggregate(profile))

    def deviation_utilities(self, profile: Profile, player: int):
        """A disallowed strategy reads 0, so only the allowed ones are
        evaluated, each on the histogram without the player plus that
        strategy."""
        hist = list(self._profile_aggregate(profile))
        hist[profile[player]] -= 1
        out = [0] * len(self.strategy_names)
        for choice, rules in self._rules_by_strategy[player].items():
            hist[choice] += 1
            out[choice] = 1
            for pred in rules:
                if pred.eval(hist):
                    out[choice] = 2
                    break
            hist[choice] -= 1
        return out
