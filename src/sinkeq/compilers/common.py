"""Compiled reductions: emitted game, canonical initial profile, symbol table."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dynamics import EdgeSemantics, StateGraph, forward_closure
from ..errors import ConfigurationError, SymbolError
from ..games.base import SuccinctGame
from ..profiles import Profile


@dataclass
class SymbolTable:
    """Maps gadget roles to player indices and role strategies to indices;
    looking up a name it lacks raises ``SymbolError``. ``strategies`` holds
    one table per role of ``players``. The reverse lookups ``role_of`` and
    ``strategy_name`` map an index to the first name given it, in insertion
    order."""

    players: dict[str, int] = field(init=False, default_factory=dict)
    strategies: dict[str, dict[str, int]] = field(init=False, default_factory=dict)
    # Reverse lookups (index -> first name given it), each built from its map
    # above by the first role_of or strategy_name, and dropped by add_player
    # or add_strategy.
    _roles: dict[int, str] | None = field(init=False, repr=False, compare=False, default=None)
    _names: dict[str, dict[int, str]] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    @classmethod
    def of(cls, players: dict[str, int], strategies: dict[str, dict[str, int]]) -> SymbolTable:
        """The table of ``players`` and ``strategies``, kept as they are;
        ``strategies`` must have one entry per role of ``players``."""
        table = cls()
        table.players, table.strategies = players, strategies
        return table

    @classmethod
    def from_roles(cls, roles: list[str], names: list[dict[int, str]]) -> SymbolTable:
        """The table of ``roles`` in player order, role k's strategies named
        by ``names[k]`` (strategy index -> name)."""
        table = cls()
        for index, (role, role_names) in enumerate(zip(roles, names, strict=True)):
            table.add_player(role, index)
            for s, name in role_names.items():
                table.add_strategy(role, name, s)
        return table

    def add_player(self, role: str, index: int):
        if role in self.players:
            raise ConfigurationError(f"duplicate role {role}")
        self.players[role] = index
        self.strategies[role] = {}
        self._roles = None

    def add_strategy(self, role: str, name: str, index: int):
        table = self.strategies[role]
        if name in table:
            raise ConfigurationError(f"duplicate strategy {name} for role {role}")
        table[name] = index
        self._names = None

    def player(self, role: str) -> int:
        if role not in self.players:
            raise SymbolError(f"the symbol table has no role {role!r}")
        return self.players[role]

    def strategy(self, role: str, name: str) -> int:
        if name not in self.strategies.get(role, ()):
            raise SymbolError(f"the symbol table has no strategy {name!r} of role {role!r}")
        return self.strategies[role][name]

    def strategy_name(self, role: str, index: int) -> str:
        if self._names is None:
            self._names = {role: _first_names(table) for role, table in self.strategies.items()}
        names = self._names.get(role, {})
        if index not in names:
            raise SymbolError(f"the symbol table names no strategy {index} of role {role!r}")
        return names[index]

    def role_of(self, player_index: int) -> str:
        if self._roles is None:
            self._roles = _first_names(self.players)
        if player_index not in self._roles:
            raise SymbolError(f"the symbol table names no player {player_index}")
        return self._roles[player_index]


def _first_names(table: dict[str, int]) -> dict[int, str]:
    """Index -> the first name of ``table``, in insertion order, mapped to it."""
    return {index: name for name, index in reversed(table.items())}


@dataclass
class CompiledReduction:
    game: SuccinctGame
    initial: Profile
    symbols: SymbolTable
    machine: object = None  # TMSpec for machine reductions
    penalty: int | None = None  # M
    market_base: int | None = None  # N, market compiles only

    def describe(self, profile: Profile) -> dict[str, str]:
        return {
            role: self.symbols.strategy_name(role, profile[idx])
            for role, idx in sorted(self.symbols.players.items(), key=lambda kv: kv[1])
        }


def closures_isomorphic(
    a: CompiledReduction,
    b: CompiledReduction,
    semantics: EdgeSemantics = EdgeSemantics.IMPROVEMENT,
    cap: int | None = None,
) -> bool:
    """Label-isomorphism of the reachable closures under the role mapping.

    Players correspond by role name and strategies by role-strategy name;
    checks that mapped edges coincide exactly. An edge's mover is the one
    player whose strategy it changes, so equal targets mean equal mover labels.
    ``cap`` bounds each closure as in ``forward_closure``.
    """
    mapping = _role_mapping(a, b)
    closure_a = forward_closure(StateGraph(a.game, semantics), a.initial, cap)
    closure_b = forward_closure(StateGraph(b.game, semantics), b.initial, cap)
    if len(closure_a) != len(closure_b):
        return False

    def map_profile(profile: Profile) -> Profile:
        out = [0] * len(profile)
        for pa, (pb, strat_map) in mapping.items():
            out[pb] = strat_map[profile[pa]]
        return tuple(out)

    image = [closure_b.index.get(map_profile(state)) for state in closure_a.states]
    if image[0] != 0 or None in image:  # the starts differ, or a state has no image
        return False
    return all(
        {image[j] for j in out} == set(closure_b.successors[image[k]])
        for k, out in enumerate(closure_a.successors)
    )


def _role_mapping(a: CompiledReduction, b: CompiledReduction):
    if set(a.symbols.players) != set(b.symbols.players):
        raise ConfigurationError("role sets differ; no candidate isomorphism")
    mapping = {}
    for role, pa in a.symbols.players.items():
        pb = b.symbols.player(role)
        strats_a = a.symbols.strategies[role]
        strats_b = b.symbols.strategies[role]
        if set(strats_a) != set(strats_b):
            raise ConfigurationError(f"strategy names differ for role {role}")
        strat_map = {ia: strats_b[name] for name, ia in strats_a.items()}
        mapping[pa] = (pb, strat_map)
    return mapping
