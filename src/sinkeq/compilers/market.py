"""Two-sided market reductions: from machines and from 3SAT formulas."""

from __future__ import annotations

from ..cnf import CnfFormula
from ..errors import ConfigurationError
from ..games.market import ActiveAgent, PassiveAgent, TwoSidedMarketGame
from ..turing import SYMBOLS, TMSpec
from .common import CompiledReduction, SymbolTable
from .tm_gadget import CLOCK_WAIT, assemble, build_structure, control_tuples

# Clause-gadget market values.
A_VALUE = 305
B_VALUE = 8
C_VALUE = 310
R_VALUE = 100
P_VALUE = 100

OWNER = object()  # placeholder for a gadget resource's owning player


def compile_sat_market(formula: CnfFormula) -> CompiledReduction:
    """Clause players cycle through their a/b/c markets until some variable
    player claims one of the clause's r markets; pure equilibria exist exactly
    for satisfiable formulas (variable players are everywhere indifferent)."""
    n, m = formula.num_vars, len(formula.clauses)
    passive: list[PassiveAgent] = []
    passive_index: dict[str, int] = {}

    def market(name: str, value: int, preference: tuple[int, ...]) -> int:
        if name in passive_index:
            return passive_index[name]
        passive_index[name] = len(passive)
        passive.append(PassiveAgent(name, value, preference))
        return passive_index[name]

    # Player indices: X players first, then C_j, K_j per clause.
    x_player = {i: i - 1 for i in range(1, n + 1)}
    c_player = {j: n + 2 * j for j in range(m)}
    k_player = {j: n + 2 * j + 1 for j in range(m)}

    zero_sets: list[set[int]] = [set() for _ in range(n + 2 * m)]
    one_sets: list[set[int]] = [set() for _ in range(n + 2 * m)]

    for j, clause in enumerate(formula.clauses):
        a = market(f"a_{j + 1}", A_VALUE, (k_player[j], c_player[j]))
        b = market(f"b_{j + 1}", B_VALUE, (c_player[j], k_player[j]))
        c = market(f"c_{j + 1}", C_VALUE, (c_player[j],))
        zero_sets[c_player[j]] |= {a, b}
        one_sets[c_player[j]] |= {c}
        zero_sets[k_player[j]] |= {a}
        one_sets[k_player[j]] |= {b}
        # One r and one p market per literal slot: a clause must expose three
        # r markets even when literals repeat, or the K player's one strategy
        # cannot outvalue its a market and the unsatisfied-clause cycle dies.
        for slot, lit in enumerate(clause):
            i = abs(lit)
            r = market(f"r_{i}_{j + 1}_{slot}", R_VALUE, (x_player[i], k_player[j]))
            p = market(f"p_{i}_{j + 1}_{slot}", P_VALUE, (x_player[i],))
            one_sets[k_player[j]].add(r)
            if lit > 0:
                zero_sets[x_player[i]].add(r)
                one_sets[x_player[i]].add(p)
            else:
                one_sets[x_player[i]].add(r)
                zero_sets[x_player[i]].add(p)

    roles = [f"X{i}" for i in range(1, n + 1)]
    roles += [role for j in range(1, m + 1) for role in (f"C{j}", f"K{j}")]
    roster = [
        ActiveAgent(role, (frozenset(zero_sets[idx]), frozenset(one_sets[idx])))
        for idx, role in enumerate(roles)
    ]
    return CompiledReduction(
        game=TwoSidedMarketGame(passive, roster),
        initial=(0,) * len(roles),
        symbols=SymbolTable.from_roles(roles, [{0: "zero", 1: "one"}] * len(roles)),
    )


def market_base(spec: TMSpec, penalty: int) -> int:
    """The base value N: twice the control count times the penalty.

    With boundary positions clipped the control family is smaller than the
    unclipped |Q|*(t'+1)*3*|Gamma| grid, and the Wait strategy's total must
    land exactly at N + 1; counting the actual family preserves that.
    """
    return 2 * len(control_tuples(spec)) * penalty


def compile_tm_market(spec: TMSpec, penalty: int = 10_000) -> CompiledReduction:
    """Market version of the machine gadget; same roles and round dynamics.

    Alpha markets are worth 1 and prefer the transition player; beta markets
    are worth the penalty and prefer their owner. TriggerMain (100) prefers
    the clock, TriggerClock (80) the transition player. The transition
    player's named-only markets carry the staircase values anchored at N.
    """
    structure = build_structure(spec, market_halt_nn=True)
    n = market_base(spec, penalty)
    k = spec.num_states + spec.t_prime + len(SYMBOLS) - 1
    if penalty <= 2 * len(structure.tuples) + 100:
        raise ConfigurationError(
            "penalty too small to keep the Done strategy blocked at round start"
        )

    transition = structure.transition_index
    clock = structure.clock_index
    owners: dict[int, int] = {}
    for player, per_strategy in enumerate(structure.strategy_resources):
        if player in (transition, clock):
            continue
        for resources in per_strategy:
            for r in resources:
                owners[r] = player

    # kind -> (value, preference); OWNER stands for the resource's owner.
    # Done wins every alpha market it demands (the transition player is their
    # preferred demander), a windfall of 2 * |controls| that the figure's
    # N - M + 20 does not offset; without subtracting it the Done strategy
    # outvalues Wait and the round never resets.
    markets = {
        "alpha": (1, (transition, OWNER)),
        "beta": (penalty, (OWNER, transition)),
        "TriggerMain": (100, (clock, transition)),
        "TriggerClock": (80, (transition, clock)),
        "nn_read": (n - k * penalty + 20, (transition,)),
        "nn_write": (n - penalty + 40, (transition,)),
        "nn_verify": (n - k * penalty + 60, (transition,)),
        "nn_done": (n - penalty - 2 * len(structure.tuples) + 20, (transition,)),
        "nn_halt": (n - penalty, (transition,)),
        "nn_clock_wait": (CLOCK_WAIT, (clock,)),
    }
    passive = []
    for r, (name, kind) in enumerate(zip(structure.resource_names, structure.resource_kinds)):
        value, preference = markets[kind]
        preference = tuple(owners[r] if x is OWNER else x for x in preference)
        passive.append(PassiveAgent(name, value, preference))

    roster = [
        ActiveAgent(role, tuple(frozenset(s) for s in strategies))
        for role, strategies in zip(structure.player_roles, structure.strategy_resources)
    ]
    game = TwoSidedMarketGame(passive, roster)
    compiled = assemble(structure, game, spec)
    compiled.penalty = penalty
    compiled.market_base = n
    return compiled
