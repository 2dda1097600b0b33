"""Machine-to-anonymous-game reduction.

One round walks the first control player through its strategy ring
(init, tape-change, eval-tape, new-sym, new-sym2, new-pos, new-pos2,
new-state, new-state2, back to init) while the second control player mirrors
it one step behind. Between control steps, auxiliary player classes copy the
cell histogram onto the tape players, read the scanned symbol as the unique
cell/tape deficit, and encode the written symbol, new head position, and new
state in unary occupancy counts; the configuration players then adjust to
match. Machine state j is encoded as j players on state^1, with the halting
state mapped to the highest index.

The four unary classes (see ``_unary_roles``) move toward their targets by
one balancing rule, ``_balance``. The cell rewrite rules carry an extra "head
is here" conjunct so only the scanned cell can adopt the new symbol.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..games.anonymous import (
    Add,
    And,
    AnonymousGame,
    AnonymousPlayer,
    Cmp,
    Const,
    Count,
    Sub,
    count_eq,
    count_ge,
)
from ..turing import MOVE_OFFSET, SYMBOLS, TMSpec, TapeConfig, initial_config
from .common import CompiledReduction, SymbolTable

C1_RING = (
    "init", "tape-change", "eval-tape", "new-sym", "new-sym2",
    "new-pos", "new-pos2", "new-state", "new-state2",
)

STRATEGIES = (
    ["cell^0", "cell^1", "cell^b", "change"]
    + ["tape^0", "tape^1", "tape^b"]
    + ["position^1", "position^0"]
    + ["state^1", "state^0"]
    + ["symbol^0", "symbol^1", "symbol^b"]
    + ["new-sym^0", "new-sym^1", "new-sym^b"]
    + ["new-pos^1", "new-pos^0"]
    + ["new-state^1", "new-state^0"]
    + list(C1_RING) + ["halt"]
    + [f"X{name}" for name in C1_RING]
)
_S = {name: k for k, name in enumerate(STRATEGIES)}

MAX_PLAYERS = 4096


def _unary_roles(spec: TMSpec, cls: str) -> list[str]:
    """Roles of a unary class, which encodes a number as its players on
    ``cls^1``: t' players for a head position (``position``, ``new-pos``),
    |Q|-1 for a state rank (``state``, ``new-state``)."""
    size = {"position": spec.t_prime, "new-pos": spec.t_prime,
            "state": spec.num_states - 1, "new-state": spec.num_states - 1}[cls]
    prefix = cls.replace("-", "_")
    return [f"{prefix}_{k}" for k in range(size)]


def _balance(cls: str, guards: list, target) -> list[tuple[str, object]]:
    """The rules that move a unary class, while ``guards`` hold, until
    ``Count(cls^1) == target``: a player gains by joining ``cls^1`` when the
    count is at most the target and by leaving it when the count is at least
    the target. The comparisons are non-strict because counts include the
    mover: the strict forms leave the final balancing move non-improving."""
    ones = Count(_S[f"{cls}^1"])
    return [
        (f"{cls}^1", And(*guards, Cmp("<=", ones, target))),
        (f"{cls}^0", And(*guards, Cmp(">=", ones, target))),
    ]


def state_rank(spec: TMSpec) -> dict[int, int]:
    """Machine state -> unary encoding value; the halting state is last."""
    rank = {}
    next_rank = 0
    for q in range(spec.num_states):
        if q == spec.q_halt:
            continue
        rank[q] = next_rank
        next_rank += 1
    rank[spec.q_halt] = next_rank
    return rank


def _delta_cases(spec: TMSpec, rank: dict[int, int]):
    """(state rank, read symbol, written symbol, head offset, next rank)."""
    cases = []
    for (q, sym), (q2, sym2, move) in sorted(spec.delta.items()):
        cases.append((rank[q], sym, sym2, MOVE_OFFSET[move], rank[q2]))
    return cases


def compile_tm_anonymous(spec: TMSpec) -> CompiledReduction:
    if spec.num_states < 2:
        raise ConfigurationError("the reduction needs at least two machine states")
    t_prime = spec.t_prime
    m = spec.num_states - 1
    roster_size = 2 * (t_prime + 1) + 2 * t_prime + 2 * m + 4
    if roster_size > MAX_PLAYERS:
        raise ConfigurationError(
            f"reduction needs {roster_size} players, above the cap {MAX_PLAYERS}"
        )
    rank = state_rank(spec)
    cases = _delta_cases(spec, rank)

    def sel(case) -> list:
        q_rank, sym, *_ = case
        return [count_eq(_S["state^1"], q_rank), count_ge(_S[f"symbol^{sym}"], 1)]

    players: list[AnonymousPlayer] = []

    def add(role: str, allowed: list[str], rules: list[tuple[str, object]]):
        players.append(AnonymousPlayer(
            role,
            frozenset(_S[s] for s in allowed),
            tuple((_S[s], pred) for s, pred in rules),
        ))

    cell_allowed = ["cell^0", "cell^1", "cell^b", "change"]
    for i in range(t_prime + 1):
        rules = [(
            "change",
            And(count_ge(_S["tape-change"], 1), count_eq(_S["position^1"], i)),
        )]
        for sym in SYMBOLS:
            rules.append((
                f"cell^{sym}",
                And(
                    count_ge(_S["new-sym2"], 1),
                    count_ge(_S[f"new-sym^{sym}"], 1),
                    count_eq(_S["position^1"], i),
                ),
            ))
        add(f"cell_{i}", cell_allowed, rules)

    tape_allowed = ["tape^0", "tape^1", "tape^b"]
    tape_rules = [
        (
            f"tape^{sym}",
            And(
                count_ge(_S["init"], 1),
                Cmp(">=", Count(_S[f"cell^{sym}"]), Count(_S[f"tape^{sym}"])),
            ),
        )
        for sym in SYMBOLS
    ]
    for k in range(t_prime + 1):
        add(f"tape_{k}", tape_allowed, tape_rules)

    def add_class(cls: str, rules: list[tuple[str, object]]):
        for role in _unary_roles(spec, cls):
            add(role, [f"{cls}^1", f"{cls}^0"], rules)

    add_class("position", _balance(
        "position", [count_ge(_S["new-pos2"], 1)], Count(_S["new-pos^1"])))
    add_class("state", _balance(
        "state", [count_ge(_S["new-state2"], 1)], Count(_S["new-state^1"])))

    add("symbol", ["symbol^0", "symbol^1", "symbol^b"], [
        (
            f"symbol^{sym}",
            And(
                count_ge(_S["eval-tape"], 1),
                Cmp("<", Count(_S[f"cell^{sym}"]), Count(_S[f"tape^{sym}"])),
            ),
        )
        for sym in SYMBOLS
    ])

    add("new_sym", ["new-sym^0", "new-sym^1", "new-sym^b"], [
        (f"new-sym^{case[2]}", And(count_ge(_S["new-sym"], 1), *sel(case)))
        for case in cases
    ])

    add_class("new-pos", [
        rule for case in cases
        for rule in _balance("new-pos", [count_ge(_S["new-pos"], 1), *sel(case)],
                             Add(Count(_S["position^1"]), Const(case[3])))
    ])
    add_class("new-state", [
        rule for case in cases
        for rule in _balance("new-state", [count_ge(_S["new-state"], 1), *sel(case)],
                             Const(case[4]))
    ])

    histogram_match = [
        Cmp("==", Count(_S[f"cell^{sym}"]), Count(_S[f"tape^{sym}"]))
        for sym in SYMBOLS
    ]
    read_match = [
        Cmp(
            "==",
            Add(Count(_S[f"cell^{sym}"]), Count(_S[f"symbol^{sym}"])),
            Count(_S[f"tape^{sym}"]),
        )
        for sym in SYMBOLS
    ]
    c1_rules: list[tuple[str, object]] = [
        ("tape-change", And(count_ge(_S["Xinit"], 1), *histogram_match)),
        ("eval-tape", And(count_ge(_S["Xtape-change"], 1), count_eq(_S["change"], 1))),
        ("new-sym", And(count_ge(_S["Xeval-tape"], 1), *read_match)),
        ("new-pos", And(count_ge(_S["Xnew-sym2"], 1), count_eq(_S["change"], 0))),
        (
            "new-state",
            And(
                count_ge(_S["Xnew-pos2"], 1),
                Cmp("==", Count(_S["position^1"]), Count(_S["new-pos^1"])),
            ),
        ),
        (
            "init",
            And(
                count_ge(_S["Xnew-state2"], 1),
                Cmp("==", Count(_S["state^1"]), Count(_S["new-state^1"])),
            ),
        ),
        ("halt", count_eq(_S["state^1"], m)),
    ]
    for case in cases:
        sym2, d, q2_rank = case[2], case[3], case[4]
        c1_rules.append((
            "new-sym2",
            And(count_ge(_S["Xnew-sym"], 1), *sel(case),
                count_eq(_S[f"new-sym^{sym2}"], 1)),
        ))
        c1_rules.append((
            "new-pos2",
            And(count_ge(_S["Xnew-pos"], 1), *sel(case),
                Cmp("==", Sub(Count(_S["new-pos^1"]), Count(_S["position^1"])),
                    Const(d))),
        ))
        c1_rules.append((
            "new-state2",
            And(count_ge(_S["Xnew-state"], 1), *sel(case),
                count_eq(_S["new-state^1"], q2_rank)),
        ))
    add("control1", list(C1_RING) + ["halt"], c1_rules)

    add("control2", [f"X{s}" for s in C1_RING], [
        (f"X{s}", count_ge(_S[s], 1)) for s in C1_RING
    ])

    symbols = SymbolTable.from_roles(
        [p.name for p in players],
        [{s: STRATEGIES[s] for s in sorted(p.allowed)} for p in players])
    compiled = CompiledReduction(game=AnonymousGame(STRATEGIES, players), initial=(),
                                 symbols=symbols, machine=spec)
    compiled.initial = anonymous_round_start(compiled, initial_config(spec))
    return compiled


def anonymous_round_start(compiled: CompiledReduction, config: TapeConfig):
    """Canonical row-1 profile for a configuration: control1 on init,
    control2 on Xnew-state2, tape players matched to the cell histogram, and
    the symbol/new-* players consistent with an idle previous round."""
    spec: TMSpec = compiled.machine
    rank = state_rank(spec)
    symbols = compiled.symbols
    profile = [0] * len(symbols.players)

    def put(role: str, strategy: str):
        profile[symbols.player(role)] = _S[strategy]

    for i, sym in enumerate(config.tape):
        put(f"cell_{i}", f"cell^{sym}")
    tape_pool = sorted(config.tape, key=SYMBOLS.index)
    for k, sym in enumerate(tape_pool):
        put(f"tape_{k}", f"tape^{sym}")
    q_rank = rank[config.state]
    for cls, value in (("position", config.head), ("state", q_rank),
                       ("new-pos", config.head), ("new-state", q_rank)):
        for k, role in enumerate(_unary_roles(spec, cls)):
            put(role, f"{cls}^1" if k < value else f"{cls}^0")
    head_sym = config.tape[config.head]
    put("symbol", f"symbol^{head_sym}")
    put("new_sym", f"new-sym^{head_sym}")
    put("control1", "init")
    put("control2", "Xnew-state2")
    return tuple(profile)


def decode_anonymous_config(compiled: CompiledReduction, profile) -> TapeConfig:
    """Read the configuration encoded by the cell/position/state counts."""
    spec: TMSpec = compiled.machine
    rank = state_rank(spec)
    unrank = {r: q for q, r in rank.items()}
    symbols = compiled.symbols
    tape = []
    for i in range(spec.t_prime + 1):
        name = STRATEGIES[profile[symbols.player(f"cell_{i}")]]
        if not name.startswith("cell^"):
            raise ValueError(f"cell_{i} is mid-rewrite (on {name})")
        tape.append(name.split("^")[1])

    def ones(cls: str) -> int:
        return sum(profile[symbols.player(role)] == _S[f"{cls}^1"]
                   for role in _unary_roles(spec, cls))

    return TapeConfig(unrank[ones("state")], ones("position"), tuple(tape))
