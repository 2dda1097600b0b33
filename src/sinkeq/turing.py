"""Space-bounded Turing machines over the tape alphabet {0, 1, b}.

Machines run on cells 0..t' with a single halting state and a transition
function that is total on the non-halting states. `wrap_machine` builds the
self-starting looper: from an empty tape it writes the input, simulates the
wrapped machine while a binary tape counter ticks once per simulated step,
halts exactly when the wrapped machine rejects, and otherwise erases the
tape and restarts itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigurationError, CapExceededError, TapeBoundError

SYMBOLS = ("0", "1", "b")
MOVES = ("L", "S", "R")
MOVE_OFFSET = {"L": -1, "S": 0, "R": 1}
MAX_T_PRIME = 64  # the largest tape bound wrap_machine builds


@dataclass(frozen=True)
class TMSpec:
    num_states: int
    q0: int
    q_halt: int
    t_prime: int
    delta: Mapping[tuple[int, str], tuple[int, str, str]]
    state_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 <= self.q0 < self.num_states:
            raise ConfigurationError("q0 out of range")
        if not 0 <= self.q_halt < self.num_states:
            raise ConfigurationError("q_halt out of range")
        if self.t_prime < 0:
            raise ConfigurationError("tape bound must be nonnegative")
        object.__setattr__(self, "delta", dict(self.delta))
        for q in range(self.num_states):
            for sym in SYMBOLS:
                key = (q, sym)
                if q == self.q_halt:
                    if key in self.delta:
                        raise ConfigurationError("halting state has a transition")
                    continue
                if key not in self.delta:
                    raise ConfigurationError(
                        f"delta undefined for state {q} reading {sym!r}"
                    )
                q2, write, move = self.delta[key]
                if not 0 <= q2 < self.num_states:
                    raise ConfigurationError(f"transition from {key} to bad state {q2}")
                if write not in SYMBOLS or move not in MOVES:
                    raise ConfigurationError(f"bad transition action {(write, move)!r}")


@dataclass(frozen=True)
class TapeConfig:
    state: int
    head: int
    tape: tuple[str, ...]

    def __str__(self):
        cells = "".join(self.tape)
        return f"(q{self.state}, head {self.head}, tape {cells})"


def initial_config(spec: TMSpec) -> TapeConfig:
    return TapeConfig(spec.q0, 0, ("b",) * (spec.t_prime + 1))


def tm_step(spec: TMSpec, config: TapeConfig) -> TapeConfig:
    """One application of delta; the head must stay within [0, t']."""
    if config.state == spec.q_halt:
        raise ValueError("cannot step a halted configuration")
    symbol = config.tape[config.head]
    q2, write, move = spec.delta[(config.state, symbol)]
    head2 = config.head + MOVE_OFFSET[move]
    if not 0 <= head2 <= spec.t_prime:
        raise TapeBoundError(
            f"head moved to {head2}, outside [0, {spec.t_prime}]"
        )
    tape = list(config.tape)
    tape[config.head] = write
    return TapeConfig(q2, head2, tuple(tape))


@dataclass(frozen=True)
class HaltsAfter:
    steps: int

    @property
    def halted(self) -> bool:
        return True


@dataclass(frozen=True)
class LoopsWithCycle:
    prefix: int
    period: int

    @property
    def halted(self) -> bool:
        return False


def run_bounded(spec: TMSpec, start: TapeConfig | None = None,
                cap: int = 1_000_000) -> HaltsAfter | LoopsWithCycle:
    """Exact halting/looping outcome via visited-configuration detection."""
    config = initial_config(spec) if start is None else start
    seen = {config: 0}
    steps = 0
    while config.state != spec.q_halt:
        config = tm_step(spec, config)
        steps += 1
        if config in seen:
            first = seen[config]
            return LoopsWithCycle(prefix=first, period=steps - first)
        if len(seen) >= cap:
            raise CapExceededError(
                f"visited {cap} configurations without resolution; "
                "choose a smaller tape bound", cap
            )
        seen[config] = steps
    return HaltsAfter(steps)


class _StateBuilder:
    def __init__(self):
        self.index: dict = {}
        self.names: list[str] = []
        self.rules: dict = {}

    def state(self, *name) -> int:
        key = tuple(name)
        if key not in self.index:
            self.index[key] = len(self.names)
            self.names.append("_".join(str(part) for part in key))
        return self.index[key]

    def rule(self, state: int, read: str, nxt: int, write: str, move: str):
        self.rules[(state, read)] = (nxt, write, move)


def counter_width(machine: TMSpec, t: int) -> int:
    configs = machine.num_states * (t + 1) * (3 ** (t + 1))
    return math.ceil(math.log2(configs)) + 1


def wrap_machine(machine: TMSpec, x: str, t: int, halt_is_accept: bool = False) -> TMSpec:
    """Build the looping wrapper for ``machine`` run on ``x`` within ``t`` cells.

    The wrapper writes ``x``, zeroes a ``w``-bit step counter on cells
    t..t+w-1, then simulates the machine. Rejection (halting, unless
    ``halt_is_accept``) makes the wrapper halt; acceptance, counter overflow,
    or a workspace-bound breach erases the tape, returns the head to cell 0,
    and restarts. The counter width guarantees overflow only after the
    machine has revisited a configuration.
    """
    if t < 1:
        raise ConfigurationError("the workspace needs at least one cell")
    if len(x) > t:
        raise ConfigurationError("input longer than the tape bound")
    if any(c not in ("0", "1") for c in x):
        raise ConfigurationError("input symbols must be 0 or 1")
    w = counter_width(machine, t)
    t_prime = t + w
    if t_prime > MAX_T_PRIME:
        raise ConfigurationError(
            f"wrapper needs tape bound {t_prime}, above the maximum {MAX_T_PRIME}"
        )

    b = _StateBuilder()
    start = b.state("wx", 0) if x else b.state("zc", 0)

    def erase_from(p: int) -> int:
        return b.state("er", p)

    # Phase 1: write the input onto cells 0..|x|-1.
    for k in range(len(x)):
        nxt = b.state("wx", k + 1) if k + 1 < len(x) else b.state("zc", len(x))
        for sym in SYMBOLS:
            b.rule(b.state("wx", k), sym, nxt, x[k], "R")

    # Phase 2: continue right, zeroing the counter cells.
    for p in range(len(x), t_prime):
        write = "0" if p >= t else "b"
        if p + 1 < t_prime:
            nxt, move = b.state("zc", p + 1), "R"
        else:
            nxt, move = (b.state("rw", t_prime - 2), "L")
        for sym in SYMBOLS:
            b.rule(b.state("zc", p), sym, nxt, write, move)
    # The walk above turns at cell t_prime-1; cell t_prime stays blank.

    # Phase 3: rewind to cell 0.
    for p in range(t_prime - 1, -1, -1):
        for sym in SYMBOLS:
            if p == 0:
                b.rule(b.state("rw", 0), sym, b.state("sim", machine.q0, 0), sym, "S")
            else:
                b.rule(b.state("rw", p), sym, b.state("rw", p - 1), sym, "L")

    # Phase 4: simulate one machine step, then tick the counter.
    for q in range(machine.num_states):
        if q == machine.q_halt:
            continue
        for p in range(t):
            state = b.state("sim", q, p)
            for sym in SYMBOLS:
                q2, write, move = machine.delta[(q, sym)]
                if q2 == machine.q_halt:
                    if halt_is_accept:
                        b.rule(state, sym, erase_from(p), write, "S")
                    else:
                        b.rule(state, sym, b.state("halt"), write, "S")
                    continue
                p2 = p + MOVE_OFFSET[move]
                if not 0 <= p2 < t:
                    b.rule(state, sym, erase_from(p), write, "S")
                    continue
                b.rule(state, sym, b.state("gor", q2, p2, p2), write, move)

    # Walk right to the counter, increment, walk back, resume simulation.
    for q in range(machine.num_states):
        if q == machine.q_halt:
            continue
        for ret in range(t):
            for p in range(ret, t):
                state = b.state("gor", q, ret, p)
                nxt = b.state("gor", q, ret, p + 1) if p + 1 < t else b.state("inc", q, ret, t)
                for sym in SYMBOLS:
                    b.rule(state, sym, nxt, sym, "R")
            for p in range(t, t_prime):
                state = b.state("inc", q, ret, p)
                done = b.state("gol", q, ret, p - 1)
                b.rule(state, "0", done, "1", "L")
                if p + 1 < t_prime:
                    b.rule(state, "1", b.state("inc", q, ret, p + 1), "0", "R")
                else:
                    b.rule(state, "1", erase_from(p), "0", "S")  # overflow
                b.rule(state, "b", erase_from(p), "b", "S")
            for p in range(t_prime - 1, ret - 1, -1):
                state = b.state("gol", q, ret, p)
                for sym in SYMBOLS:
                    if p == ret:
                        b.rule(state, sym, b.state("sim", q, ret), sym, "S")
                    else:
                        b.rule(state, sym, b.state("gol", q, ret, p - 1), sym, "L")

    # Phase 5: erase right to t', then left to 0, and restart.
    for p in range(t_prime + 1):
        state = b.state("er", p)
        if p < t_prime:
            nxt, move = b.state("er", p + 1), "R"
        else:
            nxt, move = b.state("el", t_prime - 1), "L"
        for sym in SYMBOLS:
            b.rule(state, sym, nxt, "b", move)
    for p in range(t_prime - 1, -1, -1):
        state = b.state("el", p)
        for sym in SYMBOLS:
            if p == 0:
                b.rule(state, sym, start, "b", "S")
            else:
                b.rule(state, sym, b.state("el", p - 1), "b", "L")

    halt = b.state("halt")
    return TMSpec(
        num_states=len(b.names),
        q0=start,
        q_halt=halt,
        t_prime=t_prime,
        delta=b.rules,
        state_names=tuple(b.names),
    )
