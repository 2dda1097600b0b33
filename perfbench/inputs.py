"""Seeded input generation for the sinkeq benchmark.

A workload's inputs are a pool of *items*; an item is a list of CLI steps
(argv lists) plus what its reference check needs. Items belong to strata
with fixed quotas, so the pool of every seed has the same mix, and the
timed loop runs whole passes over the pool. The order interleaves the
strata by their quotas (smooth weighted round robin), so the items a traced
run replays, a prefix of the pool, are mixed too.

Run as a script, this module is the benchmark's set-up step: it starts a
fresh interpreter, imports ``sinkeq``, generates the pool for one
(workload, seed) and writes every document plus ``manifest.json``::

    python3 perfbench/inputs.py --workload tm-wcg --seed 1 --dir perfbench/_work/x
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("tm-wcg", "tm-anon", "table-full", "sat-market")

# Machines: 2 or 3 states (one of them the halting state), tape cells 0..2.
# Only machines whose run visits at most two configurations before it halts
# or repeats are drawn. A machine's stratum is its outcome class (halts,
# loops from the start, loops after a prefix), its number of states, and the
# signature of its run: per step, whether the state (Q), the tape (W) and
# the head (M) changed ("-" for none). Query cost follows the closure size,
# and the closure size follows the signature: tm2anon closures of one class
# range over 116-1674 states, and over 170-7300 once runs visit three or more
# configurations, so without these strata a few machines set a whole run's
# figures. Each class gets 12 of the 36 machines of the pool: 8 with 2 states
# and 4 with 3. Equal shares of the state counts would split the pool into
# two cost clusters (92- and 134-player gadgets) and put the median in the
# gap between them. Inside each share the signatures take their natural
# frequency among random machines, rounded by largest remainder, with one
# exception: one 2-state halting machine with signature QW is moved to QWM.
# That puts as many tm2anon queries below the tight cluster of 2-state
# loop-after-prefix machines (about 0.2 s each) as above it, so the median
# falls inside the cluster, not at its edge, where it jumped between runs.
# Loop-from-start machines with period 2 stay in, since tm2anon answers NO
# on many of them; for 3 states only their most common signature is kept.
TM_T_PRIME = 2
TM_WEIGHTS = {}
for _n, _halt, _loop0, _loopP in (
    (2, {"Q": 1, "QM": 1, "QW": 2, "QWM": 4}, {"-": 7, "W/W": 1}, {"W/-": 8}),
    (3, {"Q": 1, "QM": 1, "QW": 1, "QWM": 1}, {"-": 3, "QW/QW": 1},
     {"QM/-": 1, "QW/-": 1, "QWM/-": 1, "W/-": 1}),
):
    for _cls, _sigs in (("halt", _halt), ("loop0", _loop0), ("loopP", _loopP)):
        TM_WEIGHTS |= {(_cls, _n, sig): w for sig, w in _sigs.items()}

# Table games: shapes 4^6, 3^8 and 2^12, payoffs uniform in 0..99. About a
# quarter of such games have no pure equilibrium; those cost about twice as
# much on every question (has-pure scans the whole space, and a large sink
# has to be found), so whether a game has one is part of its stratum: per
# shape, four games with and two without. Eighteen games take about one
# pass of a 24-second run; with half as many, each seed's few games, run
# twice, moved the median query time by up to a fifth between seeds.
TABLE_SHAPES = ((4,) * 6, (3,) * 8, (2,) * 12)
TABLE_PAYOFFS = range(100)
TABLE_QUESTIONS = ("sinks", "has-non-singleton", "has-pure")
TABLE_WEIGHTS = {(shape, pure): w for shape in TABLE_SHAPES
                 for pure, w in ((True, 4), (False, 2))}

# 3-CNF formulas with n variables and m clauses; the market has n + 2m
# binary players. has-pure stops at the first pure equilibrium on a
# satisfiable formula (a third of the way through the profiles) and scans
# every profile on an unsatisfiable one, so satisfiable formulas are drawn
# larger: half at 2^11 and half at 2^12 profiles, against 2^10 for
# unsatisfiable ones. Their times then fall below and above the
# unsatisfiable ones instead of forming two separate modes, and the median
# lands inside a stratum rather than in the gap between two.
SAT_STRATA = {("sat", shape): 1 for shape in ((3, 4), (5, 3), (7, 2), (4, 4), (6, 3), (8, 2))}
SAT_STRATA |= {("unsat", shape): 2 for shape in ((2, 4), (4, 3), (6, 2))}
SAT_POOL = 168

# Unsatisfiable cores built from repeated literals; a core needs one or two
# variables and is padded with random clauses.
SAT_CORES = (
    ((1, 1, 1), (-1, -1, -1)),
    ((1, 1, 2), (1, 1, -2), (-1, -1, 2), (-1, -1, -2)),
)

def schedule(weights: dict, n: int) -> list:
    """``n`` strata in smooth weighted round-robin order."""
    current = dict.fromkeys(weights, 0)
    total = sum(weights.values())
    order = []
    for _ in range(n):
        for key, w in weights.items():
            current[key] += w
        pick = max(current, key=current.get)
        current[pick] -= total
        order.append(pick)
    return order


def _in_pool_order(weights: dict, drawn: dict) -> list:
    """(stratum, value) for every place of the pool, each stratum's values
    taken in the order they were drawn."""
    values = {key: iter(v) for key, v in drawn.items()}
    return [(key, next(values[key])) for key in schedule(weights, sum(weights.values()))]


def _draw_machine(rng, num_states):
    from sinkeq.turing import MOVES, SYMBOLS, TMSpec

    halt = num_states - 1
    delta = {
        (q, sym): (rng.randrange(num_states), rng.choice(SYMBOLS), rng.choice(MOVES))
        for q in range(halt) for sym in SYMBOLS
    }
    return TMSpec(num_states=num_states, q0=0, q_halt=halt,
                  t_prime=TM_T_PRIME, delta=delta)


def machine_class(outcome) -> str:
    if outcome.halted:
        return "halt"
    return "loop0" if outcome.prefix == 0 else "loopP"


def visited(outcome) -> int:
    """Distinct configurations of the run, the start included."""
    return outcome.steps + 1 if outcome.halted else outcome.prefix + outcome.period


def signature(spec, outcome) -> str:
    """Per step of the run, which of state (Q), tape (W), head (M) changed."""
    from sinkeq.turing import initial_config, tm_step

    config = initial_config(spec)
    marks = []
    for _ in range(outcome.steps if outcome.halted else visited(outcome)):
        nxt = tm_step(spec, config)
        changed = (("Q", nxt.state != config.state), ("W", nxt.tape != config.tape),
                   ("M", nxt.head != config.head))
        marks.append("".join(flag for flag, c in changed if c) or "-")
        config = nxt
    return "/".join(marks)


def _machines(seed: int, workdir: Path, kind: str, stats: dict) -> list[dict]:
    """Machines in stratum order. Each draw fills the next open place of its
    stratum; draws whose head leaves the tape, that visit more than two
    configurations, or whose stratum is full or not in the design are
    rejected and counted."""
    from sinkeq.errors import TapeBoundError
    from sinkeq.io import serialize_tm
    from sinkeq.turing import run_bounded

    # Both machine workloads use the same machines for a given seed.
    rng = random.Random(f"machines-{seed}")
    stats.update(rejected_tape=0, rejected_long=0, rejected_stratum=0)
    drawn = {key: [] for key in TM_WEIGHTS}
    while any(len(drawn[key]) < w for key, w in TM_WEIGHTS.items()):
        spec = _draw_machine(rng, rng.choice((2, 3)))
        try:
            outcome = run_bounded(spec)
        except TapeBoundError:
            stats["rejected_tape"] += 1
            continue
        if visited(outcome) > 2:
            stats["rejected_long"] += 1
            continue
        key = (machine_class(outcome), spec.num_states, signature(spec, outcome))
        if len(drawn.get(key, ())) >= TM_WEIGHTS.get(key, 0):
            stats["rejected_stratum"] += 1
            continue
        drawn[key].append(spec)
    items = []
    for k, ((cls, n, sig), spec) in enumerate(_in_pool_order(TM_WEIGHTS, drawn)):
        stem = f"m{k}_{cls}_{n}"
        machine = workdir / f"{stem}.tm.json"
        machine.write_text(serialize_tm(spec))
        gadget = str(workdir / f"{stem}.game.json")
        items.append({
            "id": stem, "stratum": f"{cls}/{n}/{sig}", "machine": str(machine),
            "game": gadget,
            "steps": [
                ["compile", kind, str(machine), "-o", gadget],
                ["--format", "json", "in-sink", gadget, "--profile", "@initial"],
            ],
        })
    return items


def has_pure_profile(counts, tables) -> bool:
    """Whether some profile is a pure Nash equilibrium of a table game.

    Profiles are mixed-radix indices, player 0 varying fastest. A profile
    stays a candidate while it is a best response for every player so far.
    """
    size = len(tables[0])
    candidate = bytearray([1]) * size
    weight = 1
    for c, table in zip(counts, tables):
        span = weight * c
        for hi in range(0, size, span):
            for base in range(hi, hi + weight):
                values = table[base:base + span:weight]
                best = max(values)
                for s, v in enumerate(values):
                    if v < best:
                        candidate[base + s * weight] = 0
        weight = span
    return any(candidate)


def _tables(seed: int, workdir: Path, stats: dict) -> list[dict]:
    """Each draw fills the next open place of its (shape, has a pure
    equilibrium) stratum; draws for a full stratum are counted as rejected."""
    from sinkeq.games import TableGame
    from sinkeq.io import serialize_game

    rng = random.Random(f"tables-{seed}")
    stats.update(rejected_stratum=0, doc_bytes=0)
    drawn = {key: [] for key in TABLE_WEIGHTS}
    for shape in TABLE_SHAPES:
        size = 1
        for c in shape:
            size *= c
        while any(len(drawn[(shape, p)]) < TABLE_WEIGHTS[(shape, p)] for p in (True, False)):
            tables = [rng.choices(TABLE_PAYOFFS, k=size) for _ in shape]
            key = (shape, has_pure_profile(shape, tables))
            if len(drawn[key]) < TABLE_WEIGHTS[key]:
                drawn[key].append(tables)
            else:
                stats["rejected_stratum"] += 1
    items = []
    for k, ((shape, pure), tables) in enumerate(_in_pool_order(TABLE_WEIGHTS, drawn)):
        label = "x".join(map(str, shape))
        path = workdir / f"t{k}_{label}.game.json"
        text = serialize_game(TableGame(shape, tables))
        path.write_text(text)
        stats["doc_bytes"] += len(text)
        items.append({
            "id": f"t{k}_{label}", "stratum": f"{label}/{'pure' if pure else 'no-pure'}",
            "game": str(path),
            "steps": [["--format", "json", q, str(path)] for q in TABLE_QUESTIONS],
        })
    return items


def satisfiable(num_vars: int, clauses) -> bool:
    """Brute force over all assignments."""
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def _random_clause(rng, n):
    return tuple(rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(3))


def _formulas(seed: int, workdir: Path, stats: dict) -> list[dict]:
    """Satisfiable formulas are random ones that pass brute force (the
    others are counted as rejected); unsatisfiable ones plant a core."""
    rng = random.Random(f"formulas-{seed}")
    stats.update(rejected_unsat=0)
    items = []
    for k, (label, (n, m)) in enumerate(schedule(SAT_STRATA, SAT_POOL)):
        if label == "sat":
            while True:
                formula = [_random_clause(rng, n) for _ in range(m)]
                if satisfiable(n, formula):
                    break
                stats["rejected_unsat"] += 1
        else:
            core = list(rng.choice([c for c in SAT_CORES if len(c) <= m]))
            formula = core + [_random_clause(rng, n) for _ in range(m - len(core))]
            rng.shuffle(formula)
        stem = f"f{k}_{label}_{n}v{m}c"
        path = workdir / f"{stem}.cnf"
        path.write_text(
            f"p cnf {n} {m}\n"
            + "".join(" ".join(map(str, c)) + " 0\n" for c in formula)
        )
        game = str(workdir / f"{stem}.game.json")
        items.append({
            "id": stem, "stratum": f"{label}/{n}v{m}c", "cnf": str(path), "game": game,
            "steps": [
                ["compile", "sat2market", str(path), "-o", game],
                ["--format", "json", "has-pure", game],
            ],
        })
    return items


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the pool for (workload, seed) under ``workdir``; return the manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    if workload in ("tm-wcg", "tm-anon"):
        kind = "tm2wcg" if workload == "tm-wcg" else "tm2anon"
        items = _machines(seed, workdir, kind, stats)
    elif workload == "table-full":
        items = _tables(seed, workdir, stats)
    elif workload == "sat-market":
        items = _formulas(seed, workdir, stats)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "items": items,
                "generator": stats}
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    make_inputs(args.workload, args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
