"""Command-line interface.

Exit codes: 0 = question answered, 2 = inconclusive (a cap bound the search),
1 = error. ``--profile @initial`` resolves through the compiled game's
sidecar symbol table (written next to the game file by ``compile``).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import io as gameio
from .cnf import parse_dimacs
from .compilers import (
    compile_sat_market,
    compile_tm_anonymous,
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
    verify_round_anonymous,
    verify_round_weighted,
)
from .dot import export_dot, export_space_dot
from .dynamics import (
    EdgeSemantics,
    FirstImprover,
    PriorityList,
    RandomImprover,
    StateGraph,
    WalkOutcome,
    backward_reach,
    forward_closure,
    pure_equilibrium,
    simulate_walk,
    space_sinks,
)
from .errors import CapExceededError, FormatError, SinkeqError
from .games import AnonymousGame
from .games.valid_utility import ValidUtilityInstance, check_valid_utility
from .report import AnalysisReport

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


def _players(text: str) -> tuple[int, ...]:
    return tuple(_nonnegative_int(tok) for tok in text.split(",") if tok)


@functools.cache  # one parser per process: building it costs far more than a parse
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinkeq",
        description="Sink equilibria and dynamics analysis for succinct games",
    )
    parser.add_argument(
        "--semantics",
        choices=[semantics.value for semantics in EdgeSemantics],
        default="improvement",
    )
    parser.add_argument("--cap", type=_positive_int, default=None,
                        help="bound on the profile space (full-space commands, "
                             "has-pure on a table), on the search nodes (has-pure "
                             "on any other game) or on the forward closure "
                             "(in-sink, export-dot --from)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sinks", help="list all sink equilibria")
    p.add_argument("game")

    p = sub.add_parser("in-sink", help="is a profile inside a sink equilibrium")
    p.add_argument("game")
    p.add_argument("--profile", required=True,
                   help="comma-separated strategy indices, or @initial")

    p = sub.add_parser("has-pure", help="does a pure Nash equilibrium exist")
    p.add_argument("game")

    p = sub.add_parser("has-non-singleton", help="does a non-singleton sink exist")
    p.add_argument("game")

    p = sub.add_parser("simulate", help="walk the state graph")
    p.add_argument("game")
    p.add_argument("--policy", choices=["first", "random", "priority"],
                   default="first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_nonnegative_int, default=1000)
    p.add_argument("--order", type=_players, default="",
                   help="player priority list, comma-separated")
    p.add_argument("--profile", default=None,
                   help="start profile; defaults to all zeros")

    p = sub.add_parser("compile", help="emit a reduction as game + sidecar")
    p.add_argument("kind", choices=["tm2wcg", "tm2psg", "tm2anon", "tm2market",
                                    "sat2market"])
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--penalty", type=int, default=10_000)

    p = sub.add_parser("verify-round", help="replay one simulated machine step")
    p.add_argument("game")
    p.add_argument("--profile", default="@initial")

    p = sub.add_parser("check-valid-utility", help="check the defining properties")
    p.add_argument("game")

    p = sub.add_parser("export-dot", help="dump a state (sub)graph as DOT")
    p.add_argument("game")
    p.add_argument("--from", dest="from_profile", default=None,
                   help="restrict to the forward closure of this profile")
    return parser


def _sidecar_path(game_path: str) -> Path:
    path = Path(game_path)
    if path.suffix == ".json":
        return path.with_suffix(".symbols.json")
    return Path(str(path) + ".symbols.json")


def _parse(path, parse, *args):
    """Read and parse one document; a ``FormatError`` names the file."""
    data = Path(path).read_bytes()
    try:
        return parse(data, *args)
    except FormatError as exc:
        raise FormatError(str(exc), str(path)) from None


def _load_compiled(path: str, game):
    """The compiled reduction of the already parsed game at ``path``."""
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise SinkeqError(f"no sidecar symbol table at {sidecar}")
    return _parse(sidecar, gameio.parse_sidecar, game)


def _resolve_profile(spec: str, game, game_path: str):
    if spec == "@initial":
        return _load_compiled(game_path, game).initial
    try:
        choices = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise SinkeqError(f"cannot parse profile {spec!r}") from None
    return game.validate_profile(choices)


def _emit(report: AnalysisReport, args, out) -> None:
    out.write(report.to_json() if args.format == "json" else report.to_text())


def run_cli(argv, out=sys.stdout, err=sys.stderr) -> int:
    parser = _build_parser()
    try:
        # argparse prints usage errors and --help to sys.stderr/sys.stdout
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        report = _dispatch(args)
    except CapExceededError as exc:
        report = AnalysisReport(args.command, "inconclusive", str(exc),
                                states_explored=exc.explored)
    except (SinkeqError, OSError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    report.wall_ms = round((time.perf_counter() - started) * 1000, 3)
    _emit(report, args, out)
    return EXIT_INCONCLUSIVE if report.answer == "inconclusive" else EXIT_OK


def _dispatch(args) -> AnalysisReport:
    if args.command == "compile":
        return _compile(args)
    game = _parse(args.game, gameio.parse_game_file)
    graph = StateGraph(game, EdgeSemantics(args.semantics))
    if args.command == "sinks":
        unions, found = space_sinks(graph, args.cap)
        sizes = list(map(len, found))
        return AnalysisReport(
            "sinks", f"{len(sizes)} sink equilibria", states_explored=game.codec.num_profiles,
            edges=sum(union.bit_count() for _, union in unions),
            extra={"sink_sizes": sizes, "singletons": sizes.count(1)},
        )
    if args.command == "has-non-singleton":
        equilibria, stuck = backward_reach(graph, args.cap)
        return AnalysisReport(
            "has-non-singleton", "true" if stuck else "false",
            states_explored=game.codec.num_profiles,
            extra={"equilibria": equilibria.bit_count(), "stuck_states": stuck.bit_count()},
        )
    if args.command == "in-sink":
        closure = forward_closure(graph, _resolve_profile(args.profile, game, args.game),
                                  args.cap, stop_at_foreign_sink=True)
        in_sink = closure.start_in_sink
        # on false the pass stopped at the first sink it completed, the one without the start
        extra = {} if in_sink else {"sink_size": len(closure.sinks[0])}
        return AnalysisReport(
            "in-sink", "true" if in_sink else "false", states_explored=len(closure),
            edges=closure.edges, scc_count=len(closure.components), extra=extra,
        )
    if args.command == "has-pure":
        code, explored = pure_equilibrium(game, args.cap)
        if code is None:
            return AnalysisReport("has-pure", "false", states_explored=explored)
        return AnalysisReport("has-pure", "true", states_explored=explored,
                              extra={"equilibrium": list(game.codec.decode(code))})
    if args.command == "simulate":
        if args.profile:
            start = _resolve_profile(args.profile, game, args.game)
        else:
            start = (0,) * game.num_players
        if args.policy == "first":
            policy = FirstImprover()
        elif args.policy == "random":
            policy = RandomImprover(args.seed)
        else:
            policy = PriorityList(args.order or tuple(range(game.num_players)))
        walk = simulate_walk(graph, start, policy, args.max_steps, args.cap)
        return AnalysisReport(
            question="simulate",
            answer=walk.outcome.value,
            reason=("the cap cut the forward closure of the final profile"
                    if walk.outcome is WalkOutcome.INCONCLUSIVE else ""),
            states_explored=len(walk.states),
            trace=[
                {"player": p, "strategy": s} for p, s in walk.moves
            ],
            extra={"final": list(walk.final)},
        )
    if args.command == "verify-round":
        compiled = _load_compiled(args.game, game)
        if compiled.machine is None:
            raise SinkeqError(f"{_sidecar_path(args.game)} names no machine to replay")
        start = (compiled.initial if args.profile == "@initial"
                 else _resolve_profile(args.profile, game, args.game))
        verify = (verify_round_anonymous if isinstance(game, AnonymousGame)
                  else verify_round_weighted)
        result = verify(compiled, start)
        return AnalysisReport(
            question="verify-round",
            answer="true" if result.matches else "false",
            reason=result.failure or "",
            trace=[
                {"step": m.step, "role": m.role, "strategy": m.strategy}
                for m in result.trace
            ],
        )
    if args.command == "check-valid-utility":
        if not isinstance(game, ValidUtilityInstance):
            raise SinkeqError("check-valid-utility needs a valid_utility document")
        result = check_valid_utility(game, args.cap)
        return AnalysisReport(
            question="check-valid-utility",
            answer="true" if result.all_hold else "false",
            extra={
                "nondecreasing": result.nondecreasing,
                "submodular": result.submodular,
                "marginal_utility": result.marginal_utility,
                "sum_bounded": result.sum_bounded,
                "counterexamples": {
                    k: repr(v) for k, v in result.counterexamples.items()
                },
            },
        )
    if args.command == "export-dot":
        if args.from_profile:
            start = _resolve_profile(args.from_profile, game, args.game)
            dot = export_dot(forward_closure(graph, start, args.cap), game.codec)
        else:
            dot = export_space_dot(*space_sinks(graph, args.cap or 4096), game.codec)
        return AnalysisReport(question="export-dot", answer=dot)
    raise SinkeqError(f"unhandled command {args.command}")


def _compile(args) -> AnalysisReport:
    if args.kind == "sat2market":
        compiled = compile_sat_market(_parse(args.input, parse_dimacs))
    else:
        spec = _parse(args.input, gameio.parse_tm_file)
        if args.kind == "tm2wcg":
            compiled = compile_tm_weighted(spec, penalty=args.penalty)
        elif args.kind == "tm2psg":
            compiled = compile_tm_player_specific(spec, penalty=args.penalty)
        elif args.kind == "tm2market":
            compiled = compile_tm_market(spec, penalty=args.penalty)
        else:
            compiled = compile_tm_anonymous(spec)
    out_path = Path(args.output)
    out_path.write_text(gameio.serialize_game(compiled.game))
    sidecar = _sidecar_path(args.output)
    sidecar.write_text(gameio.serialize_sidecar(compiled))
    return AnalysisReport(
        question="compile",
        answer="ok",
        extra={
            "game": str(out_path),
            "sidecar": str(sidecar),
            "players": compiled.game.num_players,
        },
    )


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
