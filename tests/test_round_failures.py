"""The round verifiers can say no: a gadget whose dynamics leave the round
table fails at the row or step where they leave it."""

from dataclasses import replace

import pytest

import sinkeq.compilers.anonymous as anonymous
import sinkeq.compilers.weighted as weighted
from sinkeq.compilers import (
    compile_tm_anonymous,
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
    verify_round_anonymous,
    verify_round_weighted,
)
from sinkeq.games.anonymous import And, Cmp, Count
from sinkeq.games.market import TwoSidedMarketGame


def moved_start(compiled, role, strategy):
    start = list(compiled.initial)
    start[compiled.symbols.player(role)] = compiled.symbols.strategy(role, strategy)
    return tuple(start)


@pytest.mark.parametrize("compile_tm, verify, role, strategy, failure", [
    (compile_tm_weighted, verify_round_weighted, "clock", "Wait",
     "start profile: clock must be on Trigger"),
    (compile_tm_anonymous, verify_round_anonymous, "control1", "tape-change",
     "start profile: control1 must be on init"),
    (compile_tm_anonymous, verify_round_anonymous, "cell_0", "change",
     "start profile: cell_0 is mid-rewrite (on change)"),
    (compile_tm_anonymous, verify_round_anonymous, "state_0", "state^1",
     "start configuration is already halted"),
], ids=["clock", "control1", "mid-rewrite", "halted"])
def test_a_start_off_the_round_start_fails_before_any_move(
        halter, compile_tm, verify, role, strategy, failure):
    compiled = compile_tm(halter)
    report = verify(compiled, moved_start(compiled, role, strategy))
    assert not report.matches
    assert report.failure == failure
    assert report.trace == [] and report.end_profile is None


def test_the_figure_done_constant_stalls_the_congestion_round_at_step_7(
        flipper, monkeypatch):
    # with the figure's Done constant 20 the Done move no longer improves
    monkeypatch.setattr(weighted, "DONE_NN", 20)
    for compile_tm in (compile_tm_weighted, compile_tm_player_specific):
        report = verify_round_weighted(compile_tm(flipper))
        assert not report.matches
        assert report.failure == (
            "step (7): expected movers [('transition', 'Done')], found []")
        assert report.trace[-1].step == "(6)"


def test_the_figure_done_value_stalls_the_market_round_at_step_9(flipper):
    # the figure's N - M + 20, without the alpha windfall taken off: Done then
    # outvalues Wait and the transition player never resets
    compiled = compile_tm_market(flipper)
    figure = compiled.market_base - compiled.penalty + 20
    game = compiled.game
    compiled.game = TwoSidedMarketGame(
        [replace(p, value=figure) if p.name == "nn_done" else p for p in game.passive],
        game.active,
    )
    report = verify_round_weighted(compiled)
    assert not report.matches
    assert report.failure == "step (9): expected movers [('transition', 'Wait')], found []"
    assert report.trace[-1].step == "(8)"


def test_strict_balancing_stalls_the_anonymous_round_at_row_12(walker, monkeypatch):
    def strict(cls, guards, target):
        ones = Count(anonymous._S[f"{cls}^1"])
        return [
            (f"{cls}^1", And(*guards, Cmp("<", ones, target))),
            (f"{cls}^0", And(*guards, Cmp(">", ones, target))),
        ]

    monkeypatch.setattr(anonymous, "_balance", strict)
    report = verify_round_anonymous(compile_tm_anonymous(walker))
    assert not report.matches
    assert report.failure == (
        "row 12: expected movers [('control2', 'Xnew-pos'), ('new_pos_0', 'new-pos^1'), "
        "('new_pos_1', 'new-pos^1')], found [('control2', 'Xnew-pos')]"
    )
    assert report.end_profile is None
