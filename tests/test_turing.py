import pytest

from sinkeq.errors import CapExceededError, ConfigurationError, TapeBoundError
from sinkeq.turing import (
    HaltsAfter,
    LoopsWithCycle,
    TMSpec,
    TapeConfig,
    counter_width,
    initial_config,
    run_bounded,
    tm_step,
    wrap_machine,
)

from _oracles import direct_tm_rejects


def test_self_loop_step_is_identity():
    spec = TMSpec(2, 0, 1, 1, {
        (0, "b"): (0, "b", "S"), (0, "0"): (0, "b", "S"), (0, "1"): (0, "b", "S"),
    })
    config = initial_config(spec)
    assert tm_step(spec, config) == config
    assert run_bounded(spec) == LoopsWithCycle(prefix=0, period=1)


def test_write_and_move_right():
    spec = TMSpec(2, 0, 1, 2, {
        (0, "b"): (1, "1", "R"), (0, "0"): (1, "1", "R"), (0, "1"): (1, "1", "R"),
    })
    config = tm_step(spec, initial_config(spec))
    assert config == TapeConfig(1, 1, ("1", "b", "b"))
    assert run_bounded(spec) == HaltsAfter(1)


def test_stepping_a_halted_configuration_fails():
    spec = TMSpec(2, 0, 1, 1, {
        (0, "b"): (1, "b", "S"), (0, "0"): (1, "b", "S"), (0, "1"): (1, "b", "S"),
    })
    with pytest.raises(ValueError):
        tm_step(spec, TapeConfig(1, 0, ("b", "b")))


def test_head_leaving_tape_is_a_bound_violation():
    spec = TMSpec(2, 0, 1, 1, {
        (0, "b"): (0, "b", "L"), (0, "0"): (0, "b", "L"), (0, "1"): (0, "b", "L"),
    })
    with pytest.raises(TapeBoundError):
        tm_step(spec, initial_config(spec))


def test_delta_totality_enforced():
    with pytest.raises(ConfigurationError, match="undefined"):
        TMSpec(2, 0, 1, 1, {(0, "b"): (0, "b", "S")})
    with pytest.raises(ConfigurationError, match="halting"):
        TMSpec(2, 0, 1, 1, {
            (0, "b"): (0, "b", "S"), (0, "0"): (0, "b", "S"),
            (0, "1"): (0, "b", "S"), (1, "b"): (0, "b", "S"),
        })


def test_run_bounded_cap():
    spec = TMSpec(2, 0, 1, 2, {
        (0, "b"): (0, "1", "S"), (0, "1"): (0, "0", "S"), (0, "0"): (0, "b", "S"),
    })
    with pytest.raises(CapExceededError):
        run_bounded(spec, cap=2)


def reject_machine():
    # halts immediately; halting means reject by default
    return TMSpec(2, 0, 1, 1, {
        (0, "b"): (1, "b", "S"), (0, "0"): (1, "b", "S"), (0, "1"): (1, "b", "S"),
    })


def test_wrapper_halts_iff_machine_rejects():
    wrapped = wrap_machine(reject_machine(), "", 1)
    outcome = run_bounded(wrapped, cap=5_000_000)
    assert isinstance(outcome, HaltsAfter)


def test_wrapper_loops_on_accepting_machine():
    wrapped = wrap_machine(reject_machine(), "", 1, halt_is_accept=True)
    outcome = run_bounded(wrapped, cap=5_000_000)
    assert isinstance(outcome, LoopsWithCycle)
    # the reset path returns exactly to the initial configuration
    assert outcome.prefix == 0


def test_wrapper_loops_on_bound_breach():
    runaway = TMSpec(2, 0, 1, 4, {
        (0, "b"): (0, "1", "R"), (0, "0"): (0, "1", "R"), (0, "1"): (0, "1", "R"),
    })
    wrapped = wrap_machine(runaway, "", 2)
    outcome = run_bounded(wrapped, cap=5_000_000)
    assert isinstance(outcome, LoopsWithCycle)
    assert outcome.prefix == 0


def test_wrapper_input_is_written():
    # reads cell 0: rejects on "1", accepts (loops) on anything else
    branchy = TMSpec(3, 0, 2, 2, {
        (0, "1"): (2, "1", "S"),
        (0, "0"): (1, "0", "S"),
        (0, "b"): (1, "b", "S"),
        (1, "b"): (1, "b", "S"), (1, "0"): (1, "0", "S"), (1, "1"): (1, "1", "S"),
    })
    halted_on_1 = run_bounded(wrap_machine(branchy, "1", 2), cap=5_000_000)
    looped_on_0 = run_bounded(wrap_machine(branchy, "0", 2), cap=5_000_000)
    assert isinstance(halted_on_1, HaltsAfter)
    assert isinstance(looped_on_0, LoopsWithCycle)


def machine_library():
    lib = []
    lib.append(("reject", reject_machine(), "", 1, False))
    lib.append(("accept", reject_machine(), "", 1, True))
    looper = TMSpec(2, 0, 1, 2, {
        (0, "b"): (0, "1", "S"), (0, "1"): (0, "b", "S"), (0, "0"): (0, "b", "S"),
    })
    lib.append(("in-place loop", looper, "", 2, False))
    branchy = TMSpec(3, 0, 2, 2, {
        (0, "1"): (2, "1", "S"),
        (0, "0"): (1, "0", "S"),
        (0, "b"): (1, "b", "S"),
        (1, "b"): (1, "b", "S"), (1, "0"): (1, "0", "S"), (1, "1"): (1, "1", "S"),
    })
    lib.append(("branch on 1", branchy, "1", 2, False))
    lib.append(("branch on 0", branchy, "0", 2, False))
    # six states: walk right over the input; reject iff it ends in 1
    walker = TMSpec(6, 0, 5, 3, {
        (0, "0"): (1, "0", "R"), (0, "1"): (2, "1", "R"), (0, "b"): (3, "b", "S"),
        (1, "0"): (1, "0", "R"), (1, "1"): (2, "1", "R"), (1, "b"): (3, "b", "S"),
        (2, "0"): (1, "0", "R"), (2, "1"): (2, "1", "R"), (2, "b"): (5, "b", "S"),
        (3, "0"): (3, "0", "S"), (3, "1"): (3, "1", "S"), (3, "b"): (3, "b", "S"),
        (4, "0"): (3, "0", "S"), (4, "1"): (3, "1", "S"), (4, "b"): (3, "b", "S"),
    })
    lib.append(("ends-in-1 on 011", walker, "011", 3, False))
    lib.append(("ends-in-1 on 010", walker, "010", 3, False))
    lib.append(("ends-in-1 empty", walker, "", 3, False))
    return lib


def test_wrapper_matches_direct_simulation_on_library():
    for name, machine, x, t, accept in machine_library():
        wrapped = wrap_machine(machine, x, t, halt_is_accept=accept)
        outcome = run_bounded(wrapped, cap=5_000_000)
        expected = direct_tm_rejects(machine, x, t, halt_is_accept=accept)
        assert outcome.halted == expected, name


def test_wrapper_size_checks():
    machine = reject_machine()
    assert counter_width(machine, 1) >= 1
    with pytest.raises(ConfigurationError, match="longer"):
        wrap_machine(machine, "00", 1)
    with pytest.raises(ConfigurationError, match="tape bound 65, above the maximum 64"):
        wrap_machine(machine, "", 22)
