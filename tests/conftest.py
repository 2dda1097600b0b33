import pytest

from sinkeq.turing import TMSpec

# the four small machines the tests share, also read by tests/golden/update.py
MACHINES = {
    # 2-state looper: rewrites the cell under the head in place, period 2
    "flipper": TMSpec(
        num_states=2, q0=0, q_halt=1, t_prime=2,
        delta={
            (0, "b"): (0, "1", "S"),
            (0, "1"): (0, "b", "S"),
            (0, "0"): (0, "b", "S"),
        },
    ),
    # 3-state looper exercising L/R moves, writes, and state changes
    "walker": TMSpec(
        num_states=3, q0=0, q_halt=2, t_prime=2,
        delta={
            (0, "b"): (1, "1", "R"),
            (0, "0"): (0, "1", "S"),
            (0, "1"): (1, "0", "R"),
            (1, "b"): (0, "b", "L"),
            (1, "0"): (0, "0", "L"),
            (1, "1"): (0, "1", "L"),
        },
    ),
    # writes one symbol and halts after a single step
    "halter": TMSpec(
        num_states=2, q0=0, q_halt=1, t_prime=2,
        delta={
            (0, "b"): (1, "1", "R"),
            (0, "1"): (1, "1", "R"),
            (0, "0"): (1, "1", "R"),
        },
    ),
    # halts in two steps through an intermediate state (three states)
    "halter3": TMSpec(
        num_states=3, q0=0, q_halt=2, t_prime=2,
        delta={
            (0, "b"): (1, "1", "R"),
            (0, "1"): (1, "1", "R"),
            (0, "0"): (1, "1", "R"),
            (1, "b"): (2, "b", "S"),
            (1, "1"): (2, "1", "S"),
            (1, "0"): (2, "0", "S"),
        },
    ),
}


@pytest.fixture(scope="session")
def flipper():
    return MACHINES["flipper"]


@pytest.fixture(scope="session")
def walker():
    return MACHINES["walker"]


@pytest.fixture(scope="session")
def halter():
    return MACHINES["halter"]


@pytest.fixture(scope="session")
def halter3():
    return MACHINES["halter3"]
