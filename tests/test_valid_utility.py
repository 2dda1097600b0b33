import pytest

from sinkeq.errors import CapExceededError, ConfigurationError
from sinkeq.games.valid_utility import (
    ValidUtilityInstance,
    check_valid_utility,
    coverage_instance,
)


def small_coverage():
    ground = [("a", "b"), ("b", "c")]
    feasible = [
        (frozenset(), frozenset({"a"}), frozenset({"a", "b"})),
        (frozenset(), frozenset({"b"}), frozenset({"b", "c"})),
    ]
    return coverage_instance(ground, feasible)


def test_coverage_instance_passes_all_flags():
    report = check_valid_utility(small_coverage())
    assert report.nondecreasing
    assert report.submodular
    assert report.marginal_utility
    assert report.sum_bounded
    assert report.all_hold
    assert report.counterexamples == {}


def test_lowered_utility_fails_exactly_marginal():
    base = small_coverage()

    def dented_utility(sets, player):
        u = base.utility_fn(sets, player)
        if player == 0 and sets[0] == frozenset({"a", "b"}):
            return u - 1
        return u

    inst = ValidUtilityInstance(
        base.ground_sets, base.feasible, dented_utility, base.social_fn
    )
    report = check_valid_utility(inst)
    assert report.nondecreasing
    assert report.submodular
    assert report.sum_bounded
    assert not report.marginal_utility
    witness = report.counterexamples["marginal_utility"]
    assert witness["player"] == 0
    profile = witness["profile"]
    assert inst.feasible[0][profile[0]] == frozenset({"a", "b"})


def test_degenerate_single_player_instance():
    inst = ValidUtilityInstance(
        [("v",)],
        [(frozenset(),)],
        lambda sets, player: 0,
        lambda sets: 0,
    )
    assert check_valid_utility(inst).all_hold


def test_non_monotone_social_function_flagged():
    inst = ValidUtilityInstance(
        [("v",)],
        [(frozenset(), frozenset({"v"}))],
        lambda sets, player: 0,
        lambda sets: 1 if not sets[0] else 0,
    )
    report = check_valid_utility(inst)
    assert not report.nondecreasing
    assert "nondecreasing" in report.counterexamples


def test_supermodular_social_function_flagged():
    ground = [("a",), ("b",)]
    feasible = [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))]

    def social(sets):
        # strictly supermodular: the pair together is worth more than its parts
        total = sum(len(s) for s in sets)
        return total * total

    inst = ValidUtilityInstance(ground, feasible, lambda s, p: 0, social)
    report = check_valid_utility(inst)
    assert not report.submodular


def test_cap_raises_instead_of_silent_pass():
    ground = [tuple(f"v{i}" for i in range(6)) for _ in range(3)]
    feasible = [(frozenset(),) for _ in range(3)]
    inst = ValidUtilityInstance(ground, feasible, lambda s, p: 0, lambda s: 0)
    with pytest.raises(CapExceededError, match="too large"):
        check_valid_utility(inst, cap=1000)


def test_empty_action_required():
    with pytest.raises(Exception, match="empty action"):
        ValidUtilityInstance(
            [("v",)], [(frozenset({"v"}),)], lambda s, p: 0, lambda s: 0
        )


@pytest.mark.parametrize("families", [1, 3])
def test_one_feasible_family_per_ground_set(families):
    # one more family than ground sets, or one fewer, is refused by name
    ground = [("a",), ("b",)]
    feasible = [(frozenset(),)] * families
    with pytest.raises(ConfigurationError,
                       match=f"{families} feasible families for 2 ground sets"):
        ValidUtilityInstance(ground, feasible, lambda s, p: 0, lambda s: 0)
