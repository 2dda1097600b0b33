"""Valid-utility instances and the exhaustive property checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

from ..errors import CapExceededError, ConfigurationError
from ..profiles import Profile, ProfileCodec
from .base import SuccinctGame

SetProfile = tuple[frozenset, ...]


class ValidUtilityInstance(SuccinctGame):
    """Per-player ground sets and feasible families with utility/social oracles.

    The social function must be defined on every profile of subsets of the
    ground sets (the property checks walk the full lattice); utilities are
    evaluated on feasible profiles only. The empty set must be feasible for
    every player.
    """

    def __init__(
        self,
        ground_sets: Sequence[Sequence[str]],
        feasible: Sequence[Sequence[frozenset]],
        utility_fn: Callable[[SetProfile, int], int],
        social_fn: Callable[[SetProfile], int],
    ):
        self.ground_sets = tuple(tuple(g) for g in ground_sets)
        if len(feasible) != len(self.ground_sets):
            raise ConfigurationError(
                f"{len(feasible)} feasible families for {len(self.ground_sets)} ground sets"
            )
        fams = []
        for i, family in enumerate(feasible):
            fam = tuple(frozenset(s) for s in family)
            ground = set(self.ground_sets[i])
            if frozenset() not in fam:
                raise ConfigurationError(
                    f"player {i}: empty action missing from feasible family"
                )
            for s in fam:
                if not s <= ground:
                    raise ConfigurationError(
                        f"player {i}: feasible set {sorted(s)} leaves the ground set"
                    )
            fams.append(fam)
        self.feasible = tuple(fams)
        self.utility_fn = utility_fn
        self.social_fn = social_fn
        self.strategy_counts = tuple(len(f) for f in self.feasible)
        self.codec = ProfileCodec(self.strategy_counts)

    def set_profile(self, profile: Profile) -> SetProfile:
        return tuple(self.feasible[i][c] for i, c in enumerate(profile))

    def utility(self, profile: Profile, player: int) -> int:
        return self.utility_fn(self.set_profile(profile), player)

    def social(self, sets: SetProfile) -> int:
        return self.social_fn(sets)


@dataclass
class ValidUtilityReport:
    nondecreasing: bool = True
    submodular: bool = True
    marginal_utility: bool = True
    sum_bounded: bool = True
    counterexamples: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return (self.nondecreasing and self.submodular
                and self.marginal_utility and self.sum_bounded)

    def _fail(self, flag: str, witness):
        if getattr(self, flag):
            setattr(self, flag, False)
            self.counterexamples[flag] = witness


def _powerset(items):
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def check_valid_utility(instance: ValidUtilityInstance,
                        cap: int | None = None) -> ValidUtilityReport:
    """Exhaustively check the three defining properties (four flags).

    Monotonicity and submodularity walk the full subset lattice; the marginal
    and sum bounds walk feasible profiles. Exceeding ``cap`` raises rather
    than silently passing.
    """
    if cap is None:
        cap = 200_000
    report = ValidUtilityReport()

    lattice_size = 1
    for g in instance.ground_sets:
        lattice_size *= 1 << len(g)
    if lattice_size * lattice_size > cap:
        raise CapExceededError(
            f"instance too large: {lattice_size}^2 lattice comparisons exceed cap {cap}"
        )

    lattice = list(product(*(list(_powerset(g)) for g in instance.ground_sets)))
    gamma = {prof: instance.social(prof) for prof in lattice}

    for a in lattice:
        for b in lattice:
            join = tuple(x | y for x, y in zip(a, b))
            meet = tuple(x & y for x, y in zip(a, b))
            if all(x <= y for x, y in zip(a, b)) and gamma[a] > gamma[b]:
                report._fail("nondecreasing", {"smaller": a, "larger": b})
            if gamma[join] + gamma[meet] > gamma[a] + gamma[b]:
                report._fail("submodular", {"a": a, "b": b})
        if not report.nondecreasing and not report.submodular:
            break

    n = instance.num_players
    for profile in instance.codec.all_profiles():
        sets = instance.set_profile(profile)
        g_here = gamma[sets]
        total = 0
        for i in range(n):
            u = instance.utility_fn(sets, i)
            total += u
            absent = tuple(frozenset() if j == i else s for j, s in enumerate(sets))
            if u < g_here - gamma[absent]:
                report._fail("marginal_utility", {"profile": profile, "player": i})
        if total > g_here:
            report._fail("sum_bounded", {"profile": profile})

    return report


def coverage_instance(ground_sets, feasible) -> ValidUtilityInstance:
    """gamma = size of the union; utilities = exact marginal contributions."""
    def social(sets: SetProfile) -> int:
        union = set()
        for s in sets:
            union |= s
        return len(union)

    def utility(sets: SetProfile, player: int) -> int:
        absent = tuple(frozenset() if j == player else s for j, s in enumerate(sets))
        return social(sets) - social(absent)

    return ValidUtilityInstance(ground_sets, feasible, utility, social)
