from .base import SuccinctGame
from .table import TableGame, matching_pennies, prisoners_dilemma
from .congestion import PLAYER_SPECIFIC, SHARED, CongestionGame
from .anonymous import (
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
    expr_from_json,
    predicate_from_json,
)
from .market import ActiveAgent, PassiveAgent, TwoSidedMarketGame
from .valid_utility import (
    ValidUtilityInstance,
    ValidUtilityReport,
    check_valid_utility,
    coverage_instance,
)

__all__ = [
    "SuccinctGame",
    "TableGame", "prisoners_dilemma", "matching_pennies",
    "CongestionGame", "SHARED", "PLAYER_SPECIFIC",
    "AnonymousGame", "AnonymousPlayer",
    "Const", "Count", "Add", "Sub", "Cmp", "And",
    "count_eq", "count_ge", "expr_from_json", "predicate_from_json",
    "TwoSidedMarketGame", "PassiveAgent", "ActiveAgent",
    "ValidUtilityInstance", "ValidUtilityReport",
    "check_valid_utility", "coverage_instance",
]
