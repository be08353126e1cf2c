"""Executable engine: generic joins, splits, Online Yannakakis, 2PP, index."""

from repro.core.index import CQAPIndex, IndexStats
from repro.core.joins import BudgetExceeded, choose_variable_order
from repro.core.online_yannakakis import OnlineYannakakis
from repro.core.panda import CondTable, InterpretationError, ProofSequenceInterpreter
from repro.core.split import HEAVY, LIGHT, SplitStep, Subproblem, apply_splits, split_steps_from_duals
from repro.core.two_phase import (
    CompiledOnlineStep,
    PhaseDecision,
    PlanningError,
    RulePlan,
    TwoPhaseExecutor,
    TwoPhasePlanner,
)

__all__ = [
    "BudgetExceeded",
    "CQAPIndex",
    "CompiledOnlineStep",
    "CondTable",
    "HEAVY",
    "InterpretationError",
    "ProofSequenceInterpreter",
    "IndexStats",
    "LIGHT",
    "OnlineYannakakis",
    "PhaseDecision",
    "PlanningError",
    "RulePlan",
    "SplitStep",
    "Subproblem",
    "TwoPhaseExecutor",
    "TwoPhasePlanner",
    "apply_splits",
    "choose_variable_order",
    "split_steps_from_duals",
]
