"""Adaptive optimization controllers driving an :class:`Interpreter`.

Controllers are sample listeners: they attach to a live interpreter's
sampler and translate observed hotness into recompilation requests.

- :class:`AdaptiveController` — the default reactive scheme (Jikes RVM's
  cost-benefit model on every sample).
- :class:`PairPlanController` — replays a fixed :class:`PairStrategy`
  (the Rep baseline's execution arm).
"""

from __future__ import annotations

from ..vm.interpreter import Interpreter
from .cost_benefit import CostBenefitModel
from .strategy import PairStrategy


class AdaptiveController:
    """Jikes-style reactive controller: sample → cost-benefit → recompile.

    Optionally restricted to a subset of methods (``exclude``): the
    evolvable VM uses this to keep reactive control over methods its
    predicted strategy does not cover while leaving predicted methods at
    their proactively chosen levels.
    """

    def __init__(
        self,
        interpreter: Interpreter,
        exclude: frozenset[str] = frozenset(),
    ):
        self.interpreter = interpreter
        self.model = CostBenefitModel(
            interpreter.jit, interpreter.config.sample_interval
        )
        self.exclude = exclude
        self.decisions: list[tuple[str, int, int]] = []  # (method, at_sample, level)
        interpreter.sampler.add_listener(self)

    def reset(self) -> None:
        """Back to the just-attached state (the run restarts from scratch)."""
        self.decisions = []

    def on_sample(self, method: str, clock: float, count: int) -> None:
        if method in self.exclude:
            return
        current = self.interpreter.current_level(method)
        level = self.model.choose_recompile_level(method, current, count)
        if level is not None:
            self.decisions.append((method, count, level))
            self.interpreter.request_recompile(method, level)


class PairPlanController:
    """Executes a :class:`PairStrategy`: recompile method *m* to level *o*
    once its sample count reaches *k*, for each planned pair in order."""

    def __init__(self, interpreter: Interpreter, strategy: PairStrategy):
        self.interpreter = interpreter
        self.strategy = strategy
        self._next_pair_index: dict[str, int] = {}
        interpreter.sampler.add_listener(self)

    def reset(self) -> None:
        """Back to the just-attached state (the run restarts from scratch)."""
        self._next_pair_index = {}

    def on_sample(self, method: str, clock: float, count: int) -> None:
        plan = self.strategy.plan_for(method)
        if not plan:
            return
        index = self._next_pair_index.get(method, 0)
        while index < len(plan) and count >= plan[index].at_sample:
            self.interpreter.request_recompile(method, plan[index].level)
            index += 1
        self._next_pair_index[method] = index
