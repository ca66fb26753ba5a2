"""Phase-based adaptive recompilation (after Gu & Verbrugge, CGO'06).

The paper positions its cross-run prediction as *complementary* to
phase-based adaptation: phase detection offers fine-grained in-run control
while Evolve predicts for the entire execution. To let experiments compare
against that axis too, this module implements a phase-aware controller:

- a :class:`PhaseDetector` watches the stream of timer samples and splits
  the run into phases by the stability of the sampled-method distribution
  (a working-set similarity test over sliding windows);
- :class:`PhaseAdaptiveController` scales the cost-benefit model's
  future-time estimate by the phase's observed stability: inside a long
  stable phase, the future is predicted to extend further than `past`
  (aggressive recompilation); right after a phase change, history is
  discounted (conservative), since the old behaviour no longer predicts
  the new phase.
"""

from __future__ import annotations

from collections import Counter

from ..vm.interpreter import Interpreter
from .cost_benefit import CostBenefitModel


def window_similarity(a: Counter, b: Counter) -> float:
    """Cosine-like overlap between two sample-count windows in [0, 1]."""
    if not a or not b:
        return 0.0
    dot = sum(count * b.get(method, 0) for method, count in a.items())
    norm_a = sum(count * count for count in a.values()) ** 0.5
    norm_b = sum(count * count for count in b.values()) ** 0.5
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


class PhaseDetector:
    """Detects phase boundaries in the timer-sample stream.

    Samples are grouped into fixed-size windows; a new window whose method
    distribution diverges from the previous one (similarity below the
    threshold) starts a new phase.
    """

    def __init__(self, window_samples: int = 8, similarity_threshold: float = 0.5):
        if window_samples < 1:
            raise ValueError("window_samples must be >= 1")
        self.window_samples = window_samples
        self.similarity_threshold = similarity_threshold
        self.current_window: Counter = Counter()
        self.previous_window: Counter | None = None
        self.phase_index = 0
        self.windows_in_phase = 0
        self.boundaries: list[float] = []

    def observe(self, method: str, clock: float) -> bool:
        """Feed one sample; returns True when a phase boundary is crossed."""
        self.current_window[method] += 1
        if sum(self.current_window.values()) < self.window_samples:
            return False
        window = self.current_window
        self.current_window = Counter()
        changed = False
        if self.previous_window is not None:
            similarity = window_similarity(self.previous_window, window)
            if similarity < self.similarity_threshold:
                self.phase_index += 1
                self.windows_in_phase = 0
                self.boundaries.append(clock)
                changed = True
        self.previous_window = window
        self.windows_in_phase += 1
        return changed

    @property
    def stability(self) -> float:
        """How established the current phase is, in [0, 1]."""
        return min(1.0, self.windows_in_phase / 4.0)


class PhaseAdaptiveController:
    """Reactive controller whose aggressiveness tracks phase stability.

    The cost-benefit future estimate becomes
    ``future = past × (0.5 + 1.5 × stability)``: fresh phases discount
    history (×0.5), long stable phases extrapolate beyond it (×2.0) —
    the varying-aggressiveness scheme of phase-based recompilation.
    """

    def __init__(
        self,
        interpreter: Interpreter,
        window_samples: int = 8,
        similarity_threshold: float = 0.5,
    ):
        self.interpreter = interpreter
        self.model = CostBenefitModel(
            interpreter.jit, interpreter.config.sample_interval
        )
        self._detector_args = (window_samples, similarity_threshold)
        self.reset()
        interpreter.sampler.add_listener(self)

    def reset(self) -> None:
        """Back to the just-attached state (the run restarts from scratch)."""
        self.detector = PhaseDetector(*self._detector_args)
        self.decisions: list[tuple[str, int, int]] = []
        #: Sample counts since the current phase began (history discount).
        self._phase_counts: dict[str, int] = {}

    def on_sample(self, method: str, clock: float, count: int) -> None:
        if self.detector.observe(method, clock):
            self._phase_counts.clear()
        self._phase_counts[method] = self._phase_counts.get(method, 0) + 1
        aggressiveness = 0.5 + 1.5 * self.detector.stability
        effective = max(1, int(self._phase_counts[method] * aggressiveness))
        current = self.interpreter.current_level(method)
        level = self.model.choose_recompile_level(method, current, effective)
        if level is not None:
            self.decisions.append((method, count, level))
            self.interpreter.request_recompile(method, level)

    @property
    def phase_count(self) -> int:
        return self.detector.phase_index + 1
