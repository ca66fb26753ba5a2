"""Timer-based method sampler over virtual time.

Jikes RVM's adaptive system observes hotness by sampling the running method
on a timer tick. We reproduce the same semantics over the virtual clock: a
sample is taken every ``sample_interval`` virtual cycles and attributed to
the method executing at that instant. Listeners (the adaptive controller)
are notified per sample and may request recompilations in response.
"""

from __future__ import annotations

from typing import Callable, Protocol


class SampleListener(Protocol):
    """Receives each timer sample as it is taken.

    A listener may also define ``reset()``, returning it to its
    just-attached state; runs whose listeners all have one may execute on
    the closure-compiled tier (see :func:`repro.vm.closures.resolve_compiled`).
    """

    def on_sample(self, method: str, clock: float, count: int) -> None:
        """Called with the sampled *method*, the clock, and that method's
        cumulative sample count (including this sample)."""


class Sampler:
    """Virtual-time timer sampler.

    The interpreter calls :meth:`advance` after every instruction with the
    new clock value and the currently executing method; the sampler emits
    one sample per elapsed interval boundary (several, if a single costly
    instruction — a big ``burn`` — spans multiple intervals, exactly as a
    long-running native region would absorb several timer ticks).
    """

    def __init__(self, interval: float):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.interval = float(interval)
        self.counts: dict[str, int] = {}
        self._next_tick = self.interval
        self._listeners: list[SampleListener] = []

    def add_listener(self, listener: SampleListener) -> None:
        self._listeners.append(listener)

    @property
    def listeners(self) -> tuple[SampleListener, ...]:
        return tuple(self._listeners)

    def reset(self) -> None:
        """Forget every sample and restart the timer; listeners stay."""
        self.counts = {}
        self._next_tick = self.interval

    @property
    def has_listeners(self) -> bool:
        """True when at least one listener must be notified per sample.

        The compiled tier consults this once per run: with no listeners
        its blocks need no tick check until a method transition, because
        no observer can act between two samples of the same segment (see
        ``docs/performance.md``).
        """
        return bool(self._listeners)

    def advance(self, clock: float, method: str) -> None:
        """Register clock progress; emit samples for every crossed tick.

        With no listeners registered the loop takes a stripped path: no
        per-sample listener iteration and a single ``counts`` write for
        the whole batch of crossed ticks. ``_next_tick`` still advances
        by repeated addition (never ``n * interval``) so its value stays
        bit-identical to the per-sample reference for any float interval.
        """
        next_tick = self._next_tick
        if clock < next_tick:
            return
        interval = self.interval
        if self._listeners:
            while clock >= next_tick:
                count = self.counts.get(method, 0) + 1
                self.counts[method] = count
                next_tick += interval
                self._next_tick = next_tick
                for listener in self._listeners:
                    listener.on_sample(method, next_tick - interval, count)
                next_tick = self._next_tick
        else:
            count = self.counts.get(method, 0)
            while clock >= next_tick:
                count += 1
                next_tick += interval
            self.counts[method] = count
            self._next_tick = next_tick

    def skip_to(self, clock: float) -> None:
        """Advance past *clock* without emitting samples.

        Used while the compiler thread runs: Jikes' sampler observes the
        application thread, so cycles spent compiling do not produce
        application-method samples.
        """
        while self._next_tick <= clock:
            self._next_tick += self.interval

    @property
    def next_tick(self) -> float:
        return self._next_tick

    @property
    def total(self) -> int:
        return sum(self.counts.values())
