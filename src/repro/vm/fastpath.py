"""Removed: the pre-decoded, superinstruction-fused execution engine.

The VM has two engines: the closure-compiled tier
(:mod:`repro.vm.closures`) and the reference loop
(:meth:`repro.vm.interpreter.Interpreter._loop`). This module exists only
so the benchmark tracer's ``vm.fast`` entry in ``perfbench/tracer.py``
``TARGETS`` still resolves; it is to be deleted together with that entry
in the next change to the benchmark. Nothing in the package imports it.
"""


def run_fast(interp):
    """Placeholder for the removed engine's entry point; always raises."""
    raise NotImplementedError("the fast engine was removed; use the reference loop")
