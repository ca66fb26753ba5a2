"""Equivalence suite: fast-path and compiled engines vs. the reference.

The fast engine (:mod:`repro.vm.fastpath`) and the closure-compiled tier
(:mod:`repro.vm.closures`) both promise *bit-identical* virtual-cycle
semantics: same results, output, heap effects, final clocks, per-method
cycle/work accounts, sample counts, and compile-event sequences as the
reference loop, at every optimization level. These tests hold them to
that over the regression corpus, seeded fuzz streams, adaptive
(listener-attached) runs, and the resource-limit edges where batching —
per-superinstruction in the fast engine, per-basic-block in the compiled
tier — could plausibly leak.
"""

from pathlib import Path

import pytest

from repro.aos.controller import AdaptiveController
from repro.lang import compile_source
from repro.testing import (
    ENGINE_LEVELS,
    compare_engines,
    generate,
    load_corpus,
)
from repro.vm import Interpreter, Op, VMConfig
from repro.vm.fastpath import (
    F_CMP_JZ,
    F_DUP_ADD,
    F_LC,
    F_LC_ARITH_S,
    F_LL,
    F_LL_CMP_JZ,
    FUSED_BASE,
    decode,
    ensure_decoded,
)
from repro.vm.instructions import Instr

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Seeded fuzz programs checked per CI run. Iteration *i* of seed 1234 is
#: deterministic, so a failure here replays with
#: ``generate(1234, i)`` directly.
FUZZ_SEED = 1234
FUZZ_ITERATIONS = 50

HOT_SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    total = total + helper(i) * 2 - (i % 5);
    i = i + 1;
  }
  print(total);
  return total;
}
fn helper(x) {
  var acc = 0;
  var j = 0;
  while (j < 12) {
    acc = acc + x * j;
    j = j + 1;
  }
  return acc;
}
"""


def assert_engines_agree(program, args, config=None, rng_seed=0, levels=ENGINE_LEVELS):
    kwargs = {"levels": levels, "rng_seed": rng_seed}
    if config is not None:
        kwargs["config"] = config
    report = compare_engines(program, args, **kwargs)
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    return report


# ---------------------------------------------------------------------------
# Corpus + fuzz stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "entry", load_corpus(CORPUS_DIR), ids=lambda e: e.name
)
def test_corpus_programs_identical_across_engines(entry):
    program = compile_source(entry.source, name=entry.name)
    assert_engines_agree(program, entry.args)


@pytest.mark.parametrize("index", range(FUZZ_ITERATIONS))
def test_fuzz_programs_identical_across_engines(index):
    case = generate(FUZZ_SEED, index)
    program = compile_source(case.source, name=f"eq_{index}")
    assert_engines_agree(program, case.args)


# ---------------------------------------------------------------------------
# Adaptive runs: listeners disable fusion but must stay identical
# ---------------------------------------------------------------------------

def _adaptive_run(program, args, engine, interval=4_000):
    interp = Interpreter(
        program,
        config=VMConfig(sample_interval=interval),
        rng_seed=3,
        engine=engine,
    )
    AdaptiveController(interp)
    profile = interp.run(args)
    return (
        interp.result,
        tuple(interp.output),
        profile.total_cycles,
        profile.compile_cycles,
        profile.instructions_executed,
        tuple(sorted(profile.samples.items())),
        tuple(sorted(profile.method_cycles.items())),
        tuple(sorted(profile.final_levels.items())),
        tuple(
            (e.method, e.level, e.cycles, e.at_clock)
            for e in profile.compile_events
        ),
    )


def test_adaptive_controller_runs_identical():
    program = compile_source(HOT_SRC)
    ref = _adaptive_run(program, (600,), "reference")
    fast = _adaptive_run(program, (600,), "fast")
    assert ref == fast
    # The run must actually have exercised recompilation for this to mean
    # anything.
    assert any(level > -1 for _, level in ref[7])


def test_fused_mode_disabled_with_listeners():
    program = compile_source(HOT_SRC)
    interp = Interpreter(program, engine="fast")
    assert not interp.sampler.has_listeners
    AdaptiveController(interp)
    assert interp.sampler.has_listeners


# ---------------------------------------------------------------------------
# Resource-limit edges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fuel", [7, 50, 123, 1000, 4321])
def test_fuel_exhaustion_timing_identical(fuel):
    # The fast engine falls back to the unfused stream near the budget;
    # the fault must surface after exactly the same instruction, with the
    # same partial output and heap effects.
    program = compile_source(HOT_SRC)
    config = VMConfig(max_instructions=fuel)
    assert_engines_agree(program, (600,), config=config)


def test_stack_overflow_identical():
    program = compile_source(
        """
        fn main(n) { return down(n); }
        fn down(k) { return down(k + 1); }
        """
    )
    # Level 2 eliminates the tail call, so there the program loops until
    # the fuel runs out: a small budget keeps that level cheap while the
    # lower levels still overflow. Levels differ from each other, but the
    # engines must agree at every level.
    config = VMConfig(max_call_depth=40, max_instructions=50_000)
    assert_engines_agree(program, (0,), config=config)


def test_runtime_fault_identical():
    program = compile_source(
        """
        fn main(n) {
          var i = 0;
          var s = 0;
          while (i < 50) { s = s + i; i = i + 1; }
          return s / (n - n);
        }
        """
    )
    assert_engines_agree(program, (3,))


# ---------------------------------------------------------------------------
# Compiled-tier corpus: shapes that stress the structurizer and the
# bail-and-replay machinery specifically
# ---------------------------------------------------------------------------

DEEP_NEST_SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    var j = 0;
    while (j < 4) {
      var k = 0;
      while (k < 3) {
        if (k == 1) {
          total = total + inner(i + j, k);
        } else {
          total = total - 1;
        }
        k = k + 1;
      }
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}
fn inner(a, b) {
  var s = 0;
  var m = 0;
  while (m < b + 2) {
    s = s + a % 7;
    m = m + 1;
  }
  return s;
}
"""

COMPILED_FUZZ_SEED = 20_260_808


def test_compiled_deep_nesting_identical():
    program = compile_source(DEEP_NEST_SRC)
    assert_engines_agree(program, (9,))


@pytest.mark.parametrize("fuel", [5, 37, 200, 777, 3000])
def test_compiled_fuel_exhaustion_mid_loop(fuel):
    # Budget-critical runs must bail out of the compiled tier and replay
    # on the fast engine; the fault surfaces after exactly the same
    # instruction with the same partial output either way.
    program = compile_source(DEEP_NEST_SRC)
    config = VMConfig(max_instructions=fuel)
    assert_engines_agree(program, (9,), config=config)


def test_compiled_sampler_attached_runs_identically():
    # Adaptive runs attach sample listeners; the compiled tier takes them
    # (blocks are bounded by the next sampler tick) and must stay
    # bit-identical to the reference, recompiles and samples included.
    program = compile_source(HOT_SRC)
    ref = _adaptive_run(program, (600,), "reference")
    compiled = _adaptive_run(program, (600,), "compiled")
    assert ref == compiled


class _OpaqueListener:
    """A listener with no ``reset()``: a bailout could not replay it."""

    def on_sample(self, method, clock, count):
        pass


def test_resolve_compiled_admits_resettable_listeners_refuses_extreme_depth():
    from repro.vm.closures import MAX_COMPILED_DEPTH, resolve_compiled

    program = compile_source(HOT_SRC)
    interp = Interpreter(program, engine="compiled")
    assert resolve_compiled(interp, "main") is not None
    AdaptiveController(interp)
    assert resolve_compiled(interp, "main") is not None
    interp.sampler.add_listener(_OpaqueListener())
    assert resolve_compiled(interp, "main") is None

    deep = Interpreter(
        program,
        config=VMConfig(max_call_depth=MAX_COMPILED_DEPTH + 1),
        engine="compiled",
    )
    assert resolve_compiled(deep, "main") is None
    # The run itself still executes (on the fast engine) and agrees.
    assert_engines_agree(
        program, (50,),
        config=VMConfig(max_call_depth=MAX_COMPILED_DEPTH + 1),
        levels=(None,),
    )


@pytest.mark.parametrize("depth", [5, 64, 1499])
def test_compiled_stack_overflow_edges(depth):
    # Recursion that dies mid-flight at various depths, including just
    # under the compiled tier's own ceiling.
    program = compile_source(
        """
        fn main(n) { return down(n); }
        fn down(k) { return down(k + 1) + 1; }
        """
    )
    config = VMConfig(max_call_depth=depth)
    assert_engines_agree(program, (0,), config=config, levels=(None, 2))


def test_compiled_runtime_fault_edges():
    # Overflow/fault edges inside loops: division, modulo, out-of-bounds
    # indexing, negative allocation — each must fault identically.
    for src, args in [
        (
            """
            fn main(n) {
              var i = 0;
              var s = 1;
              while (i < 40) { s = s * 2; i = i + 1; }
              return s % (n - 7);
            }
            """,
            (7,),
        ),
        (
            """
            fn main(n) {
              var a = array(4);
              var i = 0;
              while (i < 10) { a[i] = i; i = i + 1; }
              return a[0];
            }
            """,
            (0,),
        ),
        (
            """
            fn main(n) {
              var a = array(n);
              return a[0];
            }
            """,
            (-3,),
        ),
    ]:
        program = compile_source(src)
        assert_engines_agree(program, args)


@pytest.mark.parametrize("index", range(FUZZ_ITERATIONS))
def test_fresh_fuzz_programs_identical_across_engines(index):
    # A second, compiled-era fuzz stream (fresh seed) over all three
    # engines: results, output, heap, and cycles must match bit-for-bit.
    case = generate(COMPILED_FUZZ_SEED, index)
    program = compile_source(case.source, name=f"ceq_{index}")
    assert_engines_agree(program, case.args, levels=(None, 2))


def test_ensure_closure_memoizes_and_pickles_clean():
    import pickle

    from repro.vm import DEFAULT_CONFIG, JITCompiler
    from repro.vm.closures import ensure_closure

    program = compile_source(HOT_SRC)
    jit = JITCompiler(program, DEFAULT_CONFIG)
    compiled = jit.compile("main", 2)
    first = ensure_closure(compiled, program)
    assert ensure_closure(compiled, program) is first
    assert isinstance(compiled.__dict__["_closure_src"], str)
    # The hot-swap staleness guarantee: artifacts round-tripping through
    # the shared JIT artifact cache must never resurrect a generated
    # function object — only source (separately cached) survives.
    clone = pickle.loads(pickle.dumps(compiled))
    assert "_closure" not in clone.__dict__
    assert "_closure_src" not in clone.__dict__
    assert "_closure_unsupported" not in clone.__dict__
    assert clone.code == compiled.code


def test_closure_source_cached_in_artifact_cache(tmp_path):
    from repro.vm import DEFAULT_CONFIG, JITCompiler
    from repro.vm.closures import closure_source_key, ensure_closure
    from repro.vm.opt.artifact_cache import JITArtifactCache

    program = compile_source(HOT_SRC)
    cache = JITArtifactCache(str(tmp_path))
    jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    compiled = jit.compile("main", 0)
    ensure_closure(compiled, program, cache)
    src = compiled.__dict__["_closure_src"]
    key = closure_source_key(
        compiled, program.method("main").num_params
    )
    assert cache.get(key) == src
    # A fresh artifact (fresh memo) reuses the cached source verbatim.
    jit2 = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    compiled2 = jit2.compile("main", 0)
    assert "_closure" not in compiled2.__dict__ or compiled2 is compiled
    ensure_closure(compiled2, program, cache)
    assert compiled2.__dict__["_closure_src"] == src


# ---------------------------------------------------------------------------
# Decoded-stream unit tests
# ---------------------------------------------------------------------------

def test_decode_is_pc_aligned_and_keeps_standalone_slots():
    code = (
        Instr(Op.LOAD, 1),
        Instr(Op.LOAD, 0),
        Instr(Op.LT),
        Instr(Op.JZ, 9),
        Instr(Op.LOAD, 1),
        Instr(Op.CONST, 1),
        Instr(Op.ADD),
        Instr(Op.STORE, 1),
        Instr(Op.JMP, 0),
        Instr(Op.CONST, 0),
        Instr(Op.RET),
    )
    fops, fargs, pops, pargs = decode(code)
    assert len(fops) == len(fargs) == len(pops) == len(pargs) == len(code)
    # Loop guard fuses into a quad at pc 0; increment fuses at pc 4.
    assert fops[0] == F_LL_CMP_JZ
    assert fargs[0] == (1, 0, int(Op.LT), 9)
    assert fops[4] == F_LC_ARITH_S
    assert fargs[4] == (1, 1, int(Op.ADD), 1)
    # The plain stream always keeps the standalone decoding, so a jump
    # into the middle of a fused window (e.g. pc 2, the LT) still works.
    assert pops == [int(ins.op) for ins in code]
    assert pops[2] == int(Op.LT)
    # Interior slots of a fused window also decode independently: pc 2
    # starts a cmp;JZ pair of its own.
    assert fops[2] == F_CMP_JZ
    assert fargs[2] == (int(Op.LT), 9)


def test_decode_pairs_and_peephole_patterns():
    code = (
        Instr(Op.LOAD, 0),
        Instr(Op.LOAD, 1),
        Instr(Op.DUP),
        Instr(Op.ADD),
        Instr(Op.RET),
    )
    fops, fargs, _, _ = decode(code)
    assert fops[0] == F_LL
    assert fops[2] == F_DUP_ADD
    assert fops[4] == int(Op.RET) < FUSED_BASE


def test_decode_never_fuses_faultable_arithmetic():
    # DIV/MOD can raise; they must stay standalone so fault pcs and the
    # partial accounting around them match the reference exactly.
    code = (
        Instr(Op.LOAD, 0),
        Instr(Op.CONST, 2),
        Instr(Op.DIV),
        Instr(Op.RET),
    )
    fops, _, _, _ = decode(code)
    assert fops[0] == F_LC  # LOAD;CONST still pairs...
    assert fops[2] == int(Op.DIV)  # ...but the DIV stays standalone


def test_ensure_decoded_memoizes_and_pickles_clean():
    import pickle

    from repro.vm import DEFAULT_CONFIG, JITCompiler

    program = compile_source(HOT_SRC)
    jit = JITCompiler(program, DEFAULT_CONFIG)
    compiled = jit.compile("main", 2)
    first = ensure_decoded(compiled)
    assert ensure_decoded(compiled) is first
    clone = pickle.loads(pickle.dumps(compiled))
    assert "_decoded" not in clone.__dict__
    assert clone.code == compiled.code


# ---------------------------------------------------------------------------
# Recompile-queue dedupe (satellite regression test)
# ---------------------------------------------------------------------------

def test_recompile_queue_collapses_to_max_level():
    program = compile_source(HOT_SRC)
    interp = Interpreter(program)
    interp._ensure_state("main")
    # Multiple queued requests for one method — including duplicates and
    # an intermediate tier — must produce exactly one compile, at the max.
    interp.request_recompile("main", 1)
    interp.request_recompile("main", 2)
    interp.request_recompile("main", 1)
    interp._apply_recompiles()
    events = [
        (e.method, e.level)
        for e in interp.profile.compile_events
        if e.level > -1
    ]
    assert events == [("main", 2)]
    assert interp.current_level("main") == 2
    assert interp._recompile_queue == []
