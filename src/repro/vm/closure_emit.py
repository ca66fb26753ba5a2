"""Template emitter: bytecode → one generated Python function per method.

This is the codegen half of the closure-compiled execution tier (see
:mod:`repro.vm.closures` for the runtime half). Given one
:class:`~repro.vm.opt.jit.CompiledCode` artifact it emits the source of a
single Python function that executes the method natively:

- VM locals become real Python locals (``l0``, ``l1``, ...);
- operand-stack slots become Python temporaries (``t0``, ``t1``, ...) —
  the verifier proves every pc is reached at one static depth, so each
  slot has a fixed name and the generated code never touches a list;
- straight-line bytecode becomes straight-line Python;
- back-edges become ``while True:`` loops with ``continue``/``break``;
- virtual-clock accounting is batched per basic block into the exact
  left-associative addition chains the reference loop performs
  instruction by instruction (``clock + _k1 + _k2 + ...``), where each
  per-weight cost local ``_k{w} = w * speed`` is the same float as the
  reference's ``work * speed``. ``speed`` is read at run time from the
  method's state (``vm.states[name].compiled.speed_factor``), so one
  generated function serves every tier whose code it matches.

Exactness rules the emitter obeys (the same arguments as
:mod:`repro.vm.fastpath`, taken further):

1. **Accounting chains.** ``clock += a; clock += b`` is the same float
   computation as ``clock = clock + a + b`` (left-associative, same
   operand order). Chains never re-associate and never pre-fold partial
   sums.
2. **Tick-exact blocks.** Each block flush computes
   ``_nc = clock + chain`` and commits the whole batch only when
   ``_nc < _lim``: costs are positive, so no intermediate clock crossed
   a tick either. ``_lim`` is the sampler's next tick when listeners are
   attached, and infinity otherwise (with no listener, ``advance``
   batches arbitrarily many crossed ticks under one name, so ticks only
   need a check at method transitions: before a CALL dispatch, at callee
   entry after the CALL cost, after a call returns, and before the RET
   cost). Otherwise the block calls the shared ``_slow`` helper, which
   replays the block's accounting one instruction at a time exactly like
   the reference epilogue: advance the sampler, apply queued recompiles,
   re-read the speed. Deferring the accounting past the block's semantic
   operations is exact because no pure operation observes the clock or
   the speed; ``INTRIN`` does (it folds ``gc_cycles / speed`` into its
   work), so it always starts a block. ``speed`` and ``_lim`` are
   re-read after every slow block and every call return, and the tick
   checks after a CALL cost and a call return apply queued recompiles
   (OSR-lite: every active frame of a method runs at its state's speed).
3. **Effect order.** Semantic operations are emitted strictly in
   bytecode order; only pure accounting is deferred. A raising
   instruction therefore observes exactly the prints/heap effects the
   reference produced, which is all the engine-equivalence oracle
   compares on fault paths (clocks, samples and listener state of a
   faulting run are unspecified).
4. **Fuel.** A soft-limit guard (``executed >= vm.fuel - margin`` with
   ``margin = len(code) + 2``) at function entry, every back-edge, and
   after every call return proves no instruction with ordinal > fuel
   ever executes compiled; budget-critical runs raise the internal
   bailout and replay on the fast engine, which is per-instruction
   exact.

Shapes the emitter cannot structure (irreducible control flow,
cross-loop jumps, non-innermost breaks, jumps that escape the enclosing
construct) raise :class:`UnsupportedShape`; the runtime falls back to
the fast engine. The MiniLang compiler and the optimization passes do
not produce them for the shipped benchmarks, but the differential fuzz
generator's programs do (for instance "jump escapes range" and
"backward jump to non-header"), so the fallback is a live path.
"""

from __future__ import annotations

import re

from .errors import VerificationError
from .instructions import BASE_COST, Op
from .verifier import stack_depths

#: Bump when the shape of generated source changes; part of the source
#: cache key so stale generated code can never be resurrected.
CLOSURE_SCHEMA_VERSION = 2

_JUMPS = (Op.JMP, Op.JZ, Op.JNZ)
_CMP_EXPR = {
    Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">=", Op.EQ: "==", Op.NE: "!=",
}
_ARITH_EXPR = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}


#: Placeholder line for the "re-read the speed" statement; filled in once
#: the function's set of cost weights is known.
_RELOAD = "\0reload"


class UnsupportedShape(Exception):
    """The method's control flow cannot be structured into Python."""


def closure_name(method_name: str) -> str:
    return "_cc_" + re.sub(r"[^0-9A-Za-z_]", "_", method_name)


def intrinsic_names(code) -> tuple[str, ...]:
    """Every intrinsic the generated source references (``_in_<name>``)."""
    seen: list[str] = []
    for ins in code:
        if ins.op == Op.INTRIN:
            name = ins.arg[0]
            if name not in seen:
                seen.append(name)
    return tuple(seen)


class _Emitter:
    def __init__(self, name, code, num_params, num_locals):
        self.name = name
        self.code = code
        self.num_params = num_params
        self.num_locals = num_locals
        self.lines: list[str] = []
        self.indent = 2
        # Pending per-block accounting: cost terms (strings), work terms,
        # and the instruction count since the last flush.
        self.costs: list[str] = []
        self.works: list[str] = []
        self.count = 0
        # Base-cost weights with a ``_k{w}`` cost local.
        self.weights: set[int] = set()
        self.scratch = 0
        self.loop_stack: list[tuple[int, int]] = []  # (header, exit)
        try:
            self.depths = stack_depths(code, name)
        except VerificationError as exc:
            raise UnsupportedShape(str(exc)) from exc
        self.jump_targets = {
            ins.arg for ins in code if ins.op in _JUMPS
        }
        self._analyze_loops()

    # -- loop analysis ----------------------------------------------------
    def _analyze_loops(self):
        headers: dict[int, int] = {}
        for pc, ins in enumerate(self.code):
            if ins.op in _JUMPS and isinstance(ins.arg, int) and ins.arg <= pc:
                target = ins.arg
                headers[target] = max(headers.get(target, target), pc)
        self.headers = headers
        spans = sorted((h, latch) for h, latch in headers.items())
        for i, (h1, l1) in enumerate(spans):
            for h2, l2 in spans[i + 1:]:
                if h2 <= l1 and l2 > l1:  # overlap without nesting
                    raise UnsupportedShape(
                        f"{self.name}: overlapping loops [{h1},{l1}] "
                        f"and [{h2},{l2}]"
                    )
        # No jump from outside a loop may land inside it (other than at
        # the header): that would be irreducible control flow.
        for pc, ins in enumerate(self.code):
            if ins.op not in _JUMPS:
                continue
            t = ins.arg
            for h, latch in headers.items():
                if h < t <= latch and not (h <= pc <= latch):
                    raise UnsupportedShape(
                        f"{self.name}: jump from {pc} into loop body "
                        f"({h},{latch}]"
                    )

    # -- low-level helpers ------------------------------------------------
    def line(self, text: str):
        self.lines.append(" " * (4 * self.indent) + text)

    def cost_local(self, work: int) -> str:
        self.weights.add(work)
        return f"_k{work}"

    def add_cost(self, work: int):
        self.costs.append(self.cost_local(work))
        self.works.append(repr(work))
        self.count += 1

    def flush(self):
        if not self.count:
            return
        chain = " + ".join(self.costs)
        works = " + ".join(self.works)
        self.line(f"_nc = clock + {chain}")
        self.line("if _nc < _lim:")
        self.line("    clock = _nc")
        self.line(f"    mcycles = mcycles + {chain}")
        self.line(f"    mwork = mwork + {works}")
        self.line(f"    executed = executed + {self.count}")
        self.line("else:")
        self.line(
            f"    clock, mcycles, mwork, executed = _slow(vm, _st, {self.name!r}, "
            f"clock, mcycles, mwork, executed, speed, ({', '.join(self.works)},))"
        )
        self.line("    " + _RELOAD)
        self.costs = []
        self.works = []
        self.count = 0

    def tick_check(self):
        self.line("if clock >= _sampler._next_tick:")
        self.line(f"    _adv(clock, {self.name!r})")

    def reload_source(self) -> str:
        """The statement that re-reads the speed, its cost locals and
        ``_lim`` (after a slow block or a call return)."""
        parts = ["speed = _st.compiled.speed_factor"]
        parts.extend(f"_k{w} = {w} * speed" for w in sorted(self.weights))
        parts.append("_lim = _sampler._next_tick if _watch else _INF")
        return "; ".join(parts)

    def fuel_guard(self):
        self.line("if executed >= _fs:")
        self.line("    raise _BAIL")

    def _next_scratch(self) -> str:
        self.scratch += 1
        return f"_w{self.scratch}"

    # -- structured emission ----------------------------------------------
    def emit_function(self) -> str:
        params = ", ".join(f"l{i}" for i in range(self.num_params))
        header = f"def {closure_name(self.name)}(vm, clock, executed"
        if params:
            header += ", " + params
        header += "):"
        prologue = [
            header,
            "    _mc = vm.mc",
            "    _mw = vm.mw",
            "    _sampler = vm.sampler",
            "    _adv = vm.adv",
            "    _ctx = vm.ctx",
            "    _watch = vm.watch",
            f"    _st = vm.states[{self.name!r}]",
            f"    _fs = vm.fuel - {len(self.code) + 2}",
            "    if executed >= _fs:",
            "        raise _BAIL",
        ]
        uninit = [f"l{i}" for i in range(self.num_params, self.num_locals)]
        if uninit:
            prologue.append("    " + " = ".join(uninit) + " = 0")
        prologue.extend(
            [
                f"    mcycles = _mc.get({self.name!r}, 0.0)",
                f"    mwork = _mw.get({self.name!r}, 0.0)",
                "    " + _RELOAD,
                "    try:",
            ]
        )
        self.emit_seq(0, len(self.code))
        self.flush()
        reload = self.reload_source()
        epilogue = [
            "    except (_EE, _BAIL):",
            "        raise",
            "    except (TypeError, ValueError, IndexError, "
            "ZeroDivisionError, KeyError) as _exc:",
            f"        raise _EE('runtime fault: ' + str(_exc), "
            f"method={self.name!r}) from _exc",
        ]
        lines = [
            text.replace(_RELOAD, reload)
            for text in prologue + self.lines + epilogue
        ]
        return "\n".join(lines) + "\n"

    def emit_seq(self, lo: int, hi: int, skip_header_at: int = -1):
        emitted = len(self.lines)
        pc = lo
        terminal = False
        while pc < hi:
            if pc not in self.depths:
                pc += 1
                continue
            if terminal:
                # Code after an unconditional exit that is still
                # reachable means a join the structurizer didn't place.
                raise UnsupportedShape(
                    f"{self.name}: reachable code at {pc} after terminal"
                )
            if pc in self.headers and pc != skip_header_at:
                latch = self.headers[pc]
                if latch + 1 > hi:
                    raise UnsupportedShape(
                        f"{self.name}: loop [{pc},{latch}] exceeds range"
                    )
                self.flush()
                self.line("while True:")
                self.indent += 1
                self.loop_stack.append((pc, latch + 1))
                self.emit_seq(pc, latch + 1, skip_header_at=pc)
                self.flush()
                self.loop_stack.pop()
                self.line("break")
                self.indent -= 1
                pc = latch + 1
                continue
            pc, terminal = self.emit_instr(pc, hi)
        if len(self.lines) == emitted:
            self.line("pass")

    # -- branch helpers ---------------------------------------------------
    def _loop_ctx(self):
        return self.loop_stack[-1] if self.loop_stack else (None, None)

    def emit_continue(self):
        self.flush()
        self.fuel_guard()
        self.line("continue")

    def emit_branch(self, op, target, cond, pc, hi):
        """One conditional jump: *cond* is a Python expression string that
        is truthy exactly when the reference would NOT take a JZ (i.e.
        the popped value is truthy). Returns the next pc to emit."""
        header, loop_exit = self._loop_ctx()
        # Normalize to "jump taken when `taken` is truthy".
        taken = f"not ({cond})" if op == Op.JZ else cond
        fall = cond if op == Op.JZ else f"not ({cond})"
        if target == header:
            self.flush()
            self.line(f"if {taken}:")
            self.indent += 1
            self.fuel_guard()
            self.line("continue")
            self.indent -= 1
            return pc
        if target == loop_exit:
            self.flush()
            self.line(f"if {taken}:")
            self.line("    break")
            return pc
        if target <= pc:
            raise UnsupportedShape(
                f"{self.name}: backward jump at {pc} to non-header {target}"
            )
        if target > hi:
            raise UnsupportedShape(
                f"{self.name}: jump at {pc} escapes range ({target} > {hi})"
            )
        # Forward: if/else diamond when the fall-through arm ends with a
        # forward JMP over the jump arm; plain `if` otherwise.
        join = target - 1
        code = self.code
        if (
            join > pc
            and join in self.depths
            and code[join].op == Op.JMP
            and code[join].arg > join
            and target <= code[join].arg <= hi
        ):
            out = code[join].arg
            self.flush()
            self.line(f"if {fall}:")
            self.indent += 1
            self.emit_seq(pc, join)
            self.add_cost(BASE_COST[Op.JMP])
            self.flush()
            self.indent -= 1
            self.line("else:")
            self.indent += 1
            self.emit_seq(target, out)
            self.flush()
            self.indent -= 1
            return out
        self.flush()
        self.line(f"if {fall}:")
        self.indent += 1
        self.emit_seq(pc, target)
        self.flush()
        self.indent -= 1
        return target

    # -- per-instruction emission -----------------------------------------
    def emit_instr(self, pc: int, hi: int) -> tuple[int, bool]:
        """Emit the instruction at *pc*; returns (next_pc, terminal)."""
        code = self.code
        ins = code[pc]
        op = ins.op
        d = self.depths[pc]
        t = lambda i: f"t{i}"  # noqa: E731
        name = self.name

        if op in _CMP_EXPR:
            # Fuse cmp;JZ / cmp;JNZ into one `if` when the branch is the
            # unique consumer (nobody jumps between them).
            nxt = pc + 1
            if (
                nxt < len(code)
                and code[nxt].op in (Op.JZ, Op.JNZ)
                and nxt not in self.jump_targets
            ):
                cond = f"{t(d - 2)} {_CMP_EXPR[op]} {t(d - 1)}"
                self.add_cost(BASE_COST[op])
                self.add_cost(BASE_COST[code[nxt].op])
                nxt_pc = self.emit_branch(
                    code[nxt].op, code[nxt].arg, cond, nxt + 1, hi
                )
                return nxt_pc, False
            self.line(
                f"{t(d - 2)} = 1 if {t(d - 2)} {_CMP_EXPR[op]} {t(d - 1)} "
                f"else 0"
            )
            self.add_cost(BASE_COST[op])
            return pc + 1, False

        if op in (Op.JZ, Op.JNZ):
            self.add_cost(BASE_COST[op])
            nxt_pc = self.emit_branch(op, ins.arg, t(d - 1), pc + 1, hi)
            return nxt_pc, False

        if op == Op.JMP:
            self.add_cost(BASE_COST[op])
            header, loop_exit = self._loop_ctx()
            if ins.arg == header:
                self.emit_continue()
                return pc + 1, True
            if ins.arg == loop_exit:
                self.flush()
                self.line("break")
                return pc + 1, True
            if ins.arg > pc:
                # Jump-threading residue: only valid when the skipped
                # range is dead (nothing else jumps into it).
                for skipped in range(pc + 1, min(ins.arg, hi)):
                    if skipped in self.depths:
                        raise UnsupportedShape(
                            f"{name}: forward JMP at {pc} over live code"
                        )
                if ins.arg > hi:
                    raise UnsupportedShape(
                        f"{name}: JMP at {pc} escapes range"
                    )
                return ins.arg, False
            raise UnsupportedShape(
                f"{name}: JMP at {pc} to unstructured target {ins.arg}"
            )

        if op == Op.RET:
            self.flush()
            self.tick_check()
            ret_cost = self.cost_local(BASE_COST[Op.RET])
            self.line(f"clock = clock + {ret_cost}")
            self.line(f"_mc[{name!r}] = mcycles + {ret_cost}")
            self.line(f"_mw[{name!r}] = mwork + {BASE_COST[Op.RET]}")
            self.line("executed = executed + 1")
            self.line(f"return {t(d - 1)}, clock, executed")
            return pc + 1, True

        if op == Op.CALL:
            callee, argc = ins.arg
            args = ", ".join(t(d - argc + i) for i in range(argc))
            tup = f"({args},)" if argc else "()"
            self.flush()
            self.line(f"_mc[{name!r}] = mcycles")
            self.line(f"_mw[{name!r}] = mwork")
            self.tick_check()
            self.line(
                f"{t(d - argc)}, clock, executed = "
                f"_invoke(vm, {callee!r}, {tup}, clock, executed)"
            )
            self.line(f"mcycles = _mc[{name!r}]")
            self.line(f"mwork = _mw[{name!r}]")
            # The callee may have recompiled this method (its speed) and
            # moved the next tick; a tick here may apply recompiles too.
            self.line("if clock >= _sampler._next_tick:")
            self.line(f"    clock = _tick(vm, clock, {name!r})")
            self.line(_RELOAD)
            self.fuel_guard()
            return pc + 1, False

        if op == Op.INTRIN:
            intr, argc = ins.arg
            args = ", ".join(t(d - argc + i) for i in range(argc))
            tup = f"({args},)" if argc else "()"
            safe = re.sub(r"[^0-9A-Za-z_]", "_", intr)
            # INTRIN starts a block: its GC fold reads the speed, which a
            # tick inside the preceding instructions may have changed.
            self.flush()
            self.line(f"{t(d - argc)} = _in_{safe}(_ctx, {tup})")
            w = self._next_scratch()
            self.line(f"{w} = {BASE_COST[Op.INTRIN]}")
            self.line("if _ctx.burned:")
            self.line(f"    {w} = {w} + _ctx.burned")
            self.line("    _ctx.burned = 0.0")
            self.line("if _ctx.gc_cycles:")
            self.line(f"    {w} = {w} + _ctx.gc_cycles / speed")
            self.line("    _ctx.gc_cycles = 0.0")
            self.costs.append(f"{w} * speed")
            self.works.append(w)
            self.count += 1
            return pc + 1, False

        if op == Op.DIV:
            self.line(f"if {t(d - 1)} == 0:")
            self.line(
                f"    raise _EE('division by zero', method={name!r}, pc={pc})"
            )
            self.line(
                f"{t(d - 2)} = {t(d - 2)} // {t(d - 1)} "
                f"if isinstance({t(d - 2)}, int) and "
                f"isinstance({t(d - 1)}, int) else {t(d - 2)} / {t(d - 1)}"
            )
        elif op == Op.MOD:
            self.line(f"if {t(d - 1)} == 0:")
            self.line(
                f"    raise _EE('modulo by zero', method={name!r}, pc={pc})"
            )
            self.line(f"{t(d - 2)} = {t(d - 2)} % {t(d - 1)}")
        elif op == Op.NEWARR:
            self.line(
                f"if not isinstance({t(d - 1)}, int) or {t(d - 1)} < 0:"
            )
            self.line(
                f"    raise _EE('NEWARR size must be a non-negative int, "
                f"got %r' % ({t(d - 1)},), method={name!r}, pc={pc})"
            )
            self.line(f"{t(d - 1)} = [0] * {t(d - 1)}")
        elif op == Op.CONST:
            self.line(f"{t(d)} = {ins.arg!r}")
        elif op == Op.LOAD:
            self.line(f"{t(d)} = l{ins.arg}")
        elif op == Op.STORE:
            self.line(f"l{ins.arg} = {t(d - 1)}")
        elif op in _ARITH_EXPR:
            self.line(
                f"{t(d - 2)} = {t(d - 2)} {_ARITH_EXPR[op]} {t(d - 1)}"
            )
        elif op == Op.NEG:
            self.line(f"{t(d - 1)} = -{t(d - 1)}")
        elif op == Op.NOT:
            self.line(f"{t(d - 1)} = 1 if {t(d - 1)} == 0 else 0")
        elif op == Op.DUP:
            self.line(f"{t(d)} = {t(d - 1)}")
        elif op == Op.POP:
            pass
        elif op == Op.SWAP:
            self.line(
                f"{t(d - 1)}, {t(d - 2)} = {t(d - 2)}, {t(d - 1)}"
            )
        elif op == Op.ALOAD:
            self.line(f"{t(d - 2)} = {t(d - 2)}[{t(d - 1)}]")
        elif op == Op.ASTORE:
            self.line(f"{t(d - 3)}[{t(d - 2)}] = {t(d - 1)}")
        elif op == Op.ALEN:
            self.line(f"{t(d - 1)} = len({t(d - 1)})")
        elif op == Op.NOP:
            pass
        else:
            raise UnsupportedShape(f"{name}: unsupported opcode {op!r}")
        self.add_cost(BASE_COST[op])
        return pc + 1, False


def emit_closure_source(
    method_name: str,
    code,
    num_params: int,
    num_locals: int,
) -> str:
    """Generate the Python source of one method's compiled closure.

    Raises :class:`UnsupportedShape` when the control flow cannot be
    structured; callers fall back to the fast engine.
    """
    emitter = _Emitter(method_name, code, num_params, num_locals)
    return emitter.emit_function()
