"""Cold-start uplift study: the cross-program prior vs. the cold learner.

The paper's evolvable VM starts every new application cold: until its
own run history accumulates, the confidence gate stays closed and the
first runs are purely reactive. The forge closes that gap with a
cross-program prior trained on thousands of generated programs
(``docs/datasets.md``). This study measures what the prior is worth on
programs it has **never seen**.

Protocol:

1. Train a prior with :func:`~repro.learning.forge.pipeline.run_forge`
   on the *workload* corpus (generated programs under the repetition
   driver, inputs drawn from the ``WORKLOAD_REPS`` ladder — the input
   population whose ideal labels actually span the optimization
   levels).
2. For each evaluation program — drawn from a **different seed
   stream**, so the prior trained on none of them — and each of several
   inputs, run the *first* production run twice from scratch: once on a
   cold :class:`~repro.core.evolvable.EvolvableVM`, once on the same VM
   handed the prior. Both have zero in-app history; the only difference
   is the prior's advice (program statics + this run's entry arguments
   → per-method levels).
3. Score both runs with the paper's §IV-C metric — time-weighted
   prediction accuracy against the run's posterior ideal strategy —
   and report per program, Table-I style, together with the fraction
   of first runs where the prior produced advice and the run-1 virtual
   time ratio (cold / prior, > 1 means the prior made run 1 faster).

The cold arm's "accuracy" is the score of its empty would-be strategy
(every method implicitly baseline) — exactly what the evolvable VM
self-evaluates on a gate-closed run.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..core.application import Application
from ..core.evolvable import EvolvableVM
from ..learning.forge.pipeline import input_args, run_forge, wrap_workload
from ..learning.forge.prior import CrossProgramPrior
from ..learning.forge.shards import ShardStore
from ..testing.differential import compile_module
from ..testing.generator import generate
from ..xicl.parser import parse_spec
from .report import format_table

#: Seed of the training corpus stream and of the disjoint evaluation
#: stream. Programs are pure functions of (seed, index), so distinct
#: seeds guarantee the evaluation programs are unseen.
TRAIN_SEED = 0
EVAL_SEED = 101

#: Default study sizes. Training pairs are labeled by the forked-run
#: labeler at roughly 1.2 pairs/s on the workload corpus (the heavy
#: end of the reps ladder dominates), so the default corpus takes
#: ~10 minutes serial; ``--runs N`` scales ``train_programs`` down for
#: a quick look, at the cost of a noisier prior.
TRAIN_PROGRAMS = 150
TRAIN_INPUTS = 5
EVAL_PROGRAMS = 10
EVAL_INPUTS = 5


@dataclass(frozen=True)
class ColdStartRow:
    """One evaluation program's first-run comparison."""

    program: str
    methods: int
    inputs: int
    applied_frac: float
    acc_cold: float
    acc_prior: float
    time_ratio: float


def build_workload_app(seed: int, index: int) -> Application:
    """An unseen generated program under the repetition driver, wrapped
    as a runnable :class:`Application` with a numeric XICL spec (one
    ``-aK`` option per entry argument, ``reps`` first)."""
    gp = generate(seed, index)
    program = compile_module(wrap_workload(gp.module))
    arity = 1 + len(gp.args)
    spec = parse_spec(
        "\n".join(
            f"option {{name=-a{k}; type=NUM; attr=VAL; default=0; has_arg=y}}"
            for k in range(arity)
        )
    )

    def launcher(tokens, fvector, fs, _arity=arity):
        return tuple(int(fvector[f"-a{k}.VAL"]) for k in range(_arity))

    return Application(
        name=f"fuzz-{seed}-{index}",
        program=program,
        spec=spec,
        launcher=launcher,
    )


def _first_run(app: Application, cmdline: str, prior=None):
    """One zero-history production run; returns its RunOutcome."""
    vm = EvolvableVM(app, prior=prior)
    return vm.run(cmdline, rng_seed=0)


def _train_prior(
    train_programs: int,
    train_inputs: int,
    seed: int,
    jobs: int,
    cache_dir: str | None,
) -> CrossProgramPrior:
    """The study's prior: forge the workload corpus, then fit.

    With *cache_dir*, shards persist there and an already-forged
    directory skips straight to the fit — the pipeline's byte-identical
    shards (any ``jobs``) make the cached and from-scratch paths
    produce the same prior. Labeling is by far the expensive half
    (~10 min at the default sizes vs. seconds to fit), so the cache is
    what makes re-running the evaluation cheap.
    """
    if cache_dir is not None and any(Path(cache_dir).glob("shard-*.bin")):
        prior = CrossProgramPrior(min_rows=8)
        prior.fit_from_store(ShardStore(cache_dir))
        return prior
    with tempfile.TemporaryDirectory() as tmp:
        _stats, prior = run_forge(
            cache_dir if cache_dir is not None else tmp,
            programs=train_programs,
            inputs_per_program=train_inputs,
            seed=seed,
            jobs=jobs,
            input_profile="workload",
        )
    assert prior is not None
    return prior


def run_coldstart(
    seed: int = 0,
    train_programs: int = TRAIN_PROGRAMS,
    train_inputs: int = TRAIN_INPUTS,
    eval_programs: int = EVAL_PROGRAMS,
    eval_inputs: int = EVAL_INPUTS,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> list[ColdStartRow]:
    prior = _train_prior(
        train_programs, train_inputs, TRAIN_SEED + seed, jobs, cache_dir
    )

    rows: list[ColdStartRow] = []
    for index in range(eval_programs):
        app = build_workload_app(EVAL_SEED + seed, index)
        gp = generate(EVAL_SEED + seed, index)
        applied = 0
        acc_cold = acc_prior = 0.0
        cycles_cold = cycles_prior = 0.0
        for k in range(eval_inputs):
            args = input_args(
                EVAL_SEED + seed, index, k, gp.args, profile="workload"
            )
            cmdline = " ".join(
                f"-a{pos} {value}" for pos, value in enumerate(args)
            )
            cold = _first_run(app, cmdline)
            warm = _first_run(app, cmdline, prior=prior)
            applied += bool(warm.applied_prediction)
            acc_cold += cold.accuracy
            acc_prior += warm.accuracy
            cycles_cold += cold.profile.total_cycles + cold.overhead_cycles
            cycles_prior += warm.profile.total_cycles + warm.overhead_cycles
        rows.append(
            ColdStartRow(
                program=app.name,
                methods=len(app.program),
                inputs=eval_inputs,
                applied_frac=applied / eval_inputs,
                acc_cold=acc_cold / eval_inputs,
                acc_prior=acc_prior / eval_inputs,
                time_ratio=cycles_cold / cycles_prior,
            )
        )
    return rows


def render(rows: list[ColdStartRow]) -> str:
    table = format_table(
        ["Program", "Methods", "Inputs", "Applied", "Acc cold",
         "Acc prior", "Uplift", "Time ratio"],
        [
            [
                row.program,
                row.methods,
                row.inputs,
                f"{row.applied_frac:.2f}",
                f"{row.acc_cold:.2f}",
                f"{row.acc_prior:.2f}",
                f"{row.acc_prior - row.acc_cold:+.2f}",
                f"{row.time_ratio:.3f}",
            ]
            for row in rows
        ],
    )
    mean_cold = sum(r.acc_cold for r in rows) / len(rows)
    mean_prior = sum(r.acc_prior for r in rows) / len(rows)
    return (
        table
        + "\n"
        + (
            f"mean run-1 accuracy: cold {mean_cold:.3f} vs prior "
            f"{mean_prior:.3f} ({mean_prior - mean_cold:+.3f})"
        )
    )


def main(
    seed: int = 0,
    programs: int | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> str:
    rows = run_coldstart(
        seed=seed,
        train_programs=programs if programs else TRAIN_PROGRAMS,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    output = render(rows)
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
