"""Workload ``forge``: the data forge as ``repro forge`` runs it by default.

One iteration is ``run_forge`` over a fresh output directory with
:data:`PROGRAMS` generated programs, 8 inputs each, engine ``auto``,
training on, ``jobs=1``. Metrics: labeled rows per second in steady
state, per-iteration latency, the first iteration's wall time, and a
fresh interpreter's import of the forge pipeline as set-up (what every
``repro forge`` invocation pays before it labels anything).

Checks: every iteration's shards are byte-identical and its prior makes
the same predictions as a run trained by the reference learning engine;
for a seeded sample of (program, input) pairs, ``label_naive`` on the
reference interpreter yields exactly the rows the shards hold.
"""

from __future__ import annotations

import hashlib
import json
import time
from random import Random

from common import digest, fresh_dir, fresh_interpreter_s, median, peak_rss_mb, percentile, warmup_class

PROGRAMS = 40
INPUTS = 8
#: Generator seed of the measured corpus. Per-program labeling cost is
#: heavy-tailed (one program of 40 can take half an iteration), so a
#: corpus drawn from the workload seed would measure the draw, not the
#: forge; the workload seed picks the naive-check sample instead.
CORPUS_SEED = 0
NAIVE_PAIRS = 3
SETUPS = 3
#: ``first_iter_s`` is the median of this many first iterations (each a
#: fresh forge job; the first also pays the process's lazy imports).
FIRSTS = 3


def shard_rows(out_dir) -> list:
    from repro.learning.forge.shards import ShardStore

    rows = []
    for shard in ShardStore(out_dir).iter_shards():
        rows.extend(zip(shard.values, shard.labels, shard.groups))
    return rows


def output_digests(out_dir) -> dict:
    """Shard bytes, plus the prior's prediction for every shard row."""
    from repro.learning.forge.features import forge_columns
    from repro.learning.forge.prior import CrossProgramPrior
    from repro.xicl.features import FeatureKind, FeatureVector

    shards = hashlib.sha256()
    for path in sorted(out_dir.glob("shard-*.bin")):
        shards.update(path.read_bytes())
    prior = CrossProgramPrior.load(out_dir / "prior.bin")
    columns = forge_columns()
    predictions = []
    for values, _, method in shard_rows(out_dir):
        vector = FeatureVector()
        for name, value in zip(columns, values):
            if value is not None:
                vector.append_value(name, value, FeatureKind.NUMERIC)
        predictions.append(prior.predict_level(method, vector))
    return {"shards": shards.hexdigest()[:32], "predictions": digest(predictions)}


def naive_rows(seed: int) -> list:
    """Rows the reference labeler yields for the seeded sample of pairs."""
    from repro.learning.forge.features import program_features, row_values
    from repro.learning.forge.labeler import FORGE_CONFIG, label_naive
    from repro.learning.forge.pipeline import input_args
    from repro.testing.differential import compile_module
    from repro.testing.generator import generate

    rng = Random(seed * 31 + 5)
    blocks = []
    for _ in range(NAIVE_PAIRS):
        index, k = rng.randrange(PROGRAMS), rng.randrange(INPUTS)
        generated = generate(CORPUS_SEED, index)
        program = compile_module(generated.module)
        args = input_args(CORPUS_SEED, index, k, generated.args)
        labels = label_naive(program, args, config=FORGE_CONFIG)
        pfeats = program_features(program)
        rows = [
            [list(row_values(pfeats, program.method(m), args)), labels.labels[m].ideal, m]
            for m in sorted(labels.labels)
            if labels.labels[m].ideal is not None
        ]
        blocks.append(json.loads(json.dumps(rows)))
    return blocks


def contains_block(rows: list, block: list) -> bool:
    if not block:
        return True
    width = len(block)
    return any(rows[i:i + width] == block for i in range(len(rows) - width + 1))


def forge_once(out_dir, engine: str = "auto"):
    from repro.learning.forge.pipeline import run_forge

    stats, _ = run_forge(out_dir, PROGRAMS, INPUTS, seed=CORPUS_SEED, jobs=1, engine=engine)
    return stats


def reference(seed: int, seconds: float) -> dict:
    out_dir = fresh_dir("forge-reference")
    forge_once(out_dir, engine="reference")
    expected = output_digests(out_dir)
    expected["naive"] = digest(naive_rows(seed))
    return expected


def run(seed: int, seconds: float, tracer, expected: dict | None) -> dict:
    setups = [fresh_interpreter_s("import repro.learning.forge.pipeline") for _ in range(SETUPS)]
    walls, rows_per_iter, dirs = [], [], []
    traced_walls, untraced_walls = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < FIRSTS or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        out_dir = fresh_dir(f"forge-{index}")
        if traced:
            tracer.install()
        start = time.perf_counter()
        stats = forge_once(out_dir)
        wall = time.perf_counter() - start
        if traced:
            tracer.restore()
            traced_walls.append(wall)
        elif index > 0:
            untraced_walls.append(wall)
        walls.append(wall)
        rows_per_iter.append(stats.rows)
        dirs.append(out_dir)
        index += 1
    rss = peak_rss_mb()

    if expected is None:
        expected = reference(seed, seconds)
    problems = []
    failed = 0
    for i, out_dir in enumerate(dirs):
        got = output_digests(out_dir)
        if got["shards"] != expected["shards"] or got["predictions"] != expected["predictions"]:
            failed += rows_per_iter[i]
            problems.append(f"iteration {i}: shards/prior differ from the reference")
    blocks = naive_rows(seed)
    if digest(blocks) != expected["naive"]:
        problems.append("naive labels differ from the recorded reference")
    rows = json.loads(json.dumps(shard_rows(dirs[0])))
    for block in blocks:
        if not contains_block(rows, block):
            failed += len(block)
            problems.append("a naive-labeled pair's rows are missing from the shards")

    kind, steady = warmup_class(walls)
    # Steady state is every iteration after the first; the warmup class
    # (reported, never gated on) says whether the series agrees.
    tail = slice(1, None)
    rates = [rows / wall for rows, wall in zip(rows_per_iter[tail], walls[tail])]
    latencies = [wall * 1000.0 for wall in walls[tail]]
    out = {
        "attempted": sum(rows_per_iter) + sum(len(b) for b in blocks),
        "failed": failed,
        "problems": problems,
        "e2e": {
            "setup_s": median(setups),
            "first_iter_s": median(walls[:FIRSTS]),
            "ops_per_s": median(rates),
            "p50_ms": percentile(latencies, 50),
            "p90_ms": percentile(latencies, 90),
            "p99_ms": percentile(latencies, 99),
            "peak_rss_mb": rss,
        },
        "notes": [
            f"rows_per_s {median(rates):.2f} 1/s ({rows_per_iter[0]} rows per iteration of "
            f"{PROGRAMS} programs x {INPUTS} inputs)",
            f"iteration walls s: {' '.join(f'{w:.3f}' for w in walls)}",
            f"warmup class: {kind} (steady from iteration {steady})",
        ],
        "ops": 0,
    }
    if tracer is not None:
        out["ops"] = sum(rows_per_iter[1::2])
        out["overhead"] = median(traced_walls) / median(untraced_walls) - 1.0
        out["traced_wall"] = sum(traced_walls)
    return out
