"""Wall-clock benchmark for the learning layer's training/prediction engine.

The VM-side suite (:mod:`repro.bench.vmbench`) times the execution
engines; this module times the other wall-clock consumer in an evolvable
run — offline model construction and run-start prediction — on a
synthetic Table-I-scale workload (one feature matrix shared by ~a hundred
per-method models, mixed numeric/categorical features, ~5% missing). It
reports three things:

1. **Training throughput** — a full ``"auto"``-engine ``refit_all`` over
   every method model (shared presort + sweep-line split search), in training
   rows per second.
2. **Speedup vs. reference** — the reference builder is timed on a small
   method subset (it is too slow to run over all of them) against the
   fast engine *including its presort cost*, asserting the resulting
   trees are identical; reported per method plus the geomean.
3. **Predict-all latency** — microseconds for one pass of the flattened
   forest routing a fresh input vector through every method tree, the
   exact operation on the run-start hot path.

Results land in the ``learning`` section of ``BENCH_vm.json``; CI's
regression gate compares the machine-independent fast/reference speedup
geomean against the checked-in baseline, like the VM workloads.
"""

from __future__ import annotations

import time
from random import Random

from ..aos.strategy import LevelStrategy
from ..core.model_builder import ModelBuilder
from ..learning.matrix import TrainingMatrix
from ..learning.tree import ClassificationTree, TreeParams
from ..xicl.features import FeatureVector

#: Production hyper-parameters — the bench must time the trees the VM
#: actually builds, not a contrived deep configuration.
LEARN_PARAMS = TreeParams()

#: (methods, runs) per mode — quick keeps CI's bench-smoke fast.
_SIZES = {"quick": (40, 60), "full": (100, 150)}

#: Reference-engine method subset size per mode.
_SUBSET = {"quick": 4, "full": 8}

_MODES = ["interp", "baseline", "jit", "tiered"]


def _synthetic_vector(rng: Random) -> FeatureVector:
    """One run's input features: mixed kinds, ~5% missing per feature."""
    vector = FeatureVector()
    if rng.random() > 0.05:
        vector.append_value("input_size", rng.randint(1, 2000))
    if rng.random() > 0.05:
        vector.append_value("element_range", rng.uniform(0.0, 100.0))
    if rng.random() > 0.05:
        vector.append_value("mode", rng.choice(_MODES))
    if rng.random() > 0.05:
        vector.append_value("nesting", rng.randint(0, 6))
    if rng.random() > 0.05:
        vector.append_value("dataset_kind", rng.choice(["dense", "sparse"]))
    return vector


def synthetic_history(
    methods: int, runs: int, seed: int = 0
) -> list[tuple[FeatureVector, LevelStrategy]]:
    """A Table-I-scale observation history.

    Every run observes the same feature vector for all *methods* (the real
    workload shape: one input, hundreds of methods), with per-method ideal
    levels that correlate with the features plus seeded noise — enough
    signal that trees grow to realistic depth, enough noise that they are
    not trivial stumps.
    """
    rng = Random(seed)
    names = [f"method_{i:03d}" for i in range(methods)]
    history = []
    for _ in range(runs):
        vector = _synthetic_vector(rng)
        size = vector.get("input_size") or 0
        nesting = vector.get("nesting") or 0
        base = (size > 500) + (size > 1200) + (nesting > 3)
        levels = {}
        for k, name in enumerate(names):
            noise = rng.random() < 0.1
            levels[name] = ((base + k + noise) % 4) - 1  # -1..2
        history.append((vector, LevelStrategy(levels)))
    return history


def _build_trained(methods: int, runs: int, seed: int = 0) -> ModelBuilder:
    builder = ModelBuilder(LEARN_PARAMS, engine="auto")
    for vector, ideal in synthetic_history(methods, runs, seed=seed):
        builder.observe_run(vector, ideal)
    return builder


def bench_training(quick: bool = False) -> tuple[ModelBuilder, dict]:
    """Time one full ``"auto"``-engine offline-construction pass."""
    methods, runs = _SIZES["quick" if quick else "full"]
    builder = _build_trained(methods, runs)
    start = time.perf_counter()
    builder.refit_all()
    wall = time.perf_counter() - start
    rows = methods * runs
    return builder, {
        "methods": methods,
        "runs": runs,
        "training_rows": rows,
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "presort": builder.presort_stats(),
    }


def bench_speedup(
    builder: ModelBuilder, quick: bool = False, repeats: int = 3
) -> dict:
    """Reference vs. fast model construction on a method subset.

    The fast timing *includes* building the presorted matrix (nothing is
    amortized away), and every timed pair is checked for identical trees
    — a benchmark that silently compared different models would be
    meaningless.
    """
    subset = builder.method_names[: _SUBSET["quick" if quick else "full"]]
    rows = []
    identical = True
    for method in subset:
        dataset = builder.model_for(method).dataset
        ref_tree = fast_tree = None
        ref_walls, fast_walls = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            ref_tree = ClassificationTree(
                LEARN_PARAMS, engine="reference"
            ).fit(dataset)
            ref_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            matrix = TrainingMatrix.from_dataset(dataset)
            fast_tree = ClassificationTree(LEARN_PARAMS, engine="auto").fit(
                dataset, matrix=matrix
            )
            fast_walls.append(time.perf_counter() - start)
        identical = identical and ref_tree.render() == fast_tree.render()
        rows.append(
            {
                "method": method,
                "reference_wall_s": min(ref_walls),
                "fast_wall_s": min(fast_walls),
                "speedup": min(ref_walls) / min(fast_walls),
            }
        )
    speedups = [row["speedup"] for row in rows]
    return {
        "methods_timed": len(rows),
        "per_method": rows,
        "geomean": _geomean(speedups),
        "min": min(speedups),
        "max": max(speedups),
        "identical_trees": identical,
    }


def bench_predict(builder: ModelBuilder, quick: bool = False) -> dict:
    """Time the run-start hot path: ``predict_all`` over a fresh vector."""
    queries = 200 if quick else 1000
    rng = Random(1)
    vectors = [_synthetic_vector(rng) for _ in range(queries)]
    forest = builder.forest  # compile off the timed path, as in production
    for vector in vectors[:10]:  # warm-up
        forest.predict_all(vector)
    start = time.perf_counter()
    for vector in vectors:
        forest.predict_all(vector)
    wall = time.perf_counter() - start
    return {
        "queries": queries,
        "trees": len(forest),
        "wall_s": wall,
        "per_call_us": wall / queries * 1e6,
    }


def _geomean(values: list[float]) -> float:
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_learning(quick: bool = False) -> dict:
    """Run the learning bench; the ``learning`` section of the report."""
    builder, training = bench_training(quick=quick)
    speedup = bench_speedup(builder, quick=quick)
    predict = bench_predict(builder, quick=quick)
    return {"training": training, "speedup": speedup, "predict": predict}


def format_learning(section: dict) -> list[str]:
    """Human-readable lines for the CLI summary."""
    training = section["training"]
    speedup = section["speedup"]
    predict = section["predict"]
    return [
        f"learning: refit {training['methods']} methods x "
        f"{training['runs']} runs in {training['wall_s']:.2f}s "
        f"({training['rows_per_s'] / 1e3:.1f}k rows/s)",
        f"learning speedup vs reference ({speedup['methods_timed']} "
        f"methods): geomean {speedup['geomean']:.2f}x, "
        f"min {speedup['min']:.2f}x, max {speedup['max']:.2f}x",
        f"predict_all ({predict['trees']} trees): "
        f"{predict['per_call_us']:.0f}us/call",
    ]
