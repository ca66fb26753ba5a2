"""Wall-clock benchmarks for the learning layer's fast training engine.

pytest-benchmark twin of the ``learning`` section of ``repro bench``:
times offline model construction (reference vs. fast, trees checked
identical), the shared-presort ``refit_all`` pass, and flattened
``predict_all`` latency. Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_learning.py -q
"""

import pytest

from repro.bench.learnbench import (
    LEARN_PARAMS,
    _build_trained,
    bench_learning,
    synthetic_history,
)
from repro.core import ModelBuilder
from repro.learning import ClassificationTree, TrainingMatrix

pytestmark = pytest.mark.bench

#: Workload scale for the per-engine pytest-benchmark timings.
METHODS, RUNS = 40, 100


@pytest.fixture(scope="module")
def trained_builder():
    builder = _build_trained(METHODS, RUNS)
    builder.refit_all()
    return builder


@pytest.mark.parametrize("engine", ["reference", "auto"])
def test_training_throughput(benchmark, trained_builder, engine):
    dataset = trained_builder.model_for("method_000").dataset

    def fit():
        matrix = (
            TrainingMatrix.from_dataset(dataset) if engine == "auto" else None
        )
        tree = ClassificationTree(LEARN_PARAMS, engine=engine).fit(
            dataset, matrix=matrix
        )
        return tree.render()

    rendered = benchmark(fit)
    assert rendered  # a real tree came out


def test_refit_all_shared_presort(benchmark):
    history = synthetic_history(METHODS, RUNS, seed=0)

    def construct():
        builder = ModelBuilder(LEARN_PARAMS, engine="auto")
        for vector, ideal in history:
            builder.observe_run(vector, ideal)
        builder.refit_all()
        return builder.presort_stats()

    stats = benchmark(construct)
    # One presort served every per-method fit.
    assert stats["hits"] >= METHODS - 1


def test_predict_all_latency(benchmark, trained_builder):
    history = synthetic_history(1, 50, seed=9)
    vectors = [vector for vector, _ in history]
    forest = trained_builder.forest

    def predict():
        out = None
        for vector in vectors:
            out = forest.predict_all(vector)
        return out

    out = benchmark(predict)
    assert len(out) == METHODS


def test_training_speedup_target():
    """The tentpole acceptance bar: >=5x geomean at Table-I scale."""
    report = bench_learning(quick=False)
    assert report["speedup"]["identical_trees"] is True
    geomean = report["speedup"]["geomean"]
    assert geomean >= 5.0, f"learning speedup geomean {geomean:.2f}x < 5x"
    assert report["predict"]["per_call_us"] < 1000.0
