"""Unit tests for the model builder and strategy predictor."""

import pytest

from repro.aos import LevelStrategy
from repro.core import ConfidenceTracker, ModelBuilder, OverheadModel, StrategyPredictor
from repro.xicl import FeatureVector


def vec(**features):
    v = FeatureVector()
    for name, value in features.items():
        v.append_value(name, value)
    return v


def teach(builder, size, level_small, level_big, n=12, methods=("kernel",)):
    """Teach: small inputs → level_small, big inputs → level_big.

    Ends with the explicit offline-construction pass — prediction never
    trains, so an un-refit builder predicts nothing.
    """
    for i in range(n):
        small = i % 2 == 0
        fv = vec(size=10 if small else 1000)
        ideal = LevelStrategy(
            {m: (level_small if small else level_big) for m in methods}
        )
        builder.observe_run(fv, ideal)
    builder.refit_all()


class TestModelBuilder:
    def test_one_model_per_method(self):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2, methods=("a", "b"))
        assert len(builder) == 2
        assert builder.method_names == ("a", "b")

    def test_prediction_follows_features(self):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2)
        assert builder.predict(vec(size=10)).level_for("kernel") == -1
        assert builder.predict(vec(size=1000)).level_for("kernel") == 2

    def test_empty_builder_predicts_nothing(self):
        assert len(ModelBuilder().predict(vec(size=1))) == 0

    def test_insufficient_history_omitted(self):
        builder = ModelBuilder(min_rows=5)
        builder.observe_run(vec(size=10), LevelStrategy({"m": 0}))
        builder.refit_all()
        assert len(builder.predict(vec(size=10))) == 0

    def test_used_and_raw_features(self):
        builder = ModelBuilder()
        for i in range(12):
            fv = vec(size=10 if i % 2 else 1000, noise=7)
            builder.observe_run(
                fv, LevelStrategy({"m": -1 if i % 2 else 2})
            )
        builder.refit_all()
        assert builder.raw_feature_count() == 2
        assert builder.used_features() == ("size",)

    def test_mean_cv_accuracy_range(self):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2)
        assert 0.5 <= builder.mean_cv_accuracy() <= 1.0

    def test_model_for_lookup(self):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2)
        assert builder.model_for("kernel") is not None
        assert builder.model_for("missing") is None

    def test_predict_never_trains(self):
        """Regression: the startup path must not pay training cost —
        predicting on a stale builder serves the last fitted trees."""
        builder = ModelBuilder()
        teach(builder, 10, -1, 2, methods=("a", "b"))
        fits_before = {
            m: builder.model_for(m).fit_count for m in builder.method_names
        }
        # New observations make every model stale; prediction must still
        # answer from the old trees without a single fit.
        builder.observe_run(vec(size=10), LevelStrategy({"a": 0, "b": 0}))
        assert all(builder.model_for(m).stale for m in builder.method_names)
        strategy = builder.predict(vec(size=1000))
        assert strategy.level_for("a") == 2
        assert {
            m: builder.model_for(m).fit_count for m in builder.method_names
        } == fits_before

    def test_unrefit_builder_predicts_nothing(self):
        builder = ModelBuilder()
        for i in range(12):
            builder.observe_run(
                vec(size=10 if i % 2 else 1000),
                LevelStrategy({"m": -1 if i % 2 else 2}),
            )
        # No explicit refit_all: no trees, no advice, no training.
        assert len(builder.predict(vec(size=10))) == 0
        assert builder.model_for("m").fit_count == 0

    def test_predict_all_matches_per_model_predict(self):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2, methods=("a", "b", "c"))
        for size in (10, 1000, 400):
            flat = builder.predict_all(vec(size=size))
            for method in builder.method_names:
                assert flat[method] == builder.model_for(method).predict(
                    vec(size=size)
                )

    def test_shared_presort_across_methods(self):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2, methods=tuple("m%d" % i for i in range(6)))
        stats = builder.presort_stats()
        # Six methods share one feature matrix: one presort, five hits.
        assert stats["hits"] >= 5


class TestStrategyPredictor:
    def make(self, confident: bool):
        builder = ModelBuilder()
        teach(builder, 10, -1, 2)
        confidence = ConfidenceTracker()
        if confident:
            confidence.update(1.0)
            confidence.update(1.0)
        return StrategyPredictor(builder, confidence)

    def test_declines_when_not_confident(self):
        predictor = self.make(confident=False)
        strategy, cycles = predictor.maybe_predict(vec(size=1000))
        assert strategy is None
        assert cycles == 0.0

    def test_predicts_when_confident(self):
        predictor = self.make(confident=True)
        strategy, cycles = predictor.maybe_predict(vec(size=1000))
        assert strategy is not None
        assert strategy.level_for("kernel") == 2
        assert cycles > 0

    def test_declines_with_no_models(self):
        predictor = StrategyPredictor(ModelBuilder(), ConfidenceTracker())
        predictor.confidence.update(1.0)
        predictor.confidence.update(1.0)
        assert predictor.maybe_predict(vec(size=1))[0] is None

    def test_posterior_predict_ignores_gate(self):
        predictor = self.make(confident=False)
        strategy = predictor.posterior_predict(vec(size=1000))
        assert strategy.level_for("kernel") == 2

    def test_overhead_model_scales(self):
        overhead = OverheadModel()
        small = overhead.extraction_cycles(vec(a=1))
        large = overhead.extraction_cycles(vec(a=1, b=2, c=3))
        assert large > small
        assert overhead.prediction_cycles(LevelStrategy({"m": 1})) > 0
