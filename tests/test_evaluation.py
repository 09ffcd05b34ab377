"""Tests for ablation runs, the propagation sweep, and their reports."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from newsmotion import evaluation
from newsmotion.config import TrainConfig
from newsmotion.errors import ValidationError
from newsmotion.evaluation import (
    DEFAULT_COMBINATIONS,
    FAILED,
    OK,
    AblationReport,
    AblationRow,
    SweepReport,
    SweepRow,
    render_ablation,
    render_sweep,
    run_ablation,
    run_propagation_sweep,
    write_ablation_report,
    write_sweep_report,
)
from newsmotion.features import (
    BLOCK_ORDER,
    PRICE_DIM,
    FeatureLayout,
    FeatureMatrix,
    block_columns,
    block_set,
)
from newsmotion.graph import CorrelationGraph
from newsmotion.ingest import PriceSeries
from newsmotion.mlp import (
    MlpModel,
    error_rate,
    predict_batch,
    save_model,
    train,
    train_each,
)
from newsmotion.sampling import NEGATIVE, POSITIVE

import support
from support import dense, init, packed, traced_peak

DAY = date(2013, 7, 1)


def combination_name(blocks) -> str:
    return "+".join(block_set(blocks))


def _signal_matrix(n: int, seed: int, ps_scale: float = 1.0) -> FeatureMatrix:
    """bok columns carry the label, ps columns are noise."""
    rng = np.random.default_rng(seed)
    layout = FeatureLayout(blocks=("bok", "ps"), k=3, n_categories=0)
    x = rng.normal(size=(n, 6))
    x[:, 0] = np.where(x[:, 0] >= 0, x[:, 0] + 0.5, x[:, 0] - 0.5)
    x[:, 3:] *= ps_scale
    labels = [POSITIVE if v > 0 else NEGATIVE for v in x[:, 0]]
    return packed(
        layout,
        [f"T{i}" for i in range(n)],
        [DAY + timedelta(days=i) for i in range(n)],
        labels,
        x,
    )


def _all_blocks_matrix(n: int, seed: int, k: int = 3) -> FeatureMatrix:
    """Every block; the first bok column carries the label, the rest is noise."""
    rng = np.random.default_rng(seed)
    layout = FeatureLayout(blocks=BLOCK_ORDER, k=k, n_categories=2)
    x = rng.normal(size=(n, layout.dimension))
    labels = [POSITIVE if v > 0 else NEGATIVE for v in x[:, PRICE_DIM]]
    return packed(
        layout,
        [f"T{i}" for i in range(n)],
        [DAY + timedelta(days=i) for i in range(n)],
        labels,
        x,
    )


def _small_config() -> TrainConfig:
    return TrainConfig(hidden=(8,), learning_rate=0.3, batch_size=16, epochs=15, seed=2)


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate(np.array([0.5, -0.5]), [POSITIVE, NEGATIVE]) == 0.0

    def test_hand_fraction(self):
        confidences = np.full(100, 0.25)
        labels = [POSITIVE] * 57 + [NEGATIVE] * 43
        err = error_rate(confidences, labels)
        assert err == 0.43 and type(err) is float

    def test_tie_predicts_down(self):
        confidences = np.array([0.0, 0.0, 0.5, -0.5])
        labels = [NEGATIVE, POSITIVE, POSITIVE, NEGATIVE]
        assert error_rate(confidences, labels) == 0.25
        # one tie of each label reads 0.25 under either rule; this does not
        assert error_rate(np.zeros(2), [NEGATIVE, NEGATIVE]) == 0.0


class TestCombinationName:
    def test_normalizes_to_block_order(self):
        assert combination_name(["ps", "price"]) == "price+ps"
        assert combination_name(["ct", "bok", "price", "ps"]) == "price+bok+ps+ct"

    def test_empty_or_unknown_rejected(self):
        with pytest.raises(ValidationError):
            combination_name([])
        with pytest.raises(ValidationError, match="volume"):
            combination_name(["price", "volume"])

    def test_default_set_spans_price_to_all_blocks(self):
        assert len(DEFAULT_COMBINATIONS) == 8
        assert DEFAULT_COMBINATIONS[0] == ("price",)
        assert DEFAULT_COMBINATIONS[-1] == ("price", "bok", "ps", "ct")
        assert len(set(DEFAULT_COMBINATIONS)) == 8


class TestRunAblation:
    def test_unknown_combination_rejected_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "train_each", lambda *a, **k: calls.append(a))
        train_m = _signal_matrix(20, seed=80)
        with pytest.raises(ValidationError, match="volume"):
            run_ablation(
                train_m, train_m, train_m, [("bok",), ("bok", "volume")], TrainConfig(), None
            )
        assert calls == []

    def test_block_missing_from_matrices_fails_only_its_row(self):
        train_m = _signal_matrix(60, seed=81)
        report = run_ablation(
            train_m, train_m, train_m, [("price",), ("bok",)], _small_config(), None
        )
        assert [row.status for row in report.rows] == [FAILED, OK]
        assert "price" in report.rows[0].note

    def test_training_on_a_subset_equals_training_on_its_slice(self, tmp_path):
        train_m = _all_blocks_matrix(90, seed=70)
        valid_m = _all_blocks_matrix(30, seed=71)
        for blocks in DEFAULT_COMBINATIONS:
            (subset,) = train_each(train_m, valid_m, _small_config(), [blocks])
            sliced = train(
                support.sliced(train_m, blocks),
                support.sliced(valid_m, blocks),
                _small_config(),
            )
            assert subset.layout.blocks == blocks
            assert all(w.dtype == np.float32 for w in subset.weights)
            save_model(subset, tmp_path / "subset.bin")
            save_model(sliced, tmp_path / "sliced.bin")
            assert (tmp_path / "subset.bin").read_bytes() == (
                tmp_path / "sliced.bin"
            ).read_bytes(), blocks

    def test_training_on_a_block_the_matrices_lack_is_a_validation_error(self):
        train_m = _signal_matrix(30, seed=72)
        (result,) = train_each(train_m, train_m, _small_config(), [("price", "bok")])
        assert isinstance(result, ValidationError) and "price" in str(result)

    def test_peak_holds_no_float64_copy_of_a_block_subset(self):
        train_m = _all_blocks_matrix(2000, seed=73, k=300)  # 614 columns
        small = _all_blocks_matrix(50, seed=74, k=300)
        config = TrainConfig(hidden=(4,), batch_size=64, epochs=1, seed=3)
        blocks = ("price", "bok", "ps")
        report, peak = traced_peak(
            lambda: run_ablation(train_m, small, small, [blocks], config, None)
        )
        assert report.rows[0].status == OK
        # The subset is 612 of the 614 columns, every entry non-zero. Its
        # float32 training copy would take under half of the dense float64
        # rows' bytes, and a quarter more covers the batches, the
        # validation and test rows and the model; a float64 copy of the
        # subset (0.997 of those bytes) does not fit.
        assert peak < 0.75 * len(train_m) * train_m.layout.dimension * 8

    def test_scoring_a_leading_run_decodes_its_rows_once(self):
        test_m = _all_blocks_matrix(2000, seed=76, k=300)  # 614 columns
        blocks = ("price", "bok", "ps")
        layout = block_columns(test_m.layout, blocks)[0]
        model = init((layout.dimension, 4, 2), seed=5, layout=layout)
        error, peak = traced_peak(lambda: evaluation._test_error(model, test_m, blocks))
        sliced = support.sliced(test_m, blocks)
        assert error == error_rate(predict_batch(model, sliced), test_m.labels)
        # The subset's rows are decoded once as float64 (612 of 614
        # columns, every entry non-zero) and scored whole; a bounded
        # block of rows' decoding temporaries and the activations take
        # the rest. A second copy of the rows does not fit.
        assert peak < 1.25 * len(test_m) * layout.dimension * 8

    def test_no_row_model_is_held_while_the_next_row_trains(self):
        matrix = _all_blocks_matrix(8, seed=75, k=30)  # 74 columns
        config = TrainConfig(hidden=(10000,), batch_size=4, epochs=1, seed=4)
        dims = (74, 10000, 2)
        n_params = sum(m * (n + 1) for n, m in zip(dims, dims[1:]))
        _, peak = traced_peak(
            lambda: run_ablation(
                matrix, matrix, matrix, [BLOCK_ORDER, BLOCK_ORDER], config, None
            )
        )
        # A training holds its float32 parameters, their snapshot and layer
        # 0's gradient, nearly every parameter here: 12 bytes per
        # parameter; 2 more cover the rest. The first row's model (4 bytes
        # per parameter) held through the second training does not fit.
        assert peak < 14 * n_params

    def test_rows_follow_request_order(self):
        train_m = _signal_matrix(120, seed=82)
        report = run_ablation(
            train_m,
            _signal_matrix(40, seed=83),
            _signal_matrix(40, seed=84),
            combinations=[("bok", "ps"), ("bok",)],
            config=_small_config(),
            full_model=None,
        )
        assert [row.name for row in report.rows] == ["bok+ps", "bok"]
        assert all(row.status == OK for row in report.rows)

    def test_informative_blocks_beat_noise_blocks(self):
        report = run_ablation(
            _signal_matrix(200, seed=85),
            _signal_matrix(60, seed=86),
            _signal_matrix(100, seed=87),
            combinations=[("bok",), ("ps",)],
            config=_small_config(),
            full_model=None,
        )
        by_name = {row.name: row for row in report.rows}
        assert by_name["bok"].error <= 0.1
        assert by_name["ps"].error >= 0.3
        assert report.metadata == {"seed": 2, "test_samples": 100}

    def test_full_row_scored_from_a_given_model_equals_the_trained_row(
        self, tmp_path
    ):
        train_m, valid_m, test_m = (
            _signal_matrix(n, seed=s) for n, s in ((120, 92), (40, 93), (60, 94))
        )
        combos = [("bok",), ("bok", "ps")]
        trained = run_ablation(train_m, valid_m, test_m, combos, _small_config(), None)
        save_model(train(train_m, valid_m, _small_config()), tmp_path / "model.bin")
        scored = run_ablation(
            train_m,
            valid_m,
            test_m,
            combos,
            _small_config(),
            full_model=tmp_path / "model.bin",
        )
        assert scored == trained
        assert scored.rows[1].status == OK

    def test_full_model_is_what_the_full_row_scores(self, tmp_path):
        train_m, valid_m, test_m = (
            _signal_matrix(n, seed=s) for n, s in ((120, 95), (40, 96), (60, 97))
        )
        noise = TrainConfig(hidden=(8,), epochs=1, seed=5, learning_rate=1e-9)
        save_model(train(train_m, valid_m, noise), tmp_path / "model.bin")
        report = run_ablation(
            train_m,
            valid_m,
            test_m,
            [("bok", "ps")],
            _small_config(),
            full_model=tmp_path / "model.bin",
        )
        baseline = run_ablation(train_m, valid_m, test_m, [("bok", "ps")], noise, None)
        assert report.rows[0].error == baseline.rows[0].error
        retrained = run_ablation(
            train_m, valid_m, test_m, [("bok", "ps")], _small_config(), None
        )
        assert report.rows[0].error != retrained.rows[0].error

    def test_full_model_with_another_layout_fails_its_row(self, tmp_path):
        train_m = _signal_matrix(60, seed=98)
        bok = support.sliced(train_m, ("bok",))
        save_model(train(bok, bok, _small_config()), tmp_path / "model.bin")
        report = run_ablation(
            train_m,
            train_m,
            train_m,
            [("bok",), ("bok", "ps")],
            _small_config(),
            full_model=tmp_path / "model.bin",
        )
        assert [row.status for row in report.rows] == [OK, FAILED]
        assert "layouts differ" in report.rows[1].note

    def test_failed_combination_still_reports_the_rest(self):
        train_m = _signal_matrix(120, seed=88, ps_scale=1e150)
        valid_m = _signal_matrix(40, seed=89, ps_scale=1e150)
        test_m = _signal_matrix(40, seed=90, ps_scale=1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_ablation(
                train_m,
                valid_m,
                test_m,
                combinations=[("ps",), ("bok",)],
                config=_small_config(),
                full_model=None,
            )
        failed, ok = report.rows
        assert failed.status == FAILED
        assert failed.error is None and "loss" in failed.note
        assert ok.status == OK and ok.error <= 0.1

    def test_identical_calls_produce_identical_reports(self):
        matrices = [
            _signal_matrix(100, seed=91),
            _signal_matrix(30, seed=92),
            _signal_matrix(30, seed=93),
        ]
        first = run_ablation(*matrices, [("bok",)], _small_config(), None)
        second = run_ablation(*matrices, [("bok",)], _small_config(), None)
        assert first.rows == second.rows

    def test_bad_inputs_rejected(self):
        good = _signal_matrix(30, seed=94)
        empty = packed(good.layout, [], [], [], np.zeros((0, 6)))
        with pytest.raises(ValidationError, match="empty"):
            run_ablation(good, good, empty, DEFAULT_COMBINATIONS, _small_config(), None)
        with pytest.raises(ValidationError, match="combination"):
            run_ablation(good, good, good, [], _small_config(), None)
        wider = packed(
            FeatureLayout(blocks=("bok",), k=12, n_categories=0),
            good.tickers,
            good.dates,
            good.labels,
            np.tile(dense(good), 2),
        )
        with pytest.raises(ValidationError, match="layout"):
            run_ablation(good, good, wider, DEFAULT_COMBINATIONS, _small_config(), None)


class TestRunPropagationSweep:
    def _layout(self) -> FeatureLayout:
        return FeatureLayout(blocks=("bok",), k=2, n_categories=0)

    def _model(self) -> MlpModel:
        return MlpModel(
            layer_dims=(2, 2),
            weights=[np.array([[10.0, 0.0], [0.0, 10.0]])],
            biases=[np.zeros(2)],
            layout=self._layout(),
        )

    def _graph(self) -> CorrelationGraph:
        # A seeds its neighbors; D stays untouched by propagation
        return CorrelationGraph(
            nodes=["A", "B", "C", "D"],
            weights=np.array(
                [
                    [0.0, 0.9, -0.85, 0.0],
                    [0.9, 0.0, 0.0, 0.0],
                    [-0.85, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ]
            ),
            threshold=0.8,
            min_overlap=2,
        )

    def _prices(self, tickers=("B", "C")) -> dict[str, PriceSeries]:
        # closes rise day over day, so every movement is up
        series = {}
        for ticker in tickers:
            dates = tuple(DAY + timedelta(days=i) for i in range(10))
            closes = np.linspace(10.0, 19.0, num=10)
            series[ticker] = PriceSeries(ticker=ticker, dates=dates, closes=closes)
        return series

    def _matrix(self, rows: list[tuple[str, date]]) -> FeatureMatrix:
        x = np.tile(np.array([1.0, 0.0]), (len(rows), 1))
        return packed(
            self._layout(),
            [t for t, _ in rows],
            [d for _, d in rows],
            [POSITIVE] * len(rows),
            x,
        )

    def test_hand_worked_thresholds(self):
        # A's confidence is just under 1, so B gets ~0.9 and C ~ -0.85;
        # B's upward move scores correct, C's down call scores wrong
        matrix = self._matrix([("A", DAY), ("A", DAY + timedelta(days=1))])
        report = run_propagation_sweep(
            matrix,
            self._model(),
            self._graph(),
            self._prices(),
            taus=[0.0, 0.5, 0.88, 2.0],
            iterations=1,
            clamp_observed=False,
        )
        by_tau = {row.tau: row for row in report.rows}
        assert by_tau[0.0].predicted_per_day == 2.0
        assert by_tau[0.0].accuracy == 0.5
        assert by_tau[0.5].predicted_per_day == 2.0
        assert by_tau[0.88].predicted_per_day == 1.0
        assert by_tau[0.88].accuracy == 1.0
        assert by_tau[2.0].predicted_per_day == 0.0
        assert by_tau[2.0].accuracy is None
        assert by_tau[0.0].observed_per_day == 1.0

    def test_predicted_per_day_never_increases_with_tau(self):
        matrix = self._matrix([("A", DAY), ("A", DAY + timedelta(days=1))])
        taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        report = run_propagation_sweep(
            matrix, self._model(), self._graph(), self._prices(), taus=taus,
            iterations=1, clamp_observed=False
        )
        counts = [row.predicted_per_day for row in report.rows]
        assert counts == sorted(counts, reverse=True)

    def test_day_accounting_in_metadata(self):
        matrix = self._matrix(
            [("A", DAY), ("ZZZ", DAY), ("ZZZ", DAY + timedelta(days=1))]
        )
        report = run_propagation_sweep(
            matrix, self._model(), self._graph(), self._prices(), taus=[0.5],
            iterations=1, clamp_observed=False
        )
        assert report.metadata["days_used"] == 1
        assert report.metadata["days_skipped"] == 1
        assert report.metadata["out_of_graph_samples"] == 2

    def test_unpriced_emissions_count_toward_coverage_only(self):
        matrix = self._matrix([("A", DAY)])
        report = run_propagation_sweep(
            matrix,
            self._model(),
            self._graph(),
            self._prices(tickers=("C",)),
            taus=[0.88],
            iterations=1,
            clamp_observed=False,
        )
        row = report.rows[0]
        assert row.predicted_per_day == 1.0
        assert row.accuracy is None

    def test_rows_keep_request_order(self):
        matrix = self._matrix([("A", DAY)])
        report = run_propagation_sweep(
            matrix, self._model(), self._graph(), self._prices(), taus=[0.88, 0.0],
            iterations=1, clamp_observed=False
        )
        assert [row.tau for row in report.rows] == [0.88, 0.0]

    def test_no_usable_day_rejected(self):
        matrix = self._matrix([("ZZZ", DAY)])
        with pytest.raises(ValidationError, match="no test date"):
            run_propagation_sweep(
                matrix, self._model(), self._graph(), self._prices(), taus=[0.5],
                iterations=1, clamp_observed=False
            )

    def test_bad_taus_rejected(self):
        matrix = self._matrix([("A", DAY)])
        with pytest.raises(ValidationError):
            run_propagation_sweep(
                matrix, self._model(), self._graph(), self._prices(), taus=[],
                iterations=1, clamp_observed=False
            )
        with pytest.raises(ValidationError):
            run_propagation_sweep(
                matrix, self._model(), self._graph(), self._prices(), taus=[-0.1],
                iterations=1, clamp_observed=False
            )

    def test_layout_mismatch_rejected(self):
        matrix = self._matrix([("A", DAY)])
        model = self._model()
        object.__setattr__(
            model, "layout", FeatureLayout(blocks=("bok",), k=5, n_categories=0)
        )
        with pytest.raises(ValidationError, match="layout"):
            run_propagation_sweep(
                matrix, model, self._graph(), self._prices(), taus=[0.5],
                iterations=1, clamp_observed=False
            )


class TestReportFiles:
    def _ablation(self) -> AblationReport:
        rows = (
            AblationRow("bok", ("bok",), 0.25, 4, OK),
            AblationRow("ps", ("ps",), None, 4, FAILED, note="diverged"),
        )
        return AblationReport(rows=rows, metadata={"seed": 2, "test_samples": 4})

    def _sweep(self) -> SweepReport:
        rows = (
            SweepRow(0.0, 0.8, 2.0, 1.5),
            SweepRow(0.5, None, 0.0, 1.5),
        )
        return SweepReport(
            rows=rows,
            metadata={"days_used": 3, "days_skipped": 1, "out_of_graph_samples": 0},
        )

    def test_ablation_csv_content(self, tmp_path):
        path = tmp_path / "ablation.csv"
        write_ablation_report(self._ablation(), path)
        assert path.read_bytes() == (
            b"combination,error_rate,samples,status\n"
            b"bok,0.25,4,ok\n"
            b"ps,n/a,4,failed\n"
        )

    def test_ablation_rendering(self):
        text = render_ablation(self._ablation())
        assert "test samples: 4" in text
        assert "failed: diverged" in text
        assert "0.2500" in text

    def test_sweep_csv_content(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_report(self._sweep(), path)
        assert path.read_bytes() == (
            b"tau,accuracy,predicted_per_day,observed_per_day\n"
            b"0.0,0.8,2.0,1.5\n"
            b"0.5,n/a,0.0,1.5\n"
        )

    def test_sweep_rendering(self):
        text = render_sweep(self._sweep())
        assert "days used: 3, skipped (no observed stocks): 1" in text
        assert "0.8000" in text and "n/a" in text

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rates_at_either_end_of_the_range_are_accepted(self, rate):
        assert AblationRow("bok", ("bok",), rate, 4, OK).error == rate
        assert SweepRow(0.0, rate, 1.0, 1.0).accuracy == rate

    def test_out_of_range_rates_rejected(self):
        with pytest.raises(ValidationError):
            AblationRow("bok", ("bok",), 1.5, 4, OK)
        with pytest.raises(ValidationError):
            SweepRow(0.0, -0.2, 1.0, 1.0)
