"""Tests for correlation graph construction and confidence propagation."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from newsmotion.errors import ParseError, ValidationError
from newsmotion.graph import (
    DNN,
    PROPAGATED,
    CorrelationGraph,
    Propagation,
    build_graph,
    load_graph,
    propagate,
    threshold_predictions,
    write_graph,
    write_predictions,
)
from newsmotion.dates import DateRange
from newsmotion.ingest import PriceSeries

from graph_oracle import build_graph_pairwise, dense_weights, pearson
from support import Prediction, degree, load_predictions

DAY = date(2012, 3, 5)


def _series(ticker: str, closes, start: date = date(2012, 1, 2)) -> PriceSeries:
    dates = tuple(start + timedelta(days=i) for i in range(len(closes)))
    return PriceSeries(
        ticker=ticker, dates=dates, closes=np.asarray(closes, dtype=np.float64)
    )


def _ptable(*series_list: PriceSeries) -> dict[str, PriceSeries]:
    return {s.ticker: s for s in series_list}


def _graph(nodes, edges, threshold=0.8, min_overlap=2) -> CorrelationGraph:
    return CorrelationGraph(
        nodes=list(nodes),
        weights=dense_weights(nodes, edges),
        threshold=threshold,
        min_overlap=min_overlap,
    )


def _one_day(graph: CorrelationGraph, confidences: dict, **kwargs) -> Propagation:
    """Propagate the confidences of a single date."""
    return propagate(
        graph,
        [DAY] * len(confidences),
        list(confidences),
        list(confidences.values()),
        **kwargs,
    )


class TestPearson:
    def test_self_correlation_is_one(self):
        s = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert pearson(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_negated_series_is_minus_one(self):
        s = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert pearson(s, -s) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value_four_fifths(self):
        assert pearson([1.0, 3.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            u = rng.normal(size=n)
            v = rng.normal(size=n)
            expected = float(np.corrcoef(u, v)[0, 1])
            assert pearson(u, v) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            u = rng.normal(size=10)
            v = rng.normal(size=10)
            rho = pearson(u, v)
            assert abs(rho) <= 1.0 + 1e-12
            assert pearson(v, u) == rho
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(-5.0, 5.0))
            assert pearson(a * u + b, v) == pytest.approx(rho, abs=1e-12)
            assert pearson(-u, v) == pytest.approx(-rho, abs=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestBuildGraph:
    def test_scaled_series_get_a_unit_edge(self):
        closes = [10.0, 11.0, 10.5, 12.0, 13.0]
        table = _ptable(
            _series("AAA", closes),
            _series("BBB", [2 * c for c in closes]),
            _series("CCC", [5.0, 5.1, 4.9, 5.05, 5.0]),
        )
        graph = build_graph(table, ["AAA", "BBB", "CCC"], threshold=0.9, min_overlap=2)
        assert graph.nodes == ["AAA", "BBB", "CCC"]
        assert [(graph.nodes[i], graph.nodes[j]) for i, j, _ in graph.edges()] == [
            ("AAA", "BBB")
        ]
        weight = graph.weights[0, 1]
        assert weight == pytest.approx(1.0, abs=1e-12)

    def test_threshold_is_strict(self):
        table = _ptable(
            _series("AAA", [1.0, 3.0, 2.0, 4.0]),
            _series("BBB", [1.0, 2.0, 3.0, 4.0]),
        )
        at_limit = build_graph(table, ["AAA", "BBB"], threshold=0.8, min_overlap=2)
        assert at_limit.edge_count() == 0
        below = build_graph(table, ["AAA", "BBB"], threshold=0.79, min_overlap=2)
        assert below.edge_count() == 1

    def test_min_overlap_gates_pairs(self):
        a = _series("AAA", [1.0, 2.0, 3.0, 4.0])
        b = _series("BBB", [2.0, 4.0, 6.0], start=a.dates[1])
        table = _ptable(a, b)
        sparse = build_graph(table, ["AAA", "BBB"], threshold=0.5, min_overlap=4)
        assert sparse.edge_count() == 0
        dense = build_graph(table, ["AAA", "BBB"], threshold=0.5, min_overlap=3)
        assert dense.edge_count() == 1

    def test_window_restricts_the_correlation(self):
        start = date(2012, 1, 2)
        a = _series("AAA", [1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0], start=start)
        b = _series("BBB", [2.0, 4.0, 6.0, 8.0, 2.0, 4.0, 6.0, 8.0], start=start)
        table = _ptable(a, b)
        window = DateRange(start, start + timedelta(days=3))
        windowed = build_graph(
            table, ["AAA", "BBB"], window=window, threshold=0.9, min_overlap=2
        )
        assert windowed.edge_count() == 1
        full = build_graph(table, ["AAA", "BBB"], threshold=0.9, min_overlap=2)
        assert full.edge_count() == 0

    def test_constant_overlap_gets_no_edge(self):
        table = _ptable(
            _series("AAA", [5.0, 5.0, 5.0, 5.0]),
            _series("BBB", [1.0, 2.0, 3.0, 4.0]),
        )
        graph = build_graph(table, ["AAA", "BBB"], threshold=0.1, min_overlap=2)
        assert graph.edge_count() == 0

    @pytest.mark.parametrize(
        "closes, other",
        [
            (
                [51.39, 20.0, 28.9, 19.62, 27.75, 56.53, 36.09, 97.55, 25.76, 60.74]
                + [93.77, 69.9],
                # three times the first series, to the cent
                [154.17, 60.0, 86.7, 58.86, 83.25, 169.59, 108.27, 292.65, 77.28]
                + [182.22, 281.31, 209.7],
            ),
            ([59.46, 12.48], [77.82, 58.43]),
        ],
    )
    def test_collinear_pair_gets_a_unit_edge(self, closes, other):
        # unclipped, these pairs compute |rho| = 1.0000000000000002
        table = _ptable(_series("AAA", closes), _series("BBB", other))
        graph = build_graph(table, ["AAA", "BBB"], threshold=0.8, min_overlap=2)
        assert abs(graph.weights[0, 1]) == 1.0
        assert graph.edge_count() == 1

    def test_matches_the_pairwise_oracle_bit_for_bit(self):
        rng = np.random.default_rng(74)
        start = date(2012, 1, 2)
        for trial in range(40):
            series = []
            for k in range(int(rng.integers(2, 9))):
                offset = int(rng.integers(0, 6))
                days = [d for d in range(offset, offset + 40) if rng.random() < 0.85]
                if trial % 4 == 1 or (trial % 2 and k % 3):
                    days = list(range(40))  # one date list for all or most tickers
                closes = 50.0 + np.cumsum(rng.normal(size=len(days)))
                if rng.random() < 0.15:
                    closes = np.full(len(days), 42.0)  # constant series
                elif rng.random() < 0.1:
                    closes = closes * 1e-170  # squared deviations underflow to 0
                elif rng.random() < 0.3 and series:
                    # a near-copy of an earlier ticker, to clear the threshold
                    base = series[int(rng.integers(0, len(series)))]
                    days = [(d - start).days for d in base.dates]
                    closes = base.closes * rng.uniform(1.99, 2.01, size=len(days))
                series.append(
                    PriceSeries(
                        ticker=f"T{k}",
                        dates=tuple(start + timedelta(days=d) for d in days),
                        closes=np.asarray(closes, dtype=np.float64),
                    )
                )
            table = _ptable(*series)
            universe = [s.ticker for s in series]
            window = None
            if trial % 4 == 3:
                window = DateRange(start + timedelta(days=5), start + timedelta(days=30))
            threshold = float(rng.choice([0.0, 0.5, 0.8]))
            min_overlap = int(rng.choice([2, 20, 35]))
            got = build_graph(
                table, universe, window, threshold=threshold, min_overlap=min_overlap
            ).weights
            want = build_graph_pairwise(table, universe, window, threshold, min_overlap)
            assert np.array_equal(got, want), trial

    def test_universe_without_prices_rejected(self):
        table = _ptable(_series("AAA", [1.0, 2.0]))
        with pytest.raises(ValidationError, match="ZZZ"):
            build_graph(table, ["AAA", "ZZZ"], threshold=0.8, min_overlap=2)

    def test_bad_parameters_rejected(self):
        table = _ptable(_series("AAA", [1.0, 2.0]))
        with pytest.raises(ValidationError):
            build_graph(table, ["AAA"], threshold=-0.1, min_overlap=2)
        with pytest.raises(ValidationError):
            build_graph(table, ["AAA"], threshold=0.8, min_overlap=1)


class TestCorrelationGraph:
    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError, match="asymmetric"):
            CorrelationGraph(
                nodes=["A", "B"],
                weights=np.array([[0.0, 0.9], [0.0, 0.0]]),
                threshold=0.8,
                min_overlap=2,
            )

    def test_degree_and_edge_count(self):
        graph = _graph(["A", "B", "C"], [("A", "B", 0.9), ("B", "C", -0.85)])
        assert graph.edge_count() == 2
        assert degree(graph, "B") == 2
        assert degree(graph, "C") == 1
        assert list(graph.edges()) == [(0, 1, 0.9), (1, 2, -0.85)]

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight"):
            _graph(["A", "B"], [("A", "B", 1.2)])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([[0.0, 0.9]], "shape"),
            ([[0.5, 0.0], [0.0, 0.0]], "self-edge"),
            ([[0.0, np.nan], [np.nan, 0.0]], "weight"),
            ([[0.0, np.inf], [np.inf, 0.0]], "weight"),
        ],
    )
    def test_malformed_matrix_rejected(self, weights, message):
        with pytest.raises(ValidationError, match=message):
            CorrelationGraph(
                nodes=["A", "B"], weights=np.array(weights), threshold=0.8, min_overlap=2
            )


class TestPropagate:
    def _chain(self) -> CorrelationGraph:
        return _graph(["A", "B", "C"], [("A", "B", 0.9), ("B", "C", -0.85)])

    def test_single_step_hand_example(self):
        out = _one_day(self._chain(), {"A": 0.5})
        assert np.allclose(out.values, [[0.0, 0.45, 0.0]], atol=1e-12)
        assert out.observed.tolist() == [[True, False, False]]
        assert out.dates == [DAY]

    def test_single_step_with_clamp_keeps_observed_entries(self):
        out = _one_day(self._chain(), {"A": 0.5}, clamp_observed=True)
        assert np.allclose(out.values, [[0.5, 0.45, 0.0]], atol=1e-12)

    def test_two_steps_hand_example(self):
        out = _one_day(self._chain(), {"A": 0.5}, iterations=2)
        assert np.allclose(out.values, [[0.405, 0.0, -0.3825]], atol=1e-12)

    def test_two_steps_with_clamp_hand_example(self):
        out = _one_day(self._chain(), {"A": 0.5}, iterations=2, clamp_observed=True)
        assert np.allclose(out.values, [[0.5, 0.45, -0.3825]], atol=1e-12)

    def test_zero_iterations_copies_the_input(self):
        confidences = np.array([-0.25])
        out = propagate(self._chain(), [DAY], ["B"], confidences, iterations=0)
        assert np.array_equal(out.values, [[0.0, -0.25, 0.0]])
        assert not np.shares_memory(out.values, confidences)

    def test_clipping_happens_only_after_the_final_iteration(self):
        graph = _graph(
            ["C", "N1", "N2", "N3"],
            [("C", "N1", 0.9), ("C", "N2", 0.9), ("C", "N3", 0.9)],
        )
        seeds = {"N1": 1.0, "N2": 1.0, "N3": 1.0}
        one = _one_day(graph, seeds, iterations=1)
        assert one.values[0, 0] == 1.0  # 2.7 before the final clip
        two = _one_day(graph, seeds, iterations=2)
        # leaves see 0.9 * 2.7 = 2.43, clipped to 1; early clipping would give 0.9
        assert np.allclose(two.values, [[0.0, 1.0, 1.0, 1.0]], atol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = 8
            nodes = [f"T{i}" for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        edges.append((nodes[i], nodes[j], float(rng.uniform(-1, 1))))
            graph = _graph(nodes, edges)
            days = [DAY + timedelta(days=d) for d in range(4)]
            dates, tickers, confidences = [], [], []
            for d in rng.permutation(len(days)):
                for i in np.flatnonzero(rng.random(n) < 0.4):
                    dates.append(days[d])
                    tickers.append(nodes[i])
                    confidences.append(float(rng.uniform(-1.0, 1.0)))
            iterations = int(rng.integers(1, 4))
            clamp = bool(rng.random() < 0.5)
            out = propagate(graph, dates, tickers, confidences, iterations, clamp)
            assert out.dates == sorted(set(dates))
            a = dense_weights(nodes, edges)
            for r, day in enumerate(out.dates):
                values = np.zeros(n)
                observed = np.zeros(n, dtype=bool)
                for d, t, c in zip(dates, tickers, confidences):
                    if d == day:
                        values[nodes.index(t)] = c
                        observed[nodes.index(t)] = True
                expected = values.copy()
                for _ in range(iterations):
                    expected = a @ expected
                    if clamp:
                        expected[observed] = values[observed]
                expected = np.clip(expected, -1.0, 1.0)
                assert np.max(np.abs(out.values[r] - expected)) < 1e-12
                assert np.array_equal(out.observed[r], observed)

    def test_mismatched_vector_rejected(self):
        with pytest.raises(ValidationError):
            propagate(self._chain(), [DAY, DAY], ["A", "B"], [0.5])

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValidationError):
            propagate(self._chain(), [], [], [], iterations=-1)


class TestInitialVector:
    """The seed matrix propagate builds: one row per date, one column per node."""

    def test_seeds_and_mask(self):
        graph = _graph(["A", "B", "C"], [("A", "B", 0.9)])
        x = _one_day(graph, {"B": -0.3, "C": 0.7}, iterations=0)
        assert x.values.tolist() == [[0.0, -0.3, 0.7]]
        assert x.observed.tolist() == [[False, True, True]]

    def test_unknown_ticker_rejected(self):
        # an unknown ticker is left out of the seed and counted; a date
        # whose observed tickers are all unknown is skipped
        graph = _graph(["A", "B"], [("A", "B", 0.9)])
        later = DAY + timedelta(days=1)
        x = propagate(
            graph, [DAY, DAY, later], ["ZZZ", "A", "ZZZ"], [0.5, 0.25, 0.5], iterations=0
        )
        assert x.dates == [DAY]
        assert x.values.tolist() == [[0.25, 0.0]]
        assert x.out_of_graph == 2
        assert x.days_skipped == 1

    def test_out_of_range_confidence_rejected(self):
        graph = _graph(["A", "B"], [("A", "B", 0.9)])
        with pytest.raises(ValidationError):
            _one_day(graph, {"A": 1.5})
        with pytest.raises(ValidationError):
            _one_day(graph, {"A": float("nan")})

    def test_rows_follow_date_order(self):
        graph = _graph(["A", "B"], [("A", "B", 0.9)])
        later = DAY + timedelta(days=1)
        x = propagate(graph, [later, DAY], ["B", "A"], [0.5, -0.5], iterations=0)
        assert x.dates == [DAY, later]
        assert x.values.tolist() == [[-0.5, 0.0], [0.0, 0.5]]
        assert x.days_skipped == 0 and x.out_of_graph == 0


class TestThresholdPredictions:
    def _propagated(self, graph: CorrelationGraph) -> Propagation:
        return _one_day(graph, {"A": 0.5})

    def _emit(self, graph: CorrelationGraph, tau: float) -> np.ndarray:
        x = self._propagated(graph)
        return threshold_predictions(graph, x.values, x.observed, tau)

    def test_observed_nodes_never_emitted(self):
        graph = _graph(["A", "B", "C"], [("A", "B", 0.9), ("B", "C", -0.85)])
        assert not self._emit(graph, tau=0.0)[0, 0]

    def test_zero_entries_never_emitted(self):
        graph = _graph(["A", "B", "C"], [("A", "B", 0.9), ("B", "C", -0.85)])
        assert self._emit(graph, tau=0.0).tolist() == [[False, True, False]]
        assert self._propagated(graph).values[0, 1] == 0.45  # emitted up

    def test_threshold_is_inclusive(self):
        graph = _graph(["A", "B", "C"], [("A", "B", 0.9), ("B", "C", -0.85)])
        assert self._emit(graph, tau=0.45)[0, 1]
        assert not self._emit(graph, tau=0.450001)[0, 1]

    def test_negative_values_emit_down(self):
        graph = _graph(["A", "B"], [("A", "B", -0.9)])
        assert self._emit(graph, tau=0.1).tolist() == [[False, True]]
        assert self._propagated(graph).values[0, 1] == -0.45  # emitted down

    def test_negative_tau_rejected(self):
        graph = _graph(["A", "B"], [("A", "B", 0.9)])
        with pytest.raises(ValidationError):
            self._emit(graph, tau=-0.1)

    def test_mismatched_values_rejected(self):
        graph = _graph(["A", "B"], [("A", "B", 0.9)])
        with pytest.raises(ValidationError):
            threshold_predictions(graph, np.zeros((1, 3)), np.zeros((1, 3), bool), 0.5)


class TestGraphFile:
    def _sample_graph(self) -> CorrelationGraph:
        graph = _graph(
            ["AAA", "BBB", "CCC", "DDD"],
            [("AAA", "BBB", 0.912345678), ("BBB", "CCC", -0.87)],
            threshold=0.85,
            min_overlap=30,
        )
        graph.window = DateRange(date(2012, 1, 2), date(2012, 6, 29))
        return graph

    def test_round_trip_preserves_everything(self, tmp_path):
        graph = self._sample_graph()
        path = tmp_path / "graph.csv"
        write_graph(graph, path)
        assert path.read_bytes() == (
            b"# threshold=0.85\n"
            b"# min_overlap=30\n"
            b"# window=2012-01-02:2012-06-29\n"
            b"# nodes=AAA,BBB,CCC,DDD\n"
            b"ticker_i,ticker_j,weight\n"
            b"AAA,BBB,0.912345678\n"
            b"BBB,CCC,-0.87\n"
        )
        loaded = load_graph(path)
        assert loaded.nodes == graph.nodes
        assert np.array_equal(loaded.weights, graph.weights)
        assert loaded.threshold == graph.threshold
        assert loaded.min_overlap == graph.min_overlap
        assert loaded.window == graph.window

    def test_isolated_nodes_survive_the_round_trip(self, tmp_path):
        graph = self._sample_graph()
        path = tmp_path / "graph.csv"
        write_graph(graph, path)
        assert degree(load_graph(path), "DDD") == 0

    def test_windowless_graph_round_trips(self, tmp_path):
        graph = _graph(["A", "B"], [("A", "B", 0.9)])
        path = tmp_path / "graph.csv"
        write_graph(graph, path)
        assert b"\n# window=none\n" in path.read_bytes()
        assert load_graph(path).window is None

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "graph.csv"
        write_graph(self._sample_graph(), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(b"BBB", b"B\xe9B")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError) as caught:
            load_graph(path)
        assert str(caught.value) == f"{path}:{len(lines)}: not UTF-8 text (byte 0xe9)"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("# threshold=0.8\nticker_i,ticker_j,weight\n")
        with pytest.raises(ParseError, match="min_overlap"):
            load_graph(path)

    def test_unknown_node_in_edge_rejected(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text(
            "# threshold=0.8\n# min_overlap=2\n# nodes=AAA,BBB\n"
            "ticker_i,ticker_j,weight\nAAA,ZZZ,0.9\n"
        )
        with pytest.raises(ParseError, match="unknown node"):
            load_graph(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("AAA,BBB,0.9\nAAA,BBB,0.95\n", "repeated"),
            ("AAA,BBB,0.9\nBBB,AAA,0.9\n", "repeated"),
            ("AAA,AAA,0.9\n", "self-edge"),
        ],
    )
    def test_repeated_pair_or_self_edge_rejected(self, tmp_path, rows, message):
        path = tmp_path / "graph.csv"
        path.write_text(
            "# threshold=0.8\n# min_overlap=2\n# nodes=AAA,BBB\n"
            "ticker_i,ticker_j,weight\n" + rows
        )
        with pytest.raises(ParseError, match=message):
            load_graph(path)

    def test_bad_weight_rejected(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text(
            "# threshold=0.8\n# min_overlap=2\n# nodes=AAA,BBB\n"
            "ticker_i,ticker_j,weight\nAAA,BBB,high\n"
        )
        with pytest.raises(ParseError, match=":5"):
            load_graph(path)


class TestPredictionFile:
    def _predictions(self) -> list[Prediction]:
        return [
            Prediction(DAY, "BBB", PROPAGATED, "down", -0.625),
            Prediction(DAY, "AAA", DNN, "up", 0.875),
            Prediction(DAY - timedelta(days=1), "CCC", DNN, "down", -0.25),
        ]

    def test_round_trip_sorts_by_date_ticker(self, tmp_path):
        path = tmp_path / "predictions.csv"
        rows = [(p.date, p.ticker, p.source, p.confidence) for p in self._predictions()]
        write_predictions(rows, path)
        assert path.read_bytes() == (
            b"date,ticker,source,label,confidence\n"
            b"2012-03-04,CCC,dnn,down,-0.25\n"
            b"2012-03-05,AAA,dnn,up,0.875\n"
            b"2012-03-05,BBB,propagated,down,-0.625\n"
        )
        loaded = load_predictions(path)
        assert loaded == sorted(
            self._predictions(), key=lambda p: (p.date, p.ticker, p.source)
        )

    def test_bad_source_rejected(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text(
            "date,ticker,source,label,confidence\n2012-03-05,AAA,oracle,up,0.5\n"
        )
        with pytest.raises(ParseError, match=":2"):
            load_predictions(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text("who,what\n")
        with pytest.raises(ParseError, match=":1"):
            load_predictions(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text("date,ticker,source,label,confidence\n2012-03-05,AAA\n")
        with pytest.raises(ParseError, match="5 fields"):
            load_predictions(path)
