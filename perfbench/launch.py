"""Run one newsmotion CLI stage in-process, with spans around its public calls.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python perfbench/launch.py TRACE_JSON STAGE --config PATH [--set K=V ...]

The launcher replaces the module functions that ``newsmotion.cli`` and
``newsmotion.evaluation`` call with wrappers that record a span (name,
start, end, parent) per call and a few work counts taken from the call's
arguments and result. Each span also keeps its wrapper's own cost: the
bookkeeping around the call and the work counts. That cost, plus the
time to install the wrappers, is the tracer's overhead. Spans stay in
memory and are written to TRACE_JSON when the stage returns. The stage's
exit code is passed through.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    """Spans and counters of one process; spans nest by call order."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, wrapper cost s]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.install_s = 0.0
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def span(self, name: str, func, count=None):
        """Wrap func; count(args, kwargs, result) runs after the span closes."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            record[4] = record[1] - entered + time.perf_counter() - record[2]
            return result

        return wrapper

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "exit_code": exit_code,
                    "install_s": self.install_s,
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if position < len(args) else default


def _count_skipgram(tracer, args, kwargs, table):
    sentences, config = _arg(args, kwargs, 0, "sentences"), _arg(args, kwargs, 1, "config")
    window = config.window
    pairs = 0
    for sentence in sentences:
        n = sum(1 for token in sentence if token in table)
        if n < 2:
            continue
        for pos in range(n):
            pairs += min(n, pos + window + 1) - max(0, pos - window) - 1
    tracer.add("embedding.pairs", pairs * config.epochs)
    tracer.counts["embedding.vocab"] = len(table)
    if table.epoch_losses:
        tracer.counts["embedding.final_loss"] = table.epoch_losses[-1]


def _count_train(tracer, args, kwargs, model):
    train_rows = len(_arg(args, kwargs, 0, "train_matrix"))
    valid_rows = len(_arg(args, kwargs, 1, "valid_matrix"))
    epochs = model.metadata.get("epochs_run", 0)
    macs = sum(int(w.size) for w in model.weights)
    tracer.add("mlp.trainings", 1)
    tracer.add("mlp.train_rows", train_rows * epochs)
    tracer.add("mlp.epochs_run", epochs)
    tracer.add("mlp.best_epoch_sum", model.metadata.get("best_epoch", -1))
    # forward + backward is about 3 forward passes; validation is 1 per epoch
    tracer.add("mlp.flop", 2 * macs * epochs * (3 * train_rows + valid_rows))


def _count_predict(tracer, args, kwargs, result):
    model, x = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "x")
    tracer.add("mlp.flop", 2 * sum(int(w.size) for w in model.weights) * len(x))


def _count_graph(tracer, args, kwargs, graph):
    n = len(set(_arg(args, kwargs, 1, "universe")))
    tracer.add("graph.pairs", n * (n - 1) // 2)
    tracer.add("graph.edges", graph.edge_count())


def _count_len(name):
    def count(tracer, args, kwargs, result):
        tracer.add(name, len(result))

    return count


def _count_featurize(tracer, args, kwargs, result):
    matrix, skipped = result
    tracer.add("features.rows", len(matrix))
    tracer.add("features.skipped", len(skipped))


def _count_keywords(tracer, args, kwargs, lexicon):
    tracer.add("lexicon.keywords", len(lexicon))
    tracer.add("lexicon.keywords_requested", _arg(args, kwargs, 2, "k", 1000))


def _count_categories(tracer, args, kwargs, lexicon):
    table = _arg(args, kwargs, 0, "table")
    seeds = [w for words in _arg(args, kwargs, 1, "category_seeds").values() for w in words]
    tracer.add("lexicon.seed_words", len(seeds))
    tracer.add("lexicon.seed_words_in_vocab", sum(1 for w in seeds if w in table))


def _count_up_to_date(tracer, args, kwargs, fresh):
    tracer.add("manifest.stages_skipped" if fresh else "manifest.stages_run", 1)


def _count_hashed(tracer, args, kwargs, result):
    tracer.add("manifest.bytes_hashed", os.path.getsize(_arg(args, kwargs, 0, "path")))


def install(tracer: Tracer) -> None:
    """Replace the functions the CLI and evaluation modules call with wrappers."""
    from newsmotion import cli, evaluation, manifest

    # (span name, counter) per function name; one wrapper is shared by
    # every module that imported the function.
    plan = {
        "generate_synthetic_fixture": ("synth.generate", None),
        "load_prices": ("ingest.load_prices", None),
        "extract_sentences": ("sampling.extract_sentences", _count_len("sampling.sentences")),
        "build_samples": ("sampling.build_samples", _count_len("sampling.samples")),
        "train_skipgram": ("embedding.train_skipgram", _count_skipgram),
        "build_keyword_lexicon": ("lexicon.build_keywords", _count_keywords),
        "build_category_lexicon": ("lexicon.build_categories", _count_categories),
        "featurize_samples": ("features.featurize", _count_featurize),
        "train": ("mlp.train", _count_train),
        "predict_batch": ("mlp.predict_batch", _count_predict),
        "build_graph": ("graph.build", _count_graph),
        "propagate": ("graph.propagate", None),
        "threshold_predictions": ("graph.threshold", None),
        "run_ablation": ("evaluation.ablation", None),
        "run_propagation_sweep": ("evaluation.sweep", None),
        "up_to_date": ("manifest.check", _count_up_to_date),
        "write_manifest": ("manifest.write", None),
    }
    wrapped: dict[int, object] = {}
    for module in (cli, evaluation):
        for attr, (name, count) in plan.items():
            func = getattr(module, attr, None)
            if func is None:
                continue
            if id(func) not in wrapped:
                wrapped[id(func)] = tracer.span(name, func, count)
            setattr(module, attr, wrapped[id(func)])
    # up_to_date and write_manifest look file_sha256 up in their own module.
    manifest.file_sha256 = tracer.span("manifest.hash", manifest.file_sha256, _count_hashed)


def main(argv: list[str]) -> int:
    trace_path, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    code = 2
    try:
        # The stage imports these anyway; only the patching is tracer cost.
        from newsmotion import cli, evaluation, manifest  # noqa: F401

        start = time.perf_counter()
        install(tracer)
        tracer.install_s = time.perf_counter() - start
        code = tracer.span("cli.main", cli.main)(stage_argv)
    finally:
        tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
