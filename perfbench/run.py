"""End-to-end benchmark of the newsmotion pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload accept --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each CLI stage runs as its own ``python -m newsmotion.cli`` process, one
at a time, from this driving process, with one BLAS thread and pinned to
one CPU. The speedometer ``perfbench/gauge.py`` shares that CPU at a
lower priority and runs only while a stage runs; its CPU seconds per
chunk give the speed the stage got, and the stage's wall and CPU times
are scaled to the gauge's nominal speed (see ``Gauge``). The workload
seed becomes ``synth.seed`` and, plus one, ``pipeline.seed``; the
program receives only the generated fixture and config.

Set-up generates the fixture (``wide_retune`` also appends price-only
tickers and makes one cold run). The timed part then repeats passes over
``ingest`` through ``evaluate`` until ``--seconds`` have passed, at least
once, and reports medians. The fixture is generated again, in a side
directory, a few more times; ``setup_s`` is the median generation time
(plus the cold run).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one
untraced pass and the same pass again through ``perfbench/launch.py``,
which records spans around the calls into each module, and prints the
per-layer metrics derived from the spans.

Every stage run and output check counts as attempted; a non-zero exit,
a quality number outside the acceptance constants, or criterion-9 files
that differ from an earlier run of the same sources, numeric stack,
workload and seed counts as failed. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a check failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread in every process: the stages run on a single CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402  (numpy must see the thread setting)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_work"
DIGESTS = WORK / "digests.json"
DEADLINE_S = 170
# Fixture generations; setup_s is their median (plus the cold run).
SETUP_SAMPLES = 5
# The gauge's niceness: it gets about a tenth of the stages' CPU.
GAUGE_NICE = 10

STAGES = (
    "ingest",
    "embed",
    "lexicon",
    "featurize",
    "train",
    "graph",
    "predict",
    "evaluate",
)
# The files criterion 9 of the acceptance suite requires to be byte-identical.
DETERMINISM_FILES = (
    "model.bin",
    "graph.csv",
    "predictions.csv",
    "ablation.csv",
    "ablation.txt",
    "sweep.csv",
    "sweep.txt",
)
# Output checks: the constants of tests/test_acceptance.py.
MAX_FULL_FEATURE_ERROR = 0.15
MIN_PRICE_ONLY_GAP = 0.10
MIN_PROPAGATED_ACCURACY = 0.6
SWEEP_TAU = 0.8
# Criterion-9 digests are compared only between runs on the same stack.
STACK_KEYS = ("python", "numpy", "blas", "blas_version", "blas_threads")
# Quality numbers reported as end-to-end metrics. Sweep coverage varies
# too much from seed to seed to bound; it is a per-layer metric instead.
QUALITY_UNITS = {
    "err_price": "ratio",
    "err_full": "ratio",
    f"sweep_acc_{SWEEP_TAU}": "ratio",
}

# The acceptance config (PIPELINE_CONFIG in tests/test_acceptance.py).
ACCEPT_CONFIG = """\
[embedding]
dimension = 48
window = 3
epochs = 3

[lexicon]
keywords = 300
category_words = 50

[training]
hidden = 64,32
epochs = 30
batch_size = 64
"""

# Paper-default lexicon and 4x1024 classifier; short embedding and training.
PAPER_MLP_CONFIG = """\
[embedding]
dimension = 48
window = 3
epochs = 1

[training]
hidden = 512,512,512,512
epochs = 4
"""

# Acceptance-size models over a widened universe; 1-epoch embedding.
WIDE_CONFIG = ACCEPT_CONFIG.replace("window = 3\nepochs = 3\n", "window = 3\nepochs = 1\n")

DEFAULT_TAUS = "0.0,0.2,0.4,0.6,0.8,1.0"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # --set overrides of each setting; pass i runs settings[i % len(settings)]
    # and quality is read from passes on settings[0].
    settings: tuple[tuple[str, ...], ...] = ((),)
    widen: int = 0  # price-only tickers appended to the fixture
    cold: bool = True  # each pass starts from the fixture; else from the last pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("accept", ACCEPT_CONFIG),
        Workload("paper_mlp", PAPER_MLP_CONFIG),
        Workload(
            "wide_retune",
            WIDE_CONFIG,
            settings=(
                ("graph.threshold=0.8", f"sweep.taus={DEFAULT_TAUS}"),
                ("graph.threshold=0.75", "sweep.taus=0.0,0.5,0.8,0.9"),
            ),
            widen=120,
            cold=False,
        ),
    )
}


class Interrupted(Exception):
    """The run hit its deadline or was asked to stop; the current stage is killed."""


def _on_signal(signum, frame):
    if signum == signal.SIGALRM:
        raise Interrupted(f"benchmark exceeded {DEADLINE_S} s")
    raise Interrupted(f"stopped by signal {signum}")


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    speed: float = 1.0  # the gauge's nominal CPU s per chunk over its measured ones
    gauge_s: float = 0.0  # the gauge's CPU seconds while the stage ran
    trace: dict | None = None

    @property
    def nominal_wall_s(self) -> float:
        """Wall time without the gauge's share, at the gauge's nominal speed."""
        return (self.wall_s - self.gauge_s) * self.speed

    @property
    def nominal_cpu_s(self) -> float:
        return self.cpu_s * self.speed


@dataclass
class Pass:
    runs: list[StageRun]

    @property
    def wall_s(self) -> float:
        return sum(r.nominal_wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.nominal_cpu_s for r in self.runs)


class Checks:
    """Stage runs and output checks, attempted against failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", flush=True)
        return ok


class Gauge:
    """The speedometer process (``gauge.py``), pinned with the stages to one CPU.

    The gauge is stopped except while a stage runs. At a lower priority on
    the stage's CPU it gets short slices all through the stage, so its CPU
    seconds per chunk then follow the speed that CPU gave the stage: they
    rise together when the host gives the vCPU less. A stage's speed
    factor is the nominal CPU seconds per chunk over the measured ones.
    """

    def __init__(self, counter_path: Path, env: dict) -> None:
        self.cpu = max(os.sched_getaffinity(0))
        counter_path.write_bytes(bytes(gauge.COUNTER.size))
        with counter_path.open("r+b") as fh:
            self._counter = mmap.mmap(fh.fileno(), gauge.COUNTER.size)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "gauge.py"), str(counter_path)],
            env=env,
            cwd=ROOT,
            preexec_fn=self._pin_low,
        )
        try:
            deadline = time.monotonic() + 60
            while self.reading()[0] == 0:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"gauge did not start (exit {self.proc.poll()})")
                time.sleep(0.01)
            self.pause()
        except BaseException:
            self.close()
            raise

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def _pin_low(self) -> None:
        self.pin()
        os.nice(GAUGE_NICE)

    def reading(self) -> tuple[float, float]:
        """Chunks done and the gauge's CPU seconds at the last chunk's end."""
        return gauge.COUNTER.unpack_from(self._counter, 0)

    def pause(self) -> None:
        os.kill(self.proc.pid, signal.SIGSTOP)
        os.waitpid(self.proc.pid, os.WUNTRACED)

    def resume(self) -> None:
        os.kill(self.proc.pid, signal.SIGCONT)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._counter.close()


def run_process(
    name: str, argv: list[str], env: dict, log_path: Path, meter: Gauge
) -> StageRun:
    """Run argv to completion on the gauge's CPU, with the gauge running."""
    chunks0, gauge0 = meter.reading()
    with log_path.open("ab") as log:
        meter.resume()
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT, preexec_fn=meter.pin
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        finally:
            meter.pause()
    chunks1, gauge1 = meter.reading()
    gauge_s = gauge1 - gauge0
    speed = gauge.NOMINAL_CHUNK_S * (chunks1 - chunks0) / gauge_s if gauge_s > 0 else 1.0
    return StageRun(
        name,
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        speed,
        gauge_s,
    )


class Runner:
    """Runs the stages of one workload directory and keeps the checks."""

    def __init__(self, run_dir: Path, checks: Checks) -> None:
        self.run_dir = run_dir
        self.config = run_dir / "pipeline.ini"
        self.work = run_dir / "work"
        self.log = run_dir / "stages.log"
        self.checks = checks
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.meter: Gauge | None = None  # set while the workload runs
        self._traces = 0

    def process(self, name: str, argv: list[str]) -> StageRun:
        run = run_process(name, argv, self.env, self.log, self.meter)
        if not self.checks.check(run.code == 0, f"{name} exited {run.code}"):
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(tail, file=sys.stderr)
        return run

    def stage(self, stage: str, overrides=(), traced: bool = False) -> StageRun:
        args = [stage, "--config", str(self.config)]
        for item in overrides:
            args += ["--set", item]
        trace_path = None
        if traced:
            self._traces += 1
            trace_path = self.run_dir / f"trace-{self._traces:03d}-{stage}.json"
            argv = [sys.executable, str(BENCH / "launch.py"), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "newsmotion.cli", *args]
        run = self.process(stage, argv)
        if trace_path is not None and trace_path.is_file():
            run.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return run

    def run_pass(self, overrides=(), traced: bool = False) -> Pass:
        """ingest through evaluate; stops at the first stage that fails."""
        runs = []
        for stage in STAGES:
            runs.append(self.stage(stage, overrides, traced))
            if runs[-1].code != 0:
                break
        return Pass(runs)


def _fingerprint(stack: dict) -> str:
    """Hash of the sources and the numeric stack; BLAS threads change output bytes."""
    digest = hashlib.sha256(json.dumps(stack, sort_keys=True).encode())
    for path in sorted((SRC / "newsmotion").rglob("*")) + sorted(BENCH.glob("*.py")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _file_digests(work: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((work / name).read_bytes()).hexdigest()
        for name in DETERMINISM_FILES
        if (work / name).is_file()
    }


def check_determinism(checks: Checks, key: str, work: Path) -> None:
    """Compare the criterion-9 files with the first run of the same key."""
    digests = _file_digests(work)
    store = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    if key in store:
        differing = sorted(n for n in DETERMINISM_FILES if store[key].get(n) != digests.get(n))
        checks.check(not differing, f"criterion-9 files differ from an earlier run: {differing}")
    else:
        checks.check(len(digests) == len(DETERMINISM_FILES), "criterion-9 files missing")
        store[key] = digests
        DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def read_quality(work: Path) -> dict[str, float]:
    errors = {}
    for line in (work / "ablation.csv").read_text(encoding="utf-8").splitlines()[1:]:
        name, err, _, status = line.split(",")
        if status == "ok":
            errors[name] = float(err)
    quality = {}
    if "price" in errors:
        quality["err_price"] = errors["price"]
    if "price+bok+ps+ct" in errors:
        quality["err_full"] = errors["price+bok+ps+ct"]
    for line in (work / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]:
        tau, acc, per_day, _ = line.split(",")
        if float(tau) == SWEEP_TAU and acc != "n/a":
            quality[f"sweep_acc_{SWEEP_TAU}"] = float(acc)
            quality[f"sweep_cov_{SWEEP_TAU}"] = float(per_day)
    return quality


def check_quality(checks: Checks, quality: dict[str, float]) -> None:
    full = quality.get("err_full")
    price = quality.get("err_price")
    acc = quality.get(f"sweep_acc_{SWEEP_TAU}")
    checks.check(
        full is not None and full <= MAX_FULL_FEATURE_ERROR,
        f"err_full {full} above {MAX_FULL_FEATURE_ERROR}",
    )
    checks.check(
        full is not None and price is not None and price - full >= MIN_PRICE_ONLY_GAP,
        f"err_price {price} - err_full {full} below {MIN_PRICE_ONLY_GAP}",
    )
    checks.check(
        acc is not None and acc >= MIN_PROPAGATED_ACCURACY,
        f"sweep_acc_{SWEEP_TAU} {acc} below {MIN_PROPAGATED_ACCURACY}",
    )


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }
    probe = subprocess.run(
        [sys.executable, str(BENCH / "probe.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    else:
        info["probe_error"] = probe.stderr.strip()[-500:]
    return info


class Bench:
    """One workload at one seed: set-up, timed passes and checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, stack: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.checks = Checks()
        self.runner = Runner(WORK / workload.name, self.checks)
        self.snapshot = self.runner.run_dir / "snapshot"
        self.fingerprint = _fingerprint(stack)
        self.quality: dict[str, float] = {}  # from the last pass on settings[0]

    def _generate(self, config: Path, traced: bool = False) -> list[StageRun]:
        """synth, and the widening when the workload widens; stops at a failure."""
        if config == self.runner.config:
            runs = [self.runner.stage("synth", traced=traced)]
        else:
            argv = [sys.executable, "-m", "newsmotion.cli", "synth", "--config", str(config)]
            runs = [self.runner.process("synth", [*argv, "--force"])]
        if self.workload.widen and runs[0].code == 0:
            argv = [
                sys.executable,
                str(BENCH / "widen.py"),
                str(config.parent / "prices.csv"),
                str(self.workload.widen),
                str(self.seed),
            ]
            runs.append(self.runner.process("widen", argv))
        return runs

    def setup(self, traced: bool) -> tuple[list[StageRun], float]:
        """The fixture and, when passes chain, the cold run's nominal seconds."""
        run_dir = self.runner.run_dir
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        self.runner.config.write_text(
            self.workload.config
            + f"\n[synth]\nseed = {self.seed}\n\n[pipeline]\nseed = {self.seed + 1}\n",
            encoding="utf-8",
        )
        fixture = self._generate(self.runner.config, traced)
        cold_s = 0.0
        if not self.workload.cold:
            last = len(self.workload.settings) - 1
            cold = self.runner.run_pass(self.workload.settings[last])
            self._print_pass(-1, cold, "set-up ")
            self._check_outputs(last, cold.runs)
            cold_s = cold.wall_s
        shutil.copytree(self.runner.work, self.snapshot)
        return fixture, cold_s

    def setup_samples(self, count: int) -> list[float]:
        """Nominal seconds of fixture generations in a side directory."""
        side = self.runner.run_dir / "setup-sample"
        side.mkdir(exist_ok=True)
        config = side / self.runner.config.name
        shutil.copyfile(self.runner.config, config)
        return [
            sum(r.nominal_wall_s for r in self._generate(config))
            for _ in range(count)
        ]

    def restore(self) -> None:
        shutil.rmtree(self.runner.work)
        shutil.copytree(self.snapshot, self.runner.work)

    def timed_pass(self, index: int, traced: bool = False) -> Pass:
        settings = self.workload.settings
        which = index % len(settings)
        if self.workload.cold:
            self.restore()
        done = self.runner.run_pass(settings[which], traced)
        self._check_outputs(which, done.runs)
        return done

    def _check_outputs(self, which: int, runs: list[StageRun]) -> None:
        if len(runs) != len(STAGES) or runs[-1].code != 0:
            return
        key = f"{self.fingerprint}:{self.workload.name}:{self.seed}:{which}"
        check_determinism(self.checks, key, self.runner.work)
        if which != 0:
            return
        try:
            self.quality = read_quality(self.runner.work)
        except (OSError, ValueError) as exc:
            self.quality = {}
            self.checks.check(False, f"unreadable report: {exc}")
        check_quality(self.checks, self.quality)

    def run(self, trace: bool) -> dict[str, tuple[float, str]]:
        fixture, cold_s = self.setup(trace)
        if trace:
            return self._traced(fixture[0])
        generate = [sum(r.nominal_wall_s for r in fixture)]
        walls, cpus, peaks = [], [], []
        started = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - started < self.seconds:
            done = self.timed_pass(index)
            self._print_pass(index, done)
            walls.append(done.wall_s)
            cpus.append(done.cpu_s)
            peaks.append(max(r.rss_mb for r in done.runs))
            index += 1
            if done.runs[-1].code != 0:
                break
        generate += self.setup_samples(SETUP_SAMPLES - 1)
        print("set-up fixture s " + " ".join(f"{t:.3f}" for t in generate))
        metrics = {
            "pipeline_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "setup_s": (statistics.median(generate) + cold_s, "s"),
        }
        for name, unit in QUALITY_UNITS.items():
            if name in self.quality:
                metrics[name] = (self.quality[name], unit)
        print("quality " + json.dumps(self.quality))
        return metrics

    def _traced(self, synth: StageRun) -> dict[str, tuple[float, str]]:
        plain = self.timed_pass(0)
        self._print_pass(0, plain)
        self.restore()
        traced = self.timed_pass(0, traced=True)
        self._print_pass(0, traced, "traced ")
        runs = traced.runs
        metrics = layer_metrics(synth, runs)
        cov = f"sweep_cov_{SWEEP_TAU}"
        metrics[f"evaluation.{cov}"] = (self.quality.get(cov, 0.0), "1/day")
        walls = sum(r.wall_s for r in plain.runs + runs)
        speed = sum(r.speed * r.wall_s for r in plain.runs + runs) / walls if walls else 1.0
        print(f"gauge speed factor over both passes {speed:.3f}")
        # Spans + cli.overhead_s + tracer cost make up the traced stage walls
        # by construction; the untraced pass differs from them by the tracer
        # cost and by the machine's run-to-run noise, usually far larger.
        covered = sum(_covered_s(r) for r in runs)
        cli_overhead = metrics["cli.overhead_s"][0]
        tracer = metrics["trace.overhead_s"][0]
        plain_wall = sum(r.wall_s for r in plain.runs)
        traced_wall = sum(r.wall_s for r in runs)
        print(
            f"untraced wall {plain_wall:.3f} s; stage spans {covered:.3f}"
            f" + cli.overhead_s {cli_overhead:.3f} = {covered + cli_overhead:.3f};"
            f" difference {plain_wall - covered - cli_overhead:+.3f},"
            f" trace.overhead_s {tracer:.4f}, traced - untraced wall {traced_wall - plain_wall:+.3f}"
        )
        print_self_times([synth, *runs])
        merged = [
            {"stage": r.stage, "wall_s": r.wall_s, **(r.trace or {})} for r in [synth, *runs]
        ]
        (self.runner.run_dir / "trace.json").write_text(json.dumps(merged), encoding="utf-8")
        return metrics

    def _print_pass(self, index: int, done: Pass, tag: str = "") -> None:
        detail = "  ".join(
            f"{r.stage} {r.wall_s:.2f}s x{r.speed:.2f}/{r.rss_mb:.0f}MB" for r in done.runs
        )
        raw = sum(r.wall_s for r in done.runs)
        print(
            f"{tag}pass {index}: nominal wall {done.wall_s:.3f} s, cpu {done.cpu_s:.3f} s;"
            f" measured wall {raw:.3f} s  [{detail}]",
            flush=True,
        )


def _span_table(runs: list[StageRun]) -> dict[str, list[float]]:
    """Per span name: [calls, total s, self s], summed over the traced stages."""
    table: dict[str, list[float]] = {}
    for run in runs:
        spans = (run.trace or {}).get("spans", [])
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, _), children in zip(spans, child_time):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
    return table


def print_self_times(runs: list[StageRun]) -> None:
    print(f"{'span':32s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, own) in sorted(_span_table(runs).items(), key=lambda kv: -kv[1][2]):
        print(f"{name:32s} {calls:7d} {total:10.4f} {own:10.4f}")


def _top_spans(run: StageRun) -> list[list]:
    """cli.main and the spans directly under it."""
    spans = (run.trace or {}).get("spans", [])
    roots = {i for i, span in enumerate(spans) if span[0] == "cli.main"}
    return [span for i, span in enumerate(spans) if i in roots or span[3] in roots]


def _covered_s(run: StageRun) -> float:
    """Stage wall time inside the spans directly under cli.main."""
    return sum(end - start for name, start, end, _, _ in _top_spans(run) if name != "cli.main")


def _tracer_s(run: StageRun) -> tuple[float, float]:
    """Tracer cost of a stage: all of it, and the part outside the module spans."""
    trace = run.trace or {}
    install = trace.get("install_s", 0.0)
    total = install + sum(span[4] for span in trace.get("spans", []))
    return total, install + sum(span[4] for span in _top_spans(run))


def layer_metrics(synth: StageRun, runs: list[StageRun]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, plus synth's from the traced set-up."""
    table = _span_table(runs)
    counts: dict[str, float] = {}
    for run in runs:
        for name, value in (run.trace or {}).get("counts", {}).items():
            if name in ("embedding.vocab", "embedding.final_loss"):
                counts[name] = value
            else:
                counts[name] = counts.get(name, 0.0) + value

    def total(span: str) -> float:
        return table.get(span, [0, 0.0, 0.0])[1]

    def calls(span: str) -> int:
        return int(table.get(span, [0, 0.0, 0.0])[0])

    def count(name: str) -> float:
        return counts.get(name, 0.0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    # Stage wall time outside the module spans and outside the tracer itself.
    overhead = sum(r.wall_s - _covered_s(r) - _tracer_s(r)[1] for r in runs)
    trainings = count("mlp.trainings")
    skipgram_s = total("embedding.train_skipgram")
    m = {
        "embedding.train_s": (skipgram_s, "s"),
        "embedding.pairs": (count("embedding.pairs"), "count"),
        "embedding.pairs_per_s": (rate(count("embedding.pairs"), skipgram_s), "1/s"),
        "embedding.vocab": (count("embedding.vocab"), "count"),
        "embedding.final_loss": (count("embedding.final_loss"), "nats"),
        "mlp.train_s": (total("mlp.train"), "s"),
        "mlp.trainings": (trainings, "count"),
        "mlp.rows_per_s": (rate(count("mlp.train_rows"), total("mlp.train")), "1/s"),
        "mlp.gflop": (count("mlp.flop") / 1e9, "GFLOP"),
        "mlp.epochs_run": (count("mlp.epochs_run"), "count"),
        "mlp.best_epoch": (rate(count("mlp.best_epoch_sum"), trainings), "epoch"),
        "mlp.predict_s": (total("mlp.predict_batch"), "s"),
        "evaluation.ablation_s": (total("evaluation.ablation"), "s"),
        "evaluation.sweep_s": (total("evaluation.sweep"), "s"),
        "graph.build_s": (total("graph.build"), "s"),
        "graph.pairs": (count("graph.pairs"), "count"),
        "graph.pairs_per_s": (rate(count("graph.pairs"), total("graph.build")), "1/s"),
        "graph.edges": (count("graph.edges"), "count"),
        "graph.propagate_calls": (calls("graph.propagate"), "count"),
        "graph.propagate_s": (total("graph.propagate"), "s"),
        "graph.threshold_s": (total("graph.threshold"), "s"),
        "manifest.check_s": (total("manifest.check"), "s"),
        "manifest.write_s": (total("manifest.write"), "s"),
        "manifest.bytes_hashed": (count("manifest.bytes_hashed"), "bytes"),
        "manifest.stages_run": (count("manifest.stages_run"), "count"),
        "manifest.stages_skipped": (count("manifest.stages_skipped"), "count"),
        "cli.overhead_s": (overhead, "s"),
        "trace.overhead_s": (sum(_tracer_s(r)[0] for r in runs), "s"),
        "ingest.load_prices_s": (total("ingest.load_prices"), "s"),
        "ingest.load_prices_calls": (calls("ingest.load_prices"), "count"),
        "sampling.extract_sentences_s": (total("sampling.extract_sentences"), "s"),
        "sampling.sentences": (count("sampling.sentences"), "count"),
        "sampling.samples": (count("sampling.samples"), "count"),
        "features.featurize_s": (total("features.featurize"), "s"),
        "features.rows": (count("features.rows"), "count"),
        "features.rows_per_s": (rate(count("features.rows"), total("features.featurize")), "1/s"),
        "features.skipped": (count("features.skipped"), "count"),
        "lexicon.build_s": (
            total("lexicon.build_keywords") + total("lexicon.build_categories"),
            "s",
        ),
        "lexicon.keywords": (count("lexicon.keywords"), "count"),
        "lexicon.keywords_requested": (count("lexicon.keywords_requested"), "count"),
        "lexicon.seed_coverage": (
            rate(count("lexicon.seed_words_in_vocab"), count("lexicon.seed_words")),
            "ratio",
        ),
        "synth.generate_s": (_span_table([synth]).get("synth.generate", [0, 0.0])[1], "s"),
    }
    for stage in ("synth", *STAGES):
        run = next((r for r in [synth, *runs] if r.stage == stage), None)
        m[f"cli.{stage}.wall_s"] = (run.wall_s if run else 0.0, "s")
        m[f"cli.{stage}.rss_mb"] = (run.rss_mb if run else 0.0, "MB")
    return m


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, stack: dict
) -> tuple[Checks, dict]:
    bench = Bench(WORKLOADS[name], seed, seconds, stack)
    print(f"workload {name} seed {seed} trace {int(trace)}", flush=True)
    signal.alarm(DEADLINE_S)
    try:
        bench.runner.meter = Gauge(WORK / "gauge.counter", bench.runner.env)
        metrics = bench.run(trace)
    except (Interrupted, RuntimeError) as exc:
        bench.checks.check(False, str(exc))
        metrics = {}
    finally:
        signal.alarm(0)
        if bench.runner.meter is not None:
            bench.runner.meter.close()
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value!r} {unit}")
    print(
        f"{name} fail_ratio {len(bench.checks.failures)}/{bench.checks.attempted}",
        flush=True,
    )
    return bench.checks, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "newsmotion" / "cli.py").is_file():
        print(f"error: no newsmotion sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    WORK.mkdir(exist_ok=True)
    info = machine()
    print("machine " + json.dumps(info), flush=True)
    stack = {key: info.get(key) for key in STACK_KEYS}
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        checks, found = run_workload(name, args.seed, args.seconds, bool(args.trace), stack)
        attempted += checks.attempted
        failed += len(checks.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in found.items()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
