"""The benchmark workloads and the run loop that times them.

Every workload runs one *job* (the operation its name is about) and then the
same serving probes over its own inputs, so that every end-to-end metric is
measured on every workload:

- ``train-wide``: job = ``tensorfm.train`` on in-memory Criterion-07-shaped
  data (n=100, m=600) with a validation split, followed by test AUC.
- ``train-ctr``: job = ``tensorfm train`` through ``cli.main`` on click-log
  text files (n=39): parse, init, train one epoch, save the model file.
- ``serve``: job = ``tensorfm eval`` through ``cli.main``: load the model
  file, parse the test file, score, and compute AUC and log-loss.

The probes time ``score_dataset`` on the workload's tensorfm model and
single-instance ``score()`` calls interleaved over a tensorfm, a Tucker and a
HOFM model of the workload's shape (closed loop, one caller).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generators
import tensorfm as tfm
from gates import Gate, all_finite, all_identical, at_least, eval_output_matches, rel_close
from tensorfm import analysis, cli
from tracing import LAYERS, Tracer

KINDS = ("tensorfm", "tensorfm-tucker", "hofm")
SETUP_REPEATS = 3  # set-ups per run at least, and for SETUP_MIN_S seconds at least
SETUP_MIN_S = 1.0
BATCH = 1024
K = 8
PROBE_INIT_SCALE = 0.1  # probe models are untrained; larger weights keep scores well away from 0
AUC_FLOOR_SHARE = 0.25  # test AUC must keep this share of the planted signal's lift over 0.5
SCORE_RTOL = 1e-12  # score_dataset row against score() of the same instance
ORACLE_RTOL = 1e-9  # score() against the brute-force oracle


@dataclass(frozen=True)
class Size:
    wide_rows: tuple[int, int, int]  # train, valid, test
    ctr_rows: tuple[int, int, int]
    serve_rows: int
    top_card: int  # largest hashed-ID cardinality of the click-log schema
    min_jobs: int
    score1_rounds: int  # per kind: the least in a timed run, the count in one traced pass
    oracle_samples: int
    check_rows: int  # score_dataset rows compared against score()


SIZES = {
    "full": Size((12_000, 2_500, 2_500), (16_000, 4_000, 4_000), 8_000, 30_000, 3, 1_000, 2, 64),
    "tiny": Size((12_000, 2_500, 2_500), (10_000, 1_000, 1_000), 500, 300, 1, 50, 1, 8),
}

# Time proportions of the job, score_dataset and score() phases within one round.
SHARES = (0.70, 0.10, 0.20)
SCORE1_CHUNK = 200  # score() rounds between two host-speed probes


@dataclass
class JobResult:
    seconds: float
    digest: str
    loss: float = math.nan


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)
    properties: dict[str, object] = field(default_factory=dict)
    info: dict[str, tuple[float, str]] = field(default_factory=dict)  # printed, not in the result line
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def call(self, fn, *args):
        """Run one counted operation. A failure is recorded and the run goes
        on, so that every gate still reports; the result is then None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.fail(getattr(fn, "__name__", repr(fn)), exc)
            return None


def param_digest(bundle) -> str:
    """SHA-256 over every array and scalar reachable from the bundle's
    dataclass fields, so it survives a change of block layout."""
    h = hashlib.sha256()

    def walk(obj):
        if isinstance(obj, np.ndarray):
            h.update(f"{obj.dtype}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                h.update(f.name.encode())
                walk(getattr(obj, f.name))
        elif isinstance(obj, dict):
            for key in sorted(obj, key=str):
                h.update(str(key).encode())
                walk(obj[key])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        else:
            h.update(repr(obj).encode())

    walk(bundle)
    return h.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mb(*paths: Path) -> float:
    return sum(p.stat().st_size for p in paths) / 1e6


def _run_cli(argv: list[str]) -> tuple[float, str]:
    """Time ``cli.main`` in-process; a nonzero exit code is a failed operation."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"tensorfm {argv[0]} exited {code}")
    return seconds, out.getvalue()


def _planted_auc_floor(logit: np.ndarray, labels: np.ndarray) -> float:
    return 0.5 + AUC_FLOOR_SHARE * (tfm.auc(logit, labels) - 0.5)


class Workload:
    """A workload's inputs, its job and its probe models. ``setup`` rebuilds
    all inputs from the seed; ``job`` times one operation."""

    name = ""
    d = 3
    rank = 3

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed, self.size, self.work_dir = seed, size, work_dir
        self.models: dict[str, tfm.ModelBundle] = {}
        self.probe_set: tfm.Dataset | None = None

    def _probe_bundle(self, kind: str, schema: tfm.FieldSchema) -> tfm.ModelBundle:
        rank = None if kind == "hofm" else self.rank
        return tfm.init(kind, schema, k=K, d=self.d, r_vec=rank, init_scale=PROBE_INIT_SCALE, seed=self.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> JobResult:
        raise NotImplementedError

    def prepare_probes(self) -> None:
        """Untimed work between the job and the probes."""

    def job_rows(self) -> int:
        raise NotImplementedError

    def gates(self, jobs: list[JobResult]) -> list[Gate]:
        return [all_identical("job output identical across repeats", [j.digest for j in jobs])]

    def properties(self) -> dict[str, object]:
        raise NotImplementedError

    def training_steps(self) -> int:
        return 0


class _Training(Workload):
    """A workload whose job trains one epoch on ``self.train`` and sets
    ``self.test_auc``; ``self.test_logit`` holds the planted logits."""

    learning_rate = 0.05

    def job_rows(self) -> int:
        return len(self.train)

    def training_steps(self) -> int:
        return math.ceil(len(self.train) / BATCH)

    def gates(self, jobs):
        floor = _planted_auc_floor(self.test_logit, self.test.labels)
        return super().gates(jobs) + [
            all_finite("training loss finite", [j.loss for j in jobs]),
            at_least("test AUC above the planted-signal floor", self.test_auc, floor),
        ]


class TrainWide(_Training):
    name = "train-wide"
    d = 4
    rank = 4

    def setup(self) -> None:
        n_train, n_valid, n_test = self.size.wide_rows
        ds, logit = generators.wide_synthetic(self.seed, n_train + n_valid + n_test)
        cut1, cut2 = n_train, n_train + n_valid
        self.train = ds.subset(np.arange(cut1))
        self.valid = ds.subset(np.arange(cut1, cut2))
        self.test = ds.subset(np.arange(cut2, len(ds)))
        self.test_logit = logit[cut2:]
        self.probe_set = self.test
        for kind in KINDS[1:]:
            self.models[kind] = self._probe_bundle(kind, ds.schema)

    def job(self) -> JobResult:
        bundle = tfm.init("tensorfm", self.train.schema, k=K, d=self.d, r_vec=self.rank, seed=self.seed)
        config = tfm.TrainConfig(learning_rate=self.learning_rate, epochs=1, batch_size=BATCH, seed=self.seed)
        start = time.perf_counter()
        bundle, log = tfm.train(bundle, self.train, self.valid, config)
        self.test_auc = tfm.auc(tfm.score_dataset(bundle, self.test), self.test.labels)
        seconds = time.perf_counter() - start
        self.models["tensorfm"] = bundle
        return JobResult(seconds, param_digest(bundle), loss=log[-1].train_loss)

    def properties(self):
        return {
            "n": self.train.schema.n,
            "m": self.train.schema.m,
            "rows_train_valid_test": [len(self.train), len(self.valid), len(self.test)],
            "rows_touched_frac": generators.rows_touched_frac(self.train, BATCH),
            "dataset_file_mb": 0.0,
            "model_file_mb": 0.0,
        }


class TrainCtr(_Training):
    name = "train-ctr"

    def setup(self) -> None:
        n_train, n_valid, n_test = self.size.ctr_rows
        ds, logit = generators.click_log(self.seed, n_train + n_valid + n_test, self.size.top_card)
        cut1, cut2 = n_train, n_train + n_valid
        self.train_path = self.work_dir / "ctr.train.txt"
        self.valid_path = self.work_dir / "ctr.valid.txt"
        self.model_path = self.work_dir / "ctr.model.txt"
        self.train = ds.subset(np.arange(cut1))
        tfm.write_dataset(self.train, self.train_path)
        tfm.write_dataset(ds.subset(np.arange(cut1, cut2)), self.valid_path)
        self.test = ds.subset(np.arange(cut2, len(ds)))
        self.test_logit = logit[cut2:]
        self.probe_set = self.test
        for kind in KINDS[1:]:
            self.models[kind] = self._probe_bundle(kind, ds.schema)

    def job(self) -> JobResult:
        argv = [
            "train", "--train", str(self.train_path), "--valid", str(self.valid_path),
            "--model", "tensorfm", "--k", str(K), "--d", str(self.d), "--rank", str(self.rank),
            "--epochs", "1", "--batch-size", str(BATCH), "--lr", str(self.learning_rate),
            "--seed", str(self.seed), "--out", str(self.model_path),
        ]  # fmt: skip
        seconds, output = _run_cli(argv)
        match = re.search(r"train_loss=(\S+)", output)
        loss = float(match.group(1)) if match else math.nan
        return JobResult(seconds, _file_digest(self.model_path), loss=loss)

    def prepare_probes(self) -> None:
        self.models["tensorfm"] = tfm.load_bundle(self.model_path)
        self.test_auc = tfm.auc(tfm.score_dataset(self.models["tensorfm"], self.test), self.test.labels)

    def properties(self):
        return {
            "n": self.train.schema.n,
            "m": self.train.schema.m,
            "rows_train_valid_test": list(self.size.ctr_rows),
            "rows_touched_frac": generators.rows_touched_frac(self.train, BATCH),
            "dataset_file_mb": _mb(self.train_path, self.valid_path),
            "model_file_mb": _mb(self.model_path),
        }


class Serve(Workload):
    name = "serve"

    def setup(self) -> None:
        ds, _ = generators.click_log(self.seed, self.size.serve_rows, self.size.top_card)
        self.test = ds
        self.probe_set = ds
        self.test_path = self.work_dir / "serve.test.txt"
        tfm.write_dataset(ds, self.test_path)
        self.model_path = self.work_dir / "serve.tensorfm.model.txt"
        for kind in KINDS:
            self.models[kind] = self._probe_bundle(kind, ds.schema)
        tfm.save_bundle(self.models["tensorfm"], self.model_path)

    def job(self) -> JobResult:
        argv = ["eval", "--model", str(self.model_path), "--data", str(self.test_path)]
        seconds, output = _run_cli(argv)
        self.eval_output = output
        return JobResult(seconds, hashlib.sha256(output.encode()).hexdigest())

    def job_rows(self) -> int:
        return len(self.test)

    def gates(self, jobs):
        scores = tfm.score_dataset(self.models["tensorfm"], self.test)
        report = tfm.evaluate(scores, self.test.labels)
        out = super().gates(jobs) + [
            eval_output_matches("eval output equals metrics.evaluate", self.eval_output, report.logloss, report.auc)
        ]
        for kind, bundle in self.models.items():
            rows = range(self.size.oracle_samples)
            got = [tfm.score(bundle, self.test.instance(i)) for i in rows]
            want = [tfm.score_naive_oracle(bundle, self.test.instance(i)) for i in rows]
            out.append(rel_close(f"score() equals the oracle ({kind})", got, want, ORACLE_RTOL))
        return out

    def properties(self):
        return {
            "n": self.test.schema.n,
            "m": self.test.schema.m,
            "rows_test": len(self.test),
            "rows_touched_frac": generators.rows_touched_frac(self.test, BATCH),
            "dataset_file_mb": _mb(self.test_path),
            "model_file_mb": _mb(self.model_path),
        }


WORKLOAD_CLASSES = {w.name: w for w in (TrainWide, TrainCtr, Serve)}


# ---------------------------------------------------------------------------
# host-speed correction
# ---------------------------------------------------------------------------

# The probe is a pure-Python loop and vector passes over 1 MB. Its data
# stays in the caches and it allocates no large array, so its time does not
# depend on the heap or memory state the package's code leaves behind.
_PROBE_STREAM = np.random.default_rng(0).random(64_000)
_PROBE_STREAM_OUT = np.empty_like(_PROBE_STREAM)


def _host_probe() -> None:
    """Fixed work: an interpreter-bound loop and bandwidth-bound passes."""
    total = 0
    for j in range(20_000):
        total += j * j
    for _ in range(16):
        np.multiply(_PROBE_STREAM, 1.0000001, out=_PROBE_STREAM_OUT).sum()


# _host_probe's time on a quiet host (2-vCPU VM, Xeon, Python 3.11): the
# fastest of many runs there.
PROBE_QUIET_S = 1.75e-3


class HostClock:
    """Times spans and corrects them for the host's speed.

    The benchmark host is a 2-vCPU VM whose speed drifts by up to 2x over
    tens of seconds with load from other tenants. Each span is bracketed by
    two measurements of the fixed probe, and its wall time is scaled by the
    probe's quiet-host time over the mean of the two, so corrected times are
    probe-normalised seconds: what the span would take when the probe runs
    at its quiet-host speed. Each measurement is the fastest of three probe
    runs back to back, since the first run after a span can be slower while
    the probe's data returns to the caches. The probe never calls the
    package; the wall times are kept too.
    """

    def __init__(self):
        self.factors: list[float] = []

    @staticmethod
    def _probe() -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _host_probe()
            best = min(best, time.perf_counter() - start)
        return best

    def _factor(self, before: float) -> float:
        factor = PROBE_QUIET_S / ((before + self._probe()) / 2.0)
        self.factors.append(factor)
        return factor

    def span(self, fn, *args) -> tuple[float, float, object]:
        """(corrected seconds, wall seconds, result) of ``fn(*args)``."""
        before = self._probe()
        start = time.perf_counter()
        res = fn(*args)
        wall = time.perf_counter() - start
        return wall * self._factor(before), wall, res

    def job(self, w: Workload) -> tuple[float, JobResult]:
        """(corrected seconds, result) of one job; the job times its own
        operation, and ``result.seconds`` stays its wall time."""
        before = self._probe()
        res = w.job()
        return res.seconds * self._factor(before), res

    def score1(self, w: Workload, report: Report, instances: list, rounds: int, samples, wall_samples) -> None:
        before = self._probe()
        raw = {kind: [] for kind in KINDS}
        _score1_rounds(w, report, instances, rounds, raw)
        factor = self._factor(before)
        for kind, xs in raw.items():
            wall_samples[kind].extend(xs)
            samples[kind].extend(x * factor for x in xs)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


def _score_dataset(w: Workload) -> np.ndarray:
    return tfm.score_dataset(w.models["tensorfm"], w.probe_set)


def _instances(w: Workload) -> list:
    return [w.probe_set.instance(i) for i in range(min(len(w.probe_set), 1000))]


def _score1_rounds(w: Workload, report: Report, instances: list, rounds: int, samples: dict[str, list]) -> None:
    """Closed loop, one caller: each round scores one instance under every
    kind in turn, and appends each call's latency to ``samples[kind]``."""
    clock = time.perf_counter
    items = [(kind, samples[kind], w.models.get(kind)) for kind in KINDS]
    for r in range(rounds):
        inst = instances[r % len(instances)]
        for kind, sink, bundle in items:
            report.attempted += 1
            start = clock()
            try:
                tfm.score(bundle, inst)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                report.fail(f"score({kind})", exc)
                continue
            sink.append(clock() - start)


def _timed_metrics(prefix: str, w: Workload, jobs, sd, samples, setups) -> dict[str, tuple[float, str]]:
    """The end-to-end figures from one set of span times (corrected or wall)."""
    m = {}
    if jobs:
        m[f"{prefix}job_rows_per_s"] = (w.job_rows() / float(np.median(jobs)), "rows/s")
    if sd:
        m[f"{prefix}score_rows_per_s"] = (len(w.probe_set) / float(np.median(sd)), "rows/s")
    for kind in KINDS:
        if samples[kind]:
            m[f"{prefix}score1_p50_us.{kind}"] = (float(np.percentile(samples[kind], 50)) * 1e6, "us")
    if setups:
        m[f"{prefix}setup_s"] = (float(np.median(setups)), "s")
    return m


def run_timed(w: Workload, seconds: float) -> Report:
    """Untraced run: every end-to-end metric.

    After the set-ups, the run is a series of rounds until ``seconds`` have
    passed: one job, then ``score_dataset`` calls and ``score()`` rounds for
    times in the proportions of ``SHARES``. Spreading every metric over the
    whole run keeps one slow stretch of the host from landing on one metric.
    Attempts, not successes, count toward the least numbers of jobs and
    ``score()`` rounds, so a run whose operations always fail still ends.
    """
    report = Report()
    clock = HostClock()
    share_job, share_sd, share_s1 = SHARES
    setups, start = [], time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        res = report.call(clock.span, w.setup)
        if res is None:
            break
        setups.append(res)
    if len(setups) < SETUP_REPEATS:  # a set-up failed: there is nothing to time
        _finish(w, report, [], None)
        return report

    # One untimed job first: the first job in a process pays for heap growth
    # and cold caches, which would otherwise weigh on the median of a few jobs.
    warm = report.call(w.job)
    jobs = [] if warm is None else [warm]
    report.call(w.prepare_probes)
    instances = _instances(w)
    timed_jobs, sd = [], []
    samples = {kind: [] for kind in KINDS}
    wall_samples = {kind: [] for kind in KINDS}
    job_tries = score1_tries = 0
    start = time.perf_counter()
    while (
        job_tries < w.size.min_jobs
        or score1_tries < w.size.score1_rounds
        or time.perf_counter() - start < seconds
    ):
        round_start = time.perf_counter()
        job_tries += 1
        job = report.call(clock.job, w)
        if job is not None:
            timed_jobs.append(job)
        job_wall = time.perf_counter() - round_start

        phase_start = time.perf_counter()
        while True:
            res = report.call(clock.span, _score_dataset, w)
            if res is None:
                break
            sd.append(res)
            if time.perf_counter() - phase_start >= job_wall * share_sd / share_job:
                break
        phase_start = time.perf_counter()
        while True:
            clock.score1(w, report, instances, SCORE1_CHUNK, samples, wall_samples)
            score1_tries += SCORE1_CHUNK
            if time.perf_counter() - phase_start >= job_wall * share_s1 / share_job:
                break

    corrected = ([c for c, _ in timed_jobs], [c for c, _, _ in sd], samples, [c for c, _, _ in setups])
    wall = ([j.seconds for _, j in timed_jobs], [s for _, s, _ in sd], wall_samples, [s for _, s, _ in setups])
    report.metrics = _timed_metrics("", w, *corrected)
    report.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for kind in KINDS:
        if samples[kind]:
            # p99 does not hold steady on the shared 2-vCPU host; printed, not bounded
            report.info[f"score1_p99_us.{kind}"] = (float(np.percentile(samples[kind], 99)) * 1e6, "us")
    # the same figures from uncorrected wall times
    report.info.update(_timed_metrics("wall.", w, *wall))

    report.info["host_speed_factor_median"] = (float(np.median(clock.factors)), "x")
    report.info["setups"] = (len(setups), "count")
    report.info["timed_jobs"] = (len(timed_jobs), "count")
    report.info["score_dataset_calls"] = (len(sd), "count")
    report.info["score1_calls_per_kind"] = (len(samples[KINDS[0]]), "count")
    _finish(w, report, jobs + [j for _, j in timed_jobs], sd[-1][2] if sd else None)
    return report


def _one_pass(w: Workload, report: Report, tracer: Tracer | None) -> tuple[float, JobResult | None, float]:
    """One setup, one job, one score_dataset and a fixed number of score()
    rounds. Returns the wall time, the job result, and, when traced, the
    forward-pass time inside score_dataset."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        report.call(w.setup)
        job = report.call(w.job)
        report.call(w.prepare_probes)
        fwd = tracer.stats.get("scoring.forward_batch") if tracer is not None else None
        fwd_before = fwd.total_s if fwd is not None else 0.0
        report.call(_score_dataset, w)
        fwd_s = fwd.total_s - fwd_before if fwd is not None else 0.0
        samples = {kind: [] for kind in KINDS}
        _score1_rounds(w, report, _instances(w), w.size.score1_rounds, samples)
        return time.perf_counter() - start, job, fwd_s
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_traced(w: Workload, seconds: float) -> Report:
    """Traced run: untraced and traced passes alternate until ``seconds``
    have passed; per-layer figures are per traced pass."""
    report = Report()
    tracer = Tracer()
    plain, traced, fwd = [], [], []
    jobs = [_one_pass(w, report, None)[1]]  # warm-up, so that first-call costs land in neither total
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, job, _ = _one_pass(w, report, None)
        plain.append(wall)
        jobs.append(job)
        wall, job, fwd_s = _one_pass(w, report, tracer)
        traced.append(wall)
        jobs.append(job)
        fwd.append(fwd_s)
    passes = len(traced)

    m = report.metrics
    for mod_name, fn_name in LAYERS:
        key = f"{mod_name}.{fn_name}"
        stats = tracer.stats.get(key)
        if stats is None:
            continue  # the name no longer exists in the package
        m[f"{key}.calls"] = (stats.calls / passes, "count")
        m[f"{key}.self_s"] = (stats.self_s / passes, "s")
    m["training.steps"] = (float(w.training_steps()), "count")
    props = w.properties()
    m["training.rows_touched_frac"] = (float(props["rows_touched_frac"]), "frac")
    m["params.model_file_mb"] = (float(props["model_file_mb"]), "MB")
    m["data.dataset_file_mb"] = (float(props["dataset_file_mb"]), "MB")
    flops = analysis.flops_estimate("tensorfm", w.probe_set.schema.n, k=K, d=w.d, r_vec=w.rank).flops
    fwd_s = float(np.median(fwd))
    m["scoring.forward_flops_per_s"] = (flops * len(w.probe_set) / fwd_s if fwd_s > 0 else 0.0, "flop/s")
    m["trace.overhead_frac"] = (float(np.median(traced)) / float(np.median(plain)) - 1.0, "frac")

    report.info["traced_passes"] = (passes, "count")
    _finish(w, report, [j for j in jobs if j is not None], None)
    return report


def _finish(w: Workload, report: Report, jobs: list[JobResult], scores) -> None:
    """Gates and workload properties, outside every timed region."""
    gates = report.call(w.gates, jobs) or []
    if scores is None and "tensorfm" in w.models:
        scores = report.call(tfm.score_dataset, w.models["tensorfm"], w.probe_set)
    if scores is not None:
        gates += report.call(_probe_gates, w, scores) or []
    for gate in gates:
        report.attempted += 1
        report.failed += not gate.ok
    report.gates = gates
    report.properties = report.call(w.properties) or {}
    if hasattr(w, "test_auc"):
        report.info["test_auc"] = (float(w.test_auc), "auc")
    report.info["error_rate"] = (report.failed / report.attempted, "failed/attempted")


def _probe_gates(w: Workload, scores: np.ndarray) -> list[Gate]:
    bundle, ds = w.models["tensorfm"], w.probe_set
    rows = np.unique(np.linspace(0, len(ds) - 1, w.size.check_rows).astype(int))
    single = [tfm.score(bundle, ds.instance(int(i))) for i in rows]
    return [rel_close("score_dataset rows equal score()", scores[rows], single, SCORE_RTOL)]


def run(name: str, seed: int, seconds: float, trace: bool, size: str, work_dir: Path) -> Report:
    workload = WORKLOAD_CLASSES[name](seed, SIZES[size], work_dir)
    return run_traced(workload, seconds) if trace else run_timed(workload, seconds)
