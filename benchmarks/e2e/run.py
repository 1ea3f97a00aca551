"""End-to-end benchmark of the CiNCT service: four workloads, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                      # every workload
    python3 benchmarks/e2e/run.py --workload hot-read --seed 0 --seconds 24 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace              # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke                       # scale 0.05, short phases

Per workload it builds the index (the median of three build/save/load runs
is ``setup_s``), starts ``python -m repro serve`` as a separate process (or,
for ``batch-scan``, ``batch_caller.py``), drives it, checks every answer
against the brute-force oracle and prints each metric as
``<workload> <metric> <value> <unit>``.  The last line of a workload is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 1 when any answer is wrong or any request failed, 2 when the
repository's ``src/`` is missing.

With ``--trace`` the measured time is split in two passes over the same
inputs: an untraced pass (client-side metrics, the overhead baseline) and a
pass against ``traced_serve.py`` (per-layer metrics from its spans).
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import pickle
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from batch_caller import peak_rss_mb, read_output
from client import LoadClient, Sample, closed_loop, ingest_lane, now, open_loop
from oracle import IngestOracle, Oracle, wrong_batch_answers, wrong_http_answers
from tracing import attributed_ms, in_window, layer_metrics, load_spans
from workloads import (
    INGEST_BATCH,
    WORKLOADS,
    Corpus,
    cold_documents,
    encode,
    hot_documents,
    hot_pool,
    ingest_documents,
    make_corpus,
    poisson_offsets,
    rng_for,
    scan_spec,
    uniform_offsets,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Working space: the corpus cache, each run's index and logs (removed after
#: the run) and the spans of the last ``--trace`` run of each workload.
WORK = ROOT / ".bench_work"
TRACES = WORK / "traces"

#: End-to-end metrics, reported by every workload in every untraced run.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "qps": "queries/s",
    "bits_per_symbol": "bits",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics, reported by every workload in every ``--trace`` run.
#: Only quantities every workload measures are times; a layer's time is its
#: share of the request time (``%``), which reads 0 where a workload does
#: not enter the layer.
PER_LAYER = {
    "client.requests": "count",
    "client.p95_ms": "ms",
    "client.p99_ms": "ms",
    "client.gen_lag_p99_ms": "ms",
    "client.conn_queued": "count",
    "protocol.calls": "count",
    "protocol.self_pct": "%",
    "coalescer.wait_pct": "%",
    "coalescer.batches": "count",
    "coalescer.batch_size_mean": "count",
    "coalescer.shed": "count",
    "plan.calls": "count",
    "plan.self_pct": "%",
    "executor.self_pct": "%",
    "result_cache.hit_rate": "fraction",
    "result_cache.invalidations": "count",
    "interval_cache.hit_rate": "fraction",
    "trie.calls": "count",
    "trie.self_pct": "%",
    "backend.count.patterns": "count",
    "backend.count.self_pct": "%",
    "backend.locate.calls": "count",
    "backend.locate.matches": "count",
    "backend.locate.self_pct": "%",
    "backend.extract.self_pct": "%",
    "wavelet.calls": "count",
    "wavelet.self_pct": "%",
    "timestamps.calls": "count",
    "timestamps.self_pct": "%",
    "sharding.self_pct": "%",
    "sharding.fanout_pct": "%",
    "sharding.jobs": "count",
    "ingest.add_batch.calls": "count",
    "ingest.add_batch.self_pct": "%",
    "compaction.count": "count",
    "compaction.busy_pct": "%",
    "partitions": "count",
    "unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Share of an HTTP workload's measured seconds spent in the open loop; the
#: rest is the closed loop that measures ``qps``.
OPEN_SHARE = 0.6
OPEN_RATE = {"hot-read": 100.0, "cold-locate": 50.0, "ingest-mix": 60.0}
INGEST_RATE = 10.0
WARMUP_S = 1.0
SETUP_REPEATS = 3


def load_corpus(smoke: bool) -> Corpus:
    """The corpus, cached in ``WORK`` under a key of the code that generates it.

    Generating it takes about 3 s.  The key covers the generator modules and
    the NumPy and Python versions, so a change to any of them regenerates it.
    """
    digest = hashlib.sha256(f"{smoke}|{np.__version__}|{sys.version}".encode())
    for package in ("datasets", "network", "trajectories"):
        for path in sorted((SRC / "repro" / package).glob("*.py")):
            digest.update(path.read_bytes())
    cache = WORK / f"corpus-{digest.hexdigest()[:16]}.pickle"
    try:
        with open(cache, "rb") as handle:  # written below by this benchmark
            return pickle.load(handle)
    except (OSError, EOFError, pickle.UnpicklingError):
        pass
    corpus = make_corpus(smoke=smoke)
    fd, partial = tempfile.mkstemp(dir=WORK, suffix=".partial")
    with os.fdopen(fd, "wb") as handle:
        pickle.dump(corpus, handle)
    os.replace(partial, cache)
    return corpus


def engine_config(workload: str):
    from repro.engine import EngineConfig

    if workload == "ingest-mix":
        return EngineConfig(
            backend="partitioned-cinct",
            sa_sample_rate=16,
            tail_max_symbols=8000,
            compaction="background",
        )
    if workload == "batch-scan":
        # In-process fan-out: the shards run one after the other on the
        # caller's thread.  Over worker processes the result tracked how
        # fast the host woke the other CPU for each pipe round trip (ten
        # seeds spread by 27-44%); in-process it still pays routing, the
        # per-shard batches and the merge, and the trace sees every layer.
        return EngineConfig(
            backend="cinct",
            sa_sample_rate=16,
            num_shards=2,
            shard_executor="serial",
        )
    return EngineConfig(backend="cinct", sa_sample_rate=16)


def set_up(workload: str, corpus: Corpus, work: Path, repeats: int) -> tuple[float, Path]:
    """Build, quiesce, save and reload ``repeats`` times; the median time and the index."""
    from repro.engine import build_engine
    from repro.io.index_io import load_index, save_index
    from repro.trajectories.model import Trajectory

    trajectories = [
        Trajectory(edges=edges, timestamps=times)
        for edges, times in zip(corpus.trajectories, corpus.timestamps)
    ]
    config = engine_config(workload)
    seconds = []
    target = work / "index"
    for _ in range(repeats):
        shutil.rmtree(target, ignore_errors=True)
        began = time.perf_counter()
        engine = build_engine(trajectories, config)
        engine.wait_for_compaction()
        save_index(engine, target)
        loaded = load_index(target)
        seconds.append(time.perf_counter() - began)
        for built in (engine, loaded):
            close = getattr(built, "close", None)
            if close is not None:
                close()
    return statistics.median(seconds), target


def child_env(work: Path) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}",
        PYTHONUNBUFFERED="1",
        TMPDIR=str(work),
    )


# --------------------------------------------------------------------------- #
# HTTP workloads
# --------------------------------------------------------------------------- #
@dataclass
class HttpPlan:
    """Every request of one HTTP pass, generated before the server starts."""

    warmup: list[dict]
    #: how long the warm-up cycles ``warmup``; ``None`` sends each document once
    warmup_seconds: float | None
    open_offsets: np.ndarray
    open_docs: list[dict]
    closed_docs: list[dict]
    open_seconds: float
    closed_seconds: float
    ingest_offsets: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ingest_docs: list[dict] = field(default_factory=list)


def http_plan(
    workload: str, corpus: Corpus, oracle: Oracle, seed: int, seconds: float, warmup_s: float
) -> HttpPlan:
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    offsets = poisson_offsets(rng_for(seed, workload, "arrivals"), OPEN_RATE[workload], open_s)
    docs = rng_for(seed, workload, "docs")
    if workload == "cold-locate":
        return HttpPlan(
            warmup=cold_documents(
                rng_for(seed, workload, "warmup"), corpus, oracle.count_many, int(warmup_s * 400) + 1
            ),
            warmup_seconds=warmup_s,
            open_offsets=offsets,
            open_docs=cold_documents(docs, corpus, oracle.count_many, offsets.size),
            closed_docs=cold_documents(docs, corpus, oracle.count_many, int(closed_s * 400) + 1),
            open_seconds=open_s,
            closed_seconds=closed_s,
        )
    pool = hot_pool(corpus, seed)
    if workload == "hot-read":
        # Every (kind, path) of the pool once, so the result cache is full.
        warmup = [{"type": kind, "path": path} for path in pool for kind in ("count", "contains")]
        order = rng_for(seed, workload, "warmup").permutation(len(warmup))
        return HttpPlan(
            warmup=[warmup[i] for i in order],
            warmup_seconds=None,
            open_offsets=offsets,
            open_docs=hot_documents(docs, pool, offsets.size),
            closed_docs=hot_documents(docs, pool, 20_000),
            open_seconds=open_s,
            closed_seconds=closed_s,
        )
    ingest = ingest_documents(corpus)
    return HttpPlan(
        warmup=[{"type": "count", "path": path} for path in pool],
        warmup_seconds=None,
        open_offsets=offsets,
        open_docs=hot_documents(docs, pool, offsets.size, with_contains=False),
        closed_docs=hot_documents(docs, pool, 20_000, with_contains=False),
        open_seconds=open_s,
        closed_seconds=closed_s,
        ingest_offsets=uniform_offsets(INGEST_RATE, seconds + 1.0),
        ingest_docs=ingest,
    )


@dataclass
class HttpPass:
    """What one server process answered during one pass."""

    warmup: list[Sample]
    open: list[Sample]
    closed: list[Sample]
    closed_span: float
    ingest: list[Sample]
    window: tuple[float, float]
    stats_before: dict
    stats_after: dict
    peak_rss_mb: float = 0.0

    @property
    def samples(self) -> list[Sample]:
        return self.warmup + self.open + self.closed + self.ingest

    @property
    def measured(self) -> list[Sample]:
        return self.open + self.closed + self.ingest

    def bits_per_symbol(self) -> float:
        engine = self.stats_after["engine"]
        return engine["size_in_bits"] / engine["length"]


class ServerProcess:
    """``python -m repro serve`` (or ``traced_serve.py``) on an ephemeral port."""

    def __init__(self, index: Path, work: Path, trace_out: Path | None = None):
        serve = ["--index", str(index), "--host", "127.0.0.1", "--port", "0"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
            self.log = work / "server.log"
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(trace_out), *serve]
            self.log = work / "server-traced.log"
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(work),
                cwd=ROOT,
            )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            found = re.search(r"serving on http://[^:\s]+:(\d+)", text)
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}:\n{text}")
            time.sleep(0.05)
        raise RuntimeError("server did not report its port in time")

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


async def drive_http(port: int, plan: HttpPlan) -> HttpPass:
    client = LoadClient(port)
    once = plan.warmup_seconds is None
    warm, _ = await closed_loop(
        client,
        plan.warmup,
        [encode(doc) for doc in plan.warmup],
        float("inf") if once else plan.warmup_seconds,
        limit=len(plan.warmup) if once else None,
    )
    open_bodies = [encode(doc) for doc in plan.open_docs]
    closed_bodies = [encode(doc) for doc in plan.closed_docs]
    ingest_bodies = [encode(doc) for doc in plan.ingest_docs]
    stats_before = await client.get("/stats")
    start = now() + 0.05
    stop = start + plan.open_seconds + plan.closed_seconds
    lane = asyncio.ensure_future(
        ingest_lane(client, plan.ingest_offsets, plan.ingest_docs, ingest_bodies, start, stop)
    )
    opened = await open_loop(client, plan.open_offsets, plan.open_docs, open_bodies, start)
    closed, span = await closed_loop(client, plan.closed_docs, closed_bodies, plan.closed_seconds)
    ingested = await lane
    window = (start, now())
    stats_after = await client.get("/stats")
    # bits_per_symbol is read once background compaction has finished.
    for _ in range(600):
        ingest = stats_after["engine"].get("ingest") or {}
        if not ingest.get("compaction", {}).get("in_flight"):
            break
        await asyncio.sleep(0.05)
        stats_after = await client.get("/stats")
    return HttpPass(warm, opened, closed, span, ingested, window, stats_before, stats_after)


def run_http_pass(index: Path, work: Path, plan: HttpPlan, trace_out: Path | None = None) -> HttpPass:
    server = ServerProcess(index, work, trace_out)
    try:
        result = asyncio.run(drive_http(server.port, plan))
        result.peak_rss_mb = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    return result


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q) * 1e3) if len(values) else 0.0


def query_latencies(samples: list[Sample]) -> list[float]:
    return [s.latency for s in samples if s.ok]


def http_end_to_end(result: HttpPass, setup_s: float) -> dict[str, float]:
    latencies = query_latencies(result.open)
    return {
        "setup_s": setup_s,
        "p50_ms": percentile_ms(latencies, 50),
        "qps": sum(1 for s in result.closed if s.ok) / result.closed_span,
        "bits_per_symbol": result.bits_per_symbol(),
        "peak_rss_mb": result.peak_rss_mb,
    }


# --------------------------------------------------------------------------- #
# counters shared by both kinds of run
# --------------------------------------------------------------------------- #
def cache_counters(engine_stats: dict) -> dict[str, int]:
    """Result- and interval-cache counters (summed over shards by the engine)."""
    cache, intervals = engine_stats["cache"], engine_stats["interval_cache"]
    return {
        "hits": cache["hits"],
        "misses": cache["misses"],
        "invalidations": cache["invalidations"],
        "interval_hits": intervals["hits"],
        "interval_misses": intervals["misses"],
    }


def compaction_counters(engine_stats: dict) -> tuple[int, float]:
    compaction = (engine_stats.get("ingest") or {}).get("compaction") or {}
    return int(compaction.get("count", 0)), float(compaction.get("seconds_total", 0.0))


def counter_metrics(
    before: dict, after: dict, service_before: dict | None, service_after: dict | None, window: tuple[float, float]
) -> dict[str, float]:
    """Per-layer counters as deltas over the measured window."""
    c0, c1 = cache_counters(before), cache_counters(after)
    delta = {key: c1[key] - c0[key] for key in c0}
    lookups = delta["hits"] + delta["misses"]
    interval_lookups = delta["interval_hits"] + delta["interval_misses"]
    n0, s0 = compaction_counters(before)
    n1, s1 = compaction_counters(after)
    metrics = {
        "result_cache.hit_rate": delta["hits"] / lookups if lookups else 0.0,
        "result_cache.invalidations": delta["invalidations"],
        "interval_cache.hit_rate": delta["interval_hits"] / interval_lookups if interval_lookups else 0.0,
        "compaction.count": n1 - n0,
        # background work: a share of the wall-clock window, not of requests
        "compaction.busy_pct": 100.0 * (s1 - s0) / (window[1] - window[0]),
        "coalescer.batches": 0,
        "coalescer.batch_size_mean": 0.0,
        "coalescer.shed": 0,
    }
    if service_before is not None and service_after is not None:
        batches = service_after["batches"] - service_before["batches"]
        executed = service_after["executed"] - service_before["executed"]
        metrics["coalescer.batches"] = batches
        metrics["coalescer.batch_size_mean"] = executed / batches if batches else 0.0
        metrics["coalescer.shed"] = service_after["shed_total"] - service_before["shed_total"]
    return metrics


def trace_metrics(trace: Path, window: tuple[float, float], requests: int, client_service_ms: float) -> dict[str, float]:
    spans, facts = load_spans(trace)
    spans = in_window(spans, *window)
    metrics = layer_metrics(spans, client_service_ms)
    metrics["partitions"] = facts.get("partitions", 0)
    metrics["unattributed_ms"] = (client_service_ms - attributed_ms(spans)) / max(requests, 1)
    return metrics


def http_per_layer(untraced: HttpPass, traced: HttpPass, trace: Path) -> dict[str, float]:
    metrics = {
        "client.requests": len(untraced.measured),
        "client.p95_ms": percentile_ms(query_latencies(untraced.open), 95),
        "client.p99_ms": percentile_ms(query_latencies(untraced.open), 99),
        "client.gen_lag_p99_ms": percentile_ms([s.lag for s in untraced.open + untraced.ingest], 99),
        "client.conn_queued": sum(1 for s in untraced.open if s.queued),
    }
    measured = traced.measured
    metrics.update(
        trace_metrics(trace, traced.window, len(measured), 1e3 * sum(s.service for s in measured))
    )
    metrics.update(
        counter_metrics(
            traced.stats_before["engine"],
            traced.stats_after["engine"],
            traced.stats_before["service"],
            traced.stats_after["service"],
            traced.window,
        )
    )
    base = percentile_ms(query_latencies(untraced.open), 50)
    metrics["trace.overhead_pct"] = (percentile_ms(query_latencies(traced.open), 50) / base - 1.0) * 100.0
    return metrics


# --------------------------------------------------------------------------- #
# batch-scan
# --------------------------------------------------------------------------- #
def run_batch_pass(index: Path, work: Path, spec_path: Path, seconds: float, warmup_s: float, trace_out: Path | None = None) -> dict:
    out = work / ("batches-traced.pickle" if trace_out else "batches.pickle")
    command = [
        sys.executable, str(HERE / "batch_caller.py"),
        "--index", str(index), "--spec", str(spec_path),
        "--seconds", repr(seconds), "--warmup", repr(warmup_s), "--out", str(out),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    completed = subprocess.run(
        command, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env=child_env(work), cwd=ROOT, timeout=seconds + warmup_s + 120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"batch caller failed:\n{completed.stdout}{completed.stderr}")
    return read_output(out)


def batch_latencies(result: dict) -> list[float]:
    return [end - start for _, start, end, _ in result["records"]]


def batch_end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    latencies = batch_latencies(result)
    queries = sum(len(answers) for *_, answers in result["records"])
    return {
        "setup_s": setup_s,
        "p50_ms": percentile_ms(latencies, 50),
        "qps": queries / sum(latencies),
        "bits_per_symbol": result["bits_per_symbol"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def batch_per_layer(untraced: dict, traced: dict, trace: Path) -> dict[str, float]:
    records = traced["records"]
    # A closed loop has no schedule to fall behind: its generator lag is the
    # caller's own gap between one answer and its next call.
    gaps = [b[1] - a[2] for a, b in zip(untraced["records"], untraced["records"][1:])]
    metrics = {
        "client.requests": len(untraced["records"]),
        "client.p95_ms": percentile_ms(batch_latencies(untraced), 95),
        "client.p99_ms": percentile_ms(batch_latencies(untraced), 99),
        "client.gen_lag_p99_ms": percentile_ms(gaps, 99),
        "client.conn_queued": 0,
    }
    metrics.update(
        trace_metrics(trace, traced["window"], len(records), 1e3 * sum(batch_latencies(traced)))
    )
    metrics.update(
        counter_metrics(traced["stats_before"], traced["stats_after"], None, None, traced["window"])
    )
    base = percentile_ms(batch_latencies(untraced), 50)
    metrics["trace.overhead_pct"] = (percentile_ms(batch_latencies(traced), 50) / base - 1.0) * 100.0
    return metrics


# --------------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    wrong: int

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units.items()
            },
        })


def run_workload(
    workload: str, corpus: Corpus, oracle: Oracle, seed: int, seconds: float,
    trace: bool, work: Path, warmup_s: float,
) -> Outcome:
    setup_s, index = set_up(workload, corpus, work, 1 if trace else SETUP_REPEATS)
    trace_out = TRACES / f"{workload}-trace.json"
    passes = (seconds / 2, seconds / 2) if trace else (seconds,)
    if workload == "batch-scan":
        spec = scan_spec(corpus, oracle.count_many, seed)
        spec_path = work / "spec.npz"
        spec.save(spec_path)
        results = [run_batch_pass(index, work, spec_path, passes[0], warmup_s)]
        if trace:
            results.append(run_batch_pass(index, work, spec_path, passes[1], warmup_s, trace_out))
            metrics = batch_per_layer(results[0], results[1], trace_out)
        else:
            metrics = batch_end_to_end(results[0], setup_s)
        wrong = sum(wrong_batch_answers(r["records"], spec, oracle) for r in results)
        attempted = sum(len(answers) for r in results for *_, answers in r["records"])
        failed = 0
    else:
        plan = http_plan(workload, corpus, oracle, seed, passes[0], warmup_s)
        results = [run_http_pass(index, work, plan)]
        if trace:
            results.append(run_http_pass(index, work, plan, trace_out))
            metrics = http_per_layer(results[0], results[1], trace_out)
        else:
            metrics = http_end_to_end(results[0], setup_s)
        lag = percentile_ms([s.lag for s in results[0].open + results[0].ingest], 99)
        if lag >= 2.0:
            print(f"{workload}: generator lag p99 {lag:.2f} ms: the client fell behind "
                  "its schedule, so this run is not valid", file=sys.stderr)
        if results[0].ingest:
            # Only this workload writes, so the ack latencies are no metric
            # every workload could report; they go to standard error.
            acks = query_latencies(results[0].ingest)
            print(f"{workload}: {len(acks)} ingest acks, p50 {percentile_ms(acks, 50):.3f} ms, "
                  f"p95 {percentile_ms(acks, 95):.3f} ms", file=sys.stderr)
        ingest = IngestOracle(oracle, corpus.ingest, INGEST_BATCH) if workload == "ingest-mix" else None
        samples = [s for r in results for s in r.samples]
        wrong = wrong_http_answers(samples, oracle, ingest)
        attempted = len(samples)
        failed = sum(1 for s in samples if not s.ok)
    units = PER_LAYER if trace else END_TO_END
    return Outcome({name: metrics[name] for name in units}, units, attempted, failed + wrong, wrong)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the CiNCT service.")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default 24, or 4 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 (or the bare flag) reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="corpus at scale 0.05 and short phases (a harness check)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found; run from a repository checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else (4.0 if args.smoke else 24.0)
    warmup_s = 0.3 if args.smoke else WARMUP_S
    TRACES.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(args.smoke)
    oracle = Oracle(corpus.trajectories, corpus.timestamps)
    status = 0
    for workload in args.workload or WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        try:
            outcome = run_workload(
                workload, corpus, oracle, args.seed, seconds, bool(args.trace),
                work, warmup_s,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for name, unit in outcome.units.items():
            print(f"{workload} {name} {outcome.metrics[name]!r} {unit}")
        if outcome.failed:
            print(f"{workload}: {outcome.wrong} wrong answers, "
                  f"{outcome.failed - outcome.wrong} failed requests", file=sys.stderr)
            status = 1
        print(outcome.result_line(), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
