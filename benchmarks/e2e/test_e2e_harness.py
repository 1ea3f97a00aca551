"""Harness checks for the end-to-end benchmark (fast; part of the tier-1 suite).

* the arrival schedules and request streams are deterministic in the seed;
* the oracle agrees with the engine for every query kind on smoke data, and
  the answer checkers flag a corrupted answer;
* every metric the benchmark prints is declared in ``BENCHMARK.json`` with
  the same unit, and the names respect the declaration limits;
* one ``--smoke`` workload runs end to end against a real server process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from client import Sample
from compare import verdict
from oracle import IngestOracle, Oracle, wrong_batch_answers, wrong_http_answers
from workloads import (
    INGEST_BATCH,
    WORKLOADS,
    cold_documents,
    hot_pool,
    ingest_documents,
    make_corpus,
    poisson_offsets,
    rng_for,
    scan_spec,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(smoke=True)


@pytest.fixture(scope="module")
def oracle(corpus):
    return Oracle(corpus.trajectories, corpus.timestamps)


def _trajectories(edges, times):
    from repro.trajectories.model import Trajectory

    return [Trajectory(edges=e, timestamps=t) for e, t in zip(edges, times)]


@pytest.fixture(scope="module")
def engine(corpus):
    from repro.engine import EngineConfig, TrajectoryEngine

    return TrajectoryEngine.build(
        _trajectories(corpus.trajectories, corpus.timestamps),
        EngineConfig(backend="cinct", sa_sample_rate=16),
    )


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #
def test_schedules_are_deterministic_in_the_seed(corpus, oracle):
    def schedule(seed):
        return poisson_offsets(rng_for(seed, "hot-read", "arrivals"), 100.0, 5.0)

    assert np.array_equal(schedule(3), schedule(3))
    assert not np.array_equal(schedule(3), schedule(4))
    assert 350 < schedule(3).size < 650
    for workload in ("hot-read", "cold-locate", "ingest-mix"):
        first = run.http_plan(workload, corpus, oracle, 7, 2.0, 0.3)
        again = run.http_plan(workload, corpus, oracle, 7, 2.0, 0.3)
        other = run.http_plan(workload, corpus, oracle, 8, 2.0, 0.3)
        assert np.array_equal(first.open_offsets, again.open_offsets)
        assert first.open_docs == again.open_docs and first.closed_docs == again.closed_docs
        assert first.open_docs != other.open_docs
    first = scan_spec(corpus, oracle.count_many, 5, 3)
    again = scan_spec(corpus, oracle.count_many, 5, 3)
    assert np.array_equal(first.corridors, again.corridors)
    assert np.array_equal(first.locates, again.locates)


# --------------------------------------------------------------------------- #
# oracle vs engine
# --------------------------------------------------------------------------- #
def _sample(doc, payload):
    return Sample(doc, 0.0, status=200, payload=payload)


def test_oracle_matches_the_engine_for_every_http_query_kind(corpus, oracle, engine):
    from repro.engine import ContainsQuery, CountQuery, LocateQuery, StrictPathQuery
    from repro.service.protocol import result_to_json

    docs = cold_documents(rng_for(0, "cold-locate", "test"), corpus, oracle.count_many, 60)
    pool = hot_pool(corpus, 0)
    docs += [{"type": "contains", "path": path} for path in pool[:20]]
    t_min, t_max = corpus.time_range
    docs.append({"type": "strict_path", "path": pool[0], "t_start": t_min, "t_end": t_max})
    missing = [{"type": "count", "path": list(reversed(p))} for p in pool[:20]]
    docs += missing
    assert any(oracle.count(d["path"]) == 0 for d in missing)
    samples = []
    for doc in docs:
        path = doc["path"]
        if doc["type"] == "count":
            query = CountQuery(path)
        elif doc["type"] == "contains":
            query = ContainsQuery(path)
        elif doc["type"] == "locate":
            query = LocateQuery(path)
        else:
            query = StrictPathQuery(path, doc["t_start"], doc["t_end"])
        payload = json.loads(json.dumps(result_to_json(engine.run(query))))
        samples.append(_sample(doc, payload))
    kinds = {d["type"] for d in docs}
    assert kinds == {"count", "contains", "locate", "strict_path"}
    assert wrong_http_answers(samples, oracle) == 0
    located = next(s for s in samples if s.doc["type"] == "locate" and s.payload["matches"])
    located.payload["matches"] = located.payload["matches"][1:]
    counted = next(s for s in samples if s.doc["type"] == "count" and s.payload["count"])
    counted.payload["count"] += 1
    assert wrong_http_answers(samples, oracle) == 2


def test_oracle_follows_ingest_prefixes(corpus, oracle):
    from repro.engine import EngineConfig, TrajectoryEngine

    engine = TrajectoryEngine.build(
        _trajectories(corpus.trajectories, corpus.timestamps),
        EngineConfig(backend="partitioned-cinct", sa_sample_rate=16, tail_max_symbols=500),
    )
    ingest = IngestOracle(oracle, corpus.ingest, INGEST_BATCH)
    # Paths of the first batch only: later batches may bring unseen edges.
    paths = hot_pool(corpus, 1)[:40] + [corpus.ingest[0][:5], corpus.ingest[1][2:8]]
    table = ingest.prefix_counts_many(paths)
    batches = ingest_documents(corpus)
    assert table.shape == (len(paths), len(batches) + 1)
    for k, doc in enumerate(batches[:6], start=1):
        engine.add_batch(
            _trajectories(
                [t["edges"] for t in doc["trajectories"]],
                [t["timestamps"] for t in doc["trajectories"]],
            )
        )
        assert engine.count_many(paths) == table[:, k].tolist()
    # A count is right when it matches some prefix between its bounds.
    doc = {"type": "count", "path": paths[-1]}
    sample = _sample(doc, {"count": int(table[-1, 3])})
    sample.acked_before, sample.sent_before_reply = 2, 4
    assert wrong_http_answers([sample], oracle, ingest) == 0
    sample.acked_before = sample.sent_before_reply = 0
    assert table[-1, 0] != table[-1, 3]
    assert wrong_http_answers([sample], oracle, ingest) == 1


def test_oracle_checks_batch_scan_answers(corpus, oracle):
    from batch_caller import answer_of, queries_for
    from repro.engine import EngineConfig, build_engine

    fleet = build_engine(
        _trajectories(corpus.trajectories, corpus.timestamps),
        EngineConfig(backend="cinct", sa_sample_rate=16, num_shards=2, shard_executor="serial"),
    )
    spec = scan_spec(corpus, oracle.count_many, 2, 2)
    records = []
    for index in range(spec.n_batches):
        results = fleet.run_many(queries_for(spec.batch(index)))
        records.append((index, 0.0, 0.0, [answer_of(r) for r in results]))
    kinds = {kind for kind, _, _ in spec.batch(0)}
    assert kinds == {"count", "contains", "locate", "extract"}
    assert wrong_batch_answers(records, spec, oracle) == 0
    answers = records[0][3]
    answers[0] += 1
    extract = next(i for i, (kind, _, _) in enumerate(spec.batch(0)) if kind == "extract")
    answers[extract] = tuple([-5] * len(answers[extract]))
    assert wrong_batch_answers(records, spec, oracle) == 2


# --------------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------------- #
def test_printed_metrics_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_run_prints_only_declared_metrics():
    completed = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--smoke", "--workload", "cold-locate",
         "--seconds", "1", "--seed", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    printed = [line.split() for line in lines[:-1]]
    assert [(p[0], p[1], p[3]) for p in printed] == [
        ("cold-locate", name, unit) for name, unit in run.END_TO_END.items()
    ]


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]  # median 104.5, interquartile range 5.5
    assert verdict(parent, [p + 20 for p in parent], "higher", 0.1)[0] == "improved"
    assert verdict(parent, [p - 20 for p in parent], "higher", 0.1)[0] == "regressed"
    assert verdict(parent, [p + 1 for p in parent], "higher", 0.1)[0] == "unchanged"
    assert verdict(parent, [p + 1 for p in parent], "higher", 0.01)[0] == "unresolved"
    assert verdict(parent, [p - 20 for p in parent], "lower", None) == ("improved", 1.0)
    assert verdict(parent, [p + 20 for p in parent], "lower", None)[0] == "regressed"
