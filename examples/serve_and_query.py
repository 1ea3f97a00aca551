"""Serve a trajectory index over HTTP and query it with plain urllib.

The serving tier (:mod:`repro.service`) turns one engine into a network
service: concurrent requests joining the same micro-batch window run as a
single ``engine.run_many`` call, admission control sheds overload with
retriable 503s instead of queueing unboundedly, and ``/health`` + ``/stats``
expose the engine's shard health, growth epochs, cache counters, and the
service's coalescing/shedding statistics.

This example starts the service in-process on a background thread (the same
code path ``python -m repro serve`` runs), fires a burst of concurrent
clients at it with nothing but the standard library, and then reads the
stats surface to show how many engine batches the burst actually cost.

Run with:  python examples/serve_and_query.py
"""

from __future__ import annotations

import json
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.datasets import singapore_like
from repro.engine import EngineConfig, TrajectoryEngine
from repro.service import ServiceConfig, serve_in_background

N_CLIENTS = 24


def post_query(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url + "/query",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.load(response)


def main() -> None:
    bundle = singapore_like(scale=0.1)
    trajectories = [list(t) for t in bundle.symbol_trajectories]
    engine = TrajectoryEngine.build(
        trajectories, EngineConfig(backend="cinct", sa_sample_rate=8)
    )
    print(f"indexed {engine.n_trajectories} trajectories, |T| = {engine.length}")

    config = ServiceConfig(port=0, batch_window_ms=25.0, max_batch_size=16)
    with serve_in_background(engine, config) as handle:
        print(f"serving on {handle.url}")

        # A duplicate-heavy burst: real road networks have hot paths, and the
        # coalescer + the engine's dedupe stage turn repeats into one lookup.
        probes = [trajectory[:2] for trajectory in trajectories[:6]]
        documents = [
            {"type": "count", "path": probes[client % len(probes)]}
            for client in range(N_CLIENTS)
        ]
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            answers = list(
                pool.map(lambda doc: post_query(handle.url, doc), documents)
            )
        for path, answer in zip(probes, answers):
            print(f"  count{tuple(path)!r:28} -> {answer['count']}")

        health = json.load(urllib.request.urlopen(handle.url + "/health"))
        stats = json.load(urllib.request.urlopen(handle.url + "/stats"))
        service = stats["service"]
        print(f"health      : {health['status']} (epochs {health['epochs']})")
        print(
            f"coalescing  : {service['served']} requests served in "
            f"{service['batches']} engine batches "
            f"(mean batch {service['mean_batch_size']:.1f}, "
            f"largest {service['largest_batch']})"
        )
        print(f"load shed   : {service['shed']}")
        cache = stats["engine"]["cache"]
        print(f"result cache: hits={cache['hits']} misses={cache['misses']}")
    print("drained; service stopped")


if __name__ == "__main__":
    main()
