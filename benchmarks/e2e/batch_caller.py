"""The batch-scan caller: a closed loop of ``run_many`` batches, no HTTP.

Usage::

    python benchmarks/e2e/batch_caller.py --index DIR --spec SPEC.npz \\
        --seconds S --warmup W --out OUT.pickle [--trace-out TRACE.json]

Loads the saved 2-shard fleet (its config selects the in-process serial
fan-out), runs warm-up batches from the end of the spec for ``W`` seconds, then cycles
the spec's batches from the start for ``S`` seconds, one ``run_many`` at a
time.  The pickle it writes holds, per batch, its index, start, end and
compact answers, plus the engine counters before and after the measured
loop, the process's peak RSS and the index's bits per symbol.  Answers are
checked by ``run.py`` against the oracle, never here.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from pathlib import Path

from workloads import ScanSpec

now = time.monotonic


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB (0.0 when unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def queries_for(descriptors: list[tuple]) -> list:
    from repro.engine import ContainsQuery, CountQuery, ExtractQuery, LocateQuery

    queries = []
    for kind, target, length in descriptors:
        if kind == "count":
            queries.append(CountQuery(target))
        elif kind == "contains":
            queries.append(ContainsQuery(target))
        elif kind == "locate":
            queries.append(LocateQuery(target))
        else:
            queries.append(ExtractQuery(row=target, length=length))
    return queries


def answer_of(result) -> object:
    """A result as a plain value: count, found flag, match tuples or edges."""
    from repro.engine import ContainsResult, CountResult, LocateResult

    if isinstance(result, CountResult):
        return result.count
    if isinstance(result, ContainsResult):
        return result.found
    if isinstance(result, LocateResult):
        return tuple(
            (m.trajectory_id, m.start_edge_index, m.end_edge_index, m.start_time, m.end_time)
            for m in result.matches
        )
    return tuple(result.edges)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", type=Path, required=True)
    parser.add_argument("--spec", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.io.index_io import load_index

    spec = ScanSpec.load(args.spec)
    engine = load_index(args.index)
    # Records go to disk batch by batch, so the caller's heap (and its
    # garbage collector's work) stays flat however long the loop runs.
    with open(args.out, "wb") as out:
        try:
            warm_end = now() + args.warmup
            back = spec.n_batches - 1
            while now() < warm_end:
                engine.run_many(queries_for(spec.batch(back)))
                back -= 1
            stats_before = engine.stats()
            start = now()
            deadline = start + args.seconds
            index = 0
            while now() < deadline:
                queries = queries_for(spec.batch(index % spec.n_batches))
                began = now()
                results = engine.run_many(queries)
                ended = now()
                record = (index % spec.n_batches, began, ended, [answer_of(r) for r in results])
                pickle.dump(record, out)
                index += 1
            end = now()
            summary = {
                "window": (start, end),
                "stats_before": stats_before,
                "stats_after": engine.stats(),
                "peak_rss_mb": peak_rss_mb(),
                "bits_per_symbol": engine.bits_per_symbol(),
            }
        finally:
            if tracer is not None:
                tracer.facts["partitions"] = engine.n_partitions
            engine.close()
            if tracer is not None:
                tracer.dump(args.trace_out)
        pickle.dump(summary, out)
    return 0


def read_output(path: Path) -> dict:
    """The summary written by :func:`main`, with ``records`` (this run's own file)."""
    records = []
    with open(path, "rb") as handle:
        while True:
            item = pickle.load(handle)
            if isinstance(item, dict):
                return {**item, "records": records}
            records.append(item)


if __name__ == "__main__":
    sys.exit(main())
