"""Command-line interface for the CiNCT reproduction.

The CLI sits on the :class:`~repro.engine.TrajectoryEngine` facade, so every
sub-command works with every registered index backend (``--backend``):

``repro-cinct stats``
    Print Table-III-style statistics for a named dataset analogue.
``repro-cinct build``
    Build an index from a JSONL/CSV trajectory file (or a named analogue)
    with any registered backend and persist it to a directory.
``repro-cinct query``
    Load a persisted index and run a path query (optionally a strict-path
    query with ``--t-start``/``--t-end``); ``--verbose`` adds result-cache
    and interval-cache statistics and the growth epoch, ``--no-cache``
    bypasses the result cache.
``repro-cinct compare``
    Build every requested backend on a dataset analogue and print the
    size/time comparison of Fig. 10, including ``size_in_bits`` and
    bits/symbol per backend straight from the registry.
``repro-cinct serve``
    Load a persisted index and serve it over HTTP with micro-batch
    coalescing and admission control (see :mod:`repro.service`); flags
    default to the ``REPRO_SERVE_*`` environment variables.

Every sub-command prints plain text to stdout; exit status 0 means success.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Hashable, Sequence

from .analysis.stats import dataset_statistics
from .bench.harness import format_table
from .datasets.registry import load_dataset, paper_dataset_names
from .engine import (
    EngineConfig,
    TrajectoryEngine,
    available_backends,
    backend_spec,
    sample_paths,
)
from .exceptions import AlphabetError, ReproError
from .io.dataset_io import load_dataset_csv, load_dataset_jsonl
from .io.index_io import load_index


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=paper_dataset_names(),
        help="name of a built-in dataset analogue",
    )
    parser.add_argument("--input", type=Path, help="path to a JSONL or CSV trajectory file")
    parser.add_argument("--scale", type=float, default=0.2, help="size multiplier for analogues")
    parser.add_argument("--seed", type=int, default=None, help="seed for analogue generation")


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="cinct",
        help=f"index backend (one of: {', '.join(available_backends())})",
    )
    parser.add_argument("--block-size", type=int, default=63, help="RRR block size b")
    parser.add_argument(
        "--sa-sample-rate",
        type=int,
        default=None,
        help="suffix-array sampling rate (enables locate / strict-path queries)",
    )
    parser.add_argument(
        "--tail-max-symbols",
        type=int,
        default=None,
        help="seal the mutable ingest tail into a compressed partition once it "
        "holds this many symbols (enables the LSM-style tail)",
    )
    parser.add_argument(
        "--tail-max-trajectories",
        type=int,
        default=None,
        help="seal the mutable ingest tail once it holds this many trajectories "
        "(enables the LSM-style tail)",
    )
    parser.add_argument(
        "--compaction",
        choices=("inline", "background", "off"),
        default="inline",
        help="how the partitioned backend seals its ingest tail: on the "
        "ingesting thread (inline), on a worker thread (background), or never (off)",
    )
    parser.add_argument(
        "--num-shards",
        type=int,
        default=1,
        help="fleet shards (>1 builds a sharded engine with round-robin routing)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        help="bound on the sharded fan-out dispatchers (default: min(shards, CPUs))",
    )
    _add_reliability_arguments(parser)


def _add_reliability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shard-executor",
        choices=("serial", "threads", "processes"),
        default=None,
        help="sharded fan-out strategy (processes = persistent worker pool; "
        "default: the config the index was built/saved with)",
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=None,
        help="seconds one per-shard fan-out attempt may run before timing out",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=None,
        help="extra fan-out attempts per shard after a retryable failure",
    )
    parser.add_argument(
        "--degraded-results",
        action="store_true",
        help="merge surviving shards when a shard fails (results flagged degraded)",
    )


def _apply_reliability_overrides(
    engine: TrajectoryEngine, args: argparse.Namespace
) -> None:
    """Apply query-time reliability/executor flags to a freshly loaded engine."""
    if args.shard_executor:
        engine.configure_executor(args.shard_executor)
    engine.configure_reliability(
        deadline=args.shard_deadline,
        retries=args.shard_retries,
        degraded_results=True if args.degraded_results else None,
    )


def _load_trajectories(args: argparse.Namespace):
    """Resolve ``--dataset``/``--input`` into (name, trajectory collection)."""
    if args.input is not None:
        path = Path(args.input)
        if path.suffix.lower() in {".jsonl", ".json"}:
            dataset = load_dataset_jsonl(path)
        elif path.suffix.lower() == ".csv":
            dataset = load_dataset_csv(path)
        else:
            raise ReproError(f"unsupported input format: {path.suffix} (use .jsonl or .csv)")
        return dataset.name, dataset
    if args.dataset is None:
        raise ReproError("either --dataset or --input is required")
    bundle = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    return bundle.name, [list(t) for t in bundle.symbol_trajectories]


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        backend=backend_spec(args.backend).name,
        block_size=args.block_size,
        sa_sample_rate=args.sa_sample_rate,
        tail_max_symbols=args.tail_max_symbols,
        tail_max_trajectories=args.tail_max_trajectories,
        compaction=args.compaction,
        num_shards=args.num_shards,
        shard_workers=args.shard_workers,
        shard_executor=args.shard_executor or "threads",
        shard_deadline=args.shard_deadline,
        shard_retries=args.shard_retries or 0,
        degraded_results=bool(args.degraded_results),
    )


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #
def _command_stats(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    stats = dataset_statistics(bundle.name, bundle.text, bundle.sigma)
    print(format_table([stats.as_row()]))
    return 0


def _command_build(args: argparse.Namespace) -> int:
    name, trajectories = _load_trajectories(args)
    config = _engine_config(args)
    started = time.perf_counter()
    engine = TrajectoryEngine.build(trajectories, config)
    elapsed = time.perf_counter() - started
    engine.save(args.output)
    print(f"dataset           : {name}")
    print(f"backend           : {engine.spec.display_name} ({engine.backend_name})")
    if config.num_shards > 1:
        print(f"shards            : {config.num_shards}")
    print(f"trajectories      : {engine.n_trajectories}")
    print(f"string length |T| : {engine.length}")
    print(f"alphabet sigma    : {engine.sigma}")
    print(f"index size        : {engine.size_in_bits()} bits "
          f"({engine.bits_per_symbol():.2f} bits/symbol)")
    temporal_bits = engine.temporal_size_in_bits()
    if temporal_bits:
        store = engine.timestamp_store
        print(f"temporal store    : {temporal_bits} bits "
              f"({store.n_timestamped}/{store.n_trajectories} trajectories timestamped)")
    print(f"construction time : {elapsed:.2f} s")
    print(f"saved to          : {args.output}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    path = [_parse_edge(token) for token in args.path]
    if (args.t_start is None) != (args.t_end is None):
        raise ReproError("provide both --t-start and --t-end, or neither")
    engine = load_index(Path(args.index), mmap=args.mmap)
    _apply_reliability_overrides(engine, args)
    if args.no_cache:
        engine.disable_cache()
    started = time.perf_counter()
    try:
        if args.t_start is not None:
            matches = engine.strict_path(path, args.t_start, args.t_end)
            count = len(matches)
        else:
            matches = None
            count = engine.count(path)
    except AlphabetError:
        print("path: not found (unknown road segment)")
        return 0
    elapsed = (time.perf_counter() - started) * 1e6
    print(f"backend   : {engine.spec.display_name}")
    if engine.num_shards > 1:
        print(f"shards    : {engine.num_shards}")
    print(f"path      : {' -> '.join(str(p) for p in path)}")
    print(f"matches   : {count}")
    print(f"query time: {elapsed:.1f} us")
    if args.verbose:
        # One engine.stats() snapshot drives the whole verbose block, so the
        # cache/epoch/health lines are a single consistent observation (the
        # same document the serving tier's /stats endpoint reports).
        snapshot = engine.stats()
        cache = snapshot["cache"]
        state = "on" if cache["enabled"] else "off"
        print(
            f"cache     : {state} "
            f"(hits={cache['hits']} misses={cache['misses']} "
            f"size={cache['size']}/{cache['capacity']} "
            f"evictions={cache['evictions']})"
        )
        intervals = snapshot["interval_cache"]
        interval_state = "on" if intervals["enabled"] else "off"
        print(
            f"intervals : {interval_state} "
            f"(hits={intervals['hits']} misses={intervals['misses']} "
            f"size={intervals['size']}/{intervals['capacity']} "
            f"evictions={intervals['evictions']})"
        )
        print(
            f"size      : {snapshot['size_in_bits']} bits counted, "
            f"{snapshot['held_bits']} held, {snapshot['mapped_bits']} mapped"
        )
        print(f"epoch     : {snapshot['epoch']}")
        health = snapshot["health"]
        print(
            f"health    : {health['status']} "
            f"({health['failing_shards']}/{health['num_shards']} shards failing)"
        )
        if health["num_shards"] > 1:
            print(f"policy    : {health['policy']}")
            print(f"degraded  : {'on' if health['degraded_results'] else 'off'}")
        executor = snapshot["executor"]
        workers = executor.get("workers") or []
        if workers:
            pids = ",".join(str(row["pid"]) for row in workers)
            restarts = sum(int(row["restarts"]) for row in workers)
            print(
                f"executor  : {executor['mode']} "
                f"(workers={len(workers)} pids={pids} restarts={restarts})"
            )
        else:
            print(f"executor  : {executor['mode']}")
        ingest = snapshot.get("ingest")
        if ingest and ingest["tail"]["enabled"]:
            tail = ingest["tail"]
            compaction = ingest["compaction"]
            print(
                f"tail      : {tail['trajectories']} trajectories, "
                f"{tail['symbols']} symbols uncompressed"
            )
            print(
                f"compaction: {compaction['mode']} "
                f"(count={compaction['count']} failures={compaction['failures']} "
                f"tiered_merges={compaction['tiered_merges']} "
                f"in_flight={'yes' if compaction['in_flight'] else 'no'})"
            )
    if matches is not None:
        for match in matches[:10]:
            window = ""
            if match.start_time is not None and match.end_time is not None:
                window = f"  time [{match.start_time:.1f}, {match.end_time:.1f}]"
            print(
                f"  trajectory {match.trajectory_id} "
                f"edges [{match.start_edge_index}, {match.end_edge_index}]{window}"
            )
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    trajectories = [list(t) for t in bundle.symbol_trajectories]
    paths = sample_paths(trajectories, args.pattern_length, args.n_patterns, seed=0)
    # The pipeline dedupes identical plans inside a batch, so only distinct
    # patterns execute; report the mean over the work actually performed.
    n_distinct = len({tuple(path) for path in paths})
    rows = []
    # Resolve aliases, dedupe, and iterate in the deterministic
    # available_backends() order so the output rows are stable across runs.
    requested = {backend_spec(name).name for name in args.variants}
    ordered = [name for name in available_backends() if name in requested]
    for name in ordered:
        spec = backend_spec(name)
        config = EngineConfig(
            backend=spec.name,
            block_size=args.block_size,
            num_shards=args.num_shards,
            shard_workers=args.shard_workers,
            shard_executor=args.shard_executor or "threads",
        )
        started = time.perf_counter()
        engine = TrajectoryEngine.build(trajectories, config)
        build_seconds = time.perf_counter() - started
        started = time.perf_counter()
        engine.count_many(paths)
        mean_us = (time.perf_counter() - started) / max(n_distinct, 1) * 1e6
        method = spec.display_name
        if args.num_shards > 1:
            method = f"{method} x{args.num_shards}"
        rows.append(
            {
                "method": method,
                "size (bits)": engine.size_in_bits(),
                # exact TimestampStore accounting (0 without timestamps)
                "temporal (bits)": engine.temporal_size_in_bits(),
                "bits/symbol": round(engine.bits_per_symbol(), 2),
                "search (us)": round(mean_us, 1),
                "build (s)": round(build_seconds, 2),
            }
        )
    print(format_table(rows, title=f"{bundle.name} — size vs search time"))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so the serving tier is only paid for by serving processes.
    from .service import ServiceConfig, run_service

    engine = load_index(Path(args.index), mmap=args.mmap)
    _apply_reliability_overrides(engine, args)
    config = ServiceConfig.from_env(
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
        default_deadline=args.default_deadline,
        worker_threads=args.worker_threads,
    )
    print(f"index     : {args.index}")
    print(f"backend   : {engine.spec.display_name}")
    if engine.num_shards > 1:
        print(f"shards    : {engine.num_shards}")
        print(f"executor  : {engine.executor_info()['mode']}")
    if args.mmap:
        print("mmap      : on (index arrays mapped read-only)")
    try:
        run_service(engine, config)
    finally:
        # Stop any shard worker processes deterministically; leaving them to
        # interpreter-exit finalizers races multiprocessing's own exit hook.
        engine.close()
    return 0


def _parse_edge(token: str) -> Hashable:
    """Interpret a CLI path token as an int when possible, else a string."""
    try:
        return int(token)
    except ValueError:
        return token


# --------------------------------------------------------------------------- #
# parser wiring
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-cinct",
        description="CiNCT: compressed indexing and retrieval for vehicular trajectories",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="print Table-III statistics for a dataset analogue")
    stats.add_argument("--dataset", choices=paper_dataset_names(), required=True)
    stats.add_argument("--scale", type=float, default=0.2)
    stats.add_argument("--seed", type=int, default=None)
    stats.set_defaults(handler=_command_stats)

    build = subparsers.add_parser("build", help="build and persist an index (any backend)")
    _add_dataset_arguments(build)
    _add_backend_arguments(build)
    build.add_argument("--output", type=Path, required=True, help="directory for the saved index")
    build.set_defaults(handler=_command_build)

    query = subparsers.add_parser("query", help="run a path query against a saved index")
    query.add_argument("--index", type=Path, required=True, help="directory of the saved index")
    query.add_argument("--t-start", type=float, default=None, help="strict-path window start")
    query.add_argument("--t-end", type=float, default=None, help="strict-path window end")
    query.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the index arrays read-only instead of copying them",
    )
    query.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the engine's plan-keyed result cache for this query",
    )
    query.add_argument(
        "--verbose",
        action="store_true",
        help="also print result-cache and interval-cache statistics, the "
        "growth epoch, engine health, and ingest tail/compaction counters",
    )
    _add_reliability_arguments(query)
    query.add_argument("path", nargs="+", help="road segments of the query path, in travel order")
    query.set_defaults(handler=_command_query)

    compare = subparsers.add_parser("compare", help="compare index backends on a dataset analogue")
    compare.add_argument("--dataset", choices=paper_dataset_names(), required=True)
    compare.add_argument("--scale", type=float, default=0.2)
    compare.add_argument("--seed", type=int, default=None)
    compare.add_argument("--block-size", type=int, default=63)
    compare.add_argument(
        "--num-shards",
        type=int,
        default=1,
        help="build every backend as a sharded fleet with this many shards",
    )
    compare.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        help="bound on the sharded fan-out dispatchers (default: min(shards, CPUs))",
    )
    compare.add_argument(
        "--shard-executor",
        choices=("serial", "threads", "processes"),
        default=None,
        help="sharded fan-out strategy for every built fleet",
    )
    compare.add_argument("--pattern-length", type=int, default=10)
    compare.add_argument("--n-patterns", type=int, default=20)
    compare.add_argument(
        "--backends",
        "--variants",
        dest="variants",
        nargs="+",
        default=list(available_backends()),
        metavar="BACKEND",
        help="registry keys or display names (default: every registered backend)",
    )
    compare.set_defaults(handler=_command_compare)

    serve = subparsers.add_parser(
        "serve",
        help="serve a saved index over HTTP with micro-batch coalescing",
    )
    serve.add_argument("--index", type=Path, required=True, help="directory of the saved index")
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the index arrays read-only (workers share the pages)",
    )
    # Service flags default to None so ServiceConfig.from_env applies the
    # precedence flag > REPRO_SERVE_* env var > built-in default.
    serve.add_argument("--host", default=None, help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help="micro-batch window length in milliseconds",
    )
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=None,
        help="requests per micro-batch (1 disables coalescing)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission bound; excess requests are shed with HTTP 503",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (absent = no deadline)",
    )
    serve.add_argument(
        "--worker-threads",
        type=int,
        default=None,
        help="threads executing engine batches",
    )
    _add_reliability_arguments(serve)
    serve.set_defaults(handler=_command_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
