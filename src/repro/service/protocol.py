"""JSON wire protocol of the serving tier.

Translates between the HTTP surface's JSON documents and the engine's typed
query/result objects (:mod:`repro.engine.queries`), so the coalescer and the
engine only ever see the same typed values the library API uses — answers
served over HTTP are the same objects :meth:`TrajectoryEngine.run` returns,
serialized.

Request documents carry a ``type`` discriminator::

    {"type": "count",       "path": ["e1", "e2"]}
    {"type": "contains",    "path": ["e1", "e2"]}
    {"type": "locate",      "path": ["e1", "e2"]}
    {"type": "extract",     "row": 4, "length": 3}
    {"type": "strict_path", "path": ["e1", "e2"], "t_start": 0.0, "t_end": 60.0}

plus an optional ``deadline_ms`` (request-scoped deadline, overriding the
service's ``default_deadline``).  Responses echo the ``type`` and always
carry the reliability flags, so a degraded merge is visible to HTTP clients
exactly as it is to library callers::

    {"type": "count", "count": 2, "degraded": false, "failed_shards": []}

``POST /ingest`` documents carry a batch of trajectories (timestamps
optional per trajectory)::

    {"trajectories": [{"edges": ["e1", "e2"], "timestamps": [0.0, 30.0]},
                      {"edges": ["e3", "e4"]}]}

which :func:`ingest_from_json` parses into the same typed
:class:`~repro.trajectories.model.Trajectory` values
:meth:`TrajectoryEngine.add_batch` takes from library callers.

Malformed documents raise the canonical
:class:`~repro.exceptions.QueryError` (mapped to HTTP 400 by the server).
"""

from __future__ import annotations

from typing import Hashable

from ..exceptions import QueryError
from ..queries.strict_path import StrictPathMatch
from ..trajectories.model import Trajectory
from ..engine.queries import (
    ContainsQuery,
    ContainsResult,
    CountQuery,
    CountResult,
    EngineQuery,
    EngineResult,
    ExtractQuery,
    ExtractResult,
    LocateQuery,
    LocateResult,
    StrictPathQuery,
    StrictPathResult,
)

#: Recognised values of the request ``type`` discriminator.
QUERY_TYPES = ("count", "contains", "locate", "extract", "strict_path")


def _require_path(document: dict) -> list[Hashable]:
    path = document.get("path")
    if not isinstance(path, list) or not path:
        raise QueryError('"path" must be a non-empty JSON array of edge ids')
    for edge in path:
        if not isinstance(edge, (str, int)) or isinstance(edge, bool):
            raise QueryError(
                f'"path" entries must be strings or integers, got {edge!r}'
            )
    return path


def _optional_number(document: dict, key: str) -> float | None:
    value = document.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f'"{key}" must be a number, got {value!r}')
    return float(value)


def _require_int(document: dict, key: str) -> int:
    value = document.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f'"{key}" must be an integer, got {value!r}')
    return value


def query_from_json(document: object) -> tuple[EngineQuery, float | None]:
    """Parse one request document into ``(typed query, timeout seconds)``.

    The timeout is the request's ``deadline_ms`` converted to seconds
    (``None`` when absent — the service's ``default_deadline`` then
    applies).  Raises :class:`~repro.exceptions.QueryError` on any malformed
    document; the engine's own planner handles semantic validation (unknown
    segments, missing capabilities) afterwards.
    """
    if not isinstance(document, dict):
        raise QueryError("the request body must be a JSON object")
    kind = document.get("type")
    if kind not in QUERY_TYPES:
        raise QueryError(
            f'"type" must be one of {", ".join(QUERY_TYPES)}, got {kind!r}'
        )
    timeout = _optional_number(document, "deadline_ms")
    if timeout is not None:
        # ``not timeout > 0`` also rejects NaN, which would never expire.
        if not timeout > 0:
            raise QueryError(f'"deadline_ms" must be positive, got {timeout}')
        timeout = timeout / 1000.0
    if kind == "count":
        return CountQuery(_require_path(document)), timeout
    if kind == "contains":
        return ContainsQuery(_require_path(document)), timeout
    if kind == "locate":
        return LocateQuery(_require_path(document)), timeout
    if kind == "extract":
        return (
            ExtractQuery(
                row=_require_int(document, "row"),
                length=_require_int(document, "length"),
            ),
            timeout,
        )
    return (
        StrictPathQuery(
            _require_path(document),
            t_start=_optional_number(document, "t_start"),
            t_end=_optional_number(document, "t_end"),
        ),
        timeout,
    )


def _require_edges(entry: dict, position: int) -> list[Hashable]:
    edges = entry.get("edges")
    if not isinstance(edges, list) or not edges:
        raise QueryError(
            f'trajectory {position}: "edges" must be a non-empty JSON array of edge ids'
        )
    for edge in edges:
        if not isinstance(edge, (str, int)) or isinstance(edge, bool):
            raise QueryError(
                f'trajectory {position}: "edges" entries must be strings or '
                f"integers, got {edge!r}"
            )
    return edges


def _optional_timestamps(entry: dict, position: int, n_edges: int) -> list[float] | None:
    timestamps = entry.get("timestamps")
    if timestamps is None:
        return None
    if not isinstance(timestamps, list):
        raise QueryError(
            f'trajectory {position}: "timestamps" must be a JSON array of numbers'
        )
    if len(timestamps) != n_edges:
        raise QueryError(
            f'trajectory {position}: "timestamps" must align with "edges" '
            f"({len(timestamps)} timestamps for {n_edges} edges)"
        )
    for value in timestamps:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QueryError(
                f'trajectory {position}: "timestamps" entries must be numbers, '
                f"got {value!r}"
            )
    return [float(value) for value in timestamps]


def ingest_from_json(document: object) -> list[Trajectory]:
    """Parse one ``POST /ingest`` body into typed trajectories.

    Raises :class:`~repro.exceptions.QueryError` on any malformed document
    (mapped to HTTP 400 by the server); semantic validation — decreasing
    timestamps, backend growth capability — stays with ``add_batch`` so the
    HTTP surface rejects exactly what the library API rejects.
    """
    if not isinstance(document, dict):
        raise QueryError("the request body must be a JSON object")
    entries = document.get("trajectories")
    if not isinstance(entries, list) or not entries:
        raise QueryError('"trajectories" must be a non-empty JSON array')
    trajectories: list[Trajectory] = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise QueryError(
                f'trajectory {position} must be a JSON object with an "edges" array'
            )
        edges = _require_edges(entry, position)
        timestamps = _optional_timestamps(entry, position, len(edges))
        trajectories.append(Trajectory(edges=edges, timestamps=timestamps))
    return trajectories


def match_to_json(match: StrictPathMatch) -> dict[str, object]:
    """One located occurrence as a JSON-safe dict."""
    return {
        "trajectory_id": match.trajectory_id,
        "start_edge_index": match.start_edge_index,
        "end_edge_index": match.end_edge_index,
        "start_time": match.start_time,
        "end_time": match.end_time,
    }


def result_to_json(result: EngineResult) -> dict[str, object]:
    """Serialize a typed engine result, reliability flags included.

    The mapping is lossless for everything a JSON client can consume:
    counts, booleans, located matches with their timestamps, extracted
    symbols and decoded edges, and the ``degraded``/``failed_shards`` flags
    a degraded fleet merge sets.
    """
    flags: dict[str, object] = {
        "degraded": result.degraded,
        "failed_shards": list(result.failed_shards),
    }
    if isinstance(result, CountResult):
        return {"type": "count", "count": result.count, **flags}
    if isinstance(result, ContainsResult):
        return {"type": "contains", "found": result.found, **flags}
    if isinstance(result, LocateResult):
        return {
            "type": "locate",
            "count": result.count,
            "matches": [match_to_json(match) for match in result.matches],
            **flags,
        }
    if isinstance(result, ExtractResult):
        return {
            "type": "extract",
            "symbols": list(result.symbols),
            "edges": list(result.edges),
            **flags,
        }
    assert isinstance(result, StrictPathResult)
    return {
        "type": "strict_path",
        "count": result.count,
        "matches": [match_to_json(match) for match in result.matches],
        **flags,
    }


__all__ = [
    "QUERY_TYPES",
    "ingest_from_json",
    "match_to_json",
    "query_from_json",
    "result_to_json",
]
