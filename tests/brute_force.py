"""Brute-force answers over the raw trajectories: the reference the engine
suites check every backend, shard count and lifecycle state against.

Nothing here builds an index.  ``locate`` and ``count`` scan every
trajectory for the path; ``extract`` sorts the suffixes of the trajectory
string (Definition 2) directly.  The module is not named ``oracle`` because
the e2e benchmark's ``oracle`` module shares the pytest session.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.trajectories import Trajectory

#: ``(trajectory_id, start_edge_index, end_edge_index, start_time, end_time)``
Match = tuple[int, int, int, "float | None", "float | None"]


def trajectories_of(source) -> list[tuple[list[Hashable], list[float] | None]]:
    """``(edges, timestamps)`` per trajectory of a dataset, a list of
    :class:`Trajectory` objects or a list of plain edge lists."""
    pairs = []
    for item in getattr(source, "trajectories", source):
        if isinstance(item, Trajectory):
            times = None if item.timestamps is None else list(item.timestamps)
            pairs.append((list(item.edges), times))
        else:
            pairs.append((list(item), None))
    return pairs


def locate(source, path: Sequence[Hashable], t_start=None, t_end=None) -> list[Match]:
    """Every traversal of ``path``, in trajectory then position order.

    With a window, only traversals on timestamped trajectories whose first
    and last edge times lie inside ``[t_start, t_end]`` are kept.
    """
    path = list(path)
    m = len(path)
    found: list[Match] = []
    for trajectory_id, (edges, times) in enumerate(trajectories_of(source)):
        for start in range(len(edges) - m + 1):
            if edges[start : start + m] != path:
                continue
            end = start + m - 1
            start_time = times[start] if times is not None else None
            end_time = times[end] if times is not None else None
            if t_start is not None and (
                start_time is None or start_time < t_start or end_time > t_end
            ):
                continue
            found.append((trajectory_id, start, end, start_time, end_time))
    return found


def count(source, path: Sequence[Hashable]) -> int:
    """Occurrences of ``path`` (a path never spans a trajectory boundary)."""
    return len(locate(source, path))


def as_tuples(matches) -> list[Match]:
    """An engine's :class:`~repro.queries.strict_path.StrictPathMatch` list
    in :func:`locate`'s tuple form."""
    return [
        (m.trajectory_id, m.start_edge_index, m.end_edge_index, m.start_time, m.end_time)
        for m in matches
    ]


def extract(source, row: int, length: int) -> list[Hashable]:
    """Algorithm 4's answer: ``T[i - length, i)`` for ``i = SA[row]``, cyclic.

    ``T`` is ``rev(T_1) $ ... rev(T_N) $ #`` with edges numbered in order of
    first appearance after ``#`` (0) and ``$`` (1); the markers decode as
    ``"#"`` and ``"$"``.  Sorting the suffixes is quadratic, so keep the
    fleet small.
    """
    codes: dict[Hashable, int] = {}
    text: list[int] = []
    for edges, _ in trajectories_of(source):
        for edge in edges:
            codes.setdefault(edge, len(codes) + 2)
        text.extend(codes[edge] for edge in reversed(edges))
        text.append(1)
    text.append(0)
    names: dict[int, Hashable] = {0: "#", 1: "$"}
    names.update((code, edge) for edge, code in codes.items())
    n = len(text)
    position = sorted(range(n), key=lambda i: text[i:])[row]
    return [names[text[(position - length + k) % n]] for k in range(length)]
