"""Brute-force answers over the raw trajectories, for checking the server.

:class:`Oracle` never touches an index.  It concatenates the benchmark's
dense-int trajectories into one array with ``-1`` separators and answers
each query by scanning: the candidate starts of a path are the positions of
its first edge (one ``argsort`` of the text, done before timing), and every
further edge filters them with one vectorized comparison.  Paths of one
length are scanned together, so checking a whole run takes a fraction of a
second.

What it checks, per query kind:

* ``count``       -- occurrences of the path;
* ``contains``    -- ``count > 0``;
* ``locate``      -- the set of ``(trajectory, first edge, last edge)``
  matches and their timestamps;
* ``strict_path`` -- the located matches whose traversal lies inside the
  ``[t_start, t_end]`` window;
* ``extract``     -- every separator-free run of the decoded symbols occurs
  in the raw trajectories (in travel order or reversed: the engine extracts
  from its stored text, which is the trajectories reversed).

:class:`IngestOracle` adds the ingest stream: it answers counts over the
seed trajectories plus the first ``k`` ingested batches, for every ``k``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Separator between trajectories in the scanned text (never an edge id).
SEPARATOR = -1


class Oracle:
    """Answers path queries by scanning the raw trajectories."""

    def __init__(
        self,
        trajectories: Sequence[Sequence[int]],
        timestamps: Sequence[Sequence[float]] | None = None,
        max_path: int = 64,
    ):
        lengths = np.asarray([len(t) for t in trajectories], dtype=np.int64)
        starts = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
        total = int(lengths.sum() + lengths.size)
        # ``max_path`` trailing separators let every scan index ``pos + k``
        # without a bounds check.
        text = np.full(total + max_path, SEPARATOR, dtype=np.int64)
        owner = np.full(text.size, -1, dtype=np.int64)
        for tid, trajectory in enumerate(trajectories):
            start = int(starts[tid])
            text[start : start + len(trajectory)] = trajectory
            owner[start : start + len(trajectory)] = tid
        self.max_path = max_path
        self._text = text
        self._owner = owner
        self._starts = starts
        order = np.argsort(text, kind="stable")
        self._order = order
        self._sorted = text[order]
        self._timestamps = (
            None if timestamps is None else [np.asarray(t, dtype=np.float64) for t in timestamps]
        )

    # ------------------------------------------------------------------ #
    # scanning
    # ------------------------------------------------------------------ #
    def occurrences_many(self, paths: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """Text start positions of every path (ascending), one array each."""
        out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(paths)
        by_length: dict[int, list[int]] = {}
        for i, path in enumerate(paths):
            if not 0 < len(path) <= self.max_path:
                raise ValueError(f"path length {len(path)} outside [1, {self.max_path}]")
            by_length.setdefault(len(path), []).append(i)
        for length, members in by_length.items():
            pats = np.asarray([paths[i] for i in members], dtype=np.int64)
            lo = np.searchsorted(self._sorted, pats[:, 0], side="left")
            hi = np.searchsorted(self._sorted, pats[:, 0], side="right")
            sizes = hi - lo
            owner = np.repeat(np.arange(len(members)), sizes)
            # Position j of the concatenated candidate list maps to
            # order[lo[owner] + (j - first index of owner's block)].
            block_start = np.cumsum(sizes) - sizes
            rank = np.arange(int(sizes.sum())) - np.repeat(block_start, sizes)
            cand = self._order[np.repeat(lo, sizes) + rank]
            for k in range(1, length):
                keep = self._text[cand + k] == pats[owner, k]
                cand, owner = cand[keep], owner[keep]
            split = np.searchsorted(owner, np.arange(len(members) + 1))
            for j, i in enumerate(members):
                out[i] = np.sort(cand[split[j] : split[j + 1]])
        return out

    def count_many(self, paths: Sequence[Sequence[int]]) -> list[int]:
        """Occurrences of every path."""
        return [int(found.size) for found in self.occurrences_many(paths)]

    def count(self, path: Sequence[int]) -> int:
        return self.count_many([path])[0]

    def locate_many(
        self, paths: Sequence[Sequence[int]]
    ) -> list[list[tuple[int, int, int, float | None, float | None]]]:
        """``(trajectory, first edge, last edge, start time, end time)`` per match."""
        located = []
        for path, found in zip(paths, self.occurrences_many(paths)):
            tids = self._owner[found]
            firsts = found - self._starts[tids]
            matches = []
            for tid, first in zip(tids.tolist(), firsts.tolist()):
                last = first + len(path) - 1
                if self._timestamps is None:
                    matches.append((tid, first, last, None, None))
                else:
                    times = self._timestamps[tid]
                    matches.append((tid, first, last, float(times[first]), float(times[last])))
            located.append(sorted(matches))
        return located

    @staticmethod
    def in_window(
        matches: Sequence[tuple[int, int, int, float | None, float | None]],
        t_start: float,
        t_end: float,
    ) -> list[tuple[int, int, int, float | None, float | None]]:
        """Strict-path semantics: the whole traversal lies inside the window."""
        return [
            m for m in matches
            if m[3] is not None and m[4] is not None and m[3] >= t_start and m[4] <= t_end
        ]

    def extract_ok_many(self, decoded: Sequence[Sequence[object]]) -> list[bool]:
        """True per answer when each separator-free run occurs in the trajectories.

        ``decoded`` holds the edges of an extraction, with the engine's
        ``"$"``/``"#"`` markers between trajectories.  A run passes when it
        occurs in travel order or reversed.
        """
        runs: list[list[int]] = []
        owners: list[int] = []
        for i, edges in enumerate(decoded):
            run: list[int] = []
            for edge in list(edges) + ["$"]:
                if isinstance(edge, int) and not isinstance(edge, bool):
                    run.append(edge)
                    continue
                if run:
                    runs.append(run)
                    owners.append(i)
                run = []
        forward = self.count_many(runs)
        backward = self.count_many([run[::-1] for run in runs])
        ok = [True] * len(decoded)
        for owner, f, b in zip(owners, forward, backward):
            if f == 0 and b == 0:
                ok[owner] = False
        return ok


class IngestOracle:
    """Counts over the seed trajectories plus a prefix of the ingest batches."""

    def __init__(
        self,
        seed: Oracle,
        ingest: Sequence[Sequence[int]],
        batch_size: int,
    ):
        self._seed = seed
        self._ingest = Oracle(ingest, max_path=seed.max_path)
        self._batch_of = np.arange(len(ingest), dtype=np.int64) // batch_size
        self.n_batches = int(self._batch_of[-1]) + 1 if len(ingest) else 0

    def prefix_counts_many(self, paths: Sequence[Sequence[int]]) -> np.ndarray:
        """``out[i, k]`` = count of path ``i`` after the first ``k`` batches."""
        base = np.asarray(self._seed.count_many(paths), dtype=np.int64)
        out = np.zeros((len(paths), self.n_batches + 1), dtype=np.int64)
        owner = self._ingest._owner
        for i, found in enumerate(self._ingest.occurrences_many(paths)):
            per_batch = np.bincount(
                self._batch_of[owner[found]], minlength=self.n_batches
            )
            out[i, 1:] = np.cumsum(per_batch)
        return out + base[:, None]


Match = tuple[int, int, int, "float | None", "float | None"]


def _json_matches(payload: dict) -> list[Match]:
    return sorted(
        (m["trajectory_id"], m["start_edge_index"], m["end_edge_index"], m["start_time"], m["end_time"])
        for m in payload["matches"]
    )


def wrong_http_answers(samples, oracle: Oracle, ingest: IngestOracle | None = None) -> int:
    """Wrong answers among the successful HTTP samples of one run.

    With ``ingest`` given, a count must equal the oracle count after some
    prefix of the ingest stream between the batches acknowledged before it
    was sent and the batches sent before its reply arrived.
    """
    answered = [s for s in samples if s.ok]
    wrong = 0
    searches = [s for s in answered if s.doc.get("type") in ("count", "contains")]
    paths = sorted({tuple(s.doc["path"]) for s in searches})
    slot = {path: i for i, path in enumerate(paths)}
    if ingest is not None:
        table = ingest.prefix_counts_many(paths) if paths else np.zeros((0, 1), dtype=np.int64)
    else:
        table = np.asarray(oracle.count_many(paths), dtype=np.int64)[:, None]
    for s in searches:
        row = table[slot[tuple(s.doc["path"])]]
        lo = min(s.acked_before, row.size - 1)
        hi = min(s.sent_before_reply, row.size - 1)
        allowed = row[lo : hi + 1]
        if s.doc["type"] == "count":
            wrong += int(s.payload.get("count") not in allowed.tolist())
        else:
            wrong += int(s.payload.get("found") not in [bool(c) for c in allowed.tolist()])
    located = [s for s in answered if s.doc.get("type") in ("locate", "strict_path")]
    expected = oracle.locate_many([s.doc["path"] for s in located])
    for s, matches in zip(located, expected):
        if s.doc["type"] == "strict_path":
            matches = oracle.in_window(matches, s.doc["t_start"], s.doc["t_end"])
        wrong += int(_json_matches(s.payload) != matches)
    extracts = [s for s in answered if s.doc.get("type") == "extract"]
    ok = oracle.extract_ok_many([s.payload["edges"] for s in extracts])
    wrong += sum(1 for s, good in zip(extracts, ok) if not good or len(s.payload["edges"]) != s.doc["length"])
    for s in answered:
        if "trajectories" in s.doc:
            wrong += int(s.payload.get("added") != len(s.doc["trajectories"]))
    return wrong


def wrong_batch_answers(records, spec, oracle: Oracle) -> int:
    """Wrong answers among batch-scan records ``(batch, start, end, answers)``."""
    searches: list[tuple[str, tuple, object]] = []
    locates: list[tuple[tuple, object]] = []
    extracts: list[tuple[int, object]] = []
    for index, _start, _end, answers in records:
        for (kind, target, length), answer in zip(spec.batch(index), answers):
            if kind in ("count", "contains"):
                searches.append((kind, target, answer))
            elif kind == "locate":
                locates.append((target, answer))
            else:
                extracts.append((length, answer))
    wrong = 0
    paths = sorted({target for _, target, _ in searches})
    counts = dict(zip(paths, oracle.count_many(paths)))
    for kind, target, answer in searches:
        expected = counts[target] if kind == "count" else counts[target] > 0
        wrong += int(answer != expected)
    for (target, answer), matches in zip(locates, oracle.locate_many([t for t, _ in locates])):
        wrong += int(sorted(answer) != matches)
    ok = oracle.extract_ok_many([answer for _, answer in extracts])
    wrong += sum(1 for (length, answer), good in zip(extracts, ok) if not good or len(answer) != length)
    return wrong


__all__ = ["IngestOracle", "Oracle", "SEPARATOR", "wrong_batch_answers", "wrong_http_answers"]
