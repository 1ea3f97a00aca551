"""The HTTP load generator: one process, one asyncio thread, two connections.

Every request opens its own connection (the server answers with
``Connection: close``) and at most :data:`MAX_CONNECTIONS` are open at once,
shared by every lane of a workload.  Two loop shapes drive the server:

* :func:`open_loop` sends each request at its due time from an arrival
  schedule, whether or not earlier answers came back.  Latency is measured
  from the *due* time, so a stall also counts against every request queued
  behind it, and the generator's own lateness is kept as ``lag``.
* :func:`closed_loop` keeps both connections busy: each of two callers sends
  its next request as soon as its previous answer arrives.

:func:`ingest_lane` posts the ingest stream on a uniform schedule, one batch
at a time, and keeps the two counters the linearizability check needs:
batches acknowledged and batches sent.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Sequence

MAX_CONNECTIONS = 2

#: The clock every timestamp of the benchmark uses.  On Linux it is
#: CLOCK_MONOTONIC, shared by all processes, so server-side spans and
#: client-side samples can be compared directly.
now = time.monotonic

#: The selector sleeps in whole milliseconds, so the last stretch before a
#: due time yields to the loop instead of sleeping.
_SPIN_S = 0.0012


async def wait_until(due: float) -> None:
    """Return at ``due``, keeping the loop serving other tasks meanwhile."""
    delay = due - now()
    if delay > _SPIN_S:
        await asyncio.sleep(delay - _SPIN_S)
    while now() < due:
        await asyncio.sleep(0)


@dataclass
class Sample:
    """One request as the client saw it."""

    doc: dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: object = None
    lag: float = 0.0
    #: both connections were busy when the request was due
    queued: bool = False
    #: ingest batches acknowledged before this request was sent
    acked_before: int = 0
    #: ingest batches sent before this request's reply arrived
    sent_before_reply: int = 0

    @property
    def latency(self) -> float:
        """Seconds from due time to the last byte of the answer."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from connection start to the last byte of the answer."""
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        return self.status == 200


class LoadClient:
    """Sends JSON requests to one server with a shared connection cap."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self._host = host
        self._port = port
        self._slots = asyncio.Semaphore(MAX_CONNECTIONS)
        self.ingest_sent = 0
        self.ingest_acked = 0

    async def send(self, sample: Sample, method: str, route: str, body: bytes = b"") -> Sample:
        """Send one request and fill in ``sample`` (never raises on I/O errors).

        An ingest batch takes every connection slot, so no read is in flight
        while the server applies it: a read that overlaps ``add_batch`` can
        leave a result computed on the old contents in the result cache
        (see README.md), and the benchmark measures the system where it
        answers correctly.
        """
        head = (
            f"{method} {route} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        is_ingest = route == "/ingest"
        held = MAX_CONNECTIONS if is_ingest else 1
        sample.queued = self._slots.locked()
        for _ in range(held):
            await self._slots.acquire()
        try:
            sample.sent = now()
            sample.acked_before = self.ingest_acked
            if is_ingest:
                self.ingest_sent += 1
            try:
                reader, writer = await asyncio.open_connection(self._host, self._port)
                try:
                    writer.write(head + body)
                    raw = await reader.read()
                finally:
                    writer.close()
            except OSError:
                raw = b""
            sample.done = now()
        finally:
            for _ in range(held):
                self._slots.release()
        sample.sent_before_reply = self.ingest_sent
        header, _, content = raw.partition(b"\r\n\r\n")
        status_line = header.split(b"\r\n", 1)[0].split()
        sample.status = int(status_line[1]) if len(status_line) >= 2 else 0
        try:
            sample.payload = json.loads(content) if content else None
        except ValueError:
            sample.status = 0
        if is_ingest and sample.ok:
            self.ingest_acked += 1
        return sample

    async def get(self, route: str) -> object:
        """A ``GET`` outside any measurement (``/stats``)."""
        sample = await self.send(Sample({}, now()), "GET", route)
        if not sample.ok:
            raise RuntimeError(f"GET {route} failed with status {sample.status}")
        return sample.payload


async def open_loop(
    client: LoadClient,
    offsets: Sequence[float],
    docs: Sequence[dict],
    bodies: Sequence[bytes],
    start: float,
) -> list[Sample]:
    """Send ``bodies[i]`` at ``start + offsets[i]``; latency counts from then."""
    tasks = []
    for offset, doc, body in zip(offsets, docs, bodies):
        due = start + float(offset)
        await wait_until(due)
        sample = Sample(doc, due, lag=max(now() - due, 0.0))
        tasks.append(asyncio.ensure_future(client.send(sample, "POST", "/query", body)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    client: LoadClient,
    docs: Sequence[dict],
    bodies: Sequence[bytes],
    seconds: float,
    limit: int | None = None,
) -> tuple[list[Sample], float]:
    """Two back-to-back senders for ``seconds`` (or ``limit`` requests).

    Returns the samples and the span from the start to the last answer, so
    requests still in flight at the deadline are counted in full.
    """
    start = now()
    deadline = start + seconds
    samples: list[Sample] = []
    cursor = 0

    async def caller() -> None:
        nonlocal cursor
        while now() < deadline and (limit is None or cursor < limit):
            i = cursor % len(bodies)
            cursor += 1
            sample = await client.send(Sample(docs[i], now()), "POST", "/query", bodies[i])
            samples.append(sample)

    await asyncio.gather(*(caller() for _ in range(MAX_CONNECTIONS)))
    end = max((s.done for s in samples), default=now())
    return samples, end - start


async def ingest_lane(
    client: LoadClient,
    offsets: Sequence[float],
    docs: Sequence[dict],
    bodies: Sequence[bytes],
    start: float,
    stop: float,
) -> list[Sample]:
    """Post ingest batches in order, each at its due time and after the last ack.

    Stops at ``stop``, at the end of the stream, or after the first failed
    batch (later counts would no longer match a prefix of the stream).
    """
    samples = []
    for offset, doc, body in zip(offsets, docs, bodies):
        due = start + float(offset)
        if due >= stop:
            break
        await wait_until(due)
        sample = Sample(doc, due, lag=max(now() - due, 0.0))
        samples.append(await client.send(sample, "POST", "/ingest", body))
        if not sample.ok:
            break
    return samples


__all__ = [
    "LoadClient",
    "MAX_CONNECTIONS",
    "Sample",
    "closed_loop",
    "ingest_lane",
    "now",
    "open_loop",
]
