"""HTTP load generation and latency statistics for the serve workload.

The generator is one process with at most two threads, so at most two
connections are open at once.  Request bodies are encoded before any
clock starts, so the generator never measures its own encoding.

- **Open loop**: request ``i`` is due at ``start + i / rate`` whatever the
  server does.  Latency runs from the due time, so a stall is charged to
  every request it delays; how late the generator sent is reported too.
- **Closed loop**: each caller sends its next request only after the
  previous reply, so throughput is the server's capacity at that
  concurrency.
"""

from __future__ import annotations

import http.client
import math
import socket
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

__all__ = [
    "Exchange",
    "closed_loop",
    "due_times",
    "latencies_ms",
    "lateness_ms",
    "open_loop",
    "percentile",
    "resolvable_percentile",
]

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(count: int, pct: float) -> int:
    """1-based rank of the ``pct`` percentile among ``count`` samples.

    The tolerance absorbs float error (``99.9 / 100 * 10000`` is not
    exactly 9990).
    """
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - nearest_rank(count, pct)


def resolvable_percentile(count: int) -> float | None:
    """Highest of :data:`PERCENTILES` with >= 10 samples beyond it."""
    best = None
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (a measured value, never interpolated)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def due_times(start: float, rate: float, count: int) -> list[float]:
    """When each open-loop request is due: a fixed schedule from ``start``."""
    return [start + index / rate for index in range(count)]


@dataclass
class Exchange:
    """One request: when it was due, sent and answered, and its reply."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def latencies_ms(exchanges: Sequence[Exchange]) -> list[float]:
    """Latency of each request in ms, from its due time.

    A refused or failed request (status other than 200) misses every
    latency limit: its latency is infinite.
    """
    return [ex.latency * 1e3 if ex.status == 200 else math.inf for ex in exchanges]


def lateness_ms(exchanges: Sequence[Exchange]) -> dict[str, float]:
    """How late the generator sent: median and worst, in ms."""
    late = [max(0.0, ex.lateness) * 1e3 for ex in exchanges]
    return {"late_p50_ms": percentile(late, 50.0), "late_max_ms": max(late)}


def request(host: str, port: int, path: str, body: bytes | None) -> tuple[int, bytes]:
    """One request on a fresh TCP connection; ``(status, reply)``.

    A fresh connection per request is what the program's own client
    (``repro.serve.client.ServeClient``, via urllib) does; ``TCP_NODELAY``
    is what common HTTP clients (urllib3, for one) set.  ``body=None``
    sends a GET.
    """
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.connect()
        # Bodies above 2 kB go out as a header send and a body send; with
        # Nagle on, the body can wait for a delayed ACK of the headers.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if body is None:
            conn.request("GET", path)
        else:
            conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _run_threads(targets: list[Callable[[], None]]) -> None:
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                target()
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        return run

    threads = [threading.Thread(target=guarded(target)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(
    send: Callable[[bytes], tuple[int, bytes]],
    bodies: Sequence[bytes],
    rate: float,
    count: int,
    callers: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Exchange]:
    """Send ``count`` requests on a fixed schedule of ``rate`` per second.

    Request ``i`` carries ``bodies[i % len(bodies)]``.  Whichever caller
    is free takes the next due request, so one slow reply delays at most
    the requests behind it on that caller.
    """
    start = clock() + 0.05
    dues = due_times(start, rate, count)
    exchanges: list[Exchange | None] = [None] * count
    lock = threading.Lock()
    cursor = iter(range(count))

    def caller() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            wait = dues[index] - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, reply = send(bodies[index % len(bodies)])
            exchanges[index] = Exchange(index, dues[index], sent, clock(), status, reply)

    _run_threads([caller] * callers)
    return [ex for ex in exchanges if ex is not None]


def closed_loop(
    send: Callable[[bytes], tuple[int, bytes]],
    bodies: Sequence[bytes],
    count: int,
    callers: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[float, list[Exchange]]:
    """``callers`` back-to-back senders; returns (elapsed seconds, exchanges)."""
    exchanges: list[Exchange | None] = [None] * count

    def caller(offset: int) -> None:
        for index in range(offset, count, callers):
            sent = clock()
            status, reply = send(bodies[index % len(bodies)])
            exchanges[index] = Exchange(index, sent, sent, clock(), status, reply)

    start = clock()
    _run_threads([lambda i=i: caller(i) for i in range(callers)])
    elapsed = clock() - start
    return elapsed, [ex for ex in exchanges if ex is not None]
