"""Open-loop load for the serve workload: a seeded Poisson schedule and
a two-connection HTTP client that fires it.

The client is one process with two threads, each holding at most one
open connection (the server closes every connection after its
response).  A request is timed from when it was *due*, so a request
that waits for a free connection counts the wait.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from typing import Any, Dict, List, Tuple


def schedule(seed: int, n: int, rate: float, corpus_n: int) -> List[Tuple[float, int]]:
    """``[(due offset in seconds, document index), ...]`` sorted by time.

    Inter-arrival gaps are exponential at ``rate`` per second, drawn by
    stratified sampling: the ``n`` gaps are the exponential
    distribution's ``(k + 1/2) / n`` quantiles in a seeded random order.
    Every seed therefore offers exactly the Poisson gap distribution
    (same total span, same share of short gaps) and differs only in
    where the short gaps fall, which keeps run-to-run spread down
    without smoothing the load.  Document indices are uniform over the
    warm corpus.  Deterministic in its arguments."""
    rng = random.Random(f"perfbench-serve/{seed}")
    gaps = [-math.log(1.0 - (k + 0.5) / n) / rate for k in range(n)]
    rng.shuffle(gaps)
    out, t = [], 0.0
    for gap in gaps:
        t += gap
        out.append((t, rng.randrange(corpus_n)))
    return out


def request_id(i: int) -> str:
    return f"bench-{i:05d}"


def fire(
    host: str,
    port: int,
    plan: List[Tuple[float, int]],
    t0: float,
    connections: int = 2,
    timeout_s: float = 60.0,
) -> List[Dict[str, Any]]:
    """Send every request of ``plan`` at ``t0 + offset`` (monotonic
    clock) over at most ``connections`` concurrent connections and
    return one record per request, in schedule order:
    ``{"i", "index", "due", "sent", "end", "status", "body", "error"}``."""
    records: List[Dict[str, Any]] = [
        {"i": i, "index": index, "due": t0 + offset, "sent": None, "end": None,
         "status": None, "body": None, "error": None}
        for i, (offset, index) in enumerate(plan)
    ]
    lock = threading.Lock()
    cursor = iter(range(len(records)))

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            rec = records[i]
            delay = rec["due"] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            payload = json.dumps({"index": rec["index"], "request_id": request_id(i)})
            rec["sent"] = time.monotonic()
            conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
            try:
                conn.request("POST", "/extract", body=payload,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                body = resp.read()
                rec["end"] = time.monotonic()
                rec["status"] = resp.status
                rec["body"] = body.decode("utf-8", "replace")
            except (OSError, http.client.HTTPException) as exc:
                rec["end"] = time.monotonic()
                rec["error"] = type(exc).__name__
            finally:
                conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout_s + (plan[-1][0] if plan else 0.0) + 30.0)
        if t.is_alive():
            raise TimeoutError("load generator thread did not finish")
    return records


def http_get(host: str, port: int, path: str, timeout_s: float = 5.0) -> int:
    """Status of ``GET path`` (raises ``OSError`` when unreachable)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        resp.read()
        return resp.status
    finally:
        conn.close()
