"""Per-request records of perfbench_loadgen and the accounting done on them:
latency from the due time (open loop) or from the send (closed loop), and
the generator's own lateness."""

import math
from collections import namedtuple

from . import stats

Record = namedtuple(
    "Record", "lane idx due ready sent done connect status engine degraded value")

# The generator counts as behind its schedule when its median lateness
# exceeds this: a backlog that grows moves the median, while the short
# stalls a shared host gives every thread only move the tail (which is
# reported as load.lag_p99_ms). Such a run is marked invalid.
LAG_LIMIT_MS = 1.0


def parse_line(line):
    lane, idx, due, ready, sent, done, connect, status, engine, degraded, value = line.split()
    return Record(int(lane), int(idx), int(due), int(ready), int(sent), int(done), int(connect),
                  status, engine, degraded == "1", value)


def read(path):
    with open(path) as f:
        return [parse_line(line) for line in f if line.strip()]


def latency_ms(record):
    """From the moment the request was due to its reply; a request that
    failed or was refused counts as missing every latency limit (inf)."""
    if record.status != "ok" or record.done < 0:
        return math.inf
    return (record.done - record.due) / 1e6


def round_trip_ms(record):
    """From sending the request to its reply (the closed loop's latency); a
    request that failed or was refused counts as missing every limit (inf)."""
    if record.status != "ok" or record.done < 0:
        return math.inf
    return (record.done - record.sent) / 1e6


def lateness_ms(record):
    """How late the generator sent the request after it could: after its due
    time and the previous reply on its connection (connect time excluded,
    that is the server's share)."""
    return max(0, record.sent - record.connect - record.ready) / 1e6


def lag_summary(records):
    """p50/p99/max lateness and whether the generator fell behind."""
    lags = [lateness_ms(r) for r in records]
    if not lags:
        return {"samples": 0, "p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0, "behind": True}
    p99 = stats.quantile(lags, 0.99)
    return {"samples": len(lags), "p50_ms": stats.median(lags), "p99_ms": p99,
            "max_ms": max(lags), "behind": stats.median(lags) > LAG_LIMIT_MS}
