"""The serve_kernel workload: ddm_serve at its default configuration, driven
by perfbench_loadgen through alternating open-loop and closed-loop rounds."""

import math
import os
import random
import re
import select
import socket
import subprocess
import threading
import time

from . import gate, host, prom, records, refs, spans, stats

# Instances whose plan certificate misses 1e-9, so auto sends them to the
# batch kernel: few, heavy requests on long-lived connections. Three in four
# requests are n = 12, so the median and the tail both fall in that
# instance's latency and not in the gap between the two instances.
INSTANCES = [(12, "4", 144), (11, "11/3", 48)]  # (n, t, β points)
BETA_LO, BETA_SPAN, BETA_JITTER = 0.3, 0.4, 0.02
ENGINE = "batch"      # the engine auto should answer with
LANES = 4             # connections in either phase
OPEN_RATE = 100.0     # req/s offered in the open loop
# In the closed loop one of the LANES connections reconnects before each of
# its requests, paced at this rate, so the connections a run opens are fixed.
# Being paced, it is left out of the gated closed-loop figures.
CHURN_RATE = 40.0

OPEN_SHARE = 0.4      # of --seconds; the closed-loop phase gets the rest
WARMUP_S = 1.0        # closed-loop warm-up before the measured phases
ROUNDS = 8            # rounds per phase; each metric is a quartile over rounds
SETUPS_PER_ROUND = 2  # cold daemon starts per round; setup_s is their median
TAIL = 0.9            # the reported tail percentile of latency
ENGINES = ("compiled", "batch", "exact", "certified", "kernel", "mc")


def request_table(seed, work):
    """Seeded β lattice per instance, with exact references and the compiled
    plans' certificates: [(body, n, t, reference)] and {(n, t): bound}."""
    rng = random.Random("serve_kernel/%d" % seed)
    grids = []
    for n, t, points in INSTANCES:
        lo = BETA_LO + round(rng.random() * BETA_JITTER, 4)
        grids.append((n, t, "%.4f" % lo, "%.4f" % (lo + BETA_SPAN), points))
    jobs = [lambda g=g: refs.exact_grid(work, "%d_%s" % (g[0], g[1].replace("/", "_")),
                                        g[0], g[1], g[2], g[3], g[4] - 1) for g in grids]
    jobs.append(lambda: refs.plan_certificates(work, [(n, t) for n, t, _ in INSTANCES]))
    results = refs.parallel(jobs)
    certs = results.pop()
    table = []
    for (n, t, _, _, _), rows in zip(grids, results):
        for beta, ref in rows:
            body = '"op":"threshold","n":%d,"t":"%s","beta":%r' % (n, t, beta)
            table.append((body, n, t, ref))
    rng.shuffle(table)
    return table, certs


class Daemon:
    """One ddm_serve process; setup time is exec to its `listening on` line."""

    def __init__(self, work, tag):
        self.err = open(os.path.join(work, "serve-%s.err" % tag), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen([host.tool("ddm_serve")], stdout=subprocess.PIPE,
                                     stderr=self.err, env=host.child_env(), cwd=host.ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.setup_s = time.perf_counter() - start
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            self.stop()
            raise host.BenchError("ddm_serve did not announce readiness: %r" % line)
        self.port = int(m.group(1))

    def metrics(self):
        with socket.create_connection(("127.0.0.1", self.port), timeout=10) as s:
            s.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
            chunks = []
            while True:
                data = s.recv(65536)
                if not data:
                    break
                chunks.append(data)
        text = b"".join(chunks).decode()
        return prom.parse(text.split("\r\n\r\n", 1)[-1])

    def stop(self):
        code = host.stop(self.proc)
        self.proc.stdout.close()
        self.err.close()
        return code


class Sampler(threading.Thread):
    """Polls the daemon's /proc status: peak thread count and RSS."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.threads_peak = 0
        self.halt = threading.Event()

    def run(self):
        while not self.halt.is_set():
            self.threads_peak = max(self.threads_peak,
                                    host.proc_status(self.pid).get("Threads", 0))
            self.halt.wait(0.05)

    def finish(self):
        self.halt.set()
        self.join()


def loadgen(daemon, work, tag, table_path, seed, mode, seconds, lanes, pacing):
    """One loadgen phase; `pacing` is the offered rate in the open loop and
    the reconnecting connection's rate in the closed loop (0: none)."""
    out = os.path.join(work, tag + ".records")
    cmd = [host.tool("perfbench_loadgen"), "--port=%d" % daemon.port,
           "--requests=" + table_path, "--out=" + out, "--seed=%d" % seed,
           "--mode=" + mode, "--seconds=%g" % seconds, "--lanes=%d" % lanes,
           ("--rate=%g" if mode == "open" else "--churn-rate=%g") % pacing]
    _, code, _ = host.run_timed(cmd, out + ".stdout", out + ".stderr", seconds + 60.0)
    if code != 0:
        with open(out + ".stderr") as f:
            raise host.BenchError("perfbench_loadgen failed: " + f.read()[-300:])
    return records.read(out)


def check_replies(recs, table, certs):
    """Counts failures (non-OK, hang, malformed, or outside the answering
    engine's tolerance of the exact reference) and tolerance misses."""
    failed = misses = 0
    verdicts = {}  # replies repeat: one exact comparison per distinct answer
    for r in recs:
        if r.status != "ok":
            failed += 1
            continue
        key = (r.idx, r.engine, r.value)
        if key not in verdicts:
            _, n, t, ref = table[r.idx]
            try:
                tol = gate.engine_tolerance(r.engine, certificate=certs.get((n, t)))
                verdicts[key] = gate.within(float(r.value), ref, tol)
            except (KeyError, ValueError):
                verdicts[key] = False
        if not verdicts[key]:
            failed += 1
            misses += 1
    return failed, misses


def run(seed, seconds, trace, summary):
    work = host.work_dir("serve_kernel-%d-%d" % (seed, trace))
    open_s, closed_s = seconds * OPEN_SHARE, seconds * (1 - OPEN_SHARE)
    table, certs = request_table(seed, work)
    table_path = os.path.join(work, "requests.txt")
    with open(table_path, "w") as f:
        f.write("".join(body + "\n" for body, _, _, _ in table))

    daemon = Daemon(work, "measured")
    setups = [daemon.setup_s]
    scrapes = {}
    try:
        warm = loadgen(daemon, work, "warmup", table_path, seed + 7, "closed", WARMUP_S, LANES, 0.0)
        warm_failed, _ = check_replies(warm, table, certs)
        if warm_failed:
            raise host.BenchError("%d warm-up requests failed" % warm_failed)
        if trace:
            scrapes["begin"] = daemon.metrics()
        rss_before = host.proc_status(daemon.proc.pid).get("VmRSS", 0)
        sampler = Sampler(daemon.proc.pid)
        sampler.start()
        # The phases alternate in rounds, each on fresh connections, so a
        # burst of interference from outside or one unlucky placement of the
        # connection threads moves one round, not the quartile over rounds.
        open_sets, closed_sets = [], []
        for k in range(ROUNDS):
            # More cold starts, spread over the run like the rounds (the
            # measured daemon sits idle meanwhile).
            for _ in range(SETUPS_PER_ROUND):
                probe = Daemon(work, "setup%d" % len(setups))
                setups.append(probe.setup_s)
                if probe.stop() != 0:
                    raise host.BenchError("ddm_serve did not drain cleanly")
            open_sets.append(loadgen(daemon, work, "open%d" % k, table_path, seed * 100 + k,
                                     "open", open_s / ROUNDS, LANES, OPEN_RATE))
            closed_sets.append(loadgen(daemon, work, "closed%d" % k, table_path,
                                       seed * 100 + 50 + k, "closed", closed_s / ROUNDS,
                                       LANES - 1, CHURN_RATE))
        if trace:
            scrapes["end"] = daemon.metrics()
        sampler.finish()
        status = host.proc_status(daemon.proc.pid)
    finally:
        if daemon.stop() != 0:
            raise host.BenchError("ddm_serve did not drain cleanly")

    open_recs = [r for recs in open_sets for r in recs]
    closed_recs = [r for recs in closed_sets for r in recs]
    all_recs = open_recs + closed_recs
    failed, misses = check_replies(all_recs, table, certs)
    lag = records.lag_summary(open_recs)
    # Latency and throughput come from the closed loop, round by round, on
    # the persistent connections; the paced reconnecting one is reported
    # apart, in the run record and through net.connect_ms.
    round_s = closed_s / ROUNDS
    trips = [[records.round_trip_ms(r) for r in recs if r.lane >= 0] for recs in closed_sets]
    sizes = [len(t) for t in trips]
    p50s = [stats.median(t) if t else math.inf for t in trips]
    tails = [stats.quantile(t, TAIL) if t else math.inf for t in trips]
    rates = [sum(1 for r in recs if r.lane >= 0 and r.status == "ok") / round_s
             for recs in closed_sets]
    churn_trips = [[records.round_trip_ms(r) for r in recs if r.lane < 0]
                   for recs in closed_sets]
    open_latency = [records.latency_ms(r) for r in open_recs]
    answered = [r for r in all_recs if r.status == "ok"]
    summary.update({
        "setup_s_samples": setups, "closed_round_samples": sizes,
        "tail_samples_beyond": [stats.samples_beyond(n, TAIL) for n in sizes],
        "closed_round_p50_ms": p50s, "closed_round_p90_ms": tails,
        "closed_round_ops_s": rates,
        "churn_round_p50_ms": [stats.median(t) if t else math.inf for t in churn_trips],
        "churn_round_ops_s": [sum(1 for x in t if x < math.inf) / round_s for t in churn_trips],
        "open_samples": len(open_latency),
        "open_p50_ms": stats.median(open_latency),
        "open_p90_ms": stats.quantile(open_latency, TAIL),
        "open_p99_ms": stats.quantile(open_latency, 0.99),
        "lag": lag, "tolerance_misses": misses,
        "engine_counts": {e: sum(1 for r in answered if r.engine == e) for e in ENGINES},
    })
    tail_ok = all(stats.tail_ok(n, TAIL) for n in sizes)
    intended = summary["engine_counts"][ENGINE] / max(1, len(answered))
    if intended < 0.99:
        host.log("note: only %.1f%% of replies came from the %s engine this workload was "
                 "chosen for" % (100 * intended, ENGINE))
    result = {
        "attempted": len(all_recs), "failed": failed,
        "valid": misses == 0 and not lag["behind"] and tail_ok,
        "metrics": {
            "setup_s": (stats.median(setups), "s"),
            "throughput_ops_s": (stats.better_quartile(rates, True), "1/s"),
            "latency_p50_ms": (stats.better_quartile(p50s, False), "ms"),
            "latency_p90_ms": (stats.better_quartile(tails, False), "ms"),
            "peak_rss_mb": (status.get("VmHWM", 0) / 1024.0, "MB"),
        },
    }
    if lag["behind"]:
        host.log("run invalid: generator median lateness %.3f ms > %.1f ms"
                 % (lag["p50_ms"], records.LAG_LIMIT_MS))
    if trace:
        result["layers"] = layers(work, table_path, open_recs, all_recs, answered, scrapes, lag,
                                  rss_before, status, sampler.threads_peak, summary)
    return result


def layers(work, table_path, open_recs, all_recs, answered, scrapes, lag, rss_before, status,
           threads_peak, summary):
    """Per-layer metrics of a traced serve run: /metrics deltas across both
    phases (M), client-side measurements (C) and the traced replay (T)."""
    before, after = scrapes["begin"], scrapes["end"]
    d = lambda metric: prom.delta(before, after, metric)
    r = lambda num, den: prom.ratio(before, after, num, den)
    churn = [x for x in all_recs if x.lane < 0]
    connect_ms = [x.connect / 1e6 for x in churn] or [0.0]
    server_s = d("serve_request_seconds_sum")
    client_s = sum((x.done - x.sent) / 1e9 for x in all_recs if x.done >= 0)

    stream_path = os.path.join(work, "stream.txt")
    with open(stream_path, "w") as f:
        f.write("".join("%d\n" % x.idx for x in sorted(open_recs, key=lambda x: x.due)))
    prefix = os.path.join(work, "trace")
    cmd = [host.tool("perfbench_trace"), "serve", "--requests=" + table_path,
           "--stream=" + stream_path, "--out=" + prefix]
    _, code, _ = host.run_timed(cmd, prefix + ".stdout", prefix + ".stderr", 120.0)
    if code != 0:
        with open(prefix + ".stderr") as f:
            raise host.BenchError("perfbench_trace failed: " + f.read()[-300:])
    traced = spans.read(prefix + ".spans")
    durations = spans.by_name(traced)
    passes = read_passes(prefix + ".passes")
    direct = [prom.parse(open("%s.direct.%s.prom" % (prefix, e)).read())
              for e in ("before", "after")]
    mean_us = lambda span: 1e6 * stats.mean(durations[span]) if durations.get(span) else 0.0
    direct_s = lambda span: sum(durations.get(span, []))

    # Per request the replay timed handle_line, evaluate_resilient and the
    # selected engine's own evaluate back to back, so the differences of one
    # request id are the net and engine layers' own time, free of drift
    # between passes. The run record gives their standard errors; a mean
    # within two of them of zero is marked unresolved.
    engine_calls = {name for name in durations
                    if name == "poly.compiled" or name.startswith("core.")}
    service_k = spans.per_request(traced, {"net.service"})
    evaluate_k = spans.per_request(traced, {"engine.evaluate"})
    own = {"net": spans.paired_differences(service_k, evaluate_k),
           "engine": spans.paired_differences(evaluate_k, spans.per_request(traced, engine_calls))}
    summary["own_time_us"] = {
        layer: {"samples": len(v), "mean": 1e6 * stats.mean(v), "stderr": 1e6 * stats.stderr(v),
                "resolved": abs(stats.mean(v)) > 2 * stats.stderr(v)}
        for layer, v in own.items()}
    # Split the server's time by the replay's proportions; transport is what
    # the client saw beyond the server's own request time. An own time that
    # the replay measures below zero counts as none.
    requests = len(service_k)
    service = sum(service_k.values()) / requests
    kernel = {"poly": direct_s("poly.compiled") / requests,
              "core": sum(direct_s(name) for name in engine_calls if name.startswith("core."))
              / requests}
    per_request = server_s / max(1.0, d("serve_request_seconds_count"))
    latency = client_s / max(1, len([x for x in all_recs if x.done >= 0]))
    self_s = {
        "transport": max(0.0, latency - per_request),
        "net": per_request * max(0.0, stats.mean(own["net"])) / service,
        "engine": per_request * max(0.0, stats.mean(own["engine"])) / service,
        "poly": per_request * kernel["poly"] / service,
        "core": per_request * kernel["core"] / service,
        "cli": 0.0,
    }
    out = common_layers([x.engine for x in answered], sum(1 for x in answered if x.degraded),
                        sum(1 for x in all_recs if x.status != "ok"), len(all_recs))
    out.update({
        "net.server_share": (server_s / client_s if client_s else 0.0, "ratio"),
        "net.decode_us": (mean_us("net.decode"), "us"),
        "net.encode_us": (mean_us("net.encode"), "us"),
        "net.service_self_us": (1e6 * stats.mean(own["net"]), "us"),
        "net.connect_ms.p50": (stats.median(connect_ms), "ms"),
        "net.connect_ms.p99": (stats.quantile(connect_ms, 0.99), "ms"),
        "net.rss_kb_per_conn": ((status.get("VmRSS", 0) - rss_before) / len(churn)
                                if churn else 0.0, "kB"),
        "net.threads_peak": (threads_peak, "count"),
        "net.coalesce_fill": (r("serve_batch_points", "serve_coalesced_batches"), "points"),
        "net.shed_ratio": (r("serve_shed", "serve_requests"), "ratio"),
        "engine.select_us": (mean_us("engine.select"), "us"),
        "engine.evaluate_us": (mean_us("engine.evaluate"), "us"),
        "engine.cache_hit_ratio": (hit_ratio(before, after), "ratio"),
        "engine.lowerings": (d("compiled_lowerings"), "count"),
        "engine.retries": (d("engine_retries"), "count"),
        "poly.lower_s": (direct_s("poly.lower"), "s"),
        "poly.compiled_ns_per_point": (per_unit_ns(direct_s("poly.compiled"), direct,
                                                   "compiled_points"), "ns"),
        "core.batch_ns_per_subset": (per_unit_ns(direct_s("core.batch"), direct,
                                                 "kernel_subsets_visited"), "ns"),
        "util.regions_per_request": (r("parallel_regions", "serve_requests"), "ratio"),
        "load.lag_p99_ms": (lag["p99_ms"], "ms"),
        "load.open_p50_ms": (stats.median([records.latency_ms(x) for x in open_recs]), "ms"),
        "load.open_p90_ms": (stats.quantile([records.latency_ms(x) for x in open_recs], TAIL),
                             "ms"),
        "load.open_p99_ms": (stats.quantile([records.latency_ms(x) for x in open_recs], 0.99),
                             "ms"),
        "obs.trace_overhead_ratio": (passes["service"] / passes["untraced"] - 1.0, "ratio"),
    })
    out.update(batch_ratios(before, after))
    out.update(kernel_counters(before, after))
    out.update(self_shares(self_s))
    return out


def read_passes(path):
    """pass name -> seconds per request."""
    out = {}
    with open(path) as f:
        for line in f:
            pass_name, count, seconds = line.split()
            out[pass_name] = float(seconds) / max(1, int(count))
    return out


def hit_ratio(before, after):
    hits = prom.delta(before, after, "engine_cache_hits")
    misses = prom.delta(before, after, "engine_cache_misses")
    return hits / (hits + misses) if hits + misses else 0.0


def per_unit_ns(seconds, scrapes, counter):
    units = prom.delta(scrapes[0], scrapes[1], counter)
    return seconds * 1e9 / units if units else 0.0


def common_layers(engines, degraded, failed, attempted):
    """Engine shares and the degraded share of the answered operations (one
    engine id per answer), and failures over operations attempted."""
    share = lambda count: (count / len(engines) if engines else 0.0, "ratio")
    out = {"engine.share." + e: share(engines.count(e)) for e in ENGINES}
    out["degraded_ratio"] = share(degraded)
    out["error_ratio"] = (failed / attempted if attempted else 0.0, "ratio")
    return out


def batch_ratios(before, after):
    """Work counts of the batch kernel per batch point (M). The scrapes must
    cover batch work only: the compiled plans also count vector lanes and
    the scalar kernel also counts subsets."""
    r = lambda num, den: prom.ratio(before, after, num, den)
    return {
        "core.subsets_per_point": (r("kernel_subsets_visited", "batch_points"), "count"),
        "core.walks_saved_ratio": (r("batch_subset_walks_amortized", "batch_points"), "ratio"),
        "core.vector_lane_ratio": (r("kernel_vector_lanes", "batch_points"), "ratio"),
    }


def kernel_counters(before, after):
    """Time of the certified ladder and of the util pool (M)."""
    d = lambda metric: prom.delta(before, after, metric)
    return {
        "core.certify_s.double": (d("certify_tier_seconds_double_sum"), "s"),
        "core.certify_s.interval": (d("certify_tier_seconds_interval_sum"), "s"),
        "core.certify_s.exact": (d("certify_tier_seconds_exact_sum"), "s"),
        "core.certify_escalations": (d("certify_escalations"), "count"),
        "util.pool_wait_s": (d("parallel_queue_seconds_sum"), "s"),
        "util.chunk_busy_s": (d("parallel_chunk_seconds_sum"), "s"),
    }


def self_shares(self_s):
    total = sum(self_s.values())
    return {"self_share." + layer: (v / total if total else 0.0, "ratio")
            for layer, v in self_s.items()}
