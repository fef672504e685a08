"""The sweep_mix workload: a fixed list of ddm_cli jobs, run as a user runs
them, repeated for the measured time."""

import hashlib
import json
import os
import random
import re
from fractions import Fraction

from . import gate, host, prom, refs, serve, spans, stats

SETUP_PER_PASS = 2        # cold ddm_cli starts before each pass; setup_s is their median
SETUP_JOB = ["sweep", "12", "4", "0", "1", "4", "--engine=compiled"]
SAMPLED_ROWS = 3          # rows per sweep job checked against the exact value
HETEROGENEOUS_RANGES = ["1/2", "3/4", "1", "1", "5/4", "3/2"]


def job_list(seed):
    """The fixed job list; the seed moves the β windows, orders the
    heterogeneous ranges, and orders the jobs."""
    rng = random.Random("sweep_mix/%d" % seed)
    # A window starts at base + j/10000 with j coprime to 10, so both ends
    # have denominator 10000 on every seed: the certified ladder works on
    # the exact rational grid, and its cost grows with the denominators.
    offsets = [j for j in range(1, 200) if j % 2 and j % 5]
    lo = lambda base: "%.4f" % (base + rng.choice(offsets) / 10000)
    hi = lambda low, width: "%.4f" % (float(low) + width)
    ranges = HETEROGENEOUS_RANGES[:]
    rng.shuffle(ranges)
    lo2, lo3, lo4, lo5 = lo(0.3), lo(0.3), lo(0.3), lo(0.3)
    jobs = [
        ["sweep", "12", "4", "0", "1", "100000", "--engine=compiled"],
        ["sweep", "12", "4", lo2, hi(lo2, 0.4), "200"],
        ["sweep", "8", "3", lo3, hi(lo3, 0.4), "32", "--certify"],
        ["sweep", "6", "2", lo4, hi(lo4, 0.4), "24",
         "--scenario=heterogeneous:" + ",".join(ranges)],
        ["sweep", "8", "8/3", lo5, hi(lo5, 0.4), "24", "--scenario=deviating:2"],
        ["analyze", "8", "8/3"],
    ]
    rng.shuffle(jobs)
    return jobs


def points(job):
    """Grid points a job evaluates (analyze counts as one operation)."""
    return int(job[5]) + 1 if job[0] == "sweep" else 1


def run_job(job, work, tag, extra=()):
    out = os.path.join(work, tag + ".out")
    err = os.path.join(work, tag + ".err")
    wall, code, maxrss = host.run_timed([host.tool("ddm_cli")] + job + list(extra), out, err)
    return wall, code, maxrss, out, err


def grid_beta(job, k):
    """The exact rational β of row k, as ddm_cli computes it: the rational
    grid for --certify, the double grid otherwise."""
    lo, hi, steps = Fraction(job[3]), Fraction(job[4]), int(job[5])
    if "--certify" in job:
        return min(max(lo + (hi - lo) * k / steps, Fraction(0)), Fraction(1))
    lo_d, hi_d = float(lo), float(hi)
    return Fraction(min(max(lo_d + (hi_d - lo_d) * k / steps, 0.0), 1.0))


def check_job(job, text, rng, certs, work, tag):
    """Seeded sample of a job's rows against exact references; returns
    (misses, the engine of every row, degraded rows)."""
    if job[0] == "analyze":
        m = re.search(r"beta\* = ([0-9.]+).*\nP\(beta\*\) = ([0-9.]+)", text)
        if not m:
            return 1, [], 0
        exact = refs.exact_value(work, tag, int(job[1]), job[2], m.group(1))
        return (0 if gate.within(float(m.group(2)), exact, 1e-12) else 1), [], 0
    rows = json.loads(text)
    if len(rows) != points(job):
        return 1, [], 0
    scenario = next((a.split("=", 1)[1] for a in job if a.startswith("--scenario=")), None)
    misses = 0
    for k in rng.sample(range(len(rows)), SAMPLED_ROWS):
        row = rows[k]
        beta = grid_beta(job, k)
        exact = refs.exact_value(work, "%s-%d" % (tag, k), int(job[1]), job[2],
                                 "%d/%d" % (beta.numerator, beta.denominator), scenario)
        if "tier" in row:
            ok = row["met_tolerance"] and gate.enclosure_contains(row["p_win"], row["width"], exact)
        else:
            engine = row.get("engine", engine_of(job))
            try:
                tol = gate.engine_tolerance(engine, certificate=certs.get((int(job[1]), job[2])))
                ok = gate.within(row["p_win"], exact, tol)
            except KeyError:
                ok = False
        misses += 0 if ok else 1
    engines = [row.get("engine", "certified" if "tier" in row else engine_of(job)) for row in rows]
    return misses, engines, sum(1 for row in rows if row.get("degraded"))


def engine_of(job):
    forced = [a.split("=", 1)[1] for a in job if a.startswith("--engine=")]
    return forced[0] if forced else "auto"


def run(seed, seconds, trace, summary):
    work = host.work_dir("sweep_mix-%d-%d" % (seed, trace))
    jobs = job_list(seed)
    setups = []

    def setup_sample():
        wall, code, _, _, _ = run_job(SETUP_JOB, work, "setup%d" % len(setups))
        if code != 0:
            raise host.BenchError("setup job failed")
        setups.append(wall)

    certs = refs.plan_certificates(work, [(12, "4")])
    passes, job_walls, digests, maxrss = [], [], {}, 0
    attempted = failed = 0
    elapsed = 0.0
    while elapsed < seconds or len(passes) < 2:
        # Cold starts are spread over the run, between passes.
        for _ in range(SETUP_PER_PASS):
            setup_sample()
        pass_wall = 0.0
        for j, job in enumerate(jobs):
            wall, code, rss, out, _ = run_job(job, work, "job%d" % j)
            attempted += points(job)
            with open(out, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            if code != 0 or digests.setdefault(j, digest) != digest:
                failed += points(job)  # a failed or non-deterministic job
            pass_wall += wall
            job_walls.append(wall * 1e3)
            maxrss = max(maxrss, rss)
        passes.append(sum(points(job) for job in jobs) / pass_wall)
        elapsed += pass_wall

    # Correctness gate on the (byte-identical) outputs of every job.
    rng = random.Random("sweep_mix-rows/%d" % seed)
    misses, engines, degraded = 0, [], 0
    for j, job in enumerate(jobs):
        with open(os.path.join(work, "job%d.out" % j)) as f:
            job_misses, job_engines, job_degraded = check_job(
                job, f.read(), rng, certs, work, "ref%d" % j)
        misses += job_misses
        engines += job_engines
        degraded += job_degraded
    failed += misses
    # Each job's latency is the better quartile of its wall times over the
    # passes; the latency percentiles are taken over the six jobs.
    job_ms = [stats.better_quartile(job_walls[j::len(jobs)], False) for j in range(len(jobs))]
    summary.update({"setup_s_samples": setups, "passes": len(passes),
                    "pass_throughput": passes, "job_samples": len(job_walls),
                    "job_latency_ms": job_ms,
                    "tolerance_misses": misses, "jobs": [" ".join(j) for j in jobs]})
    result = {
        "attempted": attempted, "failed": failed, "valid": misses == 0,
        "metrics": {
            "setup_s": (stats.median(setups), "s"),
            "throughput_ops_s": (stats.better_quartile(passes, True), "1/s"),
            "latency_p50_ms": (stats.median(job_ms), "ms"),
            "latency_p90_ms": (stats.quantile(job_ms, serve.TAIL), "ms"),
            "peak_rss_mb": (maxrss / 1024.0, "MB"),
        },
    }
    if trace:
        result["layers"] = layers(jobs, work, engines, degraded, attempted, failed,
                                  [ms / 1e3 for ms in job_ms])
    return result


def layers(jobs, work, engines, degraded, attempted, failed, job_wall_s):
    """Per-layer metrics of a traced sweep_mix run: each job once more with
    --metrics=prom (M) and the in-process replay of the job list (T)."""
    plain, metered, scrapes = 0.0, 0.0, []
    for j, job in enumerate(jobs):
        plain += run_job(job, work, "plain%d" % j)[0]
        wall, code, _, _, err = run_job(job, work, "metered%d" % j, ["--metrics=prom"])
        if code != 0:
            raise host.BenchError("metered job failed: " + " ".join(job))
        metered += wall
        with open(err) as f:
            scrapes.append(prom.parse(f.read()))
    after = prom.merge(scrapes)
    before = {}

    jobs_path = os.path.join(work, "jobs.txt")
    with open(jobs_path, "w") as f:
        for job in jobs:  # the replay parses rationals as a/b, not decimals
            args = job[:3] + [str(Fraction(a)) for a in job[3:5]] + job[5:]
            f.write(" ".join(args if job[0] == "sweep" else job) + "\n")
    prefix = os.path.join(work, "trace")
    cmd = [host.tool("perfbench_trace"), "sweep", "--jobs=" + jobs_path, "--out=" + prefix]
    _, code, _ = host.run_timed(cmd, prefix + ".stdout", prefix + ".stderr", 120.0)
    if code != 0:
        with open(prefix + ".stderr") as f:
            raise host.BenchError("perfbench_trace failed: " + f.read()[-300:])
    traced = spans.read(prefix + ".spans")
    durations = spans.by_name(traced)
    total = lambda name: sum(durations.get(name, []))
    job_span = {s.request: (s.end - s.start) * 1e-9 for s in traced if s.name == "job"}
    pass_scrapes = lambda j: [prom.parse(open("%s.job%d.%s.prom" % (prefix, j, e)).read())
                              for e in ("before", "after")]
    index = lambda kind: next(j for j, job in enumerate(jobs) if kind(job))
    compiled_j = index(lambda job: "--engine=compiled" in job)
    batch_j = index(lambda job: job[0] == "sweep" and len(job) == 6)
    per_point = lambda name, kind: total(name) / points(jobs[index(kind)])

    self_s = spans.layer_self_seconds(traced)
    self_s.pop("bench", None)
    # The CLI's own share: each job's wall time over the run's passes minus
    # the in-process time of the same job.
    self_s["cli"] = sum(max(0.0, job_wall_s[j] - job_span[j]) for j in range(len(jobs)))
    self_s["transport"] = 0.0
    self_s["net"] = 0.0
    for layer in ("engine", "poly", "core"):
        self_s.setdefault(layer, 0.0)

    out = serve.common_layers(engines, degraded, failed, attempted)
    d = lambda metric: prom.delta(before, after, metric)
    out.update({
        "engine.select_us": (1e6 * stats.mean(durations["engine.select"]), "us"),
        "engine.cache_hit_ratio": (serve.hit_ratio(before, after), "ratio"),
        "engine.lowerings": (d("compiled_lowerings"), "count"),
        "engine.retries": (d("engine_retries"), "count"),
        "poly.lower_s": (total("poly.lower"), "s"),
        "poly.compiled_ns_per_point": (serve.per_unit_ns(total("poly.compiled"),
                                                         pass_scrapes(compiled_j),
                                                         "compiled_points"), "ns"),
        "core.batch_ns_per_subset": (serve.per_unit_ns(total("core.batch"), pass_scrapes(batch_j),
                                                       "kernel_subsets_visited"), "ns"),
        "core.heterogeneous_s_per_point": (per_point("core.heterogeneous",
                                                     lambda job: "heterogeneous" in job[-1]), "s"),
        "core.deviating_s_per_point": (per_point("core.deviating",
                                                 lambda job: "deviating" in job[-1]), "s"),
        "core.analyze_s": (total("core.analyze"), "s"),
        "util.regions_per_request": (d("parallel_regions") / len(jobs), "ratio"),
        "cli.overhead_s": (self_s["cli"], "s"),
        "obs.trace_overhead_ratio": (metered / plain - 1.0, "ratio"),
    })
    # The batch ratios from the batch job alone: the compiled and certified
    # jobs move the same lane and subset counters.
    out.update(serve.batch_ratios(*pass_scrapes(batch_j)))
    out.update(serve.kernel_counters(before, after))
    out.update(serve.self_shares(self_s))
    return out
