#!/usr/bin/env python3
"""perfbench — the end-to-end benchmark of ddm (see perfbench/README.md).

    python3 perfbench/run.py --workload <serve_kernel|sweep_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ddm checkout. Builds the tree in Release under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs the workload,
checks every answer against exact references, and prints one JSON object as
the last line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exits 1 without a result when the
benchmark cannot measure (no source tree, failed build, non-Release
library, a failing program).
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import host, serve, sweep  # noqa: E402

WORKLOADS = ("serve_kernel", "sweep_mix")

# Per-layer metrics a workload does not exercise; they read 0 there.
NOT_EXERCISED = {
    "serve": {"cli.overhead_s", "core.heterogeneous_s_per_point",
              "core.deviating_s_per_point", "core.analyze_s"},
    "sweep": {"net.server_share", "net.decode_us", "net.encode_us", "net.service_self_us",
              "net.connect_ms.p50", "net.connect_ms.p99", "net.rss_kb_per_conn",
              "net.threads_peak", "net.coalesce_fill", "net.shed_ratio", "engine.evaluate_us",
              "load.lag_p99_ms", "load.open_p50_ms", "load.open_p90_ms", "load.open_p99_ms"},
}


def declared():
    with open(os.path.join(host.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = declared()
        targets = ["ddm_serve", "ddm_cli", "perfbench_loadgen", "perfbench_stamp"]
        if args.trace:
            targets.append("perfbench_trace")
        host.build(targets)
        stamp = host.stamp()
        summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "host": stamp}
        cpu_before = host.cpu_times()
        if args.workload == "sweep_mix":
            result = sweep.run(args.seed, args.seconds, args.trace, summary)
        else:
            result = serve.run(args.seed, args.seconds, args.trace, summary)
        stamp["steal_share"] = host.steal_share(cpu_before, host.cpu_times())
    except host.BenchError as error:
        host.log("error: %s" % error)
        return 1

    if args.trace:
        kind = "sweep" if args.workload == "sweep_mix" else "serve"
        measured = result["layers"]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        kind = None
        measured = result["metrics"]
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    metrics = {}
    for name, unit in names:
        if name in measured:
            value, measured_unit = measured[name]
            if measured_unit != unit:
                host.log("error: %s measured in %s, declared in %s" % (name, measured_unit, unit))
                return 1
        elif kind and name in NOT_EXERCISED[kind]:
            value = 0.0
        else:
            host.log("error: metric %s was not measured" % name)
            return 1
        metrics[name] = {"value": float(value), "unit": unit}

    summary["metrics"] = metrics
    with open(os.path.join(host.work_dir(""), "%s-%d-%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(summary, f, indent=1)
    print("perfbench %s seed %d: %s" % (args.workload, args.seed, json.dumps(
        {k: v for k, v in summary.items() if k not in ("metrics", "host")})))
    print("host: " + json.dumps(summary["host"]))
    if args.trace:
        shares = {k.split(".", 1)[1]: v["value"] for k, v in metrics.items()
                  if k.startswith("self_share.")}
        top = max(shares, key=shares.get)
        print("largest self time: %s (%.1f%% of the traced time)" % (top, 100 * shares[top]))
    print(json.dumps({"correct": bool(result["valid"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
