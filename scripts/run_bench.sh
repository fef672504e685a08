#!/usr/bin/env bash
# run_bench.sh — build the microbenchmark suite in a dedicated Release tree
# and either re-record the BENCH_kernels.json baseline (default) or check the
# current tree against it (--check).
#
# Usage:
#   scripts/run_bench.sh [extra google-benchmark flags...]
#       Re-record BENCH_kernels.json at the repo root so successive PRs
#       accumulate a perf trajectory (compare the same benchmark names
#       across commits).
#   scripts/run_bench.sh --check [extra google-benchmark flags...]
#       Run the suite into a temp file and compare per-iteration cpu_time
#       against the checked-in baseline, family by family (the BM_* prefix
#       before the first '/'). Exits non-zero when any family's geometric-
#       mean slowdown exceeds 25%, when a vectorized *Simd family is not
#       at least 2x faster (geomean, same args) than its scalar counterpart
#       in the SAME run (docs/performance.md §4), or when auto dispatch
#       fails its gate (docs/performance.md §7): on the mixed mid-n
#       workload both BM_AutoDispatchDefault (no table) and
#       BM_AutoDispatchCalibrated must stay within 10% of
#       BM_AutoDispatchForcedBest. Registered as the opt-in
#       ctest `bench_regression_check` (label `bench`, -DDDM_BENCH_CHECK=ON).
#
# Both modes force CMAKE_BUILD_TYPE=Release in their own build tree
# (BUILD_DIR, default build-bench) — the library AND the benchmark TU come
# out of that same tree — and refuse to use results from a binary whose JSON
# context does not prove an optimised build end to end: the benchmark's
# custom main() stamps `ddm_build_type` from its own NDEBUG and
# `ddm_library_build_type` from ddm::util::build_type() (compiled inside
# libddm, so it certifies the library actually linked, catching a stale or
# mixed-configuration tree), and the guard below requires BOTH to say
# "release". The stock `library_build_type` field is NOT trusted either way
# — it describes how the installed google-benchmark library was compiled
# (debug on this image), not the ddm kernels under test; mistaking it for
# the binary's build type is exactly how a debug baseline got committed
# once.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-bench}"
OUT="${OUT:-$REPO_ROOT/BENCH_kernels.json}"

MODE=record
if [[ "${1:-}" == "--check" ]]; then
  MODE=check
  shift
fi

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target perf_kernels -j "$(nproc)" >/dev/null

TMP="$(mktemp "${TMPDIR:-/tmp}/bench_kernels.XXXXXX.json")"
trap 'rm -f "$TMP"' EXIT

"$BUILD_DIR/bench/perf_kernels" \
  --benchmark_format=console \
  --benchmark_out="$TMP" \
  --benchmark_out_format=json \
  "$@"

# Refuse to trust results unless the context proves an optimised binary.
python3 - "$TMP" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    context = json.load(f)["context"]
ddm_build = context.get("ddm_build_type")
if ddm_build != "release":
    print(f"run_bench.sh: refusing to use results: ddm_build_type is "
          f"{ddm_build!r} (NDEBUG was unset in the benchmark translation "
          f"unit)", file=sys.stderr)
    sys.exit(1)
lib_build = context.get("ddm_library_build_type")
if lib_build != "release":
    print(f"run_bench.sh: refusing to use results: ddm_library_build_type "
          f"is {lib_build!r} (the linked libddm — where the kernels live — "
          f"is not an optimised build)", file=sys.stderr)
    sys.exit(1)
if context.get("library_build_type") != "release":
    print("run_bench.sh: note: the installed google-benchmark library is a "
          "debug build (library_build_type); timer overhead is slightly "
          "higher but the ddm kernels themselves are optimised",
          file=sys.stderr)
EOF

if [[ "$MODE" == "record" ]]; then
  mv "$TMP" "$OUT"
  trap - EXIT
  echo "wrote $OUT"
  exit 0
fi

# --check: compare against the committed baseline, per BM_* family.
python3 - "$OUT" "$TMP" <<'EOF'
import json, math, sys

THRESHOLD = 1.25  # >25% geometric-mean slowdown fails the family

def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = float(b["cpu_time"])
    return out

baseline = load(sys.argv[1])
current = load(sys.argv[2])
shared = sorted(set(baseline) & set(current))
if not shared:
    print("run_bench.sh --check: no benchmark names in common with the "
          "baseline — re-record it first", file=sys.stderr)
    sys.exit(1)

families = {}
for name in shared:
    families.setdefault(name.split("/")[0], []).append(
        current[name] / baseline[name])

failed = []
print(f"{'family':<36} {'geomean new/old':>16}  n")
for family in sorted(families):
    ratios = families[family]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    flag = ""
    if geomean > THRESHOLD:
        failed.append(family)
        flag = "  REGRESSION"
    print(f"{family:<36} {geomean:>16.3f}  {len(ratios)}{flag}")

missing = sorted({n.split("/")[0] for n in baseline} -
                 {n.split("/")[0] for n in current})
if missing:
    print(f"note: families in baseline but not in this run: {', '.join(missing)}")

if failed:
    print(f"run_bench.sh --check: >25% regression in: {', '.join(failed)}",
          file=sys.stderr)
    sys.exit(1)
print("run_bench.sh --check: all families within 25% of baseline")

# SIMD speedup gate: each vectorized family must beat its scalar counterpart
# by >= 2x (geomean over matching args) WITHIN this run — comparing inside
# one run keeps the gate immune to machine-to-machine drift. The scalar
# families are pinned to width 1 by ScopedForceWidth, so the ratio measures
# lane dispatch alone (the results are bitwise identical either way).
SIMD_SPEEDUP = 2.0
SIMD_PAIRS = {
    "BM_BatchAmortizedSimd": "BM_BatchAmortized",
    "BM_SweepCompiledSimd": "BM_SweepCompiled",
}
simd_failed = []
for simd_family, scalar_family in sorted(SIMD_PAIRS.items()):
    ratios = []
    for name, cpu in current.items():
        if name.split("/")[0] != simd_family:
            continue
        scalar_name = name.replace(simd_family, scalar_family, 1)
        if scalar_name in current and cpu > 0:
            ratios.append(current[scalar_name] / cpu)
    if not ratios:
        print(f"run_bench.sh --check: no {simd_family} results to gate",
              file=sys.stderr)
        simd_failed.append(simd_family)
        continue
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    flag = ""
    if geomean < SIMD_SPEEDUP:
        simd_failed.append(simd_family)
        flag = "  TOO SLOW"
    print(f"{simd_family:<36} {geomean:>13.2f}x vs {scalar_family}{flag}")

if simd_failed:
    print(f"run_bench.sh --check: SIMD families below the {SIMD_SPEEDUP}x "
          f"bar: {', '.join(simd_failed)}", file=sys.stderr)
    sys.exit(1)
print(f"run_bench.sh --check: SIMD families >= {SIMD_SPEEDUP}x their scalar counterparts")

# Auto dispatch gate (docs/performance.md §7), again WITHIN this run: on the
# mixed mid-n workload auto must stay within 10% of the best forced engine,
# both with no table (the built-in order, which admits compiled by the
# request tolerance) and with a calibrated table — ranking has to be nearly
# free, or "auto" stops being the right default for hot callers.
AUTO_FORCED_MARGIN = 0.9

def family_geomean(times, family):
    values = [t for name, t in times.items() if name.split("/")[0] == family]
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))

forced_t = family_geomean(current, "BM_AutoDispatchForcedBest")
auto_failed = []
for family in ("BM_AutoDispatchDefault", "BM_AutoDispatchCalibrated"):
    auto_t = family_geomean(current, family)
    if auto_t is None or forced_t is None:
        print(f"run_bench.sh --check: missing {family} or BM_AutoDispatchForcedBest "
              "results to gate", file=sys.stderr)
        auto_failed.append(family)
        continue
    margin = forced_t / auto_t
    flag = "" if margin >= AUTO_FORCED_MARGIN else "  TOO SLOW"
    if flag:
        auto_failed.append(family)
    print(f"{'auto: forced-best / ' + family[len('BM_AutoDispatch'):].lower():<36} "
          f"{margin:>13.2f}x{flag}")

if auto_failed:
    print(f"run_bench.sh --check: auto dispatch gate failed: "
          f"{', '.join(auto_failed)}", file=sys.stderr)
    sys.exit(1)
print("run_bench.sh --check: default and calibrated auto within 10% of the best "
      "forced engine")
EOF
