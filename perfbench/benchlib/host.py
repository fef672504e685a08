"""Building the tree under test, the build stamp, the host stamp, and the
processes the benchmark starts."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)


class BenchError(Exception):
    """The benchmark cannot produce a valid result (exit 1, no result line)."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def work_dir(name):
    path = os.path.join(build_dir(), "runs", name)
    os.makedirs(path, exist_ok=True)
    return path


def child_env():
    """The default configuration: no DDM_* knob leaks in from the caller."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DDM_")}


def build(targets):
    """Configures (once) and builds `targets` in a Release tree."""
    for required in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise BenchError("no ddm source tree at %s (missing %s)" % (ROOT, required))
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(PERFBENCH, "native"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DDDM_ROOT=" + ROOT])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target"] + targets)
    with open(logfile, "a") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                raise BenchError("build failed: %s (log: %s)" % (" ".join(cmd), logfile))


def tool(name):
    """Path of a built program: the repo's tools or the benchmark's own."""
    if name in ("ddm_serve", "ddm_cli"):
        return os.path.join(build_dir(), "ddm", "tools", name)
    return os.path.join(build_dir(), name)


def stamp():
    """Host and build stamp; refuses a library that is not an optimised build."""
    library = json.loads(subprocess.check_output([tool("perfbench_stamp")], env=child_env()))
    if library["library_build_type"] != "release":
        raise BenchError("refusing to measure: libddm build type is %r, not release"
                         % library["library_build_type"])
    cache_type = ""
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                cache_type = line.split("=", 1)[1].strip()
    if cache_type != "Release":
        raise BenchError("refusing to measure: CMAKE_BUILD_TYPE is %r" % cache_type)
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    return {"nproc": os.cpu_count(), "cpu_model": model, "loadavg_before": load,
            "engine_simd_width": library["simd_width"], "build_type": cache_type,
            "library_build_type": library["library_build_type"]}


def cpu_times():
    """The machine's cumulative CPU times from /proc/stat (user ... steal)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before, after):
    """Share of the CPU time between two cpu_times() readings that the
    hypervisor gave to other guests: a run measured while it is high
    measured the host as much as the program."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def proc_status(pid):
    """Selected /proc/<pid>/status fields in kB (Threads as a count)."""
    out = {}
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                m = re.match(r"(VmHWM|VmRSS|Threads):\s+(\d+)", line)
                if m:
                    out[m.group(1)] = int(m.group(2))
    except OSError:
        pass
    return out


def stop(proc, timeout=10.0):
    """SIGTERM, then SIGKILL after `timeout`; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def run_timed(cmd, out_path, err_path, timeout=120.0):
    """Runs a child to completion with its output in files; returns (wall
    seconds, exit code, ru_maxrss in kB). wait4 gives the child's own peak
    memory; a watchdog kills a child that outlives `timeout`."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        raise BenchError("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
    return wall, proc.returncode, usage.ru_maxrss
