"""Reference values for the correctness gate, all from the program's exact
paths: the `exact` engine over a grid, the exact rational `threshold`
command, and the certified error bounds of compiled plans."""

import json
import os
import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import host


def _cli(args, work, name):
    out = os.path.join(work, name + ".out")
    err = os.path.join(work, name + ".err")
    _, code, _ = host.run_timed([host.tool("ddm_cli")] + args, out, err)
    if code != 0:
        with open(err) as f:
            raise host.BenchError("ddm_cli %s failed (%d): %s"
                                  % (" ".join(args), code, f.read()[-400:]))
    with open(out) as f:
        return f.read()


def parallel(jobs):
    """Runs thunks on at most nproc threads (each starts one ddm_cli)."""
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return list(pool.map(lambda job: job(), jobs))


def exact_grid(work, tag, n, t, lo, hi, steps):
    """[(beta, p_win)] of `ddm_cli sweep ... --engine=exact`."""
    rows = json.loads(_cli(["sweep", str(n), t, lo, hi, str(steps), "--engine=exact"],
                           work, "exact-" + tag))
    return [(row["beta"], row["p_win"]) for row in rows]


def exact_value(work, tag, n, t, beta, scenario=None):
    """The exact winning probability at a rational beta: a Fraction for the
    homogeneous game (`threshold` prints the rational), else the exact
    engine's double."""
    args = ["threshold", str(n), t, beta]
    if scenario:
        args.append("--scenario=" + scenario)
    text = _cli(args, work, "threshold-" + tag)
    m = re.search(r"P\(no overflow\) = (\d+)/(\d+) =", text)
    if m:
        return Fraction(int(m.group(1)), int(m.group(2)))
    m = re.search(r"P\(no overflow\) = ([0-9.eE+-]+)", text)
    if not m:
        raise host.BenchError("cannot read threshold output: " + text[-200:])
    return float(m.group(1))


def plan_certificates(work, instances):
    """{(n, t): certified max error of the compiled plan} for every instance,
    from `ddm_cli plans precompile <n_max> <t> 1` into a scratch store."""
    n_max = {}
    for n, t in instances:
        n_max[t] = max(n, n_max.get(t, 0))

    def one(t):
        tag = "plans-" + t.replace("/", "_")
        store = os.path.join(work, tag)
        text = _cli(["plans", "precompile", str(n_max[t]), t, "1", "--store=" + store], work, tag)
        shutil.rmtree(store, ignore_errors=True)
        return [json.loads(line) for line in text.splitlines() if line.startswith("{")]

    certs = {}
    for rows in parallel([lambda t=t: one(t) for t in n_max]):
        for row in rows:
            certs[(row["n"], row["t"])] = row["max_error"]
    return {key: certs[key] for key in instances if key in certs}
