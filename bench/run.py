"""Benchmark for planewidth: three workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify|search|verify-large \
        --seed N --seconds S --trace 0|1

Each workload runs in fresh worker processes (``worker.py``) that import
``planewidth`` from the checkout's ``src`` and nothing else, with numpy held
to one thread.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``setup_s`` and ``wall_s`` are given at the reference host speed of
``probe.py``, so that the shared host's drifting speed cancels out.
Run records and traces go to ``bench/out/``.  See ``bench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import checks           # noqa: E402

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify", "search", "verify-large")
#: Set-up is timed in this many fresh processes, the main worker included.
SETUP_SAMPLES = 9
#: Everything, set-up samples included, ends within this many seconds.
DEADLINE_S = 170.0


def _layer(name, field):
    return lambda w: w["layers"][name][field]


def _per_call_us(w):
    layer = w["layers"]["optimizer.objective_and_grad"]
    return 1e6 * layer["self_s"] / layer["calls"] if layer["calls"] else 0.0


def _edges_per_s(w):
    total = w["layers"]["realization.evaluate"]["total_s"]
    return w["edges"] / total if total > 0 else 0.0


#: name -> (unit, value from the traced worker's record)
PER_LAYER = {}
for _name, _fields in [
        ("graphs.parse", ("self_s",)),
        ("graphs.generate", ("self_s",)),
        ("graphs.complement", ("self_s",)),
        ("graphs.sorted_edges", ("calls",)),
        ("coloring.max_clique", ("calls", "self_s")),
        ("coloring.chromatic_number", ("calls", "self_s")),
        ("coloring.greedy_dsatur", ("self_s",)),
        ("geometry.distance", ("calls",)),
        ("geometry.diameter", ("calls", "self_s")),
        ("geometry.pal_hexagon", ("self_s",)),
        ("realization.evaluate", ("calls", "self_s")),
        ("realization.feasibilize", ("calls", "self_s")),
        ("realization.construct", ("self_s",)),
        ("realization.io", ("self_s",)),
        ("partition.tiling_coloring", ("self_s",)),
        ("optimizer.objective_and_grad", ("calls", "self_s")),
        ("optimizer.optimize", ("self_s",)),
        ("optimizer.brute_force", ("self_s",)),
        ("bounds.pw_interval", ("self_s",)),
        ("cli.main", ("calls", "self_s"))]:
    for _field in _fields:
        PER_LAYER["%s.%s" % (_name, _field)] = (
            "s" if _field == "self_s" else "count", _layer(_name, _field))
PER_LAYER.update({
    "coloring.chromatic_number.inexact": ("count", lambda w: w["inexact"]),
    "realization.evaluate.edges": ("count", lambda w: w["edges"]),
    "realization.evaluate.edges_per_s": ("1/s", _edges_per_s),
    "optimizer.objective_and_grad.us_per_call": ("us", _per_call_us),
    "bounds.pw_interval.overrun_s": ("s", lambda w: w["overrun_s"]),
})


def _worker(args, extra, deadline):
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--outdir", OUT] + extra
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("worker timed out: %s" % " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "planewidth",
                                       "__init__.py")):
        sys.exit("no package source at %s" % os.path.join(ROOT, "src"))
    broken = checks.self_test()
    if broken:
        sys.exit("checker self-test failed: %s" % ", ".join(broken))
    os.makedirs(OUT, exist_ok=True)

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(_worker(args, ["--setup-only"], deadline)["setup_s"])
    w = _worker(args, ["--seconds", str(args.seconds),
                       "--trace", str(args.trace)], deadline)
    setup.append(w["setup_s"])

    for problem in w["problems"]:
        print("problem: %s" % problem, file=sys.stderr)
    # Times at the reference host speed (see probe.py).
    host = w["host_factor"]
    wall = w["wall_s"]
    print("%s seed %d: %d untraced rounds, pass %.4f s wall, setup %s s"
          " wall, host factor %.4f"
          % (args.workload, args.seed, len(w["round_s"]), wall,
             " ".join("%.4f" % s for s in setup), host))
    if args.trace:
        print("tracing overhead: traced round %.4f s, untraced pass %.4f s"
              " (%+.1f%%)" % (w["traced_round_s"], wall,
                              100.0 * (w["traced_round_s"] / wall - 1.0)))
        metrics = {name: {"value": fn(w), "unit": unit}
                   for name, (unit, fn) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup) * host,
                        "unit": "s"},
            "wall_s": {"value": wall * host, "unit": "s"},
            "peak_rss_mb": {"value": w["peak_rss_mb"], "unit": "MB"},
            "width_sum": {"value": w["width_sum"], "unit": "plane_units"},
        }
    result = {"correct": w["correct"], "attempted": w["attempted"],
              "failed": w["failed"], "metrics": metrics}
    record = dict(w, setup_samples_s=setup, result=result)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
