"""One workload in one fresh process; prints its measurements as JSON.

``run.py`` starts this with PYTHONPATH set to the checkout's ``src``.
Set-up time is the import of ``planewidth`` (numpy included) plus the
building of the workload's inputs; the benchmark's own modules are imported
off the clock.  Then whole rounds of the workload's operations run until
the next round would end past ``--seconds`` (at least one round); every
output of every round is checked outside the timed calls.

The probe of ``probe.py`` runs between operations.  The worker reports raw
wall times and ``host_factor``, the scale from wall time to the reference
host speed, which ``run.py`` applies to the set-up and the pass.

With ``--trace 1`` the set-up and one round are traced, the other rounds
are not, so the same run gives the per-layer numbers and the traced and
untraced round times side by side.
"""

import time

T0 = time.perf_counter()

import planewidth                                               # noqa: E402
import planewidth.bounds                                        # noqa: E402
import planewidth.cli                                           # noqa: E402
import planewidth.geometry                                      # noqa: E402
import planewidth.graphs                                        # noqa: E402
import planewidth.optimizer                                     # noqa: E402
import planewidth.realization                                   # noqa: E402

IMPORT_S = time.perf_counter() - T0

import argparse         # noqa: E402
import json             # noqa: E402
import os               # noqa: E402
import resource         # noqa: E402
import statistics       # noqa: E402
import sys              # noqa: E402
import tempfile         # noqa: E402

import probe            # noqa: E402
import tracing          # noqa: E402
import workloads        # noqa: E402

MAX_PROBLEMS = 10
#: Probe calls follow any operation that ends this long after the last
#: ones, and start every round.
PROBE_EVERY_S = 0.25
PROBE_CALLS = 2


def run_round(ops, host, tracer=None):
    """Run every operation once; returns (seconds, problems, fault, width)
    for each operation.  ``host`` is called PROBE_CALLS times before the
    first operation and between operations at least every PROBE_EVERY_S."""
    outcomes = []
    since = PROBE_EVERY_S
    for k, op in enumerate(ops):
        if since >= PROBE_EVERY_S:
            for _ in range(PROBE_CALLS):
                host()
            since = 0.0
        if tracer is not None:
            tracer.current_op = k
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:            # reported as a failed operation
            outcomes.append((time.perf_counter() - t, ["raised %r" % exc],
                             True, None))
            continue
        wall = time.perf_counter() - t
        since += wall
        outcomes.append((wall,) + tuple(op.check(result, wall)))
    return outcomes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.realpath(__file__))), "src")
    if not os.path.realpath(planewidth.__file__).startswith(src + os.sep):
        sys.exit("planewidth was imported from %s, not from %s"
                 % (planewidth.__file__, src))

    tracer = tracing.Tracer(planewidth) if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.outdir) as workdir:
        t = time.perf_counter()
        if tracer is not None:
            tracer.install()
        ops = workloads.BUILDERS[args.workload](planewidth, args.seed,
                                                workdir)
        setup_s = IMPORT_S + time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        host = probe.Probe()
        op_s = [[] for _ in ops]         # untraced seconds per operation
        rounds, traced_s = [], None
        attempted = failed = 0
        problems = []
        widths = None
        start = time.perf_counter()
        while True:
            traced = tracer is not None and traced_s is None \
                and len(rounds) == 1
            if traced:
                tracer.install()
            outcomes = run_round(ops, host, tracer if traced else None)
            seconds = sum(o[0] for o in outcomes)
            if traced:
                tracer.uninstall()
                traced_s = seconds
            else:
                rounds.append(seconds)
                for times, o in zip(op_s, outcomes):
                    times.append(o[0])
            round_widths = []
            for op, (_, op_problems, fault, width) in zip(ops, outcomes):
                attempted += 1
                failed += bool(fault)
                if fault and not op.may_fail:
                    op_problems = op_problems + ["unexpected failure"]
                problems += ["%s: %s" % (op.name, p) for p in op_problems]
                round_widths.append(width)
            if widths is None:
                widths = round_widths
            elif round_widths != widths:
                problems.append("widths differ between rounds")
            elapsed = time.perf_counter() - start
            done = len(rounds) + (traced_s is not None)
            need = 2 if tracer is not None else 1
            if done >= need and elapsed + elapsed / done > args.seconds:
                break

    # A pass is the sum of each operation's median time over the rounds,
    # so one slow round does not move it.
    wall_s = sum(statistics.median(times) for times in op_s)

    out = {
        "correct": not problems,
        "problems": problems[:MAX_PROBLEMS],
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "host_factor": host.factor(),
        "probe_s": host.times,
        "round_s": rounds,
        "op_s": {op.name: times for op, times in zip(ops, op_s)},
        "width_sum": float(sum(w for w in widths if w is not None)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        out["traced_round_s"] = traced_s
        out["layers"] = tracer.summary()
        out["edges"] = tracer.edges
        out["overrun_s"] = tracer.overrun
        out["inexact"] = tracer.inexact
        tracer.save(os.path.join(args.outdir, "trace-%s-seed%d.npz"
                                 % (args.workload, args.seed)))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
