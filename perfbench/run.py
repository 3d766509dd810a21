"""The benchmark: config text to wire, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iprouter-skew --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records spans around every call into the program and
reports the per-layer metrics, the self-time table and the tracing
overhead.  Every run checks the measured router's output against the
reference interpreter.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results, the environment fingerprint and (traced) the spans go to
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: The metrics in the result line, ``(name, unit)``: END_TO_END with
#: ``--trace 0``; with ``--trace 1``, PER_LAYER, the per-layer metrics
#: every workload measures.  Everything else a run measures (the
#: absolute rates and latencies, the metrics of layers only some
#: workloads load, the self-time table) is printed above the result
#: line and kept in the results file.
END_TO_END = (
    ("setup_s", "s"),
    ("fwd_speedup_x", "x"),
    ("update_cost_p50_x", "x"),
    ("update_cost_p90_x", "x"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("lang.parse_s", "s"),
    ("core.elements_out", "count"),
    ("elements.build_s", "s"),
    ("elements.ingress_ns_per_pkt", "ns"),
    ("runtime.compile_s", "s"),
    ("runtime.warmup_s", "s"),
    ("runtime.busy_ns_per_pkt", "ns"),
    ("runtime.idle_pass_frac", "ratio"),
    ("runtime.codegen_cache.hits", "count"),
    ("runtime.codegen_cache.misses", "count"),
    ("control.chains_recompiled", "count"),
    ("control.chains_reused", "count"),
    ("sim.modeled_ns_per_pkt", "ns"),
    ("trace.overhead_frac", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children():
    """Stop and reap every process this run started: shard workers left
    by a failed run, then the resource tracker that multiprocessing's
    spawn start method launches beside the first worker and otherwise
    leaves to exit on its own after this process has gone.  Workers go
    first: they hold the tracker's pipe open, so it cannot end before
    them."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None):
    try:
        return measure(argv)
    finally:
        if "multiprocessing" in sys.modules:
            stop_children()


def measure(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source at %s\n" % SOURCE)
        return 2
    sys.path[:0] = [SOURCE, ROOT]
    # The process shard plane writes its codegen-cache handoff file with
    # tempfile; keep it (and the workers' view of TMPDIR) in the checkout.
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch

    from perfbench.harness import fingerprint, self_time_table
    from perfbench.workloads import WORKLOADS, Run

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(
            "perfbench: unknown workload %r (have: %s)\n"
            % (args.workload, ", ".join(sorted(WORKLOADS)))
        )
        return 2
    environment = fingerprint()
    run = Run(workload, args.seed, args.seconds, bool(args.trace)).run()
    failed_frac = run.failed / run.attempted

    if args.trace:
        everything = run.per_layer()
        layers = run.tracer.self_times()
        reported = PER_LAYER
    else:
        everything = run.end_to_end()
        layers = None
        reported = END_TO_END

    print("perfbench %s seed=%d seconds=%g trace=%d" % (workload.name, args.seed, args.seconds, args.trace))
    print("fingerprint " + json.dumps(environment, sort_keys=True))
    for name, (value, unit) in sorted(everything.items()):
        print("%-36s %16.6f %s" % (name, value, unit))
    print("%-36s %16.6f %s" % ("failed_frac", failed_frac, "ratio"))
    if layers is not None:
        for line in self_time_table(layers):
            print(line)
        print(
            "wall vs model: runtime.busy_ns_per_pkt %.1f ns measured, "
            "sim.modeled_ns_per_pkt %.1f ns modeled"
            % (everything["runtime.busy_ns_per_pkt"][0], everything["sim.modeled_ns_per_pkt"][0])
        )

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": environment,
        "failed_frac": failed_frac,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in everything.items()},
        "self_time": layers,
    }
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))
    with open(stem + ".json", "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.trace:
        run.tracer.dump(
            os.path.join(OUT, "%s-spans.json" % workload.name),
            {"workload": workload.name, "seed": args.seed, "self_time": layers},
        )

    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": everything[name][0], "unit": unit} for name, unit in reported},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
