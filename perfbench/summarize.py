"""Render the traced runs' results as a markdown self-time report.

    python3 perfbench/summarize.py > perfbench/results/SELF_TIME.md

Reads every ``.perfbench_out/<workload>-seed<n>-trace1.json`` in the
checkout and prints, per run, the per-layer self-time table, the
measured busy time per frame beside the CycleMeter's modeled cost, and
every per-layer metric.
"""

import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    paths = sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", "*-trace1.json")))
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        metrics = result["metrics"]
        layers = result["self_time"]
        wall = sum(entry["self_s"] for entry in layers.values())
        print("## %s (seed %d, %g s)\n" % (result["workload"], result["seed"], result["seconds"]))
        print(
            "Measured `runtime.busy_ns_per_pkt` %.0f ns; modeled `sim.modeled_ns_per_pkt` %.0f ns "
            "(P0 CycleMeter).  `trace.overhead_frac` %.3f.  Calibration loop %.3f s.\n"
            % (
                metrics["runtime.busy_ns_per_pkt"]["value"],
                metrics["sim.modeled_ns_per_pkt"]["value"],
                metrics["trace.overhead_frac"]["value"],
                result["fingerprint"]["calibration_s"],
            )
        )
        print("| layer | spans | total s | self s | self share |")
        print("|---|---:|---:|---:|---:|")
        for layer, entry in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
            print(
                "| %s | %d | %.3f | %.3f | %.1f%% |"
                % (layer, entry["spans"], entry["total_s"], entry["self_s"], 100.0 * entry["self_s"] / wall)
            )
        print("\n| per-layer metric | value | unit |")
        print("|---|---:|---|")
        for name, metric in sorted(metrics.items()):
            print("| `%s` | %.6g | %s |" % (name, metric["value"], metric["unit"]))
        print()


if __name__ == "__main__":
    main()
