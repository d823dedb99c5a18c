"""Summarize the result files that run.py left in .perfbench_out.

Run from the repository root after a set of benchmark runs:

    python3 perfbench/summarize.py > summary.json

For every workload it reports, per end-to-end metric, the median and
quartiles over the runs (one run per seed) and the quartile spread as a
share of the median, which is how run-to-run steadiness is judged.  It
adds the per-layer metrics of the trace runs, the machine and the
workload's context.
"""

import glob
import json
import os
import statistics
import sys

from run import RESULTS


def summary(values):
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    out = {}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-trace[01].json"))):
        with open(path) as fh:
            record = json.load(fh)
        ctx, result = record["context"], record["result"]
        wl = out.setdefault(ctx["workload"], {
            "machine": ctx["machine"],
            "why": ctx["why"],
            "bypasses": ctx["bypasses"],
            "known_defects": ctx["known_defects"],
            "config": ctx["config"],
            "seeds": {"0": [], "1": []},
            "end_to_end": {},
            "per_layer": {},
            "all_correct": True,
        })
        wl["seeds"][str(ctx["trace"])].append(ctx["seed"])
        wl["all_correct"] &= result["correct"]
        kind = "per_layer" if ctx["trace"] else "end_to_end"
        for name, metric in result["metrics"].items():
            wl[kind].setdefault(name, []).append(metric["value"])
        if ctx["trace"]:
            wl.setdefault("dominant", []).append(ctx["dominant"])
    for wl in out.values():
        for kind in ("end_to_end", "per_layer"):
            wl[kind] = {k: summary(v) for k, v in wl[kind].items()}
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
