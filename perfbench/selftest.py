"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py --workload heavy_incomplete

Checks that a traced run writes the same bytes as an untraced run of the
same seed and leaves no wrapper installed, that the stage spans cover at
least 95% of the traced run, and that two seeds give different field.csv
files while the same seed gives identical ones.  Exits 0 when all pass.
"""

import argparse
import filecmp
import os
import shutil
import sys

from run import SRC, WORK, Children, Gate, measure_trace
from workloads import REFERENCE_SEED, WORKLOADS


def seed_checks(wl, seed, cfg, work):
    """field.csv of seed, seed again and seed + 1, from the simulate stage."""
    children = Children(work)
    fields = []
    for i, s in enumerate((seed, seed, seed + 1)):
        out = os.path.join(work, f"sim{i}")
        args = ("-m", "ustattails", "simulate", cfg, "--set", f"run.seed={s}", "--out", out)
        _wall, code, _rss = children.timed(args)
        if code != 0:
            return [f"simulate at seed {s} exited {code}"]
        fields.append(os.path.join(out, "field.csv"))
    failures = []
    if not filecmp.cmp(fields[0], fields[1], shallow=False):
        failures.append(f"seed {seed} twice gave different field.csv files")
    if filecmp.cmp(fields[0], fields[2], shallow=False):
        failures.append(f"seeds {seed} and {seed + 1} gave the same field.csv")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="Self-test of the benchmark.")
    parser.add_argument("--workload", default="heavy_incomplete", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ustattails", "cli.py")):
        print(f"error: no ustattails sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"selftest-{wl.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        cfg = os.path.join(work, "workload.cfg")
        with open(cfg, "w") as fh:
            fh.write(wl.config_text())
        gate = Gate(wl, args.seed)
        measure_trace(wl, args.seed, cfg, work, gate)
        failures = gate.misses + seed_checks(wl, args.seed, cfg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
