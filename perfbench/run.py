"""Benchmark of the ``ustattails`` command line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload narrow_exact --seed 11 --seconds 60 --trace 0

``--trace 0`` drives the real command in fresh interpreters, one pipeline at
a time (a closed loop with one client), and reports the end-to-end metrics
as medians over the samples that fit in ``--seconds``.  ``--trace 1`` runs
the pipeline in this process, once untraced and once with every layer
wrapped by :mod:`tracing`, and reports per-layer self times and work counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from BENCHMARK.json.  Every invocation of the program passes the
correctness gate in :mod:`gate`, and each miss is printed.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from gate import check_artifacts, check_identical, digests
from tracing import LAYERS, STAGE_SPANS, Tracer, installed_wrappers
from workloads import REFERENCE_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_out")

# Share of the measured time each timed end-to-end metric gets.  run_s and
# bounds_rerun_s get equal time whatever their lengths: under a host whose
# speed drifts over seconds, a median steadies with the time it spans.
TIME_SHARES = {"run_s": 0.47, "bounds_rerun_s": 0.47, "setup_s": 0.06}
MIN_SAMPLES = 3
IMPORT_SAMPLES = 5
MIN_STAGE_COVERAGE = 0.95
CHILD_TIMEOUT_S = 120

SETUP_PROBE = (
    "import sys\n"
    "import ustattails.cli\n"
    "from ustattails.config import Config\n"
    "cfg = Config.from_file(sys.argv[1])\n"
    "cfg.override('run.seed', sys.argv[2])\n"
    "print(ustattails.cli.__file__)\n"
)
IMPORT_PROBES = {
    "import.s": "import time\nt = time.perf_counter()\nimport ustattails\n"
    "print(time.perf_counter() - t)\n",
    "import.scipy_special.s": "import time\nimport numpy\nt = time.perf_counter()\n"
    "import scipy.special\nprint(time.perf_counter() - t)\n",
}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("USTATTAILS_OUT", None)
    return env


class Children:
    """Starts child interpreters on this checkout's sources and logs their output."""

    def __init__(self, work):
        self.env = child_env()
        self.log = os.path.join(work, "children.log")

    def timed(self, args):
        """Run one child to completion; returns (wall s, exit code, peak RSS KiB)."""
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=self.env, cwd=ROOT, stdout=log, stderr=log
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def output(self, args):
        done = subprocess.run(
            [sys.executable, *args], env=self.env, cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        return done.stdout.strip()


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


class Gate:
    """Counts attempted and failed invocations and prints each miss."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.misses = []

    def record(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for f in failures:
                msg = f"gate: {self.workload.name} seed {self.seed} {what}: {f}"
                self.misses.append(msg)
                print(msg, flush=True)


def measure_end_to_end(wl, seed, seconds, cfg, work, gate):
    children = Children(work)
    run_args = ("-m", "ustattails", "run", cfg, "--set", f"run.seed={seed}", "--out")
    bounds_args = ("-m", "ustattails", "bounds", cfg, "--set", f"run.seed={seed}", "--out")
    setup_args = ("-c", SETUP_PROBE, cfg, str(seed))

    # Untimed warm-up: compiles bytecode and proves the checkout's package is used.
    used = children.output(setup_args)
    if not used.startswith(SRC + os.sep):
        raise RuntimeError(f"ustattails resolved to {used}, not under {SRC}")

    samples = {name: [] for name in TIME_SHARES}
    rss_mib, artifact_mib = [], []
    state = {"out": None, "first": None, "digests": None, "runs": 0}

    def step_run():
        # The previous run's directory goes; it may be missing after a failure.
        if state["out"]:
            shutil.rmtree(state["out"], ignore_errors=True)
        i = state["runs"]
        state["runs"] += 1
        out = state["out"] = os.path.join(work, f"run{i}")
        wall, code, maxrss = children.timed(run_args + (out,))
        samples["run_s"].append(wall)
        rss_mib.append(maxrss / 1024)
        state["digests"] = None
        if not os.path.isdir(out):
            gate.record(f"run {i}", [f"exit code {code} and no output directory"])
            return
        artifact_mib.append(dir_bytes(out) / 2**20)
        failures = check_artifacts(wl, out, code, seed)
        state["digests"] = digests(out)
        if state["first"] is None:
            state["first"] = state["digests"]
        else:
            failures += check_identical(state["first"], state["digests"], "run")
        gate.record(f"run {i}", failures)

    def step_rerun():
        if state["out"] is None:
            return step_run()
        # A rerun after a failed run is still timed and counted, so that a
        # failing program ends the loop with its misses recorded.
        wall, code, _ = children.timed(bounds_args + (state["out"],))
        samples["bounds_rerun_s"].append(wall)
        failures = [] if code == wl.expected_exit else [f"exit code {code}"]
        if state["digests"] is None or not os.path.isdir(state["out"]):
            failures.append("no output of a run to rerun on")
        else:
            failures += check_identical(state["digests"], digests(state["out"]), "bounds rerun")
        gate.record(f"bounds rerun {len(samples['bounds_rerun_s']) - 1}", failures)

    def step_setup():
        samples["setup_s"].append(children.timed(setup_args)[0])

    steps = {"run_s": step_run, "bounds_rerun_s": step_rerun, "setup_s": step_setup}
    start = time.perf_counter()
    while True:
        # Next is the metric furthest behind its share of the measured time;
        # one below MIN_SAMPLES goes first and runs even past the budget.
        # Another step starts only if its median length still fits.
        elapsed = time.perf_counter() - start
        order = sorted(TIME_SHARES, key=lambda k: (
            len(samples[k]) >= MIN_SAMPLES, sum(samples[k]) / TIME_SHARES[k]))
        fits = [k for k in order if len(samples[k]) < MIN_SAMPLES
                or elapsed + statistics.median(samples[k]) <= seconds]
        if not fits:
            break
        steps[fits[0]]()
    if state["out"]:
        shutil.rmtree(state["out"], ignore_errors=True)

    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mib"] = statistics.median(rss_mib)
    metrics["artifact_mib"] = statistics.median(artifact_mib) if artifact_mib else 0.0
    metrics["pass_frac"] = (gate.attempted - gate.failed) / gate.attempted
    samples.update(peak_rss_mib=rss_mib, artifact_mib=artifact_mib)
    return metrics, {"samples": samples}


def measure_trace(wl, seed, cfg, work, gate):
    children = Children(work)
    metrics = {
        name: statistics.median(float(children.output(("-c", code))) for _ in range(IMPORT_SAMPLES))
        for name, code in IMPORT_PROBES.items()
    }

    sys.path.insert(0, SRC)
    import ustattails.cli as cli

    if not cli.__file__.startswith(SRC + os.sep):
        raise RuntimeError(f"ustattails resolved to {cli.__file__}, not under {SRC}")

    def in_process(out):
        start = time.perf_counter()
        code = cli.main(["run", cfg, "--set", f"run.seed={seed}", "--out", out])
        return time.perf_counter() - start, code

    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    untraced_s, code = in_process(plain_dir)
    gate.record("untraced run", check_artifacts(wl, plain_dir, code, seed))

    tracer = Tracer()
    tracer.install()
    try:
        traced_s, code = in_process(traced_dir)
    finally:
        tracer.uninstall()
    failures = check_artifacts(wl, traced_dir, code, seed)
    failures += check_identical(digests(plain_dir), digests(traced_dir), "traced run")
    left = installed_wrappers()
    if left:
        failures.append(f"wrappers left installed after the traced run: {left}")
    coverage = tracer.total(STAGE_SPANS) / traced_s
    if coverage < MIN_STAGE_COVERAGE:
        failures.append(f"stage spans cover {coverage:.3f} of the traced run, below {MIN_STAGE_COVERAGE}")
    gate.record("traced run", failures)

    self_s = tracer.self_times()
    for _module, _func, name, _count in LAYERS:
        metrics[f"{name}.s"] = self_s.get(name, 0.0)
    for name in STAGE_SPANS:
        metrics[f"{name}.s"] = tracer.total((name,))
    metrics.update(tracer.counts)
    metrics["engine.average.evals_per_s"] = (
        metrics["engine.average.kernel_evals"] / metrics["engine.average.s"]
    )
    metrics["empirics.distance.useful_frac"] = (
        metrics["empirics.distance.useful_pairs"] / metrics["empirics.distance.pairs"]
    )
    metrics["cli.artifacts.bytes"] = dir_bytes(traced_dir)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.stage_coverage"] = coverage

    layer_self = {k: v for k, v in self_s.items() if not k.startswith("stage.")}
    expected = sum(layer_self.get(n, 0.0) for n in wl.dominant)
    others = {k: v for k, v in layer_self.items() if k not in wl.dominant}
    runner_up = max(others, key=others.get)
    extra = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "dominant": {
            "expected": list(wl.dominant),
            "self_s": expected,
            "runner_up": runner_up,
            "runner_up_s": others[runner_up],
            "confirmed": expected > others[runner_up],
        },
    }
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{wl.name}-seed{seed}-spans.json")
    with open(spans_path, "w") as fh:
        json.dump({"run": f"{wl.name}-seed{seed}", "spans": tracer.spans}, fh)
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the working directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "ustattails", "cli.py")):
        print(f"error: no ustattails sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        cfg = os.path.join(work, "workload.cfg")
        with open(cfg, "w") as fh:
            fh.write(wl.config_text())
        gate = Gate(wl, args.seed)
        if args.trace:
            values, extra = measure_trace(wl, args.seed, cfg, work, gate)
        else:
            values, extra = measure_end_to_end(wl, args.seed, args.seconds, cfg, work, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "config": wl.config,
        "why": wl.why,
        "bypasses": wl.bypasses,
        "known_defects": list(wl.defects),
        "gate_misses": gate.misses,
        **extra,
    }
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
