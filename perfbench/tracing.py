"""Outside-in tracing of the ustattails layers.

:class:`Tracer` wraps the public function of each layer in every namespace
where a caller looks it up (module globals, names re-exported by the
package, and dicts such as ``cli.STAGES``), records one span per call, and
restores the originals on :meth:`Tracer.uninstall`.  Nothing under ``src/``
is edited.  Counts are computed from each call's arguments and result, so
they repeat exactly from run to run.

Self time of a span is its duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

MARK = "__perfbench_span__"


def _average(tracer, args, kwargs, result):
    kernel, X = args[0], args[1]
    _values, _kind, tuples, _notes = result
    tracer.counts["engine.average.kernel_evals"] += tuples * X.shape[0] * len(kernel.t_grid)


def _draw(tracer, args, kwargs, result):
    tracer.counts["engine.draw.values"] += result.size


def _moments(tracer, args, kwargs, result):
    tracer.counts["empirics.moments.tables"] += 1
    tracer.counts["empirics.moments.cells"] += result.sample_count * result.p_grid.size


def _field_bytes(out_dir):
    return os.path.getsize(os.path.join(out_dir, "field.csv"))


def _write_field(tracer, args, kwargs, result):
    tracer.counts["cli.write_field.bytes"] += _field_bytes(args[0])


def _read_field(tracer, args, kwargs, result):
    tracer.counts["cli.read_field.calls"] += 1
    tracer.counts["cli.read_field.bytes"] += _field_bytes(args[0])


def _calls(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return count


def _tail(tracer, args, kwargs, result):
    tracer.counts["envelopes.tail.calls"] += 1
    tracer.counts["envelopes.tail.nonvoid"] += result < 1.0


def _distance(tracer, args, kwargs, result):
    """Pairs per distance matrix, and how many were first computed for their inputs."""
    field, env = args[0], args[1]
    m = result.shape[0]
    pairs = m * (m - 1) // 2
    key = hashlib.sha256(field.values.tobytes())
    key.update(env.to_text().encode())
    p_grid = kwargs.get("p_grid")
    if p_grid is not None:
        key.update(np.asarray(p_grid, dtype=float).tobytes())
    tracer.counts["empirics.distance.calls"] += 1
    tracer.counts["empirics.distance.pairs"] += pairs
    if key.digest() not in tracer.distance_inputs:
        tracer.distance_inputs.add(key.digest())
        tracer.counts["empirics.distance.useful_pairs"] += pairs


# (module, function, span name, counter or None)
LAYERS = (
    ("cli", "stage_simulate", "stage.simulate", None),
    ("cli", "stage_entropy", "stage.entropy", None),
    ("cli", "stage_bounds", "stage.bounds", None),
    ("cli", "stage_verify", "stage.verify", None),
    ("cli", "write_field", "cli.write_field", _write_field),
    ("cli", "read_field", "cli.read_field", _read_field),
    ("cli", "write_distance", "cli.write_distance", None),
    ("cli", "read_distance", "cli.read_distance", None),
    ("engine", "draw_data", "engine.draw", _draw),
    ("engine", "u_statistic_panel", "engine.average", _average),
    ("engine", "decompose_field", "engine.decompose", None),
    ("empirics", "empirical_moments", "empirics.moments", _moments),
    ("empirics", "envelope_distance", "empirics.distance", _distance),
    ("empirics", "natural_envelope", "empirics.envelope", None),
    ("empirics", "empirical_tail", "empirics.tail", None),
    ("entropy", "covering_number", "entropy.cover", _calls("entropy.cover.calls")),
    ("entropy", "entropy_integral", "entropy.integral", _calls("entropy.integral.calls")),
    ("envelopes", "envelope_norm", "envelopes.norm", None),
    ("envelopes", "log_maximum_bound", "envelopes.logmax", None),
    ("envelopes", "tail_bound", "envelopes.tail", _tail),
    ("bounds", "uniform_tail_report", "bounds.report", None),
    ("bounds", "compare_curves", "bounds.compare", None),
)

COUNTS = (
    "engine.average.kernel_evals",
    "engine.draw.values",
    "empirics.moments.tables",
    "empirics.moments.cells",
    "cli.write_field.bytes",
    "cli.read_field.calls",
    "cli.read_field.bytes",
    "empirics.distance.calls",
    "empirics.distance.pairs",
    "empirics.distance.useful_pairs",
    "entropy.cover.calls",
    "entropy.integral.calls",
    "envelopes.tail.calls",
    "envelopes.tail.nonvoid",
)

STAGE_SPANS = ("stage.simulate", "stage.entropy", "stage.bounds", "stage.verify")


def _package_namespaces():
    """Every module dict of the package, plus the dicts those modules hold."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if name == "ustattails" or name.startswith("ustattails."):
            ns = vars(module)
            spaces.append(ns)
            spaces.extend(v for v in ns.values() if isinstance(v, dict) and v is not ns)
    return spaces


def installed_wrappers():
    """Names still bound to a tracing wrapper anywhere in the package."""
    return sorted(
        getattr(v, MARK)
        for ns in _package_namespaces()
        for v in list(ns.values())
        if callable(v) and hasattr(v, MARK)
    )


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.distance_inputs = set()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        namespaces = _package_namespaces()
        for module, func, name, count in LAYERS:
            original = getattr(sys.modules[f"ustattails.{module}"], func)
            wrapper = self._wrap(name, original, count)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self):
        while self._patches:
            ns, key, original = self._patches.pop()
            ns[key] = original

    def self_times(self):
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _parent), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def total(self, names):
        """Summed wall time of the spans with these names."""
        return sum(end - start for name, start, end, _ in self.spans if name in names)
