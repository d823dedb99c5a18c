"""Uniform tail bounds for parametric U-statistic deviation fields.

The library splits into five layers: envelope calculus (``envelopes``),
empirical moment and tail estimation (``empirics``), covering numbers and
entropy integrals on finite semi-metric spaces (``entropy``), the seeded
U-statistic simulation engine (``engine``), and the bound pipeline tying
them together (``bounds``).  The ``ustattails`` command drives the same
pipeline from config files.

Each layer is imported on first use of one of its names, so a process loads
only the layers it runs: ``import ustattails`` loads neither numpy nor any
layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# the layer each exported name lives in
_LAYER = {
    **dict.fromkeys((
        "MomentEnvelope", "MomentTable", "constant_envelope", "envelope_norm",
        "exp_power_envelope", "fenchel_exponent", "log_maximum_bound", "make_envelope",
        "power_log_envelope", "rosenthal_lift", "tabulated_envelope", "tail_bound", "tail_curve",
    ), "envelopes"),
    **dict.fromkeys((
        "FieldSamples", "TailCurve", "column_moments", "empirical_moments", "empirical_tail",
        "law_quantiles", "envelope_distance", "natural_envelope",
    ), "empirics"),
    **dict.fromkeys(
        ("EntropyIntegral", "FiniteMetricSpace", "covering_number", "entropy_integral"), "entropy"
    ),
    **dict.fromkeys((
        "Decomposition", "Kernel", "Sampler", "alphabet_sampler", "decompose_field",
        "deviation_scale", "draw_data", "hoeffding_decompose", "lognormal_sampler", "make_kernel",
        "normal_sampler", "pareto_sampler", "rademacher_sampler", "simulate_panel",
        "u_statistic_panel", "uniform_sampler", "variance_value",
    ), "engine"),
    **dict.fromkeys((
        "BoundReport", "ComparisonReport", "calibrate_log_power", "compare_curves",
        "log_power_exponent", "log_power_tail", "report_text", "uniform_tail_report",
    ), "bounds"),
}

__all__ = list(_LAYER)


def __getattr__(name):
    # called only for a name not yet in the package: a layer, or a name one exports
    if name in _LAYER.values():
        return import_module(f".{name}", __name__)
    if name in _LAYER:
        return getattr(import_module(f".{_LAYER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
