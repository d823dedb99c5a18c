"""The three benchmark workloads, each a full ``ustattails run`` config.

Every workload is a config text with ``run.seed = 11``; the benchmark
passes the seed it is given as ``--set run.seed=<seed>``.  Besides the
config, each workload records why it was chosen, which layer it leaves
idle, the artifact set a successful run writes, and the reference values
of seed 11 that the correctness gate compares against.
"""

from dataclasses import dataclass

REFERENCE_SEED = 11

# Artifacts every run writes; alphabet laws add decomposition.csv and a
# configured lower curve adds tail_lower.csv.
BASE_ARTIFACTS = (
    "field.csv",
    "field_meta.txt",
    "psi_used.txt",
    "distance.csv",
    "entropy.csv",
    "entropy_summary.txt",
    "moments_sup.csv",
    "tail_empirical.csv",
    "tail_upper.csv",
    "bound_report.txt",
    "verify_report.txt",
)

KNOWN_DEFECTS = (
    "Rademacher workloads calibrate the lower curve on the last column: "
    "bound.lower_column = 0 aborts with 'no usable points to calibrate' "
    "after the heavy work (ROADMAP item 4).",
    "grids.u = quantile:0.5:0.97:12 collapses to 7 levels, some one ulp "
    "apart around an atom of the supremum; left visible on purpose.",
)


def even_grid(lo, hi, count):
    """``count`` evenly spaced points on [lo, hi], as config text."""
    step = (hi - lo) / (count - 1)
    return ",".join(repr(round(lo + k * step, 12)) for k in range(count))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bypasses: str
    config: dict
    artifacts: tuple
    reference: dict
    dominant: tuple
    defects: tuple = ()
    expected_exit: int = 0

    def config_text(self):
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


_RADEMACHER_TANH = {
    "sampler.name": "rademacher",
    "kernel.name": "gprod",
    "kernel.g": "tanh",
    "grids.p": "log:2:8:6",
    "grids.u": "quantile:0.5:0.97:12",
    "bound.lower_beta": "1.0",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="narrow_exact",
            why="ROADMAP baseline config: exact tuple averaging, the alphabet "
            "draw and an 8 MB field.csv dominate; only 190 distance pairs",
            bypasses="geometry (190 pairs) and the parametric Fenchel "
            "refinement (tabulated envelope)",
            config={
                "run.seed": "11",
                "run.n": "24",
                "run.reps": "20000",
                **_RADEMACHER_TANH,
                "kernel.t_grid": even_grid(0.2, 3.05, 20),
                "bound.lower_column": "19",
            },
            artifacts=BASE_ARTIFACTS + ("decomposition.csv", "tail_lower.csv"),
            reference={
                "diameter": 0.9606919081596713,
                "entropy_integral": 16.925499659041655,
                "sup_norm": 0.13521441875159537,
            },
            dominant=("engine.average", "engine.draw"),
            defects=KNOWN_DEFECTS,
        ),
        Workload(
            name="wide_index",
            why="100 index points: 4950 pairwise moment tables are built twice "
            "(entropy, then bounds) while tuple averaging is small",
            bypasses="tuple averaging (120 tuples per replication) and the "
            "parametric Fenchel refinement",
            config={
                "run.seed": "11",
                "run.n": "16",
                "run.reps": "3000",
                **_RADEMACHER_TANH,
                "kernel.t_grid": even_grid(0.2, 3.05, 100),
                "bound.lower_column": "99",
            },
            artifacts=BASE_ARTIFACTS + ("decomposition.csv", "tail_lower.csv"),
            reference={
                "diameter": 0.9606919081596711,
                "entropy_integral": 18.044612347845025,
                "sup_norm": 0.13521441875159537,
            },
            dominant=("empirics.moments", "empirics.distance"),
            defects=KNOWN_DEFECTS,
        ),
        Workload(
            name="heavy_incomplete",
            why="incomplete averaging with two Philox streams per replication "
            "and the exp_power Fenchel transform with golden-section refinement",
            bypasses="closed-form exact averaging (ROADMAP item 2) and the "
            "alphabet decomposition; geometry is 28 pairs",
            config={
                "run.seed": "11",
                "run.n": "40",
                "run.reps": "2000",
                "run.mode": "incomplete",
                "run.subsets": "1500",
                "run.rank": "3",
                "sampler.name": "lognormal",
                "sampler.sigma": "0.5",
                "kernel.name": "gprod",
                "kernel.g": "sin",
                "kernel.degree": "3",
                "kernel.t_grid": even_grid(0.25, 2.0, 8),
                "psi.family": "exp_power",
                "psi.coef": "0.6",
                "psi.expo": "1.0",
                "grids.p": "log:2:16:8",
                "grids.u": "lin:0.5:12:200",
            },
            artifacts=BASE_ARTIFACTS,
            reference={
                "diameter": 1.2630675203667623,
                "entropy_integral": 159.50112074743683,
                "sup_norm": 0.0638368497414731,
            },
            dominant=("engine.average",),
        ),
    )
}
