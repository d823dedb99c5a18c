"""Correctness gate applied to every ``ustattails`` invocation the benchmark makes.

Each check returns a list of failure messages; an empty list is a pass.
The fifth check of the gate, byte identity across the repeats of one
benchmark invocation, compares :func:`digests` of two artifact directories.
"""

import hashlib
import math
import os

from workloads import REFERENCE_SEED

REL_TOL = 1e-9


def key_values(path):
    """``key = value`` lines of a text artifact, as a dict of strings."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line and not line.startswith(("-", "#")):
                k, v = line.split("=", 1)
                out[k.strip()] = v.strip()
    return out


def digests(out_dir):
    """sha256 of every file in an artifact directory, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_artifacts(workload, out_dir, exit_code, seed):
    """Exit code, artifact set, verify ordering and seed-11 reference values."""
    if exit_code != workload.expected_exit:
        return [f"exit code {exit_code}, expected {workload.expected_exit}"]
    present = set(os.listdir(out_dir))
    expected = set(workload.artifacts)
    if present != expected:
        return [
            f"artifact set differs: missing {sorted(expected - present)}, "
            f"unexpected {sorted(present - expected)}"
        ]
    failures = []
    verify = key_values(os.path.join(out_dir, "verify_report.txt"))
    if verify.get("ordering") != "PASS" or verify.get("upper_violations") != "0":
        failures.append(
            f"verify_report: ordering = {verify.get('ordering')}, "
            f"upper_violations = {verify.get('upper_violations')}"
        )
    if seed == REFERENCE_SEED:
        report = key_values(os.path.join(out_dir, "bound_report.txt"))
        for key, ref in workload.reference.items():
            got = float(report.get(key, "nan"))
            if not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=0.0):
                failures.append(f"bound_report {key} = {got!r}, reference {ref!r}")
    return failures


def check_identical(reference, current, what):
    """Byte identity of two digest maps from :func:`digests`."""
    if reference == current:
        return []
    changed = sorted(k for k in reference.keys() | current.keys()
                     if reference.get(k) != current.get(k))
    return [f"{what}: artifacts differ from the first repeat: {changed}"]
