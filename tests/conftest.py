import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def rademacher_panels():
    """Shared U-statistic panels for the variance-slope and moment-growth
    checks: both read the same drawn data, so draw it once."""
    import ustattails as ut

    t0 = time.time()
    rad = ut.rademacher_sampler()
    kprod = ut.make_kernel("product")
    ksum = ut.make_kernel("sum")
    ns = (8, 16, 32, 64, 128, 256)
    reps = 20000
    u_prod, u_sum = {}, {}
    for n in ns:
        X = ut.draw_data(rad, n, reps, seed=424242)
        u_prod[n] = ut.u_statistic_panel(kprod, X)[0]
        u_sum[n] = ut.u_statistic_panel(ksum, X)[0]
    return {
        "ns": ns,
        "reps": reps,
        "U_prod": u_prod,
        "U_sum": u_sum,
        "build_seconds": time.time() - t0,
    }
