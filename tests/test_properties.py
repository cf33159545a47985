"""Property tests of the gamma-gamma density over the physical parameter box."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import kv

from fso_adapt.channel import TurbulenceParams, gg_params, gg_pdf

# Rytov variance over the box, and I_a log-uniform in [1e-6, 50]
turbulence = st.floats(0.05, 15.0).map(gg_params)
log_ia = st.floats(math.log(1e-6), math.log(50.0))

# alpha - beta = 2: Bessel K of integer order
INTEGER_ORDER = TurbulenceParams(alpha=4.0, beta=2.0, rytov_var=1.0)


def closed_form(ia: float, t: TurbulenceParams) -> float:
    """c x^e K_(a-b)(2 sqrt(a b x)) evaluated directly, with no log domain."""
    a, b = t.alpha, t.beta
    c = 2.0 * (a * b) ** (0.5 * (a + b)) / (math.gamma(a) * math.gamma(b))
    return c * ia ** (0.5 * (a + b) - 1.0) * float(kv(a - b, 2.0 * math.sqrt(a * b * ia)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(turbulence, log_ia)
@example(INTEGER_ORDER, math.log(0.5))
def test_gg_pdf_matches_closed_form(t, log_x):
    ia = math.exp(log_x)
    f = gg_pdf(ia, t)
    assert math.isfinite(f) and f >= 0.0
    expect = closed_form(ia, t)
    if math.isfinite(expect) and expect > 0.0:
        assert math.isclose(f, expect, rel_tol=1e-9), (t, ia, f, expect)
