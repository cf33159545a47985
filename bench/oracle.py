"""Independent quadrature route for the continuous-rate spectral efficiency.

The benchmark checks ``ase_limit`` against the defining expectation
E[(log2(I/cutoff))^+] at the cutoff the library solved.  The density and
the closed-form inner expectation over the misalignment factor are
written here from the model's parameters, so the check does not share
code with the library's own series or quadrature routes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.integrate import quad

_QUAD = dict(limit=400, epsabs=1e-13, epsrel=1e-11)


def gg_pdf(t, alpha: float, beta: float):
    """Gamma-gamma density, log-domain with the scaled Bessel function."""
    t = np.asarray(t, dtype=float)
    x = 2.0 * np.sqrt(alpha * beta * t)
    ln_c = (
        math.log(2.0)
        + 0.5 * (alpha + beta) * math.log(alpha * beta)
        - special.gammaln(alpha)
        - special.gammaln(beta)
    )
    with np.errstate(divide="ignore"):
        return np.exp(
            ln_c + (0.5 * (alpha + beta) - 1.0) * np.log(t) - x
            + np.log(special.kve(alpha - beta, x))
        )


def ase_at_cutoff(cutoff: float, alpha: float, beta: float, pointing=None) -> float:
    """E[(log2(I/cutoff))^+] for I = I_a * I_p, by adaptive quadrature.

    With pointing errors, ln I_p = ln a0 - E/xi2 with E ~ Exp(1), so for a
    fixed turbulence draw t the inner expectation is
    x - (1 - exp(-xi2 x))/xi2 with x = ln(a0 t / cutoff) > 0.
    """
    if pointing is None:
        lower = cutoff

        def inner(t):
            return math.log(t / cutoff)

    else:
        a0, xi2 = pointing
        lower = cutoff / a0

        def inner(t):
            x = math.log(a0 * t / cutoff)
            return x + math.expm1(-xi2 * x) / xi2

    def integrand(t):
        return inner(t) * float(gg_pdf(t, alpha, beta))

    # split where the density carries its mass so quad sees both scales
    mid = max(2.0 * lower, 4.0)
    head, _ = quad(integrand, lower, mid, **_QUAD)
    tail, _ = quad(integrand, mid, np.inf, **_QUAD)
    return (head + tail) / math.log(2.0)
