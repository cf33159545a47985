"""Quadrature oracles for the channel's distribution and tail functionals.

The library evaluates these functionals with a residue series below A0
and a Gauss-Laguerre rule above it.  The tests check both routes against
adaptive quadrature of the defining integrals over the gamma-gamma
density, kept here so that no library route checks itself.

With lo = c/A0, every functional is an integral over t > lo of the
gamma-gamma density f_a(t) times the mean of its integrand over the
misalignment factor, which is done in closed form: P(I_p > c/t) =
1 - (lo/t)^xi2 and E[1/I_p; I_p > c/t] = xi2 (1 - (lo/t)^(xi2-1)) /
((xi2 - 1) A0).  Without pointing, A0 = 1 and both reduce to 1 and 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.integrate import quad

from fso_adapt.channel import _gg_density, _misalignment

_QUAD_OPTS = dict(limit=200, epsabs=1e-13, epsrel=1e-11)

# the tight oracle: relative tolerance only
TIGHT = dict(limit=500, epsabs=0.0, epsrel=1e-13)


# ---------------------------------------------------------------------------
# the quadrature forms of the density and the distribution function


def mixture_quad(lo: float, m) -> float:
    """lo^xi2 E[I_a^-xi2; I_a > lo] by quadrature over the gamma-gamma density.

    This is int_lo^inf f_a(t) (lo/t)^xi2 dt, what is left of the mixture
    over the misalignment factor once that is integrated out in closed
    form.  Its weight falls by e^-50 within t - lo = 50 lo/xi2, a
    boundary layer that quad steps over for large xi2 unless the range is
    split at its edge.
    """
    xi2 = m.pointing.xi2
    pdf = _gg_density(m.turbulence)
    edge = lo * (1.0 + 50.0 / xi2)
    weighted = lambda t: pdf(t) * (lo / t) ** xi2
    layer, _ = quad(weighted, lo, edge, **_QUAD_OPTS)
    rest, _ = quad(weighted, edge, np.inf, **_QUAD_OPTS)
    return layer + rest


def composite_pdf_quad(i: float, m) -> float:
    """Density by quadrature, valid on the whole support.

    f(i) = (xi2/i) int_(i/A0)^inf f_a(t) (i/(A0 t))^xi2 dt, the derivative
    of the distribution function below.
    """
    return m.pointing.xi2 / i * mixture_quad(i / m.pointing.a0, m)


def composite_cdf_quad(i: float, m) -> float:
    """Distribution function by quadrature, valid on the whole support.

    P(I <= i) = P(I_a <= i/A0) + (i/A0)^xi2 E[I_a^-xi2; I_a > i/A0],
    where the mixture term vanishes without pointing (xi2 = inf).
    """
    lo = i / _misalignment(m)[0]
    head, _ = quad(_gg_density(m.turbulence), 0.0, lo, **_QUAD_OPTS)
    if m.pointing is None:
        return head
    return head + mixture_quad(lo, m)


# ---------------------------------------------------------------------------
# the tight oracle of the tail functionals


def _ln_gg_pdf(t: float, alpha: float, beta: float) -> float:
    """ln f_a(t), written out from the model's parameters."""
    z = 2.0 * math.sqrt(alpha * beta * t)
    return (
        math.log(2.0)
        + 0.5 * (alpha + beta) * math.log(alpha * beta)
        - math.lgamma(alpha)
        - math.lgamma(beta)
        + (0.5 * (alpha + beta) - 1.0) * math.log(t)
        + math.log(special.kve(alpha - beta, z))
        - z
    )


def _tight_tail(lo: float, m, weight) -> float:
    """int_lo^inf f_a(t) weight(t) dt to a relative 1e-13.

    The integrand is scaled by e^(2 sqrt(ab lo)), so a tail far out does
    not underflow before the last step, and the range is cut at points
    spaced geometrically from the finest of its scales: the decay length
    sqrt(lo/ab) of the density, lo itself, and the width lo/xi2 of the
    layer that a large xi2 puts at lo.  The range ends where the density
    has fallen by e^-700 from its value at lo.
    """
    a, b = m.alpha, m.beta
    z0 = 2.0 * math.sqrt(a * b * lo)
    xi2 = _misalignment(m)[1]
    layer = lo / xi2 if 1.0 < xi2 < math.inf else lo
    step = min(math.sqrt(lo / (a * b)), layer) / 16.0
    end = (math.sqrt(lo) + 350.0 / math.sqrt(a * b)) ** 2
    cuts = [lo]
    while cuts[-1] < end:
        cuts.append(min(lo + step * 2.0 ** len(cuts), end))

    def f(t):
        return math.exp(_ln_gg_pdf(t, a, b) + z0) * weight(t)

    total = sum(quad(f, u, v, **TIGHT)[0] for u, v in zip(cuts, cuts[1:]))
    # every weight here is >= 0; unscaled in the log, so that a tail whose
    # value is representable does not underflow on the way
    return math.exp(math.log(total) - z0) if total > 0.0 else 0.0


def tail_tight(c: float, m) -> float:
    """1 - F(c) = P(I > c)."""
    a0, xi2 = _misalignment(m)
    lo = c / a0
    if m.pointing is None:
        return _tight_tail(lo, m, lambda t: 1.0)
    return _tight_tail(lo, m, lambda t: -math.expm1(xi2 * math.log(lo / t)))


def inv_above_tight(c: float, m) -> float:
    """E[1/I; I >= c]."""
    a0, xi2 = _misalignment(m)
    lo = c / a0
    if m.pointing is None:
        return _tight_tail(lo, m, lambda t: 1.0 / t)
    e = xi2 - 1.0
    k = xi2 / a0

    def weight(t):
        return k / t * -math.expm1(e * math.log(lo / t)) / e

    return _tight_tail(lo, m, weight)


def excess_inv_tight(c: float, m) -> float:
    """E[(1/c - 1/I)^+]."""
    a0, xi2 = _misalignment(m)
    lo = c / a0
    if m.pointing is None:
        return _tight_tail(lo, m, lambda t: 1.0 / c - 1.0 / (a0 * t))
    e = xi2 - 1.0

    def weight(t):
        ln_u = math.log(lo / t)
        return (-math.expm1(xi2 * ln_u) / c
                + xi2 / (a0 * t) * math.expm1(e * ln_u) / e)

    return _tight_tail(lo, m, weight)
