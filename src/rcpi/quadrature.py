"""Quadrature of the resonance integral at its pole.

With y = sigma w and a = sigma omega0 the cross-atom integral is (2/c) I(a), where

    I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a).

The kernel splits I(a) at a window [a - d, a + d], d = min(a, pi), around the pole:

* on the window, in t = y - a, the integrand is g(t) / t with
  g(t) = y sin(y) / (y + a), and W = int_0^1 [g(d x) - g(-d x)] / x dx.  g has
  its one pole at t = -2a, so this integrand is analytic inside a Bernstein
  ellipse of parameter 3 + sqrt(8) or more for every a, and a fixed 20-node
  Gauss-Legendre rule converges geometrically (Trefethen, SIAM Rev. 50 (2008)
  67-87): no adaptive rule is needed, and the 10-node rule beside it gives the
  estimate.  The window [-d, d] and its nodes are exact at any a;
* outside it, y sin(y) / (y^2 - a^2) = (1/2) sin(y) [1/(y - a) + 1/(y + a)],
  whose integrals over [0, a - d] and [a + d, inf) are exact in the sine and
  cosine integrals:  O(a, d) = (1/2) [cos(a) C + sin(a) S] with
  C = pi - 2 Si(d) + Si(2a - d) - Si(2a + d) and S = Ci(2a + d) - Ci(2a - d).

So the principal value stays numerical, and the closed form of I(a) itself
enters nowhere.  The error estimate is the window's (``_window``),
plus a rounding bound for O, plus the a-scale term
2u (a + d) (|W| + |W'| + (|C| + |S|) / 2): u is the unit roundoff and W' the
conjugate window, with cos(y) in place of sin(y), from the same node values.
W' is close to dW/da and (|C| + |S|) / 2 bounds dO/da, so the term is of the
order of what the rounding of a = sigma omega0 moves the result by.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

from .geometry import SpacetimeConfig, _require_phase, _require_positive, response_shape

__all__ = ["IntegralResult", "QuadratureError", "rcpi_integral"]

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-7
_U = 0.5 * sys.float_info.epsilon


class QuadratureError(RuntimeError):
    """An integral could not be computed to the requested accuracy."""


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with its error estimate and the number of points its rule evaluated the
    integrand at."""

    value: float
    error: float
    evaluations: int


@functools.cache
def _gauss_rules() -> tuple[tuple[tuple[float, float], ...], ...]:
    """The (node, weight) pairs on (0, 1) of the 20- and the 10-point Gauss-Legendre rules, as floats."""
    from numpy.polynomial.legendre import leggauss  # deferred: `import rcpi.cli` should not pay for it

    return tuple(tuple(zip((0.5 + 0.5 * x).tolist(), (0.5 * w).tolist())) for x, w in map(leggauss, (20, 10)))


def _window(a: float, d: float) -> tuple[float, float, float]:
    """W = int_0^1 [g(d x) - g(-d x)] / x dx, the principal value of y sin(y) / (y^2 - a^2) over [a - d, a + d],
    by the 20-point Gauss-Legendre rule; its conjugate W', with cos(y) in place of sin(y); and the estimate of W.

    g(t) = r(t) sin(a + t) with r(t) = (a + t) / (2a + t).  With u = t / a,
    r(t) - r(-t) = 2u / (4 - u^2) and r(t) + r(-t) = (4 - 2u^2) / (4 - u^2), so
    g(t) - g(-t) = sin(a) cos(t) [r(t) - r(-t)] + cos(a) sin(t) [r(t) + r(-t)]:
    no difference cancels, no node is rounded at the scale of a, 2a does not
    overflow, and at a d that underflows in d x nothing divides 0 by 0.  The
    estimate is the 10-point rule's departure |G20 - G10| plus 50 u times a
    bound on the sum of the terms' sizes, for their rounding and that of the
    sum.
    """
    q = d / a  # u = q x, with q <= 1, so 4 - u^2 >= 3
    sums = []
    for rule in _gauss_rules():
        odd = even = 0.0
        for x, w in rule:
            u2 = (q * x) ** 2
            den = 4.0 - u2
            t = d * x
            odd += w * math.cos(t) / den
            even += w * math.sin(t) / x * (den - u2) / den
        sums.append((2.0 * q * odd, even))
    (odd, even), (odd10, even10) = sums
    cos_a, sin_a = math.cos(a), math.sin(a)
    w = sin_a * odd + cos_a * even
    # Each term of odd is at most 2q/3 per unit weight, and each term of even is positive; ulp(0) is the absolute
    # rounding of a subnormal term.
    size = 2.0 * q / 3.0 * abs(sin_a) + abs(cos_a) * even
    error = abs(w - (sin_a * odd10 + cos_a * even10)) + 50.0 * (_U * size + math.ulp(0.0))
    return w, cos_a * odd - sin_a * even, error


def _outside(a: float, d: float) -> tuple[float, float, float]:
    """O(a, d), the integral of y sin(y) / (y^2 - a^2) over [0, a - d] and [a + d, inf) in the sine and cosine
    integrals, a bound on its rounding error (a few units in the last place of the largest term), and |C| + |S|,
    the sizes of the brackets C and S that multiply cos(a) and sin(a) in O."""
    from scipy.special import sici  # deferred: slow to import, and only `rcpi shift` and `validate` use it

    # 2a -/+ d overflow to inf past a = 9e307, where Si is pi/2 and Ci is 0, as they are to double precision.
    below, above = 2.0 * a - d, 2.0 * a + d
    (si_d, si_below, si_above), (_, ci_below, ci_above) = sici([d, below, above])
    brackets = math.pi - 2.0 * si_d + si_below - si_above, ci_above - ci_below
    cos_a, sin_a = math.cos(a), math.sin(a)
    value = 0.5 * (cos_a * brackets[0] + sin_a * brackets[1])
    # Ci(x) is gamma + ln(x) plus a series up to x = 4, so there its rounding error scales with 1 + |ln x|.
    size = abs(cos_a) * (math.pi + 2.0 * abs(si_d) + abs(si_below) + abs(si_above)) + abs(sin_a) * sum(
        abs(ci) + 1.0 + abs(math.log(min(x, 4.0))) for ci, x in ((ci_below, below), (ci_above, above))
    )
    return float(value), 4.0 * sys.float_info.epsilon * float(size), float(abs(brackets[0]) + abs(brackets[1]))


def _resonance_kernel(a: float) -> IntegralResult:
    """I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy, which is (pi/2) cos(a), by a Gauss-Legendre rule on the window
    [a - d, a + d] and the sine and cosine integrals outside it.  Returns the error estimate unchecked; raises
    QuadratureError where a has underflowed to 0, which puts the pole at the end point y = 0."""
    if a == 0.0:
        raise QuadratureError("sigma omega0 underflows to 0, which puts the pole at the end point y = 0")
    d = min(a, math.pi)
    w, conjugate, error = _window(a, d)
    outside, rounding, brackets = _outside(a, d)
    # The rounding of a = sigma omega0 moves W by about W' and O by at most (|C| + |S|) / 2 per unit of a.
    a_scale = 2.0 * _U * (a + d) * (abs(w) + abs(conjugate) + 0.5 * brackets)
    # g is taken at t = d x and at -d x for every node of both rules.
    return IntegralResult(w + outside, error + rounding + a_scale, 2 * sum(map(len, _gauss_rules())))


def rcpi_integral(
    spacetime: SpacetimeConfig,
    omega0: float,
    L: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> IntegralResult:
    """Numerical resonance-interaction integral P int_0^inf (w/(w-w0) + w/(w+w0)) s(w) dw.

    The shape factor s = (sigma / c) sinc(sigma w), with sigma and c from
    ``geometry.response_shape``, is the separation factor f(w, L/2) in de
    Sitter and sinc(w L) in a thermal Minkowski bath; the result equals
    -(4 pi^2 / mu^2) times the symmetric-state energy shift.  The thermal
    occupation numbers at +/-w sum to one, which removes the bath temperature
    from the integrand exactly; the thermal result therefore cannot depend
    on T, and the de Sitter result sees the curvature only through f.  With
    y = sigma w the integrand is (2/c) y sin(y) / (y^2 - a^2) at a = sigma omega0,
    so the result is (2/c) times the kernel's I(a).

    Raises ValueError for a non-positive or non-finite omega0 or L, or where
    the phase omega0 sigma is not a double, and QuadratureError (with the
    evaluation count and the error estimate) when the
    result or its error estimate is not finite, or the estimate misses the
    requested tolerance, or where sigma omega0 underflows to 0.
    """
    _require_positive(omega0=omega0, L=L)
    sigma, c = response_shape(spacetime, L)
    _require_phase(omega0, sigma)
    res = _resonance_kernel(sigma * omega0)
    scale = 2.0 / c
    value, error = scale * res.value, scale * res.error
    if not (math.isfinite(value) and math.isfinite(error) and error <= max(abs_tol, rel_tol * abs(value))):
        raise QuadratureError(
            f"resonance integral: requested tolerance not met: estimate {error:g} for value {value:g} "
            f"(evaluations={res.evaluations})"
        )
    return replace(res, value=value, error=error)
