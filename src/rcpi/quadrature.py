"""Quadrature of the resonance integral at its pole.

With y = sigma w and a = sigma omega0 the cross-atom integral is (2/c) I(a), where

    I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a).

The kernel splits I(a) at a window [a - d, a + d], d = min(a, pi), around the pole:

* on the window, in t = y - a, the integrand is g(t) / t with
  g(t) = y sin(y) / (y + a), and W = int_0^1 [g(d x) - g(-d x)] / x dx, which
  a fixed 12-node Gauss-Legendre rule takes within an a-priori bound: g has
  its one pole at t = -2a.  The window [-d, d] and its nodes are exact at any a;
* outside it, y sin(y) / (y^2 - a^2) = (1/2) sin(y) [1/(y - a) + 1/(y + a)],
  whose integrals over [0, a - d] and [a + d, inf) are exact in the sine and
  cosine integrals:  O(a, d) = (1/2) [cos(a) C + sin(a) S] with
  C = pi - 2 Si(d) + Si(2a - d) - Si(2a + d) and S = Ci(2a + d) - Ci(2a - d).
  ``_sici`` takes Si and Ci in plain Python: by their power series up to
  x = 4, and past it from the auxiliary functions f and g, which the
  continued fraction of e^(ix) E1(ix) = g - i f gives (Abramowitz & Stegun 5.2).

So the principal value stays numerical, and the closed form of I(a) itself
enters nowhere.  The error estimate is the window's bound (``_window``),
plus a rounding bound for O, plus the a-scale term
2u (a + d) (|W| + |W'| + (|C| + |S|) / 2): u is the unit roundoff and W' the
conjugate window, with cos(y) in place of sin(y), from the same node values.
W' is close to dW/da and (|C| + |S|) / 2 bounds dO/da, so the term is of the
order of what the rounding of a = sigma omega0 moves the result by.

The Gauss-Legendre rule is stored (``_RULE``), each node and weight the double
nearest its exact value, as ``TestRules`` checks against the roots of P_12 in
40 digits.  So the module imports, and runs, on ``math`` and ``sys`` alone.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .geometry import SpacetimeConfig, _pair_response

__all__ = ["IntegralResult", "QuadratureError", "rcpi_integral"]

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-7
_U = 0.5 * sys.float_info.epsilon
# Si and Ci are taken by their power series up to here, and by the auxiliary functions f and g past it.
_SICI_SWITCH = 4.0
_EULER_GAMMA = 0.5772156649015329
# The parameter of the Bernstein ellipse E_rho that the window's error is bounded on.
_RHO = 5.6
# The (node, weight) pairs on (0, 1), in increasing order, of the 12-point Gauss-Legendre rule: each the double
# nearest its exact value (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
_RULE = (
    (0.009219682876640375, 0.023587668193255914),
    (0.04794137181476257, 0.05346966299765921),
    (0.11504866290284765, 0.08003916427167311),
    (0.2063410228566913, 0.10158371336153296),
    (0.3160842505009099, 0.1167462682691774),
    (0.43738329574426554, 0.12457352290670139),
    (0.5626167042557345, 0.12457352290670139),
    (0.6839157494990901, 0.1167462682691774),
    (0.7936589771433087, 0.10158371336153296),
    (0.8849513370971523, 0.08003916427167311),
    (0.9520586281852375, 0.05346966299765921),
    (0.9907803171233597, 0.023587668193255914),
)
_WINDOW_NODES = len(_RULE)


class QuadratureError(RuntimeError):
    """An integral could not be computed to the requested accuracy."""


class EvolutionError(RuntimeError):
    """The master-equation propagation produced a non-finite state.  ``liouvillian`` raises it and exports it; it is
    defined here, beside the other numerical failure that the CLI maps to exit code 3, so that ``import rcpi.cli``
    loads no numpy to catch it."""


class IntegralResult(Record):
    """Value of an integral together with its error estimate and the number of points its rule evaluated the
    integrand at."""

    value: float
    error: float
    evaluations: int


def _sici(x: float) -> tuple[float, float]:
    """Si(x) and Ci(x) for x > 0, inf included, to a few units in the last place of Si and of
    |Ci| + 1 + |ln min(x, 4)|.

    Up to x = 4 it sums the power series
    Si = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!) and Ci = gamma + ln x + sum_k>0 (-1)^k x^(2k) / (2k (2k)!),
    whose terms there are at most 4.  Past it Si = pi/2 - f cos x - g sin x and Ci = f sin x - g cos x, with the
    auxiliary functions f and g from e^(ix) E1(ix) = g - i f (Abramowitz & Stegun 5.2.8-13, 5.1.22).  Its
    continued fraction 1/(1 + ix -) 1/(3 + ix -) 4/(5 + ix -) 9/(7 + ix -) ... is taken by modified Lentz (Numerical
    Recipes, 3rd ed., 6.8) until a step moves the value by at most 4 eps, which it does within 45 steps from x = 4
    on; the loop stops at 64 all the same, as the steps can stall a little above eps.  Every term is of the order of
    1 + ix, so nothing overflows up to the largest double.  At x = inf the fraction gives NaN, so there the limit
    (pi/2, 0) is returned.
    """
    if x > _SICI_SWITCH:
        if x == math.inf:
            return 0.5 * math.pi, 0.0
        b = complex(1.0, x)
        h = d = 1.0 / b
        c = math.inf  # Lentz's C_1 = b_1 + 1 / C_0 with C_0 = b_0 = 0, so the loop's first c is b
        for n in range(1, 64):
            b += 2.0
            d = 1.0 / (b - n * n * d)
            c = b - n * n / c
            step = c * d
            h *= step
            if abs(step - 1.0) <= 4.0 * sys.float_info.epsilon:
                break
        f, g = -h.imag, h.real
        cos_x, sin_x = math.cos(x), math.sin(x)
        return 0.5 * math.pi - f * cos_x - g * sin_x, f * sin_x - g * cos_x
    # t is x^n / n!, the terms alternate in sign two by two; the sum stops below 1e-18 of the first term x.
    si = t = x
    ci = 0.0
    sign, n = -1.0, 1
    while t > 1e-18 * x:
        t *= x / (n + 1)
        ci += sign * t / (n + 1)
        t *= x / (n + 2)
        si += sign * t / (n + 2)
        sign, n = -sign, n + 2
    return si, _EULER_GAMMA + math.log(x) + ci


def _ellipse_maxima(d: float, q: float) -> tuple[float, float]:
    """M1 and M2, bounds on |F1| and |F2| of ``_window`` inside E_rho, from the largest |x|^2 there and cosh(d b)."""
    x2, growth = ((1.0 + (_RHO + 1.0 / _RHO) / 2.0) / 2.0) ** 2, math.cosh(d * (_RHO - 1.0 / _RHO) / 4.0)
    den = 4.0 - q * q * x2
    return 2.0 * q * growth / den, d * growth * (4.0 + 2.0 * q * q * x2) / den


def _window(a: float, d: float, cos_a: float, sin_a: float) -> tuple[float, float, float]:
    """W = int_0^1 [g(d x) - g(-d x)] / x dx, the principal value of y sin(y) / (y^2 - a^2) over [a - d, a + d],
    by the n-point Gauss-Legendre rule; its conjugate W', with cos(y) in place of sin(y); and a bound on W's error.
    ``cos_a`` and ``sin_a`` are cos(a) and sin(a).

    g(t) = r(t) sin(a + t) with r(t) = (a + t) / (2a + t).  With u = t / a = q x, q = d / a <= 1,
    r(t) -/+ r(-t) = 2u / (4 - u^2) and (4 - 2u^2) / (4 - u^2), so the integrand is sin(a) F1 + cos(a) F2 with
    F1 = 2q cos(d x) / (4 - u^2) and F2 = sin(d x) / x (4 - 2u^2) / (4 - u^2): no difference cancels, no node is
    rounded at the scale of a, 2a does not overflow, and at a d that underflows in d x nothing divides 0 by 0.

    The bound: in s = 2x - 1, inside the Bernstein ellipse E_rho of [-1, 1], rho < 3 + sqrt(8), |1 + s| is at most
    1 + (rho + 1/rho) / 2 < 4, so |x| < 2 <= 2/q keeps the poles x = +/-2/q outside, and |Im x| <= (rho - 1/rho) / 4
    = b.  There |cos(d x)| <= cosh(d b), as is |sin(d x) / (d x)|, the mean of cos(d x v) over v in [0, 1], and
    |4 - u^2| >= 4 - q^2 |x|^2, |4 - 2u^2| <= 4 + 2q^2 |x|^2: so M1 and M2 of ``_ellipse_maxima`` bound |F1|, |F2|.
    For |f| <= M inside E_rho the rule errs by at most (64/15) M rho^-2n / (rho^2 - 1) on [-1, 1] (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3), half that on [0, 1]: at n = 12, rho = 5.6 below
    5e-16 (|sin a| + |cos a|) for every a.  50 u times a bound on the terms' sizes adds their rounding and the sum's.
    """
    q, odd, even = d / a, 0.0, 0.0
    for x, w in _RULE:
        u2 = (q * x) ** 2
        den = 4.0 - u2
        odd += w * math.cos(d * x) / den
        even += math.sin(d * x) / x * (w * (den - u2) / den)
    m1, m2 = _ellipse_maxima(d, q)
    truncation = 32.0 / 15.0 * _RHO ** (-2 * _WINDOW_NODES) / (_RHO * _RHO - 1.0) * (abs(sin_a) * m1 + abs(cos_a) * m2)
    # A term of 2q odd is at most 2q/3 per unit weight, one of even is positive.  A subnormal d x errs by up to
    # ulp(0) / 2, w / x times that in even: a sum of 3.1 ulp(0), and each subnormal product adds ulp(0) / 2.
    error = truncation + 50.0 * (_U * (2.0 * q / 3.0 * abs(sin_a) + abs(cos_a) * even) + math.ulp(0.0))
    odd *= 2.0 * q
    return sin_a * odd + cos_a * even, cos_a * odd - sin_a * even, error


def _outside(a: float, d: float, cos_a: float, sin_a: float) -> tuple[float, float, float]:
    """O(a, d), the integral of y sin(y) / (y^2 - a^2) over [0, a - d] and [a + d, inf) in the sine and cosine
    integrals of ``_sici``, a bound on its rounding error (a few units in the last place of the largest term), and
    |C| + |S|, the sizes of the brackets C and S that multiply ``cos_a`` = cos(a) and ``sin_a`` = sin(a) in O."""
    # 2a -/+ d overflow to inf past a = 9e307, where Si is pi/2 and Ci is 0, as they are to double precision.
    below, above = 2.0 * a - d, 2.0 * a + d
    (si_d, _), (si_below, ci_below), (si_above, ci_above) = map(_sici, (d, below, above))
    brackets = math.pi - 2.0 * si_d + si_below - si_above, ci_above - ci_below
    value = 0.5 * (cos_a * brackets[0] + sin_a * brackets[1])
    # Ci(x) is gamma + ln(x) plus a series up to x = _SICI_SWITCH, so there its rounding error scales with 1 + |ln x|.
    size = abs(cos_a) * (math.pi + 2.0 * abs(si_d) + abs(si_below) + abs(si_above)) + abs(sin_a) * sum(
        abs(ci) + 1.0 + abs(math.log(min(x, _SICI_SWITCH))) for ci, x in ((ci_below, below), (ci_above, above))
    )
    return value, 4.0 * sys.float_info.epsilon * size, abs(brackets[0]) + abs(brackets[1])


def _resonance_kernel(a: float) -> IntegralResult:
    """I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy, which is (pi/2) cos(a), by a Gauss-Legendre rule on the window
    [a - d, a + d] and the sine and cosine integrals outside it.  Returns the error estimate unchecked; raises
    QuadratureError where a has underflowed to 0, which puts the pole at the end point y = 0."""
    if a == 0.0:
        raise QuadratureError("sigma omega0 underflows to 0, which puts the pole at the end point y = 0")
    d, cos_a, sin_a = min(a, math.pi), math.cos(a), math.sin(a)
    w, conjugate, error = _window(a, d, cos_a, sin_a)
    outside, rounding, brackets = _outside(a, d, cos_a, sin_a)
    # The rounding of a = sigma omega0 moves W by about W' and O by at most (|C| + |S|) / 2 per unit of a.
    a_scale = 2.0 * _U * (a + d) * (abs(w) + abs(conjugate) + 0.5 * brackets)
    return IntegralResult(w + outside, error + rounding + a_scale, 2 * _WINDOW_NODES)  # g at d x and -d x per node


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

    Raises ValueError as ``geometry._pair_response``, and QuadratureError
    (with the evaluation count and the error estimate) when the result or
    its error estimate is not finite, or the estimate misses the requested
    tolerance, or where sigma omega0 underflows to 0.
    """
    _, c, a = _pair_response(spacetime, L, omega0)
    res = _resonance_kernel(a)
    scale = 2.0 / c
    value, error = scale * res.value, scale * res.error
    if not (math.isfinite(value) and math.isfinite(error) and error <= max(abs_tol, rel_tol * abs(value))):
        raise QuadratureError(
            f"resonance integral: requested tolerance not met: estimate {error:g} for value {value:g} "
            f"(evaluations={res.evaluations})"
        )
    return IntegralResult(value, error, res.evaluations)
