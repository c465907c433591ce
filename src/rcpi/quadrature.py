"""QUADPACK quadrature of the resonance integral at its pole.

With y = sigma w and a = sigma omega0 the cross-atom integral is (2/c) I(a), where

    I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a):

a simple pole at y = a times a sine over a 1/y envelope.  One kernel splits
I(a) at the edges of a window [a - d, a + d] centred on the pole,
d = min(a, pi), at most two half-periods wide:

* QAWC (Cauchy weight), a rule of Piessens et al., QUADPACK (1983), takes the
  principal value on the window, in t = y - a with sin(a + t) expanded, so
  that the window [-d, d], its nodes and its Cauchy weight 1/t are exact at
  any a; in y, their rounding to u a would cost about u a / t close to the pole;
* outside it, y sin(y) / (y^2 - a^2) = (1/2) sin(y) [1/(y - a) + 1/(y + a)],
  whose integrals over [0, a - d] and [a + d, inf) are exact in the sine and
  cosine integrals:  O(a, d) = (1/2) [cos(a) C + sin(a) S] with
  C = pi - 2 Si(d) + Si(2a - d) - Si(2a + d) and S = Ci(2a + d) - Ci(2a - d).

So the principal value stays numerical, one QUADPACK call, and the closed form
of I(a) itself enters nowhere.

The window gets half of abs_tol as an absolute target.  Near a zero of
cos(a) the window and O are much larger than their sum, so a target relative
to the window at rel_tol would not bound the error of the sum; the only
relative target is a roundoff floor of 1e-12, which keeps the target
reachable when the integral is large.  The error estimate adds to QAWC's own
a rounding bound for O and an a-scale term 2 u (a + d) (|W| + (|C| + |S|) / 2),
W the window's value and u the unit roundoff.  That term is of the order of
what the rounding of a = sigma omega0, u a, moves the result by; it stands in
for that rounding until the phase is exact (ROADMAP item 16).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

from .geometry import SpacetimeConfig, _require_phase, _require_positive, response_shape

__all__ = ["IntegralResult", "QuadratureError", "rcpi_integral"]

_QUAD_LIMIT = 200
DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-7
_ROUNDOFF = 1e-12


class QuadratureError(RuntimeError):
    """An integral could not be computed to the requested accuracy."""


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with its error estimate and the integrand calls of its QUADPACK rule."""

    value: float
    error: float
    evaluations: int


def _piece(f: Callable[[float], float], a: float, b: float, abs_tol: float, rel_tol: float = 0.0, **weight) -> IntegralResult:
    """One scipy.integrate.quad call with its counter.

    A rule that stops short of its target still returns its best value and
    error estimate; the caller judges the error of the whole integral.
    """
    from scipy import integrate  # deferred: slow to import, and only `rcpi shift` and `validate` use it

    value, error, info = integrate.quad(
        f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=_QUAD_LIMIT, full_output=1, **weight
    )[:3]
    return IntegralResult(value, error, int(info["neval"]))


def _outside(a: float, d: float) -> tuple[float, float, float]:
    """O(a, d), the integral of y sin(y) / (y^2 - a^2) over [0, a - d] and [a + d, inf) in the sine and cosine
    integrals, a bound on its rounding error (a few units in the last place of the largest term), and |C| + |S|,
    the sizes of the brackets C and S that multiply cos(a) and sin(a) in O."""
    from scipy.special import sici  # loaded with scipy.integrate

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


def _resonance_kernel(a: float, abs_tol: float) -> IntegralResult:
    """I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy, which is (pi/2) cos(a), by QAWC on the window [a - d, a + d]
    and the sine and cosine integrals outside it.  Returns the error estimate unchecked; raises QuadratureError
    where a has underflowed to 0, which puts the pole at the end point y = 0."""
    if a == 0.0:
        raise QuadratureError("sigma omega0 underflows to 0, which puts the pole at the end point y = 0")
    d = min(a, math.pi)
    cos_a, sin_a = math.cos(a), math.sin(a)

    def window(t: float) -> float:
        # y sin(y) / (y + a) at y = a + t, with no node rounded at the scale of a and no overflow of 2a.
        return 0.5 * (a + t) * (sin_a * math.cos(t) + cos_a * math.sin(t)) / (a + 0.5 * t)

    w = _piece(window, -d, d, 0.5 * abs_tol, _ROUNDOFF, weight="cauchy", wvar=0.0)
    outside, rounding, brackets = _outside(a, d)
    # The a-scale term, in place of the rounding of a = sigma omega0 until the phase is exact (ROADMAP item 16).
    a_scale = sys.float_info.epsilon * (a + d) * (abs(w.value) + 0.5 * brackets)
    return replace(w, value=w.value + outside, error=w.error + rounding + a_scale)


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
    res = _resonance_kernel(sigma * omega0, 0.5 * c * abs_tol)
    scale = 2.0 / c
    value, error = scale * res.value, scale * res.error
    if not (math.isfinite(value) and math.isfinite(error) and error <= max(abs_tol, rel_tol * abs(value))):
        raise QuadratureError(
            f"resonance integral: requested tolerance not met: estimate {error:g} for value {value:g} "
            f"(evaluations={res.evaluations})"
        )
    return replace(res, value=value, error=error)
