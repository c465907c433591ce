"""Weighted QUADPACK quadrature of the resonance integral.

With y = sigma w and a = sigma omega0 the cross-atom integral is (2/c) I(a), where

    I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a):

a simple pole at y = a times a sine over a 1/y envelope.  One kernel splits
I(a) at the edges of a window [a - d, a + d] centred on the pole,
d = min(a, pi), at most two half-periods wide:

* QAWC (Cauchy weight), a rule of Piessens et al., QUADPACK (1983), takes the
  principal value on the window;
* QAWO (sine weight, finite interval) takes [0, a - d] below it;
* past the window, y sin(y) / (y^2 - a^2) = (1/2) sin(y) [1/(y - a) + 1/(y + a)],
  whose integral from a + d to infinity is exact in the sine and cosine
  integrals:  T(a, d) = (1/2) [cos(a) (pi - Si(d) - Si(2a + d))
  + sin(a) (Ci(2a + d) - Ci(d))].

So the pole and everything below it stay numerical, and the closed form of
I(a) itself enters nowhere.  The sine-weighted amplitude y / (y + a) / (y - a)
is analytic at y = 0, so the first QAWO panel starts there.  The QAWO stretch
is cut into panels that grow geometrically away from the pole, so that no
panel sees the pole closer than its own length; on longer panels the
Chebyshev error estimate of QAWO can be tiny while the value is wrong.  For
a <= pi the window reaches down to 0 and the QAWC call is the only one.

Each QUADPACK piece gets an equal share of abs_tol as an absolute target.
Near a zero of cos(a) the pieces are much larger than their sum, so a target
relative to each piece at rel_tol would not bound the error of the sum; the
only relative target is a roundoff floor of 1e-12 of the piece, which keeps
the target reachable when the integral is large.  The error estimate adds to
the pieces' own estimates a rounding bound for T and a node-rounding term
2 u (a + d) times the summed magnitude of the pieces, u the unit roundoff: a
QAWO panel near y places its sine weight at a centre rounded to u y.  The
window is taken in t = y - a with sin(a + t) expanded, so that its nodes and
its Cauchy weight 1/t are exact near the pole; in y, their rounding to u a
would cost about u a / t close to the pole.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import pairwise
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
    """Value of an integral together with its error estimate and the integrand calls over all QUADPACK pieces."""

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


def _panels(start: float, stop: float, pole: float) -> list[float]:
    """Panel edges from start to stop, each panel no longer than its distance to the pole, or than half of
    it while the panels approach the pole.  The pole lies outside [start, stop]."""
    edges = [start]
    while edges[-1] < stop:
        x = edges[-1]
        edges.append(min(stop, x + (0.5 * (pole - x) if x < pole else x - pole)))
    return edges


def _tail(a: float, d: float) -> tuple[float, float]:
    """T(a, d) = int_{a+d}^inf y sin(y) / (y^2 - a^2) dy in the sine and cosine integrals, and a bound on its
    rounding error: a few units in the last place of the largest term."""
    from scipy.special import sici  # loaded with scipy.integrate

    far = 2.0 * a + d
    si_near, ci_near = sici(d)
    si_far, ci_far = sici(far)
    cos_a, sin_a = math.cos(a), math.sin(a)
    value = 0.5 * (cos_a * (math.pi - si_near - si_far) + sin_a * (ci_far - ci_near))
    # Ci(x) is gamma + ln(x) plus a series, so its rounding error scales with 1 + |ln x|, not with |Ci(x)|.
    size = abs(cos_a) * (math.pi + abs(si_near) + abs(si_far)) + abs(sin_a) * (
        abs(ci_near) + abs(ci_far) + 2.0 + abs(math.log(d)) + abs(math.log(far))
    )
    return float(value), 4.0 * sys.float_info.epsilon * float(size)


def _resonance_kernel(a: float, abs_tol: float) -> IntegralResult:
    """I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy, which is (pi/2) cos(a), by weighted QUADPACK rules up to
    a + d and the sine and cosine integrals beyond.

    Returns the error estimate unchecked; raises QuadratureError when the window around the pole is below
    the resolution of doubles at a.
    """
    d = min(a, math.pi)
    if d <= 64.0 * sys.float_info.epsilon * a:
        raise QuadratureError(f"sigma omega0 = {a:g} leaves no half-period around the pole in double precision")

    cos_a, sin_a = math.cos(a), math.sin(a)

    def window(t: float) -> float:
        # y sin(y) / (y + a) at y = a + t, with no node rounded at the scale of a.
        return (a + t) * (sin_a * math.cos(t) + cos_a * math.sin(t)) / (2.0 * a + t)

    def amplitude(y: float) -> float:
        # Two divisions: the product (y + a)(y - a) underflows to 0 for tiny a.
        return y / (y + a) / (y - a)

    lo, hi = a - d, a + d
    spans = list(pairwise(_panels(0.0, lo, a)))
    # One share of abs_tol per QUADPACK piece and one for the tail.
    tol = abs_tol / (len(spans) + 2)
    pieces = [_piece(window, lo - a, hi - a, tol, _ROUNDOFF, weight="cauchy", wvar=0.0)]
    pieces += [_piece(amplitude, x0, x1, tol, _ROUNDOFF, weight="sin", wvar=1.0) for x0, x1 in spans]
    # The tail starts where the window ends: at the double hi, whose distance hi - a to the pole is exact.
    tail, tail_error = _tail(a, hi - a)
    nodes = sys.float_info.epsilon * (a + d) * sum(abs(q.value) for q in pieces)
    return IntegralResult(
        math.fsum([tail, *(q.value for q in pieces)]),
        sum(q.error for q in pieces) + tail_error + nodes,
        sum(q.evaluations for q in pieces),
    )


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
    requested tolerance.
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
