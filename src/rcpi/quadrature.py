"""Weighted QUADPACK quadrature of the resonance integral.

With y = sigma w and a = sigma omega0 the cross-atom integral is (2/c) I(a), where

    I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a):

a simple pole at y = a times a sine over a 1/y envelope.  One kernel splits
I(a) into pieces, each taken by the rule of Piessens et al., QUADPACK (1983),
that fits it:

* QAWC (Cauchy weight) on a window [a - d, a + d] centred on the pole,
  d = min(a, pi), at most two half-periods wide;
* QAWO (sine weight, finite interval) from 0 up to the window, and from the
  window up to one QAWF cycle, 3 pi, past the pole;
* QAWF (sine weight, Fourier integral) from there to infinity.

The sine-weighted amplitude y / (y + a) / (y - a) is analytic at y = 0, so
the first QAWO panel starts there.  The QAWO stretches are cut into panels
that grow geometrically away from the pole, so that no panel sees the pole
closer than its own length; on longer panels the Chebyshev error estimate of
QAWO can be tiny while the value is wrong.

Each piece gets an equal share of abs_tol as an absolute target.  Near a
zero of cos(a) the pieces are much larger than their sum, so a target
relative to each piece at rel_tol would not bound the error of the sum; the
only relative target is a roundoff floor of 1e-12 of the piece, which keeps
the target reachable when the integral is large.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable

from .geometry import SpacetimeConfig, _require_positive, response_shape

__all__ = ["IntegralResult", "QuadratureError", "rcpi_integral"]

_QUAD_LIMIT = 200
DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-7
_ROUNDOFF = 1e-12


class QuadratureError(RuntimeError):
    """An integral could not be computed to the requested accuracy."""


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with its error estimate and work counters.

    ``evaluations`` counts integrand calls over all pieces; ``lobes`` counts
    the cycles summed by the Fourier-integral rule on the infinite tail.
    """

    value: float
    error: float
    evaluations: int
    lobes: int


def _piece(f: Callable[[float], float], a: float, b: float, abs_tol: float, rel_tol: float = 0.0, **weight) -> IntegralResult:
    """One scipy.integrate.quad call with its counters.

    A rule that stops short of its target still returns its best value and
    error estimate; the caller judges the error of the whole integral.
    """
    from scipy import integrate  # deferred: slow to import, and only `rcpi shift` and `validate` use it

    value, error, info = integrate.quad(
        f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=_QUAD_LIMIT, full_output=1, **weight
    )[:3]
    return IntegralResult(value, error, int(info["neval"]), int(info.get("lst", 0)))


def _panels(start: float, stop: float, pole: float) -> list[float]:
    """Panel edges from start to stop, each panel no longer than its distance to the pole, or than half of
    it while the panels approach the pole.  The pole lies outside [start, stop]."""
    edges = [start]
    while edges[-1] < stop:
        x = edges[-1]
        edges.append(min(stop, x + (0.5 * (pole - x) if x < pole else x - pole)))
    return edges


def _resonance_kernel(a: float, abs_tol: float) -> IntegralResult:
    """I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy, which is (pi/2) cos(a), by weighted QUADPACK rules.

    Returns the summed error estimate of the pieces unchecked; raises QuadratureError when the window
    around the pole is below the resolution of doubles at a.
    """
    d = min(a, math.pi)
    if d <= 64.0 * sys.float_info.epsilon * a:
        raise QuadratureError(f"sigma omega0 = {a:g} leaves no half-period around the pole in double precision")

    def window(y: float) -> float:
        return y * math.sin(y) / (y + a)

    def amplitude(y: float) -> float:
        # Two divisions: the product (y + a)(y - a) underflows to 0 for tiny a.
        return y / (y + a) / (y - a)

    sine = {"weight": "sin", "wvar": 1.0}
    left = _panels(0.0, a - d, a)
    # QAWF sums cycles of 3 pi at unit frequency; its tail starts one cycle past the pole.
    right = _panels(a + d, a + 3.0 * math.pi, a)
    spans = list(pairwise(left)) + list(pairwise(right))
    tol = abs_tol / (len(spans) + 2)
    pieces = [_piece(window, a - d, a + d, tol, _ROUNDOFF, weight="cauchy", wvar=a)]
    pieces += [_piece(amplitude, lo, hi, tol, _ROUNDOFF, **sine) for lo, hi in spans]
    # QAWF takes no relative target; its roundoff floor is relative to the largest piece.
    floor = _ROUNDOFF * max(abs(q.value) for q in pieces)
    tail = _piece(amplitude, right[-1], math.inf, max(tol, floor), **sine)
    pieces.append(tail)
    return IntegralResult(
        math.fsum(q.value for q in pieces), sum(q.error for q in pieces), sum(q.evaluations for q in pieces), tail.lobes
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

    Raises ValueError for a non-positive or non-finite omega0 or L, and
    QuadratureError (with the work counters and the error estimate) when the
    result or its error estimate is not finite, or the estimate misses the
    requested tolerance.
    """
    _require_positive(omega0=omega0, L=L)
    sigma, c = response_shape(spacetime, L)
    res = _resonance_kernel(sigma * omega0, 0.5 * c * abs_tol)
    scale = 2.0 / c
    value, error = scale * res.value, scale * res.error
    if not (math.isfinite(value) and math.isfinite(error) and error <= max(abs_tol, rel_tol * abs(value))):
        raise QuadratureError(
            f"resonance integral: requested tolerance not met: estimate {error:g} for value {value:g} "
            f"(evaluations={res.evaluations}, lobes={res.lobes})"
        )
    return replace(res, value=value, error=error)
