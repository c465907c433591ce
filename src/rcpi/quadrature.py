"""Weighted QUADPACK quadrature of the resonance integral.

The cross-atom integral has the form P int_0^inf p(w) sinc(sigma w) / (w - omega0) dw:
a simple pole at the transition frequency times a shape factor that only
oscillates over a 1/w envelope.  One kernel splits it into pieces, each
taken by the rule of Piessens et al., QUADPACK (1983), that fits it:

* QAWC (Cauchy weight) on a window [omega0 - d, omega0 + d] centred on the
  pole, d = min(omega0, pi/sigma), at most two half-periods wide;
* plain adaptive quadrature on the first half-period [0, pi/sigma];
* QAWO (sine weight, finite interval) from there up to the window, and from
  the window up to one QAWF cycle past the pole;
* QAWF (sine weight, Fourier integral) from there to infinity.

The QAWO stretches are cut into panels that grow geometrically away from
w = 0 and from the pole, so that no panel sees a singularity closer than its
own length; on longer panels the Chebyshev error estimate of QAWO can be
tiny while the value is wrong.

Each piece gets an equal share of abs_tol as an absolute target.  Near a
zero of cos(sigma omega0) the pieces are much larger than their sum, so a
target relative to each piece at rel_tol would not bound the error of the
sum; the only relative target is a roundoff floor of 1e-12 of the piece,
which keeps the target reachable when the integral is large.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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


def _cauchy(f: Callable[[float], float], a: float, b: float, pole: float, abs_tol: float, rel_tol: float = 0.0) -> IntegralResult:
    """P int_a^b f(w) / (w - pole) dw by QAWC; the pole must lie strictly inside (a, b)."""
    if not a < pole < b or min(pole - a, b - pole) <= 64.0 * sys.float_info.epsilon * max(abs(a), abs(b)):
        raise QuadratureError(f"pole {pole:g} must lie strictly inside the support [{a:g}, {b:g}]")
    return _piece(f, a, b, abs_tol, rel_tol, weight="cauchy", wvar=pole)


def _require_tolerance(res: IntegralResult, abs_tol: float, rel_tol: float) -> IntegralResult:
    """Return ``res`` if its error estimate meets max(abs_tol, rel_tol |value|), else raise."""
    if not res.error <= max(abs_tol, rel_tol * abs(res.value)):
        raise QuadratureError(
            f"resonance integral: requested tolerance not met: estimate {res.error:g} for value {res.value:g} "
            f"(evaluations={res.evaluations}, lobes={res.lobes})"
        )
    return res


def _panels(start: float, stop: float, pole: float) -> list[float]:
    """Panel edges from start > 0 to stop, each panel no longer than its distance to 0 and to the pole.

    The pole lies outside [start, stop].
    """
    edges = [start]
    while edges[-1] < stop:
        x = edges[-1]
        edges.append(min(stop, x + (min(x, 0.5 * (pole - x)) if x < pole else x - pole)))
    return edges


def _resonance_kernel(
    p: Callable[[float], float], omega0: float, sigma: float, abs_tol: float, rel_tol: float
) -> IntegralResult:
    """P int_0^inf p(w) sinc(sigma w) / (w - omega0) dw by weighted QUADPACK rules.

    Contract: p is the resonance numerator amplitude 2 w^2 / (w + omega0) of
    ``rcpi_integral``, or a polynomial of degree at most one, so that the
    sine-weighted integrand p(w) / (sigma w (w - omega0)) decays as 1/w.  A
    faster-growing p gives a divergent integral which the Fourier rule's
    extrapolation may still sum to a finite value; it is not detected.

    Raises QuadratureError when the summed error estimate misses
    max(abs_tol, rel_tol |value|).
    """
    half = math.pi / sigma
    d = min(omega0, half)
    if d <= 64.0 * sys.float_info.epsilon * omega0:
        raise QuadratureError(f"sigma omega0 = {sigma * omega0:g} leaves no half-period around the pole in double precision")
    # Length of the cycles that QAWF sums: (2 floor(sigma) + 1) half-periods.
    cycle = (2.0 * math.floor(sigma) + 1.0) * half

    def shaped(w: float) -> float:
        s = sigma * w
        return p(w) * (math.sin(s) / s if s else 1.0)

    def plain(w: float) -> float:
        return shaped(w) / (w - omega0)

    def sine_weighted(w: float) -> float:
        return p(w) / (sigma * w * (w - omega0))

    sine = {"weight": "sin", "wvar": sigma}
    spans = []
    if omega0 > d:
        spans.append((plain, 0.0, min(half, omega0 - d), {}))
        if omega0 - d > half:
            spans += [(sine_weighted, a, b, sine) for a, b in pairwise(_panels(half, omega0 - d, omega0))]
    right = _panels(omega0 + d, omega0 + cycle, omega0)
    spans += [(sine_weighted, a, b, sine) for a, b in pairwise(right)]
    tol = abs_tol / (len(spans) + 2)
    pieces = [_cauchy(shaped, omega0 - d, omega0 + d, omega0, tol, _ROUNDOFF)]
    pieces += [_piece(f, a, b, tol, _ROUNDOFF, **weight) for f, a, b, weight in spans]
    # QAWF takes no relative target; its roundoff floor is relative to the largest piece.
    floor = _ROUNDOFF * max(abs(q.value) for q in pieces)
    tail = _piece(sine_weighted, right[-1], math.inf, max(tol, floor), **sine)
    pieces.append(tail)
    res = IntegralResult(
        math.fsum(q.value for q in pieces), sum(q.error for q in pieces), sum(q.evaluations for q in pieces), tail.lobes
    )
    return _require_tolerance(res, abs_tol, rel_tol)


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
    on T, and the de Sitter result sees the curvature only through f.

    Raises ValueError for a non-positive or non-finite omega0 or L, and
    QuadratureError (with the work counters and the error estimate) when the
    combined error estimate misses the requested tolerance.
    """
    _require_positive(omega0=omega0, L=L)
    sigma, c = response_shape(spacetime, L)
    amplitude = sigma / c

    def p(w: float) -> float:
        # w/(w - w0) + w/(w + w0) = 2 w^2 / ((w + w0)(w - w0))
        return amplitude * 2.0 * w * w / (w + omega0)

    return _resonance_kernel(p, omega0, sigma, abs_tol, rel_tol)
