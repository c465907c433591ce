"""Oracles that no ``rcpi`` route runs: the Wightman functions and the full 16x16 generator.

The positive-frequency Wightman functions along static two-atom trajectories
are the ground truth that the closed-form spectral functions of
``rcpi.spectral`` are checked against.  The i-epsilon regulator is an
explicit argument everywhere so that epsilon -> 0 extrapolations stay
testable.  ``embed`` places a static event on the 5D hyperboloid, from which
the cross-atom denominator is rebuilt.

``superoperator`` is the generator of the master equation on the whole
vectorized density matrix, built from Pauli Kronecker products.  It is the
reference for ``rcpi.liouvillian.rate_matrix``, which keeps only the
population block in the Dicke basis, and for ``evolve``.

``read_columns_by_row`` is the CSV reader that reads one row at a time with
`csv` and `float`, the reference for ``rcpi.csvio.read_columns``.

``resonance_outside`` takes the resonance integrand outside the pole window
by QUADPACK alone, the reference for the sine- and cosine-integral part of
``rcpi.quadrature``: QAWO on ``_panels`` below the window, and
``resonance_tail`` past it.  ``resonance_window`` takes the window itself by
QUADPACK's Cauchy-weighted rule QAWC (``principal_value``), the reference for
the kernel's Gauss-Legendre window.  ``sici`` is scipy's sine and cosine
integrals, the reference for the plain-Python ``rcpi.quadrature._sici``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from rcpi import geometry

_FOUR_PI_SQ = 4.0 * math.pi**2

# Pauli matrices in single-atom basis order (|g>, |e>), so that the product
# basis comes out as (gg, ge, eg, ee) and sigma_3 |e> = +|e>.
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
_S3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = (_S1, _S2, _S3)

# _SIG[atom][i] = sigma_{i+1} acting on the given atom of the pair.
_SIG = (
    tuple(np.kron(p, _I2) for p in _PAULI),
    tuple(np.kron(_I2, p) for p in _PAULI),
)
_I4 = np.eye(4, dtype=complex)

# s1 x s1 + s2 x s2 over the pair, the operator that -a2 multiplies in h_ls.
_FLIP_FLOP = _SIG[0][0] @ _SIG[1][0] + _SIG[0][1] @ _SIG[1][1]


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i [h, .] on the row-major vec(rho): -i (h (x) 1 - 1 (x) h^T)."""
    return -1j * (np.kron(h, _I4) - np.kron(_I4, h.T))


def _dissipator_term(si: np.ndarray, sj: np.ndarray) -> np.ndarray:
    """s_j rho s_i - (1/2){s_i s_j, rho} on the row-major vec(rho)."""
    return 0.5 * (2.0 * np.kron(sj, si.T) - np.kron(si @ sj, _I4) - np.kron(_I4, (si @ sj).T))


# Nonzero entries (i, j, C_ij) of the 3x3 block C_ij = at delta_ij - i bt eps_ij3
# (i, j < 3) per unit at and per unit bt; C_ij weights s_i of atom a with s_j of atom b.
_UNIT_BLOCKS = (((0, 0, 1.0), (1, 1, 1.0)), ((0, 1, -1j), (1, 0, 1j)))

# Constant tensor with one row per scalar of GeneratorMatrices, in the order
# (omega0, a2, at1, bt1, at2, bt2): the operator that scalar multiplies on the
# row-major vec(rho).  omega0 and a2 give the commutators with the free
# splitting (1/2)(s3 x 1 + 1 x s3) and with -(s1 x s1 + s2 x s2); at1, bt1 sum
# the dissipator over the same-atom pairs (a, b), at2, bt2 over the cross ones.
_GENERATOR = np.array(
    [_commutator(0.5 * (_SIG[0][2] + _SIG[1][2])), _commutator(-_FLIP_FLOP)]
    + [sum(c * _dissipator_term(_SIG[a][i], _SIG[b][j]) for a, b in pairs for i, j, c in block)
       for pairs in (((0, 0), (1, 1)), ((0, 1), (1, 0))) for block in _UNIT_BLOCKS]
).reshape(6, 256)


def h_ls_matrix(gen) -> np.ndarray:
    """Field-induced Hamiltonian correction of a ``GeneratorMatrices`` as a 4x4 matrix, -a2 (s1 x s1 + s2 x s2)."""
    return -gen.a2 * _FLIP_FLOP


def superoperator(gen) -> np.ndarray:
    """16x16 matrix generating d vec(rho)/d tau in row-major vectorization, as one contraction with _GENERATOR."""
    weights = np.array((gen.omega0, gen.a2, gen.at1, gen.bt1, gen.at2, gen.bt2))
    return np.einsum("k,kn->n", weights, _GENERATOR).reshape(16, 16)


@dataclass(frozen=True)
class TruncatedSum:
    """Partial image sum with a rigorous bound on the dropped tail."""

    value: complex
    terms_used: int
    tail_bound: float


def wightman_desitter_same(delta_tau: float, epsilon: float, kappa: float) -> complex:
    """Same-atom Wightman function -1 / (16 pi^2 kappa^2 sinh^2(dtau/2kappa - i eps))."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if epsilon <= 0:
        raise ValueError(f"regulator epsilon must be positive, got {epsilon}")
    s = np.sinh(delta_tau / (2.0 * kappa) - 1j * epsilon)
    return complex(-1.0 / (16.0 * math.pi**2 * kappa**2 * s * s))


def wightman_desitter_cross(
    delta_tau: float, epsilon: float, kappa: float, r: float, delta_theta: float
) -> complex:
    """Cross-atom Wightman function; the denominator acquires the spatial offset
    (r/kappa)^2 sin^2(delta_theta/2) relative to the same-atom form."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if epsilon <= 0:
        raise ValueError(f"regulator epsilon must be positive, got {epsilon}")
    s = np.sinh(delta_tau / (2.0 * kappa) - 1j * epsilon)
    offset = (r / kappa) ** 2 * math.sin(0.5 * delta_theta) ** 2
    return complex(-1.0 / (16.0 * math.pi**2 * kappa**2 * (s * s - offset)))


def wightman_thermal_minkowski(
    delta_tau: float,
    epsilon: float,
    temperature: float,
    L: float | None = None,
    n_max: int = 256,
) -> TruncatedSum:
    """Thermal Minkowski correlator as a symmetric partial image sum.

    ``L=None`` gives the same-atom correlator and a positive ``L`` the cross
    one.  Sums the images n in [-n_max, n_max] of
    -1 / (4 pi^2 [(dtau - i n/T - i eps)^2 - L^2]) and returns a rigorous
    bound on the dropped |n| > n_max tail from the integral comparison test
    (the term magnitudes decay like 1/n^2).  At T = 0 only the n = 0 vacuum
    term exists and the tail bound is zero.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if epsilon <= 0:
        raise ValueError(f"regulator epsilon must be positive, got {epsilon}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if L is not None and not L > 0:
        raise ValueError(f"cross correlator needs a positive separation L, got {L}")
    L_sq = 0.0 if L is None else L * L

    if temperature == 0.0:
        z0 = delta_tau - 1j * epsilon
        return TruncatedSum(value=complex(-1.0 / (_FOUR_PI_SQ * (z0 * z0 - L_sq))), terms_used=1, tail_bound=0.0)

    n = np.arange(-n_max, n_max + 1, dtype=float)
    z = delta_tau - 1j * n / temperature - 1j * epsilon
    value = complex(np.sum(-1.0 / (_FOUR_PI_SQ * (z * z - L_sq))))

    # Integral comparison bound for the |n| > n_max tail: each term magnitude
    # is at most 1/(4 pi^2 [(|n|/T - eps)^2 - L^2]) once |n|/T - eps > L.
    y0 = n_max / temperature - epsilon
    if y0 <= (L or 0.0):
        tail = math.inf
    elif L is not None:
        tail = (temperature / (2.0 * math.pi**2)) * (0.5 / L) * math.log((y0 + L) / (y0 - L))
    else:
        tail = (temperature / (2.0 * math.pi**2)) / y0
    return TruncatedSum(value=value, terms_used=2 * n_max + 1, tail_bound=tail)


def embed(patch: geometry.DeSitterPatch, t: float, theta: float, phi: float) -> np.ndarray:
    """Embed a static-coordinate event into the 5D hyperboloid.

    Returns the flat 5-vector (z0, ..., z4); the result satisfies
    z0^2 - z1^2 - z2^2 - z3^2 - z4^2 = -alpha^2 identically.
    """
    k = geometry.kappa(patch)
    r = patch.r
    return np.array(
        [
            k * math.sinh(t / patch.alpha),
            k * math.cosh(t / patch.alpha),
            r * math.cos(theta),
            r * math.sin(theta) * math.cos(phi),
            r * math.sin(theta) * math.sin(phi),
        ]
    )


def read_columns_by_row(buf, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read the named columns of a CSV text buffer as floats, one row at a time.

    Returns the file row of each sample (the header is row 1) and a
    (len(names), n) array of values.  Blank lines are skipped.  A missing
    column, a row shorter than the header or a field that `float` rejects
    raises ValueError naming the row.
    """
    rows = csv.reader(buf)
    header = next(rows, [])
    if not set(names) <= set(header):
        raise ValueError(f"CSV must have columns {','.join(names)}, got {header}")
    index = [header.index(n) for n in names]
    lines, values = [], []
    for row in rows:
        if not row:
            continue
        if len(row) < len(header):
            raise ValueError(f"bad row {rows.line_num}: {len(row)} fields, the header has {len(header)}")
        try:
            values.append([float(row[i]) for i in index])
        except ValueError as exc:
            raise ValueError(f"bad row {rows.line_num}: {exc}") from None
        lines.append(rows.line_num)
    return np.array(lines, dtype=int), np.array(values, dtype=float).reshape(-1, len(names)).T


def _panels(start: float, stop: float, pole: float) -> list[float]:
    """Panel edges from start to stop, each panel no longer than its distance to the pole, or than half of
    it while the panels approach the pole.  The pole lies outside [start, stop]; on a longer panel the
    Chebyshev error estimate of QAWO can be tiny while the value is wrong."""
    edges = [start]
    while edges[-1] < stop:
        x = edges[-1]
        edges.append(min(stop, x + (0.5 * (pole - x) if x < pole else x - pole)))
    return edges


def _amplitude(a: float):
    """The amplitude y / (y^2 - a^2) of the sine weight, as two divisions: the product underflows for tiny a."""
    return lambda y: y / (y + a) / (y - a)


def resonance_tail(a: float, d: float, abs_tol: float = 1e-12) -> tuple[float, float]:
    """int_{a+d}^inf y sin(y) / (y^2 - a^2) dy and its error estimate, by QUADPACK's sine-weighted rules.

    QAWO takes panels from a + d up to a + 3 pi, each no longer than its
    distance to the pole, and QAWF the infinite rest in cycles of 3 pi; each
    of them gets an equal share of abs_tol.  The tail starts at the double
    a + d.
    """
    amplitude = _amplitude(a)
    edges = _panels(a + d, a + 3.0 * math.pi, a)
    tol = abs_tol / len(edges)
    pieces = [
        integrate.quad(amplitude, lo, hi, epsabs=tol, epsrel=1e-12, limit=200, weight="sin", wvar=1.0)
        for lo, hi in zip(edges, edges[1:])
    ]
    # QAWF takes no relative target; its floor is relative to the largest panel.
    floor = 1e-12 * max(abs(v) for v, _ in pieces)
    pieces.append(
        integrate.quad(amplitude, edges[-1], math.inf, epsabs=max(tol, floor), limlst=200, weight="sin", wvar=1.0)
    )
    return math.fsum(v for v, _ in pieces), sum(e for _, e in pieces)


def resonance_outside(a: float, d: float, abs_tol: float = 1e-12) -> tuple[float, float]:
    """The integral of y sin(y) / (y^2 - a^2) over [0, a - d] and [a + d, inf), and its error estimate: QAWO
    on panels from 0 up to the double a - d, each no longer than half its distance to the pole, and
    ``resonance_tail`` from the double a + d."""
    edges = _panels(0.0, a - d, a)
    tol = abs_tol / len(edges)
    pieces = [
        integrate.quad(_amplitude(a), lo, hi, epsabs=tol, epsrel=1e-12, limit=200, weight="sin", wvar=1.0)
        for lo, hi in zip(edges, edges[1:])
    ]
    pieces.append(resonance_tail(a, d, tol))
    return math.fsum(v for v, _ in pieces), sum(e for _, e in pieces)


def principal_value(f, lo: float, hi: float, pole: float, abs_tol: float = 0.0) -> tuple[float, float]:
    """P int_lo^hi f(y) / (y - pole) dy and its error estimate, by QAWC (Cauchy weight; Piessens et al., QUADPACK,
    1983), to the relative target 1e-12 or abs_tol."""
    return integrate.quad(f, lo, hi, epsabs=abs_tol, epsrel=1e-12, limit=200, weight="cauchy", wvar=pole)[:2]


def resonance_window(a: float, d: float) -> tuple[float, float]:
    """The principal value of y sin(y) / (y^2 - a^2) over [a - d, a + d] and its error estimate, by QAWC in
    s = (y - a) / d with sin(y) expanded, so that the window [-1, 1] and its nodes are exact at any a, and with the
    integrand over d, so that the target 1e-14 is relative to its scale where d is tiny."""
    cos_a, sin_a = math.cos(a), math.sin(a)

    def window(s: float) -> float:
        t = d * s
        return 0.5 * (a + t) / d * (sin_a * math.cos(t) + cos_a * math.sin(t)) / (a + 0.5 * t)

    value, error = principal_value(window, -1.0, 1.0, 0.0, abs_tol=1e-14)
    return d * value, d * error


def sici(x) -> tuple[np.ndarray, np.ndarray]:
    """Si(x) and Ci(x) by scipy's Cephes routines, for a scalar or an array x > 0."""
    return special.sici(x)
