"""Collective (Dicke) basis of the two-atom system.

Product basis order is (|gg>, |ge>, |eg>, |ee>); the collective states are
|G> = |gg>, |E> = |ee>, |S> = (|eg> + |ge>)/sqrt2, |A> = (|eg> - |ge>)/sqrt2.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["DickeState", "KETS", "ket", "projector"]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class DickeState(enum.Enum):
    G = "G"
    E = "E"
    S = "S"
    A = "A"

    @property
    def index(self) -> int:
        """Position in DickeState order: the row of ``KETS``, and of the population (pG, pE, pS, pA)."""
        return list(DickeState).index(self)


# The collective basis as real kets in the product basis, one row per state in DickeState order.
KETS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
    [0.0, -_SQRT_HALF, _SQRT_HALF, 0.0],
])


def ket(state: DickeState) -> np.ndarray:
    """Complex state vector in the product basis (a new array)."""
    return KETS[state.index].astype(complex)


def projector(state: DickeState) -> np.ndarray:
    """Rank-one complex density matrix |state><state|."""
    v = KETS[state.index]
    return np.outer(v, v).astype(complex)
