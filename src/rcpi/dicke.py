"""Collective (Dicke) basis of the two-atom system.

Product basis order is (|gg>, |ge>, |eg>, |ee>); the collective states are
|G> = |gg>, |E> = |ee>, |S> = (|eg> + |ge>)/sqrt2, |A> = (|eg> - |ge>)/sqrt2.
The states import without numpy; their kets are numpy arrays, built on first use.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DickeState", "KETS", "ket", "projector"]


class DickeState(enum.Enum):
    G = "G"
    E = "E"
    S = "S"
    A = "A"

    @property
    def index(self) -> int:
        """Position in DickeState order: the row of ``KETS``, and of the population (pG, pE, pS, pA)."""
        return list(DickeState).index(self)


@functools.cache
def _kets() -> np.ndarray:
    """``KETS``: the collective basis as real kets in the product basis, one row per state in DickeState order."""
    import numpy as np

    h = 1.0 / math.sqrt(2.0)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, h, h, 0.0],
        [0.0, -h, h, 0.0],
    ])


def __getattr__(name: str):
    # ``KETS`` is built on first use, so that importing the states loads no numpy.
    if name == "KETS":
        return _kets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ket(state: DickeState) -> np.ndarray:
    """Complex state vector in the product basis (a new array)."""
    return _kets()[state.index].astype(complex)


def projector(state: DickeState) -> np.ndarray:
    """Rank-one complex density matrix |state><state|."""
    import numpy as np

    v = _kets()[state.index]
    return np.outer(v, v).astype(complex)
