"""Resonance Casimir-Polder interactions of an entangled atom pair.

Computes the separation-dependent energy shift of the symmetric and
antisymmetric two-atom states for a conformally coupled massless scalar
field, either in the static patch of de Sitter spacetime or in a thermal
Minkowski bath, and classifies sweeps by their envelope decay law: the
curved far zone falls off as 1/L^2, the flat/thermal law always as 1/L.
"""

__version__ = "0.1.0"
