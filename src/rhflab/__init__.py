"""Desk-scale laboratory for pseudo-relativistic mean-field fermion dynamics.

Periodic spectral grids, low-rank density-matrix algebra, Hartree-Fock ground
states and time evolution, semiclassical commutator diagnostics, a relativistic
Vlasov solver, and an exact-diagonalization oracle for small particle numbers.
"""

__version__ = "0.1.0"

from .grids import Dispersion, Grid, PotentialSpec
from .orbitals import OrbitalSet

__all__ = [
    "Dispersion",
    "Grid",
    "PotentialSpec",
    "OrbitalSet",
    "__version__",
]
