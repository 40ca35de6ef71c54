"""Symmetry-covariant quantum channels and their conservation/decoherence trade-offs.

Modules:

* ``numkit``   -- complex linear algebra, Haar sampling, metric primitives
* ``su2rep``   -- exact Clebsch-Gordan data, spin operators, tensor-operator bases
* ``chan``     -- the channel abstraction (Kraus/Liouville/Jamiolkowski/Stinespring)
* ``su2cov``   -- rotation-covariant channels: extremal simplex, twirling, inversion
* ``u1cov``    -- time-translation covariant channels: one Kraus operator per Bohr frequency
* ``metrics``  -- unitarity and average conservation-law deviation
* ``bounds``   -- all trade-off inequalities as explicit checks
* ``mcoracle`` -- seeded Monte Carlo oracles for the Haar-integral definitions
* ``cli``      -- sweeps, channel export, and the verification suite
"""

from .su2rep import SpinJ
from .chan import QuantumChannel

__version__ = "0.1.0"

__all__ = ["SpinJ", "QuantumChannel", "__version__"]
