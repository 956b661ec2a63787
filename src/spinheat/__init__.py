"""Collective heat capacity of spin ensembles, and what it buys.

An ensemble of n identical spins coupled collectively to a thermal bath
relaxes to a sector-frozen steady state whose heat capacity can differ
sharply from the independent-coupling (Gibbs) value. This package computes
that capacity and its two applications: equilibrium thermometry precision
bounds and near-Carnot Otto engine work/power, together with the sector
rate-equation dynamics and a dense small-system reference implementation.
"""

# each module's __all__ is the one list of its public names; oracle, cli
# and special are reached as submodules
from .sectors import *
from .thermo import *
from .thermometry import *
from .otto import *
from .dynamics import *

__version__ = "0.1.0"
