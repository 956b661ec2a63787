"""Collective heat capacity of spin ensembles, and what it buys.

An ensemble of n identical spins coupled collectively to a thermal bath
relaxes to a sector-frozen steady state whose heat capacity can differ
sharply from the independent-coupling (Gibbs) value. This package computes
that capacity and its two applications: equilibrium thermometry precision
bounds and near-Carnot Otto engine work/power, together with the sector
rate-equation dynamics and a dense small-system reference implementation.
"""

from .sectors import (
    BlockWeights,
    SectorTable,
    SpinEnsemble,
    block_partition_function,
    log_block_partition_function,
    sector_multiplicities,
    symmetric_weights,
    thermal_product_weights,
)
from .thermo import (
    BracketError,
    HeatCapacityResult,
    block_energy,
    block_heat_capacity,
    collective_heat_capacity,
    critical_temperature_approx,
    critical_temperature_numeric,
    heat_capacity_ratio,
    independent_heat_capacity,
    steady_state_energy,
)
from .thermometry import (
    FisherResult,
    PrecisionBound,
    ZeroInformationError,
    fisher_collective_projection,
    fisher_energy_measurement,
    min_relative_stddev,
    qfi,
    qfi_moment_form,
)
from .otto import (
    CycleResult,
    OttoParams,
    critical_compression,
    critical_spin_number,
    cycle_exact,
    power_near_carnot,
    work_max_bounds,
    work_near_carnot,
    work_saturation_bound,
)
from .dynamics import (
    ConvergenceError,
    PopulationState,
    RateGenerator,
    RatePair,
    RelaxationResult,
    aligned_state,
    collective_generator,
    evolve,
    gibbs_state,
    ladder_generator,
    relaxation_time,
    spectral_gap,
    stationary_state,
    uniform_state,
)

__version__ = "0.1.0"
