"""Numerical laboratory for the viscous Einstein-conformal fluid system.

The package builds the theory's 5x5 fluid principal symbol, verifies the
characteristic-determinant factorization and the causal-cone criteria as
machine-checkable numerical facts, and evolves the flat-space equations in
1+1D with empirical domain-of-dependence experiments.
"""

from .causality import (causality_scan, cone_slopes, critical_angle_check,
                        hyperbolicity_region_map, scan_verdict)
from .characteristics import (COUPLED_FACTORS, FLUID_FACTORS, FactorSet,
                              bisection_roots, cone_coefficients, cone_roots_batch,
                              cone_xi0, gevrey_check, gevrey_index,
                              quartic_coefficients, sound_quartic_general)
from .constitutive import (TransportModel, complete_initial_data,
                           stress_tensor_fields, transport)
from .equations import (SinusoidalField, assemble_lower_order,
                        divergence_oracle, divergence_residual, symbol_matrix)
from .solver1d import (FieldGrid, SolverAbort, SolverConfig, constant_state,
                       evolve, gaussian_pulse, shear_pulse, step)
from .symbol import det_by_elimination
from .tensor import Metric4, minkowski

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
