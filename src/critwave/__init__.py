"""critwave: a numerical laboratory for the energy-critical focusing wave
equation in d = 3 (statics also in d = 5).

Ground-state family and static functionals, the linearized spectrum around
the soliton, modulation tracking with a distance and sign functional, a
radial evolution engine with blow-up/scattering classification, and the
four-quadrant dynamics experiments.
"""

from .config import EvolutionConfig, Thresholds
from .fields import (BoostParams, Field3D, RadialField, State, eval_W,
                     eval_W_dr, eval_W_prime_mode, save_state)
from .functionals import (boost_energy_momentum, energy_E, functional_J,
                          functional_K, norm_H, symplectic_omega)
from .grids import Box3DGrid, RadialGrid
from .modulation import (DistanceReport, ModeSplit, ModulationFit,
                         distance_dW, fit_modulation, region_predicates,
                         sign_functional, split_modes)
from .spectral import SpectralData, build_spectral_data, coercivity_probe
from .evolve import (TrajectoryRecord, evolve_with_monitors,
                     fit_ejection_rate, modulation_ode_residual)
from .experiments import (ExperimentSpec, QuadrantTable, run_experiment,
                          run_quadrant_sweep, run_static_suite)

__version__ = "0.1.0"
