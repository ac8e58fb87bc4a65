"""Truncated-Fock-space simulator of coherence generation by combined linear
and nonlinear phase-insensitive absorption."""

from .errors import (ConfigError, DimensionError, IntegrationError, LayoutError,
                     ShellRemovalError, SimulationError, StateError, TruncationError)
from .hilbert import KetEnsemble, QuantumState, SpaceLayout, partial_trace
from .models import Interaction, ModelSpec, build_hamiltonian, dephasing_dissipator
from .states import InitialStateSpec, make_state
from .evolution import EvolutionResult, HamiltonianPropagator, lindblad_evolve
from .observables import (DiagnosticsRecord, WignerGrid, WignerGridSpec, coherence,
                          diagnose, excitation_stats, negativity_volume,
                          quadrature_stats, radial_asymmetry, remove_gaussian_shell,
                          von_neumann_entropy, wigner, wigner_values)
from .experiments import (ScenarioConfig, SweepResult, load_config, robustness_suite,
                          run_scenario, sweep)

__version__ = "0.1.0"
