"""Truncated-Fock-space simulator of coherence generation by combined linear
and nonlinear phase-insensitive absorption."""

from .errors import (ConfigError, DimensionError, IntegrationError, LayoutError,
                     ShellRemovalError, SimulationError, StateError, TruncationError)
from .hilbert import (KetEnsemble, Operator, QuantumState, SpaceLayout, annihilation,
                      basis_state, embed, identity, number_operator, partial_trace,
                      qubit_operators, tensor)
from .models import (Interaction, ModelSpec, build_hamiltonian, combined_interaction,
                     commutator_residual, completed_interaction, dephasing_dissipator,
                     detuned_hamiltonian, excitation_number, free_hamiltonian,
                     jc_interaction, mw_interaction)
from .states import InitialStateSpec, make_state, single_mode_state
from .evolution import (EvolutionResult, HamiltonianPropagator, SwitchCoefficients,
                        bch_first_order, lindblad_evolve, sequential_switch,
                        switch_coefficients, unitary_evolve)
from .observables import (DiagnosticsRecord, WignerGrid, WignerGridSpec, coherence,
                          diagnose, excitation_stats, negativity_volume,
                          quadrature_stats, radial_asymmetry, remove_gaussian_shell,
                          von_neumann_entropy, wigner, wigner_values)
from .experiments import (ScenarioConfig, SweepResult, load_config, robustness_suite,
                          run_scenario, sweep)

__version__ = "0.1.0"
