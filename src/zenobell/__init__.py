"""zenobell: conditional-evolution toolkit for dissipative atom entanglement.

Simulates cavity-QED schemes that prepare entangled atoms through the
no-photon-emission branch of a leaky cavity (an environment-induced
quantum Zeno effect confines the driven dynamics to a decoherence-free
subspace), the photonic-band-gap scheme that entangles two atoms passed
sequentially through a defect mode, and the verification side: spin Bell
and Mermin inequality values, exact and with simulated finite-shot
readout, plus a Monte-Carlo quantum-jump cross-check of the no-photon
probability.
"""

from .bell import bs_landscape, bs_reduced, mermin_n, sample_correlation
from .dfs import effective_hamiltonian, find_dfs, zeno_timescale
from .dynamics import SystemSpec, decay_operators, h_cond_lambda, h_cond_two_level, no_photon_probability
from .gates import cnot_ideal, cnot_pulse, pair_target_alpha, prepare_pair, qubit_state
from .hilbert import OperatorMatrix, basis_state, compose, ladder
from .pbg import TransitPlan, jc_amplitudes, pbg_final_state, pbg_optimal_times
from .states import entangled_pair_state, ghz_state, qubit_layout
from .trajectories import run_trajectories

__version__ = "0.1.0"

# The names the demos and the README import; everything else is reached
# through its submodule (zenobell.bell, zenobell.gates, ...).
__all__ = [
    "OperatorMatrix",
    "SystemSpec",
    "TransitPlan",
    "basis_state",
    "bs_landscape",
    "bs_reduced",
    "cnot_ideal",
    "cnot_pulse",
    "compose",
    "decay_operators",
    "effective_hamiltonian",
    "entangled_pair_state",
    "find_dfs",
    "ghz_state",
    "h_cond_lambda",
    "h_cond_two_level",
    "jc_amplitudes",
    "ladder",
    "mermin_n",
    "no_photon_probability",
    "pair_target_alpha",
    "pbg_final_state",
    "pbg_optimal_times",
    "prepare_pair",
    "qubit_layout",
    "qubit_state",
    "run_trajectories",
    "sample_correlation",
    "zeno_timescale",
]
