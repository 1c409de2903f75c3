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

from .bell import (
    AnalyzerSettings,
    BellResult,
    MerminResult,
    bs_landscape,
    bs_reduced,
    bs_value,
    correlation,
    mermin_n,
    mermin_value,
    sample_correlation,
    sigma_theta,
)
from .dfs import (
    EffectiveHamiltonian,
    SubspaceBasis,
    effective_hamiltonian,
    find_dfs,
    lambda_dfs_vectors,
    pair_dfs_vectors,
    subspace_from_vectors,
    zeno_timescale,
)
from .dynamics import (
    NumericalError,
    RegimeReport,
    SystemSpec,
    check_regime,
    cnot_drive,
    evolve_no_jump,
    h_cond_lambda,
    h_cond_two_level,
    no_photon_probability,
    pair_drive,
)
from .gates import (
    RunRecord,
    cnot_ideal,
    cnot_pulse,
    cnot_pulse_sweep,
    pair_target_alpha,
    prepare_pair,
    prepare_pair_sweep,
    qubit_state,
    sqr,
)
from .hilbert import (
    HilbertLayout,
    OperatorMatrix,
    StateVector,
    basis_state,
    compose,
    embed,
    fidelity,
    ladder,
    state_from_amplitudes,
)
from .pbg import TransitPlan, jc_amplitudes, pbg_final_state, pbg_final_states, pbg_optimal_times
from .states import antisymmetric_pair, entangled_pair_state, ghz_state, qubit_layout
from .trajectories import TrajectoryBatch, decay_operators, run_trajectories

__version__ = "0.1.0"

__all__ = [
    "AnalyzerSettings",
    "BellResult",
    "EffectiveHamiltonian",
    "HilbertLayout",
    "MerminResult",
    "NumericalError",
    "OperatorMatrix",
    "RegimeReport",
    "RunRecord",
    "StateVector",
    "SubspaceBasis",
    "SystemSpec",
    "TrajectoryBatch",
    "TransitPlan",
    "antisymmetric_pair",
    "basis_state",
    "bs_landscape",
    "bs_reduced",
    "bs_value",
    "check_regime",
    "cnot_ideal",
    "cnot_pulse",
    "cnot_pulse_sweep",
    "cnot_drive",
    "compose",
    "correlation",
    "decay_operators",
    "effective_hamiltonian",
    "embed",
    "entangled_pair_state",
    "evolve_no_jump",
    "fidelity",
    "find_dfs",
    "ghz_state",
    "h_cond_lambda",
    "h_cond_two_level",
    "jc_amplitudes",
    "ladder",
    "lambda_dfs_vectors",
    "mermin_n",
    "mermin_value",
    "no_photon_probability",
    "pair_dfs_vectors",
    "pair_drive",
    "pair_target_alpha",
    "pbg_final_state",
    "pbg_final_states",
    "pbg_optimal_times",
    "prepare_pair",
    "prepare_pair_sweep",
    "qubit_layout",
    "qubit_state",
    "run_trajectories",
    "sample_correlation",
    "sigma_theta",
    "sqr",
    "state_from_amplitudes",
    "subspace_from_vectors",
    "zeno_timescale",
]
