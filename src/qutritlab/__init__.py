"""Two-qutrit superconducting-transmon laboratory.

Simulates a pair of flux-coupled transmon qutrits end to end: native
pulse gates and virtual phase frames, compiled conditional phases,
ternary query algorithms, Lindblad noise with process tomography,
readout-error mitigation, and circuit quantization of the underlying
device Hamiltonian.
"""

from .qutrit_core import (
    DIM,
    BasisLabel,
    DensityMatrix,
    DimensionMismatchError,
    KindMismatchError,
    ProbDist,
    PureState,
    QutritLabError,
    StateValidationError,
    fidelity,
    partial_trace,
    sso,
    tensor,
)
from .gates_compiler import (
    Circuit,
    CompileError,
    GateInstruction,
    calibrate_frame_phases,
    circuit_unitary,
    compile_cphase,
    cphase_matrix,
    decompose_single,
    equal_up_to_global_phase,
    frame_equivalence_check,
    logical_gate,
    lower_frames,
    merge_streams,
    moment_unitary,
    native_cphase_pulse_model,
    pulse_envelope,
    rotation_duration,
    single_qutrit_circuit,
)
from .noise_sim import (
    LindbladEngine,
    NoiseModel,
    ProcessMatrix,
    QuantumChannel,
    QutritCoherence,
    SimulationError,
    chi_matrix,
    chi_of_unitary,
    circuit_channel,
    evolve_idle,
    measure_probs,
    process_fidelity,
    ramsey_coherence_time,
    reduced_qutrit_channel,
    sample_counts,
    simulate_lindblad,
    simulate_pure,
)
from .algorithms import (
    AlgorithmError,
    BVString,
    DJOracle,
    GroverSpec,
    balanced_oracle_table,
    bv_circuit,
    bv_decode,
    classical_baselines,
    constant_oracles,
    dj_circuit,
    dj_classify,
    grover_circuit,
    grover_ideal_success,
    oracle_annotation,
)
from .readout_mitigation import (
    ConfusionMatrix,
    IllConditionedError,
    InfeasibleError,
    MitigationError,
    SignedCounts,
    apply_confusion,
    invert_confusion,
    load_confusion,
    mitigate_counts,
    mle_correct,
    save_confusion,
    synthetic_confusion,
)
from .device_hamiltonian import (
    DeviceModelError,
    DeviceParams,
    FluxRangeError,
    LabelingError,
    NormalFormError,
    SpectrumReport,
    TruncationError,
    build_full_hamiltonian,
    capacitance_matrix,
    flux_sweep,
    labeled_spectrum,
    normal_mode_transform,
    toy_couplings,
)

# The command-line layer is imported on first use, so that running it as
# `python -m qutritlab.cli_harness` does not find it already imported.
_FROM_CLI_HARNESS = {
    "__version__": "PACKAGE_VERSION",
    **{name: name for name in (
        "ConfigError",
        "ExperimentConfig",
        "ResultBundle",
        "run_bv",
        "run_device_report",
        "run_dj",
        "run_grover",
        "run_process_tomo",
    )},
}


def __getattr__(name: str):
    if name in _FROM_CLI_HARNESS:
        from . import cli_harness

        return getattr(cli_harness, _FROM_CLI_HARNESS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_FROM_CLI_HARNESS])


# a star import brings the lazy names too
__all__ = [name for name in __dir__() if not name.startswith("_")]
