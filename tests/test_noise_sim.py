"""Lindblad backend: collapse operators, Ramsey constants, idle coupling,
pure-state limit, sampling and process matrices."""

import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from qutritlab.qutrit_core import (
    DIM,
    BasisLabel,
    DensityMatrix,
    DimensionMismatchError,
    ProbDist,
    PureState,
    StateValidationError,
)
from qutritlab import cli_harness, noise_sim
from qutritlab.gates_compiler import (
    LOGICAL_GATE_NAMES,
    Circuit,
    compile_cphase,
    circuit_unitary,
    decompose_single,
    embed_operator,
    logical_gate,
    merge_streams,
    moments_of,
    moment_unitary,
    pulse_r01,
    pulse_vphase,
    single_qutrit_circuit,
)
from qutritlab.cli_harness import ExperimentConfig
from qutritlab.noise_sim import (
    ChannelError,
    LindbladEngine,
    NoiseModel,
    ProcessMatrix,
    QuantumChannel,
    QutritCoherence,
    QutritEngine,
    SimulationError,
    build_collapse_ops,
    chi_matrix,
    chi_of_unitary,
    circuit_channel,
    dephasing_rates,
    evolve_idle,
    idle_hamiltonian,
    lindblad_generator,
    measure_probs,
    process_fidelity,
    ramsey_coherence_time,
    reduced_qutrit_channel,
    sample_counts,
    simulate_lindblad,
    simulate_pure,
)
from reference_model import (
    dense_generator,
    dense_propagator,
    matrix_unit_reduction,
    partner_ground_units,
    per_case_lindblad,
    per_case_pure,
    runner_circuits,
    stepwise_channel,
    stepwise_state,
    vectorized_ground,
)
from qutritlab.algorithms import DJOracle, GroverSpec, dj_circuit, grover_circuit

DIM2 = DIM * DIM

# the default model legitimately folds the second qutrit's dephasing into one
# correlated operator and says so; keep suite output clean
pytestmark = pytest.mark.filterwarnings("ignore:negative 12 dephasing rate")


def both_h() -> Circuit:
    return merge_streams(2, {0: decompose_single("H", 0), 1: decompose_single("H", 1)})


def uniform_pair() -> PureState:
    return PureState(np.full(9, 1.0 / 3.0, dtype=complex))


class TestNoiseModel:
    def test_default_matches_coherence_tables(self):
        nm = ExperimentConfig.default().noise
        assert (nm.q1.t1_01, nm.q1.t1_12) == (47.9, 21.7)
        assert (nm.q1.t2r_01, nm.q1.t2r_12) == (4.5, 2.0)
        assert (nm.q2.t1_01, nm.q2.t1_12) == (35.1, 3.9)
        assert (nm.q2.t2r_01, nm.q2.t2r_12) == (3.2, 2.4)
        assert (nm.j11, nm.j21, nm.j12, nm.j22) == (-304.3, 37.8, 23.6, 5.4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "3"], ids=["nan", "inf", "bool", "str"])
    @pytest.mark.parametrize("name", ["j11", "j21", "j12", "j22"])
    def test_nonfinite_coupling_rejected(self, name, value):
        nm = ExperimentConfig.default().noise
        with pytest.raises(StateValidationError, match=name):
            NoiseModel(q1=nm.q1, q2=nm.q2, **{name: value})

    @pytest.mark.parametrize("value", [True, "47.9"], ids=["bool", "str"])
    @pytest.mark.parametrize("index", range(4))
    def test_time_that_is_not_a_number_rejected(self, index, value):
        # float() turns True into 1.0 and "47.9" into 47.9
        times = [1.0] * 4
        times[index] = value
        with pytest.raises(StateValidationError, match="number"):
            QutritCoherence(*times)

    def test_integer_times_stored_as_floats(self):
        coh = QutritCoherence(47, 21, 4, 2)
        assert astuple(coh) == (47.0, 21.0, 4.0, 2.0)
        assert all(type(t) is float for t in astuple(coh))

    def test_nonpositive_times_rejected(self):
        with pytest.raises(StateValidationError):
            QutritCoherence(t1_01=0.0, t1_12=1.0, t2r_01=1.0, t2r_12=1.0)
        with pytest.raises(StateValidationError):
            QutritCoherence(t1_01=1.0, t1_12=-2.0, t2r_01=1.0, t2r_12=1.0)

    def test_quiet_model_has_no_collapse_ops(self):
        assert build_collapse_ops(NoiseModel.none()) == []

    def test_default_model_collapse_op_count(self):
        ops = build_collapse_ops(ExperimentConfig.default().noise)
        assert len(ops) > 0
        for op in ops:
            assert op.shape == (9, 9)

    def test_first_qutrit_dephasing_rates_positive(self):
        ga, gb = dephasing_rates(ExperimentConfig.default().noise.q1)
        assert ga > 0
        assert gb > 0

    def test_second_qutrit_dephasing_needs_correlated_operator(self):
        # the raw two-projector split would need a negative rate here
        ga, gb = dephasing_rates(ExperimentConfig.default().noise.q2)
        assert gb < 0
        with pytest.warns(UserWarning):
            build_collapse_ops(ExperimentConfig.default().noise)


class TestRamseyConstants:
    @pytest.mark.parametrize("qutrit, transition", [(5, "01"), (-1, "12"), (2, "01"), (0, "02"), (1, "10")])
    def test_unknown_qutrit_or_transition_rejected(self, qutrit, transition):
        with pytest.raises(SimulationError, match="qutrit 0 or 1 and transition"):
            ramsey_coherence_time(ExperimentConfig.default().noise, qutrit, transition)

    @pytest.mark.parametrize("duration", [-50.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_idle_duration_must_be_finite_and_nonnegative(self, duration):
        with pytest.raises(SimulationError, match="idle duration"):
            evolve_idle(ExperimentConfig.default().noise, None, duration)

    def test_zero_idle_returns_the_initial_state(self):
        rho = PureState.basis("12").density()
        assert evolve_idle(ExperimentConfig.default().noise, rho, 0.0).matrix.tobytes() == rho.matrix.tobytes()

    def test_idle_coherence_follows_exponential(self):
        # superposition on the first qutrit decays with its 01 constant
        nm = ExperimentConfig.default().noise
        plus = np.kron(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), np.array([1.0, 0.0, 0.0]))
        rho = evolve_idle(nm, plus.astype(complex), 2110.0).matrix
        expected = 0.5 * math.exp(-2.11 / 4.5)
        assert abs(rho[0, 3]) == pytest.approx(expected, rel=0.02)


class TestIdleHamiltonian:
    def test_ground_pair_unshifted(self):
        h = idle_hamiltonian(ExperimentConfig.default().noise)
        assert h[0, 0] == 0.0

    def test_singly_excited_pair(self):
        nm = ExperimentConfig.default().noise
        h = idle_hamiltonian(nm)
        expected = 2 * math.pi * 1e-3 * (nm.j11 + nm.j21 + nm.j12 + nm.j22)
        assert h[4, 4] == pytest.approx(expected)

    def test_doubly_excited_pair(self):
        nm = ExperimentConfig.default().noise
        h = idle_hamiltonian(nm)
        expected = 2 * math.pi * 1e-3 * (4 * nm.j11 + 8 * nm.j21 + 8 * nm.j12 + 16 * nm.j22)
        assert h[8, 8] == pytest.approx(expected)

    def test_diagonal(self):
        h = idle_hamiltonian(ExperimentConfig.default().noise)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


class TestApplyUnitary:
    """Gates act on states through their register embedding."""

    def test_fanout_builds_uniform_state(self):
        h = logical_gate("H")
        out = embed_operator(h, (1,), 2) @ embed_operator(h, (0,), 2) @ np.eye(9, dtype=complex)[0]
        assert np.allclose(out, np.full(9, 1.0 / 3.0))

    def test_compiled_conditional_phase_negates_target(self):
        u = circuit_unitary(compile_cphase(math.pi, "22"))
        out = embed_operator(u, (0, 1), 2) @ uniform_pair().amplitudes
        assert out[8] == pytest.approx(-1.0 / 3.0)
        assert np.allclose(out[:8], np.full(8, 1.0 / 3.0))


class TestPureBackend:
    def test_empty_circuit_returns_initial(self):
        psi = uniform_pair()
        out = simulate_pure(Circuit(2, ()), initial=psi)
        assert np.array_equal(out.amplitudes, psi.amplitudes)


class TestMeasureAndSample:
    def test_basis_state_delta(self):
        psi = PureState(np.eye(9, dtype=complex)[7])
        probs = measure_probs(psi)
        assert probs.prob_of("21") == 1.0

    def test_uniform_probs(self):
        assert np.allclose(measure_probs(uniform_pair()).probs, np.full(9, 1.0 / 9.0))

    def test_zero_shots(self):
        counts = sample_counts(measure_probs(uniform_pair()), 0, seed=1)
        assert counts.sum() == 0

    def test_delta_distribution_all_in_one_bin(self):
        probs = ProbDist(np.eye(9)[4])
        counts = sample_counts(probs, 20000, seed=2)
        assert counts[4] == 20000
        assert counts.sum() == 20000

    def test_uniform_sampling_within_binomial_bounds(self):
        probs = measure_probs(uniform_pair())
        counts = sample_counts(probs, 20000, seed=3)
        sigma = math.sqrt(20000 * (1 / 9) * (8 / 9))
        assert counts.sum() == 20000
        assert np.all(np.abs(counts - 20000 / 9) < 5 * sigma)

    def test_raw_vector_and_matrix_accepted(self):
        amps = uniform_pair().amplitudes
        assert np.array_equal(measure_probs(amps).probs, measure_probs(uniform_pair()).probs)
        rho = np.outer(amps, amps.conj())
        assert np.array_equal(measure_probs(rho).probs, measure_probs(DensityMatrix(rho)).probs)

    def test_raw_three_axis_array_rejected(self):
        with pytest.raises(StateValidationError):
            measure_probs(np.zeros((9, 9, 1), dtype=complex))

    def test_seed_reproducibility(self):
        probs = measure_probs(uniform_pair())
        a = sample_counts(probs, 5000, seed=11)
        b = sample_counts(probs, 5000, seed=11)
        c = sample_counts(probs, 5000, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("value", [10.5, True, math.nan, math.inf, -1], ids=["half", "bool", "nan", "inf", "neg"])
    def test_shots_must_be_a_nonnegative_integer(self, value):
        with pytest.raises(StateValidationError, match="shots"):
            sample_counts(measure_probs(uniform_pair()), value, seed=1)

    @pytest.mark.parametrize("value", [1.7, True, math.nan, math.inf, -1], ids=["fraction", "bool", "nan", "inf", "neg"])
    def test_seed_must_be_a_nonnegative_integer(self, value):
        with pytest.raises(StateValidationError, match="seed"):
            sample_counts(measure_probs(uniform_pair()), 100, seed=value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_probabilities_rejected(self, bad):
        for p in (np.full(9, bad), np.array([bad, 1.0] + [0.0] * 7)):
            with pytest.raises(StateValidationError, match="probability distribution"):
                sample_counts(p, 100, seed=1)

    def test_whole_floats_and_numpy_integers_accepted(self):
        probs = measure_probs(uniform_pair())
        want = sample_counts(probs, 100, seed=7)
        assert np.array_equal(sample_counts(probs, 100.0, seed=np.int64(7)), want)
        assert np.array_equal(sample_counts(probs, np.int32(100), seed=7.0), want)


class TestLindbladBackend:
    @pytest.mark.parametrize("value", [1.5, True, math.nan, math.inf, 0], ids=["half", "bool", "nan", "inf", "zero"])
    def test_step_scale_must_be_a_positive_integer(self, value):
        noise = NoiseModel.none()
        circ = dj_circuit(DJOracle("Z", "X"))
        calls = [lambda: LindbladEngine(noise, value), lambda: simulate_lindblad(circ, noise, step_scale=value)]
        # warm the cached engine of step_scale 1: True and 1.0 equal 1 as keys
        simulate_lindblad(circ, noise)
        for call in calls:
            with pytest.raises(SimulationError, match="step_scale"):
                call()

    def test_whole_float_step_scale_accepted(self):
        engine = LindbladEngine(NoiseModel.none(), 2.0)
        assert engine.step_scale == 2 and type(engine.step_scale) is int

    def test_more_dephasing_never_helps_search(self):
        # scale both Ramsey times down: 1x, 2x and 4x the base dephasing
        averages = []
        for scale in (1.0, 2.0, 4.0):
            base = ExperimentConfig.default().noise
            nm = NoiseModel(
                q1=QutritCoherence(base.q1.t1_01, base.q1.t1_12, base.q1.t2r_01 / scale, base.q1.t2r_12 / scale),
                q2=QutritCoherence(base.q2.t1_01, base.q2.t1_12, base.q2.t2r_01 / scale, base.q2.t2r_12 / scale),
                j11=base.j11, j21=base.j21, j12=base.j12, j22=base.j22,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sps = []
                for idx in range(9):
                    target = str(BasisLabel.from_index(idx, 2))
                    circ = grover_circuit(GroverSpec(BasisLabel.parse(target), 1))
                    rho = simulate_lindblad(circ, nm)
                    sps.append(measure_probs(rho).prob_of(target))
            averages.append(float(np.mean(sps)))
        assert averages[0] >= averages[1] >= averages[2]

    def test_wrong_register_size_rejected(self):
        circ = Circuit(1, moments_of((pulse_r01(0, 0.0, math.pi),)))
        with pytest.raises(SimulationError):
            simulate_lindblad(circ, NoiseModel.none())

    def test_single_qutrit_initial_state_rejected(self):
        one = PureState.basis("1")
        with pytest.raises(StateValidationError):
            simulate_lindblad(dj_circuit(DJOracle("Z", "X")), NoiseModel.none(), initial=one)
        with pytest.raises(StateValidationError):
            evolve_idle(NoiseModel.none(), one.density(), 100.0)

    def test_channel_wrong_register_size_rejected(self):
        circ = Circuit(1, moments_of((pulse_r01(0, 0.0, math.pi),)))
        with pytest.raises(SimulationError):
            circuit_channel(circ, NoiseModel.none())

    @pytest.mark.parametrize("case", ["negative_eigenvalue", "trace_drift"])
    def test_bad_final_state_raises_simulation_error(self, monkeypatch, case):
        # the drift check sees the raw trace; the eigenvalue check is DensityMatrix's
        if case == "negative_eigenvalue":
            bad = np.diag([0.5, 0.501, -1e-3] + [0.0] * 6).astype(complex)
            assert np.trace(bad).real == pytest.approx(1.0, abs=1e-12)
        else:
            bad = np.diag([1.0 + 1e-3] + [0.0] * 8).astype(complex)
        monkeypatch.setattr(LindbladEngine, "walk", lambda self, circuits, initial: bad.reshape(1, -1).copy())
        with pytest.raises(SimulationError):
            simulate_lindblad(dj_circuit(DJOracle("Z", "X")), NoiseModel.none())

    def test_channel_matches_the_stepwise_channel(self):
        # the model's dense walk reads every entry within 7.8e-16 (1 and 2 OpenBLAS threads)
        circuits = algorithm_circuits() + [compile_cphase(theta, BasisLabel.from_index(i, 2))
                                           for theta in (0.7, 2.0) for i in range(DIM * DIM)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for noise in (model() for model in NOISE_MODELS.values()):
                halved = LindbladEngine(noise, 2)  # the pair engine's other step count, which criterion 6 reads
                for circ in circuits:
                    channel = circuit_channel(circ, noise).superop
                    assert np.max(np.abs(channel - stepwise_channel(noise, circ))) < 1e-13
                    channel = halved.walk((circ,), np.eye(DIM2 * DIM2, dtype=complex))[0]
                    assert np.max(np.abs(channel - stepwise_channel(noise, circ, 2))) < 1e-13

    def test_channel_of_a_warm_engine_gives_the_cold_bytes(self):
        noise = ExperimentConfig.default().noise
        for circ in (grover_circuit(GroverSpec("12", 2)), compile_cphase(1.0, "21")):
            noise_sim._engine.cache_clear()
            cold = circuit_channel(circ, noise).superop
            noise_sim._engine.cache_clear()
            simulate_lindblad(circ, noise)
            plan = noise_sim._engine(noise, 1)._plans[(circ,)]
            assert circuit_channel(circ, noise).superop.tobytes() == cold.tobytes()
            assert noise_sim._engine(noise, 1)._plans[(circ,)] is plan


class TestProcessMatrices:
    @pytest.mark.parametrize("gate", ["I", "X", "Xsq", "Z", "Zsq", "H", "Hdag"])
    def test_reduced_channel_matches_matrix_unit_images(self, gate):
        for qutrit in (0, 1):
            circ = merge_streams(2, {qutrit: decompose_single(gate, qutrit)})
            channel = circuit_channel(circ, ExperimentConfig.default().noise)
            reduced = reduced_qutrit_channel(channel, qutrit)
            assert reduced.dim == DIM
            assert np.array_equal(reduced.superop, matrix_unit_reduction(channel, qutrit))

    def test_reduction_needs_qutrit_zero_or_one(self):
        with pytest.raises(ChannelError):
            reduced_qutrit_channel(circuit_channel(both_h(), NoiseModel.none()), 2)

    def test_normalized_once_and_read_only(self):
        noisy = chi_matrix(circuit_channel(merge_streams(2, {0: decompose_single("H", 0)}),
                                           ExperimentConfig.default().noise, qutrit=0))
        for chi in (chi_of_unitary(logical_gate("H")), noisy, ProcessMatrix(noisy.matrix)):
            unit = chi.normalized()
            assert chi.normalized() is unit
            assert not unit.flags.writeable and not chi.matrix.flags.writeable
            assert unit.tobytes() == (chi.matrix / np.real(np.trace(chi.matrix))).tobytes()
        # the fidelity of the normalized matrices' full product, as before the normalization was kept
        ideal = chi_of_unitary(logical_gate("H"))
        expected = np.real(np.trace((noisy.matrix / np.real(np.trace(noisy.matrix)))
                                    @ (ideal.matrix / np.real(np.trace(ideal.matrix)))))
        assert process_fidelity(noisy, ideal) == float(expected)

    def test_nonfinite_process_matrix_rejected(self):
        with pytest.raises(ChannelError, match="Hermitian"):
            ProcessMatrix(np.full((9, 9), np.nan))

    def test_nonfinite_channel_rejected(self):
        # trace preservation is checked first, before positivity and Hermiticity
        with pytest.raises(ChannelError, match="not trace preserving"):
            chi_matrix(QuantumChannel(np.full((9, 9), np.nan), DIM))

    def test_transpose_map_is_not_completely_positive(self):
        # rho -> rho^T permutes the matrix units: trace preserving, but its
        # Choi matrix is the swap, with eigenvalue -1
        superop = np.eye(DIM * DIM)[np.arange(DIM * DIM).reshape(DIM, DIM).T.ravel()]
        channel = QuantumChannel(superop, DIM)
        rho = np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)
        assert np.array_equal(channel.apply(rho), rho.T)
        assert channel.trace_preservation_defect() == 0.0
        assert np.min(np.linalg.eigvalsh(channel.choi())) == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ChannelError, match="not completely positive"):
            chi_matrix(channel)

    def test_non_hermitian_chi_rejected_after_positivity(self):
        # i eps on the chi entry (a, c, k, l) = (0, 1, 0, 0) and not its mirror: trace
        # preserving, and the Hermitian part is the identity channel's chi
        chi = chi_of_unitary(np.eye(DIM)).matrix.copy()
        chi[0, DIM] += 1e-6j
        superop = chi.reshape(DIM, DIM, DIM, DIM).transpose(0, 2, 1, 3).reshape(DIM2, DIM2)
        channel = QuantumChannel(superop, DIM)
        assert channel.trace_preservation_defect() == 0.0
        with pytest.raises(ChannelError, match="process matrix must be Hermitian"):
            chi_matrix(channel)

    def test_chi_holds_the_process_matrix_of_the_raw_chi(self):
        config = ExperimentConfig.default()
        for gate in LOGICAL_GATE_NAMES:
            pair = merge_streams(2, {0: decompose_single(gate, 0)})
            channel = circuit_channel(pair, config.noise, qutrit=0)
            raw = channel.superop.reshape(DIM, DIM, DIM, DIM).transpose(0, 2, 1, 3).reshape(DIM2, DIM2)
            assert chi_matrix(channel).matrix.tobytes() == ProcessMatrix(raw).matrix.tobytes()

    def test_positivity_check_on_chi_matches_choi(self):
        # chi is the Choi matrix with its tensor factors swapped: one spectrum
        config = ExperimentConfig.default()
        for gate in LOGICAL_GATE_NAMES:
            for qutrit in (0, 1):
                pair = merge_streams(2, {qutrit: decompose_single(gate, qutrit)})
                channel = circuit_channel(pair, config.noise, qutrit=qutrit)
                chi, choi = chi_matrix(channel).matrix, channel.choi()
                chi_min = np.min(np.linalg.eigvalsh(chi))
                choi_min = np.min(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0))
                assert abs(chi_min - choi_min) <= 1e-14, (gate, qutrit)

    def test_identity_channel_rank_one(self):
        chi = chi_of_unitary(np.eye(3))
        evals = np.linalg.eigvalsh(chi.matrix)
        assert evals[-1] == pytest.approx(3.0, abs=1e-9)
        assert np.max(np.abs(evals[:-1])) < 1e-9
        # all weight on the identity component of the operator basis
        idx = [0, 4, 8]
        assert chi.matrix[np.ix_(idx, idx)] == pytest.approx(np.ones((3, 3)), abs=1e-12)

    def test_chi_hermitian_and_rank_one_for_unitaries(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            chi = chi_of_unitary(u).matrix
            assert np.allclose(chi, chi.conj().T, atol=1e-9)
            evals = np.linalg.eigvalsh(chi)
            assert np.sum(np.abs(evals) > 1e-8) == 1

    def test_noiseless_compiled_hadamard_is_exact(self):
        channel = circuit_channel(both_h(), NoiseModel.none())
        reduced = reduced_qutrit_channel(channel, 0)
        fid = process_fidelity(chi_matrix(reduced), chi_of_unitary(logical_gate("H")))
        assert fid == pytest.approx(1.0, abs=1e-8)

    def test_unitary_pair_fidelity_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            us = []
            for _ in range(2):
                z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                q, r = np.linalg.qr(z)
                us.append(q * (np.diag(r) / np.abs(np.diag(r))))
            u, v = us
            fid = process_fidelity(chi_of_unitary(u), chi_of_unitary(v))
            assert fid == pytest.approx(abs(np.trace(u.conj().T @ v)) ** 2 / 9.0, abs=1e-9)

    def test_identical_chi_fidelity_one(self):
        chi = chi_of_unitary(logical_gate("H"))
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_channel_trace_preservation_on_random_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            channel = circuit_channel(both_h(), ExperimentConfig.default().noise)
        rng = np.random.default_rng(37)
        for _ in range(10):
            z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            rho = z @ z.conj().T
            rho /= np.trace(rho)
            out = channel.apply(rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)

    def test_choi_operator_positive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            channel = circuit_channel(both_h(), ExperimentConfig.default().noise)
        evals = np.linalg.eigvalsh(channel.choi())
        assert np.min(evals) >= -1e-7


def correlated_q1_noise() -> NoiseModel:
    """First qutrit on the correlated-dephasing branch, all four couplings on."""
    q1 = QutritCoherence(t1_01=30.0, t1_12=20.0, t2r_01=10.0, t2r_12=20.0)
    gamma_a, gamma_b = dephasing_rates(q1)
    assert gamma_b < 0.0 <= gamma_a + gamma_b
    return NoiseModel(q1=q1, q2=ExperimentConfig.default().noise.q2, j11=-30.5, j21=0.6, j12=-2.1, j22=-0.9)


def level_difference_sectors() -> np.ndarray:
    """Sector (a1 - b1, a2 - b2) of each row-major index 9 a + b of |a><b|, as one integer."""
    a, b = np.divmod(np.arange(DIM**4), DIM * DIM)
    (a1, a2), (b1, b2) = np.divmod(a, DIM), np.divmod(b, DIM)
    return 5 * (a1 - b1) + (a2 - b2)


def scaled_noise(seed: int) -> NoiseModel:
    """The default model with each coherence time scaled within +-25%."""
    rng = np.random.default_rng(seed)
    nm = ExperimentConfig.default().noise
    q1, q2 = (QutritCoherence(*(t * rng.uniform(0.75, 1.25) for t in astuple(q))) for q in (nm.q1, nm.q2))
    return replace(nm, q1=q1, q2=q2)


NOISE_MODELS = {
    "default": lambda: ExperimentConfig.default().noise,
    "none": NoiseModel.none,
    "correlated_q1": correlated_q1_noise,
}


class TestSectorStructure:
    """The generator is block-diagonal over the level-difference sectors, and
    the propagators formed per sector match the whole-matrix integrator."""

    @pytest.mark.parametrize("name", NOISE_MODELS)
    def test_generator_has_no_off_sector_entry(self, name):
        gen = dense_generator(NOISE_MODELS[name]())
        sector = level_difference_sectors()
        off = sector[:, None] != sector[None, :]
        assert np.count_nonzero(gen[off]) == 0
        sizes = np.unique(sector, return_counts=True)[1]
        assert len(sizes) == 25 and sizes.max() == 9

    @pytest.mark.parametrize("noise", [make() for make in NOISE_MODELS.values()] + [scaled_noise(s) for s in range(20)],
                             ids=[*NOISE_MODELS, *(f"scaled{s}" for s in range(20))])
    def test_generator_matches_the_dense_kron_reference(self, noise):
        gen = lindblad_generator(noise)
        assert gen.shape == (81, 81)
        assert np.array_equal(gen, dense_generator(noise))

    @pytest.mark.parametrize("step_scale", [1, 2])
    @pytest.mark.parametrize("name", NOISE_MODELS)
    def test_sector_propagators_match_the_dense_integrator(self, name, step_scale):
        noise = NOISE_MODELS[name]()
        engine = LindbladEngine(noise, step_scale)
        gen = dense_generator(noise)
        sector = level_difference_sectors()
        off = sector[:, None] != sector[None, :]
        for duration in (0.5, 16.0, 40.0, 137.3):
            prop = engine.propagator(duration)
            assert prop.shape == (81, 81)
            assert not prop.flags.writeable
            assert np.max(np.abs(prop - dense_propagator(gen, duration, step_scale))) < 1e-13
            assert np.count_nonzero(prop[off]) == 0


class TestQutritChannel:
    """A pair circuit on one qutrit, the other in |0>, has the channel of that
    qutrit's own 9x9 generator: the partner's noise and the coupling drop out."""

    def test_the_one_qutrit_engine_has_no_walk(self):
        engine = QutritEngine(ExperimentConfig.default().noise.q1)
        with pytest.raises(SimulationError, match="^the one-qutrit engine has no walk"):
            engine.walk((Circuit(2, ()),), vectorized_ground())

    @pytest.mark.parametrize("name", NOISE_MODELS)
    def test_generator_keeps_the_partner_ground_block(self, name):
        noise = NOISE_MODELS[name]()
        gen = lindblad_generator(noise)
        for qutrit in (0, 1):
            idx = partner_ground_units(qutrit)
            outside = np.setdiff1d(np.arange(DIM**4), idx)
            assert np.count_nonzero(gen[np.ix_(outside, idx)]) == 0
            # the one-qutrit engine's generator is that block, value for value
            engine = QutritEngine(noise.q2 if qutrit else noise.q1)
            assert engine.generator.shape == (9, 9)
            assert np.array_equal(engine.generator, gen[np.ix_(idx, idx)])

    @pytest.mark.parametrize("step_scale", [1, 2])
    @pytest.mark.parametrize("name", NOISE_MODELS)
    def test_propagators_are_the_pair_propagators_block(self, name, step_scale):
        # the one-qutrit engine steps at 1 only. At criterion 6's halved step the pair engine keeps the block
        # closed, and its block moves from the one-qutrit propagator by rounding alone: at most 1.6e-14 (1 and 2
        # OpenBLAS threads), where the full pair propagator moves by 1.1e-12
        noise = NOISE_MODELS[name]()
        pair = LindbladEngine(noise, step_scale)
        tol = 1e-15 if step_scale == 1 else 2e-13
        for qutrit in (0, 1):
            idx = partner_ground_units(qutrit)
            outside = np.setdiff1d(np.arange(DIM**4), idx)
            engine = QutritEngine(noise.q2 if qutrit else noise.q1)
            assert isinstance(engine, LindbladEngine) and engine.step_scale == 1
            for duration in (0.5, 16.0, 40.0, 137.3):
                prop = engine.propagator(duration)
                assert prop.shape == (9, 9)
                assert not prop.flags.writeable
                full = pair.propagator(duration)
                assert np.count_nonzero(full[np.ix_(outside, idx)]) == 0
                assert np.max(np.abs(prop - full[np.ix_(idx, idx)])) < tol

    @pytest.mark.parametrize("step_scale", [1, 2])
    @pytest.mark.parametrize("name", NOISE_MODELS)
    @pytest.mark.parametrize("gate", LOGICAL_GATE_NAMES)
    def test_matches_the_reduced_full_channel(self, gate, name, step_scale):
        # at step 2 the full channel is the pair engine's walk at criterion 6's halved step, which the
        # one-qutrit channel, formed at step 1 only, meets to within 2e-14 (1 and 2 OpenBLAS threads)
        noise = NOISE_MODELS[name]()
        halved = LindbladEngine(noise, 2) if step_scale == 2 else None
        tol = 1e-14 if step_scale == 1 else 2e-13
        for qutrit in (0, 1):
            circ = merge_streams(2, {qutrit: decompose_single(gate, qutrit)})
            direct = circuit_channel(circ, noise, qutrit=qutrit)
            assert direct.dim == DIM
            if step_scale == 1:
                full = circuit_channel(circ, noise)
            else:
                full = QuantumChannel(halved.walk((circ,), np.eye(DIM2 * DIM2, dtype=complex))[0], DIM2)
            assert np.max(np.abs(direct.superop - reduced_qutrit_channel(full, qutrit).superop)) < tol
            if not circ.moments:
                assert np.array_equal(direct.superop, np.eye(DIM * DIM))

    def test_builds_no_pair_engine(self):
        noise = ExperimentConfig.default().noise
        noise_sim._engine.cache_clear()
        noise_sim._qutrit_engine.cache_clear()
        for gate in LOGICAL_GATE_NAMES:
            for qutrit in (0, 1):
                circuit_channel(merge_streams(2, {qutrit: decompose_single(gate, qutrit)}), noise, qutrit=qutrit)
        assert noise_sim._engine.cache_info().misses == 0
        # two slots, one per qutrit: alternating qutrits builds each engine once
        assert noise_sim._qutrit_engine.cache_info().misses == 2
        engines = [noise_sim._qutrit_engine(noise.q2 if q else noise.q1) for q in (0, 1)]
        assert noise_sim._qutrit_engine.cache_info().misses == 2
        assert all(p.shape == (9, 9) for e in engines for p in e._cache.values())

    def test_partner_noise_does_not_enter(self):
        noise = ExperimentConfig.default().noise
        other = replace(correlated_q1_noise(), q2=noise.q2)
        for gate in ("H", "X", "Zsq"):
            circ = merge_streams(2, {1: decompose_single(gate, 1)})
            want = circuit_channel(circ, noise, qutrit=1).superop
            assert np.array_equal(circuit_channel(circ, other, qutrit=1).superop, want)
            assert np.array_equal(circuit_channel(circ, replace(other, q1=QutritCoherence(1e-300, 1.0, 1.0, 1.0)),
                                                  qutrit=1).superop, want)

    @pytest.mark.parametrize("name", NOISE_MODELS)
    def test_other_circuits_reduce_the_full_channel(self, name):
        noise = NOISE_MODELS[name]()
        h_on_0 = decompose_single("H", 0)
        for circ in (compile_cphase(1.0, "21"), both_h(), merge_streams(2, {0: h_on_0, 1: decompose_single("X", 1)})):
            full = circuit_channel(circ, noise)
            for qutrit in (0, 1):
                reduced = reduced_qutrit_channel(full, qutrit).superop
                assert np.array_equal(circuit_channel(circ, noise, qutrit=qutrit).superop, reduced)

    def test_needs_qutrit_zero_or_one_and_a_pair_circuit(self):
        with pytest.raises(ChannelError):
            circuit_channel(both_h(), NoiseModel.none(), qutrit=2)
        one = Circuit(1, moments_of((pulse_r01(0, 0.0, math.pi),)))
        for qutrit in (None, 0):
            with pytest.raises(SimulationError):
                circuit_channel(one, NoiseModel.none(), qutrit=qutrit)


def algorithm_circuits() -> list[Circuit]:
    """The distinct circuits of one DJ+BV+Grover cycle (some BV circuits are DJ ones)."""
    return list(dict.fromkeys(c for runner in ("dj", "bv", "grover") for c in runner_circuits(runner)))


class TestStateWalk:
    """The state path walks one precomposed map per moment and gives the
    state of the stepwise walk."""

    @pytest.fixture(autouse=True)
    def quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield

    @pytest.mark.parametrize("step_scale", [1, 2])
    @pytest.mark.parametrize("name", ["default", "none"])
    def test_matches_the_stepwise_walk(self, name, step_scale):
        # the model's dense walk reads every entry within 4.5e-16 (1 and 2 OpenBLAS threads)
        noise = NOISE_MODELS[name]()
        circuits = algorithm_circuits()
        assert len(circuits) == 43
        rng = np.random.default_rng(5)
        psi = rng.normal(size=DIM * DIM) + 1j * rng.normal(size=DIM * DIM)
        excited = PureState(psi / np.linalg.norm(psi))
        ground = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
        ground[0, 0] = 1.0
        for circ in circuits:
            for initial, rho0 in ((None, ground), (excited, excited.density().matrix)):
                rho = simulate_lindblad(circ, noise, initial, step_scale=step_scale).matrix
                assert np.max(np.abs(rho - stepwise_state(noise, circ, rho0, step_scale))) < 1e-13

    def test_one_cycle_holds_one_map_per_timed_moment(self):
        noise = ExperimentConfig.default().noise
        noise_sim._engine.cache_clear()
        circuits = algorithm_circuits()
        for circ in circuits:
            simulate_lindblad(circ, noise)
        engine = noise_sim._engine(noise, 1)
        assert list(engine._plans) == [(circ,) for circ in circuits]
        maps = list(engine._superops.values())
        assert sum(s.shape == (81, 81) for s in maps) == 21
        assert all(s.shape == (81,) for s in maps if s.ndim != 2)
        assert not any(s.flags.writeable for s in maps)
        shared = {id(s) for s in maps}
        assert all(id(s) in shared for _, walk, _ in engine._plans.values() for s in walk)

    def test_calibrated_unitary_formed_only_on_a_map_miss(self, monkeypatch):
        engine = LindbladEngine(ExperimentConfig.default().noise)
        formed = []
        calibrated = engine._calibrated_unitary
        monkeypatch.setattr(engine, "_calibrated_unitary", lambda m, d: formed.append(m) or calibrated(m, d))
        for _ in range(2):
            for circ in algorithm_circuits():
                engine.walk((circ,), vectorized_ground())
        assert len(formed) == len(set(formed)) == len(engine._superops)

    def test_memos_stay_bounded_over_a_sweep_of_angles(self):
        # each angle has its own plan and map, and above the 10 ns pulse floor its own propagator:
        # without bounds the sweep would leave 2,000 plans, 2,000 maps and 1,935 propagators (about 400 MB)
        noise = ExperimentConfig.default().noise
        noise_sim._engine.cache_clear()
        circuits = [Circuit(2, ((pulse_r01(0, 0.0, 2 * math.pi * k / 2000),),)) for k in range(2000)]
        fresh = simulate_lindblad(circuits[0], noise).matrix.tobytes()
        for circ in circuits[1:]:
            simulate_lindblad(circ, noise)
        engine = noise_sim._engine(noise, 1)
        assert len(engine._plans) <= noise_sim._PLAN_MEMO
        assert len(engine._superops) <= noise_sim._MAP_MEMO
        assert len(engine._cache) <= noise_sim._PROPAGATOR_MEMO
        assert (circuits[0],) not in engine._plans and circuits[0].moments[0] not in engine._superops
        assert simulate_lindblad(circuits[0], noise).matrix.tobytes() == fresh

    def test_zero_duration_maps(self):
        engine = LindbladEngine(ExperimentConfig.default().noise)
        moment = (pulse_vphase(0, 1.0, 2.0), pulse_vphase(1, -0.5, 3.0))
        assert Circuit(2, (moment,)).durations == (0.0,)
        diagonal = engine._superop(moment, 0.0)
        assert diagonal.shape == (81,)
        assert not diagonal.flags.writeable
        u = moment_unitary(moment, 2)
        assert np.array_equal(diagonal, np.diag(np.kron(u, u.conj())))
        assert engine._superop(moment, 0.0) is diagonal


class TestSharedPrefixWalk:
    """Circuits walked together through their shared moment prefixes give,
    byte for byte, the states of the per-case walks, in both backends."""

    @pytest.fixture(autouse=True)
    def quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield

    @pytest.mark.parametrize("runner, moments, steps", [("dj", 299, 179), ("bv", 98, 58), ("grover", 648, 371)])
    def test_one_step_per_distinct_prefix(self, runner, moments, steps):
        circuits = runner_circuits(runner)
        levels = {"dj": 13, "bv": 11, "grover": 53}[runner]
        walk, counts, finals = noise_sim._shared_prefixes(circuits)
        assert sum(len(c.moments) for c in circuits) == moments
        assert len(walk) == steps
        prefixes = {c.moments[:k] for c in circuits for k in range(1, len(c.moments) + 1)}
        assert len(prefixes) == steps
        # the steps come in nondecreasing prefix length, counted per length
        assert all(parent < slot for slot, (parent, _, _) in enumerate(walk, start=1))
        lengths = [0]  # per slot, the length of its prefix
        for parent, _, _ in walk:
            lengths.append(lengths[parent] + 1)
        assert lengths == sorted(lengths) and len(counts) == levels == max(len(c.moments) for c in circuits)
        assert sum(counts) == steps and list(counts) == np.bincount(lengths)[1:].tolist()
        # so prefix length L fills slots starts[L] to starts[L + 1] - 1, and every parent lies in the level before
        starts = np.cumsum([0, 1, *counts])
        for length in range(1, levels + 1):
            for parent, _, _ in walk[starts[length] - 1:starts[length + 1] - 1]:
                assert starts[length - 1] <= parent < starts[length]
        # the pure backend stacks level L's unitaries, those of the distinct prefixes of L + 1 moments
        plan, _ = noise_sim._pure_plan(circuits)
        assert [len(parents) for parents, _ in plan] == list(counts)
        for depth, (parents, unitaries) in enumerate(plan):
            assert len(parents) == len({p for p in prefixes if len(p) == depth + 1})
            assert unitaries.shape == (len(parents), DIM2, DIM2) and not unitaries.flags.writeable
        expected = np.array([per_case_pure(c) for c in circuits])
        assert noise_sim.pure_states(circuits).tobytes() == expected.tobytes()
        # following the parents back from a circuit's final slot spells out its moments
        for circuit, slot in zip(circuits, finals):
            spelled = []
            while slot:
                parent, moment, duration = walk[slot - 1]
                spelled.append((moment, duration))
                slot = parent
            assert spelled[::-1] == list(zip(circuit.moments, circuit.durations))

    @pytest.mark.parametrize("step_scale", [1, 2])
    @pytest.mark.parametrize("name", NOISE_MODELS)
    @pytest.mark.parametrize("runner", ["dj", "bv", "grover"])
    def test_lindblad_states_match_the_per_case_walks(self, runner, name, step_scale):
        noise = NOISE_MODELS[name]()
        circuits = runner_circuits(runner)
        engine = noise_sim._engine(noise, step_scale)
        expected = np.array([per_case_lindblad(engine, c, vectorized_ground()) for c in circuits])
        walked = engine.walk(circuits, vectorized_ground())
        assert np.array_equal(walked, expected) and walked.tobytes() == expected.tobytes()
        if step_scale == 1:  # the runners' final_states walks the engine at step 1 only
            checked = noise_sim._checked_states(expected.reshape(-1, DIM2, DIM2))
            assert np.array_equal(noise_sim.final_states(circuits, noise), checked)

    def test_duplicates_nested_prefixes_and_the_empty_circuit(self):
        one, two = grover_circuit(GroverSpec("12", 1)), grover_circuit(GroverSpec("12", 2))
        assert two.moments[:len(one.moments)] == one.moments  # the one-round circuit is a strict prefix
        other, empty = dj_circuit(DJOracle("X", "Z")), Circuit(2, ())
        circuits = (two, other, one, empty, other, two)
        walk, _, finals = noise_sim._shared_prefixes(circuits)
        assert len(walk) == len({c.moments[:k] for c in circuits for k in range(1, len(c.moments) + 1)})
        assert finals[3] == 0 and finals[1] == finals[4] and finals[0] == finals[5] and finals[2] < finals[0]
        expected = np.array([per_case_pure(c) for c in circuits])
        assert noise_sim.pure_states(circuits).tobytes() == expected.tobytes()
        engine = noise_sim._engine(ExperimentConfig.default().noise, 1)
        expected = np.array([per_case_lindblad(engine, c, vectorized_ground()) for c in circuits])
        assert engine.walk(circuits, vectorized_ground()).tobytes() == expected.tobytes()
        assert np.array_equal(expected[3], vectorized_ground())
        # the channel is the walk of the identity
        eye = np.eye(DIM2 * DIM2, dtype=complex)
        for circ in (two, empty):
            channel = circuit_channel(circ, ExperimentConfig.default().noise).superop
            assert channel.tobytes() == per_case_lindblad(engine, circ, eye).tobytes()

    def test_explicit_initial_state(self):
        rng = np.random.default_rng(9)
        psi = rng.normal(size=DIM2) + 1j * rng.normal(size=DIM2)
        psi = PureState(psi / np.linalg.norm(psi))
        circuits = runner_circuits("dj") + (Circuit(2, ()),)
        expected = np.array([per_case_pure(c, psi) for c in circuits])
        assert noise_sim.pure_states(circuits, psi).tobytes() == expected.tobytes()
        assert np.array_equal(expected[-1], psi.amplitudes)
        for circuit, amps in zip(circuits, expected):
            assert simulate_pure(circuit, psi).amplitudes.tobytes() == amps.tobytes()
        noise = ExperimentConfig.default().noise
        engine = noise_sim._engine(noise, 1)
        rho = psi.density().matrix.reshape(-1)
        expected = np.array([per_case_lindblad(engine, c, rho) for c in circuits])
        assert engine.walk(circuits, rho).tobytes() == expected.tobytes()
        checked = noise_sim._checked_states(expected.reshape(-1, DIM2, DIM2))
        for circuit, state in zip(circuits, checked):
            assert simulate_lindblad(circuit, noise, psi).matrix.tobytes() == state.tobytes()

    def test_every_walk_applies_every_step(self, monkeypatch):
        # nothing is kept per final state: a second walk of the same tuple applies each step's map again
        circuits = runner_circuits("grover")
        products = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return np.asarray(self) @ other
        levels, finals = noise_sim._pure_plan(circuits)
        counted = (tuple((parents, unitaries.view(Counted)) for parents, unitaries in levels), finals)
        monkeypatch.setattr(noise_sim, "_pure_plan", lambda circuits: counted)
        first = noise_sim.pure_states(circuits)
        second = noise_sim.pure_states(circuits)
        # 53 stacked products, one per level, apply the 371 steps
        assert len(products) == 2 * 53
        assert first is not second and first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("n_qutrits", [1, 2, 3])
    @pytest.mark.parametrize("initial", [False, True], ids=["ground", "explicit"])
    def test_level_walk_of_any_register_matches_the_per_case_walks(self, n_qutrits, initial):
        # duplicates, nested prefixes of different lengths and the empty circuit, on one register
        h, x = (single_qutrit_circuit(name, min(n_qutrits - 1, 1), n_qutrits=n_qutrits) for name in ("H", "X"))
        z = single_qutrit_circuit("Z", 0, n_qutrits=n_qutrits)
        empty = Circuit(n_qutrits, ())
        circuits = (h.then(x).then(z), h, empty, x.then(h), h.then(x), h.then(x).then(z), empty, h)
        psi = None
        if initial:
            rng = np.random.default_rng(n_qutrits)
            amps = rng.normal(size=DIM**n_qutrits) + 1j * rng.normal(size=DIM**n_qutrits)
            psi = PureState(amps / np.linalg.norm(amps))
        expected = np.array([per_case_pure(c, psi) for c in circuits])
        walked = noise_sim.pure_states(circuits, psi)
        assert walked.tobytes() == expected.tobytes()
        assert walked[2].tobytes() == walked[6].tobytes() == per_case_pure(empty, psi).tobytes()

    @pytest.mark.parametrize("initial", [False, True], ids=["ground", "explicit"])
    def test_a_tuple_of_the_empty_circuit_alone_has_no_level(self, initial):
        psi = uniform_pair() if initial else None
        empty = Circuit(2, ())
        assert noise_sim._pure_plan((empty,))[0] == ()
        walked = noise_sim.pure_states((empty,), psi)
        assert walked.shape == (1, DIM2)
        assert walked.tobytes() == np.array([per_case_pure(empty, psi)]).tobytes()

    @pytest.mark.parametrize("row", [0, 7, 24])
    def test_one_qutrit_case_raises_as_the_per_case_loop(self, row):
        circuits = list(runner_circuits("dj"))
        circuits[row] = single_qutrit_circuit("H", 0, n_qutrits=1)
        cases = [(c, {}, 0, i) for i, c in enumerate(circuits)]
        config = ExperimentConfig.default().replace(noisy=True, shots=None, seed=None)
        # the per-case loop's error: simulate_lindblad of the case's circuit, with its row and note
        with pytest.raises(SimulationError) as raised:
            cli_harness._run_cases(config, cases)
        assert type(raised.value) is SimulationError
        assert str(raised.value) == "the noise model is calibrated for a two-qutrit register"
        assert raised.value.row == row
        assert raised.value.__notes__ == [f"raised for case {row} of 25"]
        with pytest.raises(SimulationError, match="^the noise model is calibrated for a two-qutrit register$"):
            simulate_lindblad(circuits[row], NoiseModel.none())
        # the pure backend stacks one register size: the first circuit off circuit 0's is named
        with pytest.raises(DimensionMismatchError) as raised:
            cli_harness._run_cases(config.replace(noisy=False), cases)
        named = 1 if row == 0 else row
        assert raised.value.row == named
        assert raised.value.__notes__ == [f"raised for case {named} of 25"]
        assert str(raised.value) == (f"circuit {named} acts on a {1 + (row == 0)}-qutrit register, "
                                     f"circuit 0 on a {2 - (row == 0)}-qutrit one")
