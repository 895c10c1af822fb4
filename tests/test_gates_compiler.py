"""Native gates, logical decompositions, conditional-phase compilation,
virtual phase frames and the duration model."""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutritlab
from qutritlab.qutrit_core import DIM, BasisLabel, tensor
from qutritlab.gates_compiler import (
    BETA,
    CalibrationFitError,
    Circuit,
    CompileError,
    GateInstruction,
    PhaseFrame,
    PulseShapeError,
    calibrate_frame_phases,
    circuit_unitary,
    compile_cphase,
    cphase_matrix,
    _moment_unitary,
    decompose_single,
    embed_operator,
    equal_up_to_global_phase,
    frame_equivalence_check,
    gate_duration,
    instruction_matrix,
    logical_gate,
    lower_frames,
    merge_streams,
    moment_unitary,
    moments_of,
    native_cphase,
    native_cphase_pulse_model,
    pulse_envelope,
    pulse_r01,
    pulse_r12,
    pulse_vphase,
    r01_matrix,
    r12_matrix,
    rotation_duration,
    single_qutrit_circuit,
    vphase_matrix,
)

OMEGA = np.exp(2j * np.pi / 3)

PI_PULSE_REGIONS = {
    "22": 0, "21": 0,
    "12": 2, "20": 2, "11": 2,
    "02": 4, "10": 4, "01": 4,
    "00": 6,
}


def pi_pulse_count(circ: Circuit) -> int:
    return sum(
        1 for i in circ.instructions()
        if i.kind in ("R01", "R12") and abs(i.params[1] - math.pi) < 1e-12
    )


class TestNativeMatrices:
    def test_r01_half_turn_moves_ground(self):
        out = r01_matrix(0.0, math.pi) @ np.array([1.0, 0.0, 0.0])
        assert abs(out[1]) == pytest.approx(1.0)
        assert abs(out[0]) == pytest.approx(0.0, abs=1e-15)

    def test_r01_zero_angle_is_identity(self):
        for phi in (0.0, 1.3, -2.2):
            assert np.allclose(r01_matrix(phi, 0.0), np.eye(3))

    def test_r01_quarter_turn_superposes(self):
        out = r01_matrix(0.0, math.pi / 2) @ np.array([1.0, 0.0, 0.0])
        assert out[0] == pytest.approx(1 / math.sqrt(2))
        assert out[1] == pytest.approx(1 / math.sqrt(2))
        assert out[2] == pytest.approx(0.0)

    def test_r12_half_turn_swaps_upper_levels(self):
        m = r12_matrix(0.0, math.pi)
        assert abs(m[2, 1]) == pytest.approx(1.0)
        assert abs(m[1, 2]) == pytest.approx(1.0)
        assert m[0, 0] == pytest.approx(1.0)

    def test_r12_zero_is_identity(self):
        assert np.allclose(r12_matrix(0.0, 0.0), np.eye(3))

    def test_r12_drive_phase_convention(self):
        out = r12_matrix(math.pi / 2, math.pi) @ np.array([0.0, 1.0, 0.0])
        assert out[2] == pytest.approx(np.exp(1j * math.pi / 2))

    def test_vphase_is_z_at_thirds(self):
        assert np.allclose(vphase_matrix(2 * math.pi / 3, 2 * math.pi / 3), logical_gate("Z"))

    def test_vphase_zero_is_identity(self):
        assert np.array_equal(vphase_matrix(0.0, 0.0), np.eye(3))

    def test_vphase_general_angles(self):
        m = vphase_matrix(math.pi, math.pi / 2)
        assert np.allclose(np.diag(m), [1.0, -1.0, np.exp(1.5j * math.pi)])

    def test_rotations_match_the_written_out_matrices(self):
        # both level pairs come from one builder; its bytes are those of the
        # explicit 3x3 arrays
        angles = (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, BETA, 2 * math.pi)
        for phi, theta in itertools.product(angles, angles):
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            r01 = np.array([[c, -np.exp(-1j * phi) * s, 0.0], [np.exp(1j * phi) * s, c, 0.0], [0.0, 0.0, 1.0]],
                           dtype=complex)
            r12 = np.array([[1.0, 0.0, 0.0], [0.0, c, -np.exp(-1j * phi) * s], [0.0, np.exp(1j * phi) * s, c]],
                           dtype=complex)
            assert r01_matrix(phi, theta).tobytes() == r01.tobytes()
            assert r12_matrix(phi, theta).tobytes() == r12.tobytes()

    def test_all_native_matrices_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            phi, theta = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            for m in (r01_matrix(phi, theta), r12_matrix(phi, theta), vphase_matrix(phi, theta)):
                assert np.allclose(m @ m.conj().T, np.eye(3), atol=1e-12)


class TestLogicalGates:
    def test_h_first_column_uniform(self):
        col = logical_gate("H")[:, 0]
        assert np.allclose(col, np.full(3, 1 / math.sqrt(3)))

    def test_h_entries(self):
        h = logical_gate("H")
        expected = np.array([[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]) / math.sqrt(3)
        assert np.allclose(h, expected)

    def test_x_cycles_down_from_two(self):
        out = logical_gate("X") @ np.array([0.0, 0.0, 1.0])
        assert out[0] == pytest.approx(1.0)

    def test_z_cubed_identity(self):
        z = logical_gate("Z")
        assert np.allclose(np.linalg.matrix_power(z, 3), np.eye(3))

    def test_squares_and_inverses(self):
        assert np.allclose(logical_gate("Xsq"), logical_gate("X") @ logical_gate("X"))
        assert np.allclose(logical_gate("Zsq"), logical_gate("Z") @ logical_gate("Z"))
        assert np.allclose(logical_gate("Hdag"), logical_gate("H").conj().T)

    def test_unknown_name_rejected(self):
        with pytest.raises(CompileError):
            logical_gate("Y")


class TestDecompositions:
    @pytest.mark.parametrize("name", ["H", "Hdag", "X", "Xsq", "Z", "Zsq", "I"])
    def test_product_equals_logical_gate(self, name):
        circ = single_qutrit_circuit(name, 0, 1)
        assert equal_up_to_global_phase(circuit_unitary(circ), logical_gate(name), 1e-10)

    def test_hadamard_uses_five_instructions(self):
        seq = decompose_single("H", 0)
        assert len(seq) == 5

    def test_hadamard_product_is_exact(self):
        # the chosen pulse phases leave no global phase residue at all
        u = circuit_unitary(single_qutrit_circuit("H", 0, 1))
        assert np.max(np.abs(u - logical_gate("H"))) < 1e-14

    def test_z_is_one_virtual_phase(self):
        seq = decompose_single("Z", 0)
        assert len(seq) == 1
        assert seq[0].kind == "VPhase"
        assert seq[0].params == pytest.approx((2 * math.pi / 3, 2 * math.pi / 3))
        assert seq[0].duration == 0.0

    def test_x_is_two_half_turns(self):
        seq = decompose_single("X", 0)
        kinds = [i.kind for i in seq]
        assert kinds == ["R12", "R01"]
        assert all(i.params[1] == pytest.approx(math.pi) for i in seq)

    def test_physical_pulse_counts(self):
        # fan-out takes three pulses, shifts two, phases none
        assert sum(1 for i in decompose_single("H", 0) if i.kind != "VPhase") == 3
        assert sum(1 for i in decompose_single("X", 0) if i.kind != "VPhase") == 2
        assert sum(1 for i in decompose_single("Z", 0) if i.kind != "VPhase") == 0

    @pytest.mark.parametrize("name,inverse", [
        ("H", "Hdag"), ("Hdag", "H"), ("X", "Xsq"), ("Xsq", "X"),
        ("Z", "Zsq"), ("Zsq", "Z"), ("I", "I"),
    ])
    def test_gate_then_inverse_is_identity(self, name, inverse):
        circ = single_qutrit_circuit(name, 0, 1).then(single_qutrit_circuit(inverse, 0, 1))
        assert equal_up_to_global_phase(circuit_unitary(circ), np.eye(3), 1e-10)

    def test_triple_hadamard_matches_logical_cube(self):
        circ = single_qutrit_circuit("H", 0, 1)
        circ = circ.then(single_qutrit_circuit("H", 0, 1)).then(single_qutrit_circuit("H", 0, 1))
        logical = np.linalg.matrix_power(logical_gate("H"), 3)
        assert equal_up_to_global_phase(circuit_unitary(circ), logical, 1e-10)


class TestCPhase:
    def test_matrix_on_22(self):
        m = cphase_matrix(math.pi, "22")
        expected = np.diag([1.0] * 8 + [-1.0])
        assert np.allclose(m, expected)

    def test_zero_angle_identity(self):
        for target in ("00", "12", "21"):
            assert np.allclose(cphase_matrix(0.0, target), np.eye(9))

    def test_permutation_conjugation(self):
        x = logical_gate("X")
        xx = tensor(x, x)
        lhs = xx @ cphase_matrix(math.pi, "22") @ xx.conj().T
        assert np.allclose(lhs, cphase_matrix(math.pi, "00"))

    def test_bad_target_rejected(self):
        with pytest.raises(Exception):
            cphase_matrix(math.pi, "2")

    @pytest.mark.parametrize("target", sorted(PI_PULSE_REGIONS))
    @pytest.mark.parametrize("theta", [math.pi, math.pi / 2, 8 * math.pi / 9, 1.234])
    def test_compiled_matches_ideal(self, target, theta):
        circ = compile_cphase(theta, target)
        assert equal_up_to_global_phase(circuit_unitary(circ), cphase_matrix(theta, target), 1e-10)

    @pytest.mark.parametrize("target,count", sorted(PI_PULSE_REGIONS.items()))
    def test_pi_pulse_region_counts(self, target, count):
        assert pi_pulse_count(compile_cphase(math.pi, target)) == count

    def test_anchor_targets_compile_to_single_native(self):
        for target, kind in (("22", "CPhaseNative22"), ("21", "CPhaseNative21")):
            circ = compile_cphase(math.pi, target)
            instrs = list(circ.instructions())
            assert len(instrs) == 1
            assert instrs[0].kind == kind

    def test_deepest_target_walks_and_returns(self):
        circ = compile_cphase(math.pi, "00")
        kinds = [i.kind for i in circ.instructions()]
        n = kinds.index("CPhaseNative21")
        forward, backward = kinds[:n], kinds[n + 1:]
        assert len(forward) == len(backward) == 3
        assert forward == backward[::-1]
        assert pi_pulse_count(circ) == 6

    def test_12_target_avoids_its_own_native(self):
        # the conditional phase on |12> is always routed to an anchor
        kinds = {i.kind for i in compile_cphase(math.pi, "12").instructions()}
        assert "CPhaseNative22" in kinds

    def test_pulse_model_phase_difference(self):
        assert native_cphase_pulse_model(math.pi) == pytest.approx(0.0)
        assert native_cphase_pulse_model(0.0) == pytest.approx(math.pi)
        assert native_cphase_pulse_model(8 * math.pi / 9) == pytest.approx(math.pi / 9)


class TestDurations:
    def test_table_pi_pulse_values(self):
        assert rotation_duration(0, "01", math.pi) == pytest.approx(94.98)
        assert rotation_duration(0, "12", math.pi) == pytest.approx(78.52)
        assert rotation_duration(1, "01", math.pi) == pytest.approx(95.41)
        assert rotation_duration(1, "12", math.pi) == pytest.approx(84.28)

    def test_table_half_pi_values(self):
        assert rotation_duration(0, "01", math.pi / 2) == pytest.approx(49.50)
        assert rotation_duration(0, "12", math.pi / 2) == pytest.approx(41.27)
        assert rotation_duration(1, "01", math.pi / 2) == pytest.approx(49.71)
        assert rotation_duration(1, "12", math.pi / 2) == pytest.approx(44.15)

    def test_small_angles_clamp_to_edge_floor(self):
        assert rotation_duration(0, "01", 1e-4) == pytest.approx(10.0)

    def test_virtual_phase_takes_no_time(self):
        assert gate_duration(pulse_vphase(0, 1.0, 2.0)) == 0.0

    def test_native_cphase_durations(self):
        assert gate_duration(native_cphase("21", math.pi)) == pytest.approx(55.9)
        assert gate_duration(native_cphase("22", math.pi)) == pytest.approx(94.0)

    def test_compiled_hadamard_totals(self):
        assert single_qutrit_circuit("H", 0, 1).total_duration == pytest.approx(141.879, abs=0.01)
        assert single_qutrit_circuit("H", 1, 2).total_duration == pytest.approx(147.897, abs=0.01)

    def test_moment_duration_is_max_of_members(self):
        circ = merge_streams(2, {0: decompose_single("H", 0), 1: decompose_single("H", 1)})
        assert circ.total_duration == pytest.approx(147.897, abs=0.01)


class TestCircuitStructure:
    def test_no_qutrit_twice_in_a_moment(self):
        with pytest.raises(CompileError):
            Circuit(1, ((pulse_r01(0, 0.0, math.pi), pulse_vphase(0, 1.0, 0.0)),))

    def test_pi_pulse_count_counts_half_turns_only(self):
        circ = Circuit(1, moments_of((
            pulse_r01(0, 0.0, math.pi), pulse_r12(0, 0.5, math.pi), pulse_r01(0, 0.0, math.pi / 2),
            pulse_vphase(0, math.pi, math.pi), pulse_r12(0, 0.0, -math.pi),
        )))
        assert circ.pulse_count() == 4
        assert circ.pi_pulse_count() == pi_pulse_count(circ) == 2

    def test_text_round_trip(self):
        circ = compile_cphase(1.234, "01").then(
            merge_streams(2, {0: decompose_single("H", 0), 1: decompose_single("Z", 1)})
        )
        parsed = Circuit.from_text(circ.to_text())
        assert parsed.n_qutrits == circ.n_qutrits
        assert len(parsed.moments) == len(circ.moments)
        assert np.allclose(circuit_unitary(parsed), circuit_unitary(circ))
        assert parsed.total_duration == pytest.approx(circ.total_duration)

    def test_durations_one_per_moment(self):
        circ = compile_cphase(1.234, "01").then(
            merge_streams(2, {0: decompose_single("H", 0), 1: decompose_single("Z", 1)})
        )
        assert circ.durations == tuple(max(i.duration for i in m) for m in circ.moments)
        assert sum(circ.durations) == circ.total_duration
        only_phases = Circuit(2, ((pulse_vphase(0, 1.0, 2.0), pulse_vphase(1, 0.5, 0.0)),))
        assert only_phases.durations == (0.0,)

    def test_durations_carry_through_then_and_text(self):
        first = compile_cphase(1.234, "01")
        second = merge_streams(2, {0: decompose_single("H", 0), 1: decompose_single("Xsq", 1)})
        joined = first.then(second)
        assert joined.durations == first.durations + second.durations
        assert Circuit.from_text(joined.to_text()).durations == joined.durations

    def test_durations_take_no_part_in_equality_or_hash(self):
        circ = compile_cphase(math.pi, "00")
        twin = Circuit(circ.n_qutrits, circ.moments)
        object.__setattr__(twin, "durations", ())
        assert twin == circ
        assert hash(twin) == hash(circ)
        assert "durations" not in repr(circ)

    def test_hash_is_the_dataclass_hash(self):
        circ = compile_cphase(1.234, "01")
        instr = circ.moments[0][0]
        assert hash(instr) == hash((instr.kind, instr.targets, instr.params, instr.duration))
        assert hash(circ) == hash((circ.n_qutrits, circ.moments))

    def test_unpickled_hash_follows_the_receiving_process(self):
        # str hashes are salted per process, so a hash cached by the sender must not travel
        build = "from qutritlab.gates_compiler import compile_cphase; circ = compile_cphase(1.234, '01'); "
        send = build + ("import pickle, sys; instr = circ.moments[0][0]; "
                        "sys.stdout.buffer.write(pickle.dumps((circ, instr, hash(circ), hash(instr))))")
        receive = build + (
            "import pickle, sys; got, instr, sent, sent_instr = pickle.loads(sys.stdin.buffer.read()); "
            "fresh = circ.moments[0][0]; "
            "assert (hash(got), hash(instr)) != (sent, sent_instr); "
            "assert got == circ and hash(got) == hash(circ) and {circ: 1}[got] == 1; "
            "assert got.durations == circ.durations; "
            "assert instr == fresh and hash(instr) == hash(fresh) and {fresh: 1}[instr] == 1")
        src = str(Path(qutritlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        sent = subprocess.run([sys.executable, "-c", send], env=dict(env, PYTHONHASHSEED="1"),
                              capture_output=True, check=True).stdout
        done = subprocess.run([sys.executable, "-c", receive], env=dict(env, PYTHONHASHSEED="2"),
                              input=sent, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()

    def test_from_text_rejects_garbage(self):
        with pytest.raises(CompileError):
            Circuit.from_text("no header\nR01(0; 0, 3.14; 94.98)")

    @pytest.mark.parametrize("line", [
        "R01(0; abc, 3.14; 94.98)",
        "R01(x; 0.0, 3.14; 94.98)",
        "R01(0; 0.0, 3.14; 94.98ns)",
        "VPhase(1; 0.5, 0.0; 0.0) | R12(0; 0.0, 1e; 41.27)",
    ], ids=["param", "target", "duration", "second_instruction"])
    def test_from_text_names_the_line_with_a_bad_number(self, line):
        with pytest.raises(CompileError, match=re.escape(repr(line))):
            Circuit.from_text(f"qutrits: 2\n{pulse_r01(0, 0.0, math.pi)._text()}\n{line}\n")

    @pytest.mark.parametrize("kind, targets, params", [
        ("R01", (0,), (0.0, math.nan)),
        ("R12", (1,), (0.0, math.inf)),
        ("R01", (0,), (-math.inf, 1.0)),
        ("VPhase", (0,), (math.inf, 0.0)),
        ("VPhase", (1,), (0.0, math.nan)),
        ("CPhaseNative21", (0, 1), (math.nan,)),
        ("CPhaseNative22", (0, 1), (math.inf,)),
    ], ids=["nan_angle", "inf_angle", "inf_drive_phase", "inf_phase", "nan_phase", "nan_native", "inf_native"])
    def test_non_finite_params_rejected(self, kind, targets, params):
        with pytest.raises(CompileError, match="finite"):
            GateInstruction(kind, targets, params)
        line = f"{kind}({','.join(map(str, targets))}; {', '.join(map(repr, params))}; 0.0)"
        with pytest.raises(CompileError, match="finite"):
            Circuit.from_text(f"qutrits: 2\n{line}\n")

    def test_nan_duration_rejected(self):
        with pytest.raises(CompileError, match="duration"):
            Circuit.from_text("qutrits: 1\nR01(0; 0.0, 3.14; nan)\n")

    @pytest.mark.parametrize("duration", ["94.0", "-1.0", "inf", "0.0"])
    def test_from_text_rejects_a_duration_the_instruction_does_not_imply(self, duration):
        with pytest.raises(CompileError, match="disagrees with the calibrated value"):
            Circuit.from_text(f"qutrits: 1\nR01(0; 0.0, 3.141592653589793; {duration})\n")

    def test_duration_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            GateInstruction("R01", (0,), (0.0, math.pi), 94.98)
        instr = GateInstruction("R12", (1,), (0.0, math.pi / 2.0))
        assert instr.duration == rotation_duration(1, "12", math.pi / 2.0)
        assert GateInstruction("VPhase", (0,), (1.0, 2.0)).duration == 0.0
        assert Circuit.from_text(f"qutrits: 2\n{instr._text()}\n").moments == ((instr,),)

    def test_moments_of_sequences_one_per_instruction(self):
        seq = decompose_single("H", 0)
        assert len(moments_of(seq)) == len(seq)


def embed_by_permutation(u, targets, n_qutrits):
    """Reference embedding: kron onto the targets, then permute every basis
    index digit by digit from (targets, rest) order into register order."""
    rest = [q for q in range(n_qutrits) if q not in targets]
    order = list(targets) + rest
    full = np.kron(u, np.eye(DIM ** len(rest), dtype=complex))
    perm = []
    for idx in range(DIM**n_qutrits):
        digits = BasisLabel.from_index(idx, n_qutrits).digits
        perm.append(sum(digits[q] * DIM ** (n_qutrits - 1 - k) for k, q in enumerate(order)))
    return full[np.ix_(perm, perm)]


def ordered_targets(n_qutrits):
    for k in range(1, n_qutrits + 1):
        yield from itertools.permutations(range(n_qutrits), k)


class TestEmbedOperator:
    @pytest.mark.parametrize(
        "n_qutrits, targets",
        [(n, t) for n in (1, 2, 3) for t in ordered_targets(n)],
    )
    def test_matches_digit_permutation(self, n_qutrits, targets):
        rng = np.random.default_rng(len(targets) * 10 + n_qutrits)
        d = DIM ** len(targets)
        # distinct complex entries, so any misplaced one shows:
        u = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = embed_operator(u, targets, n_qutrits)
        want = embed_by_permutation(u, targets, n_qutrits)
        assert got.shape == want.shape == (DIM**n_qutrits, DIM**n_qutrits)
        assert got.tobytes() == want.tobytes()

    def test_reversed_pair_swaps_the_qutrits(self):
        a, b = logical_gate("X"), logical_gate("Z")
        assert np.array_equal(embed_operator(tensor(a, b), (1, 0), 2), tensor(b, a))

    def test_rejects_wrong_shape(self):
        with pytest.raises(CompileError):
            embed_operator(np.eye(3), (0, 1), 2)
        with pytest.raises(CompileError):
            embed_operator(np.eye(9), (0,), 2)

    def test_rejects_duplicate_targets(self):
        with pytest.raises(CompileError):
            embed_operator(np.eye(9), (1, 1), 2)

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(CompileError):
            embed_operator(np.eye(3), (2,), 2)
        with pytest.raises(CompileError):
            embed_operator(np.eye(3), (-1,), 2)


class TestMomentCache:
    MOMENT = (pulse_r12(0, 0.3, math.pi / 2.0), pulse_vphase(1, 0.4, 1.1))

    def test_result_is_read_only(self):
        u = moment_unitary(self.MOMENT, 2)
        with pytest.raises(ValueError):
            u[0, 0] = 2.0

    def test_list_moment_matches_tuple(self):
        _moment_unitary.cache_clear()
        from_list = moment_unitary(list(self.MOMENT), 2)
        from_tuple = moment_unitary(self.MOMENT, 2)
        assert np.array_equal(from_list, from_tuple)
        explicit = (embed_operator(instruction_matrix(self.MOMENT[1]), (1,), 2)
                    @ embed_operator(instruction_matrix(self.MOMENT[0]), (0,), 2))
        assert np.array_equal(from_tuple, explicit)

    def test_register_size_is_part_of_the_key(self):
        moment = (pulse_r01(0, 0.0, math.pi),)
        assert moment_unitary(moment, 1).shape == (3, 3)
        assert moment_unitary(moment, 2).shape == (9, 9)

    def test_cache_is_bounded(self):
        maxsize = _moment_unitary.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for k in range(maxsize + 5):
            moment_unitary((pulse_vphase(0, 1e-3 * k, 0.0),), 1)
        assert _moment_unitary.cache_info().currsize == maxsize


class TestPhaseFrames:
    def test_advance_then_retreat_restores(self):
        frame = PhaseFrame(2)
        frame.advance(0, 0.4, -1.2)
        frame.advance(0, -0.4, 1.2)
        assert frame.phases(0) == pytest.approx((0.0, 0.0))

    def test_lowered_circuit_has_no_interior_vphase(self):
        circ = single_qutrit_circuit("Z", 0, 1).then(single_qutrit_circuit("H", 0, 1))
        lowered = lower_frames(circ)
        interior = [i for m in lowered.moments[:-1] for i in m]
        assert all(i.kind != "VPhase" for i in interior)

    def test_phase_then_pulse_equivalence(self):
        circ = single_qutrit_circuit("Z", 0, 1).then(
            Circuit(1, moments_of((pulse_r01(0, 0.0, math.pi),)))
        )
        assert frame_equivalence_check(circ)

    def test_pulse_only_circuit_trivially_equivalent(self):
        circ = Circuit(1, moments_of(decompose_single("X", 0)))
        assert frame_equivalence_check(circ)

    def test_full_algorithm_circuit_equivalence(self):
        from qutritlab.algorithms import DJOracle, dj_circuit
        circ = dj_circuit(DJOracle("Z", "Xsq"))
        assert frame_equivalence_check(circ)

    def test_lowering_is_exact_not_just_up_to_phase(self):
        circ = single_qutrit_circuit("H", 0, 1).then(single_qutrit_circuit("Z", 0, 1))
        circ = circ.then(single_qutrit_circuit("Hdag", 0, 1))
        assert np.max(np.abs(circuit_unitary(lower_frames(circ)) - circuit_unitary(circ))) < 1e-12


class TestFrameCalibration:
    @staticmethod
    def channel_with(b01_q1=0.0, b12_q1=0.0, b01_q2=0.0, b12_q2=0.0):
        d1 = np.diag([1.0, np.exp(1j * b01_q1), np.exp(1j * (b01_q1 + b12_q1))])
        d2 = np.diag([1.0, np.exp(1j * b01_q2), np.exp(1j * (b01_q2 + b12_q2))])
        u = tensor(d1, d2)
        return lambda psi: u @ psi

    def test_zero_phase_recovered(self):
        (b01, b12), _ = calibrate_frame_phases(self.channel_with())
        assert abs(b01) < 1e-3
        assert abs(b12) < 1e-3

    def test_single_phase_recovered(self):
        (b01, _), _ = calibrate_frame_phases(self.channel_with(b01_q1=0.7))
        assert b01 == pytest.approx(0.7, abs=1e-3)

    def test_phase_pair_recovered(self):
        (b01, b12), _ = calibrate_frame_phases(self.channel_with(b01_q1=0.3, b12_q1=-1.1))
        assert b01 == pytest.approx(0.3, abs=1e-3)
        assert b12 == pytest.approx(-1.1, abs=1e-3)

    def test_second_qutrit_recovered(self):
        _, (b01, b12) = calibrate_frame_phases(self.channel_with(b01_q2=2.0, b12_q2=0.5))
        assert b01 == pytest.approx(2.0, abs=1e-3)
        assert b12 == pytest.approx(0.5, abs=1e-3)

    def test_random_phase_quads_recovered(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            betas = rng.uniform(-math.pi + 0.05, math.pi - 0.05, size=4)
            q1, q2 = calibrate_frame_phases(self.channel_with(*betas))
            assert np.allclose((*q1, *q2), betas, atol=1e-3)

    def test_flat_signal_is_a_fit_error(self):
        # dumping every input into |00> leaves nothing for the phase
        # sweep to act on, so the readout does not oscillate
        ground = np.zeros(9, dtype=complex)
        ground[0] = 1.0
        with pytest.raises(CalibrationFitError):
            calibrate_frame_phases(lambda psi: ground)


class TestPulseEnvelope:
    def test_plateau_value(self):
        assert pulse_envelope(50.0, 0.0, 100.0, 2.5, 0.7) == pytest.approx(0.7)

    def test_outside_window_zero(self):
        assert pulse_envelope(-1.0, 0.0, 100.0, 2.5, 0.7) == 0.0
        assert pulse_envelope(101.0, 0.0, 100.0, 2.5, 0.7) == 0.0

    def test_edge_value(self):
        assert pulse_envelope(0.0, 0.0, 100.0, 2.5, 1.0) == pytest.approx(math.exp(-2.0))

    def test_window_too_short_rejected(self):
        with pytest.raises(PulseShapeError):
            pulse_envelope(1.0, 0.0, 9.0, 2.5)

    def test_vectorized_with_bounded_edge_steps(self):
        t = np.linspace(-5.0, 105.0, 2000)
        env = pulse_envelope(t, 0.0, 100.0, 2.5, 1.0)
        assert env.shape == t.shape
        assert np.all(env >= 0.0) and np.all(env <= 1.0 + 1e-12)
        # the truncated edges step by e**-2 right at the window bounds;
        # everything between them moves smoothly
        inside = (t > 0.5) & (t < 99.5)
        assert np.max(np.abs(np.diff(env[inside]))) < 0.02
        assert np.max(np.abs(np.diff(env))) < math.exp(-2.0) + 0.01
