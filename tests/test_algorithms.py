"""Ternary algorithm library: oracle classification, single-query
constant-vs-balanced runs, hidden-string recovery and amplitude
amplification on the compiled gate set."""

import math

import numpy as np
import pytest

from qutritlab.qutrit_core import BasisLabel
from qutritlab.cli_harness import ExperimentConfig, run_dj, run_grover
from qutritlab.gates_compiler import circuit_unitary, logical_gate
from qutritlab.noise_sim import measure_probs, simulate_pure
from qutritlab.algorithms import (
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
    dj_classical_query_count,
    dj_classify,
    grover_circuit,
    grover_ideal_success,
    oracle_annotation,
    oracle_classical_function,
)
from reference_model import reference_algorithm

ALL_LABELS = [str(BasisLabel.from_index(i, 2)) for i in range(9)]


def all_oracles():
    names = ("I", "X", "Xsq", "Z", "Zsq")
    return [DJOracle(a, b) for a in names for b in names]


class TestOracleClassification:
    def test_shift_products_are_constant(self):
        for oracle in constant_oracles():
            assert oracle.kind == "constant"

    def test_any_phase_factor_makes_it_balanced(self):
        for oracle in all_oracles():
            expected = "constant" if {oracle.w1, oracle.w2} <= {"I", "X", "Xsq"} else "balanced"
            assert oracle.kind == expected

    def test_constant_values_add_shift_powers_mod_three(self):
        powers = {"I": 0, "X": 1, "Xsq": 2}
        for oracle in constant_oracles():
            assert oracle.constant_value == (powers[oracle.w1] + powers[oracle.w2]) % 3

    def test_balanced_oracles_have_no_constant_value(self):
        assert DJOracle("Z", "X").constant_value is None
        assert DJOracle("Zsq", "Zsq").constant_value is None

    def test_unknown_gate_rejected(self):
        with pytest.raises(AlgorithmError):
            DJOracle("H", "I")
        with pytest.raises(AlgorithmError):
            DJOracle("I", "Y")

    def test_constant_oracle_listing_row_major(self):
        labels = [o.label() for o in constant_oracles()]
        assert labels == [
            "IxI", "IxX", "IxXsq",
            "XxI", "XxX", "XxXsq",
            "XsqxI", "XsqxX", "XsqxXsq",
        ]


class TestAnnotations:
    def test_phase_times_identity(self):
        assert oracle_annotation(DJOracle("Z", "I")) == "A ⊕ 0"

    def test_phase_times_shift(self):
        assert oracle_annotation(DJOracle("Z", "X")) == "A ⊕ 1"

    def test_double_phase_both_sides(self):
        assert oracle_annotation(DJOracle("Zsq", "Zsq")) == "(2 ⊙ A) ⊕ (2 ⊙ B)"

    def test_table_order_and_size(self):
        table = balanced_oracle_table()
        assert len(table) == 16
        pairs = [(o.w1, o.w2) for o, _ in table]
        assert pairs[:2] == [("Z", "I"), ("I", "Z")]
        assert pairs[12:] == [("Z", "Z"), ("Z", "Zsq"), ("Zsq", "Z"), ("Zsq", "Zsq")]
        # mirrored pairs sit next to each other in the first twelve rows
        for k in range(0, 12, 2):
            assert pairs[k] == pairs[k + 1][::-1]

    def test_annotations_match_classical_function(self):
        for oracle, note in balanced_oracle_table():
            assert note == oracle_annotation(oracle)

    def test_balanced_truth_tables_hit_every_value_three_times(self):
        for oracle, _ in balanced_oracle_table():
            values = [oracle_classical_function(oracle, a, b) for a in range(3) for b in range(3)]
            assert sorted(values).count(0) == 3
            assert sorted(values).count(1) == 3
            assert sorted(values).count(2) == 3

    def test_constant_truth_tables_are_flat(self):
        for oracle in constant_oracles():
            values = {oracle_classical_function(oracle, a, b) for a in range(3) for b in range(3)}
            assert values == {oracle.constant_value}

    def test_phase_only_oracles_imprint_function_as_phase(self):
        omega = np.exp(2j * np.pi / 3.0)
        for w1 in ("Z", "Zsq"):
            for w2 in ("Z", "Zsq"):
                oracle = DJOracle(w1, w2)
                u = np.kron(logical_gate(w1), logical_gate(w2))
                for a in range(3):
                    for b in range(3):
                        idx = 3 * a + b
                        f = oracle_classical_function(oracle, a, b)
                        assert u[idx, idx] == pytest.approx(omega**f, abs=1e-12)


class TestDeutschJozsa:
    def test_constant_oracles_return_to_ground(self):
        for oracle in constant_oracles():
            dist = measure_probs(simulate_pure(dj_circuit(oracle)))
            assert dist.prob_of("00") == pytest.approx(1.0, abs=1e-12)
            assert dj_classify(dist) == "constant"

    def test_balanced_oracles_never_hit_ground(self):
        for oracle, _ in balanced_oracle_table():
            dist = measure_probs(simulate_pure(dj_circuit(oracle)))
            assert dist.prob_of("00") < 1e-12
            assert dj_classify(dist) == "balanced"

    def test_single_query_structure(self):
        # fan-out, one oracle moment per qutrit, fan-in: no second query
        circ = dj_circuit(DJOracle("Z", "X"))
        assert circ.n_qutrits == 2
        assert circ.native_two_qutrit_count() == 0

    def test_classical_query_counts(self):
        assert dj_classical_query_count(1) == 2
        assert dj_classical_query_count(2) == 4
        assert dj_classical_query_count(3) == 10
        with pytest.raises(AlgorithmError):
            dj_classical_query_count(0)


class TestBernsteinVazirani:
    def test_string_validation(self):
        with pytest.raises(AlgorithmError):
            BVString((3, 0))
        with pytest.raises(AlgorithmError):
            BVString((0, 1, 2))

    def test_every_string_recovered_exactly(self):
        for s1 in range(3):
            for s2 in range(3):
                dist = measure_probs(simulate_pure(bv_circuit((s1, s2))))
                assert dist.prob_of(f"{s1}{s2}") == pytest.approx(1.0, abs=1e-12)
                assert bv_decode(dist) == (s1, s2)


class TestGrover:
    def test_spec_validation(self):
        with pytest.raises(AlgorithmError):
            GroverSpec(BasisLabel.parse("22"), 3)
        with pytest.raises(AlgorithmError):
            GroverSpec(BasisLabel.parse("22"), 0)
        with pytest.raises(AlgorithmError):
            GroverSpec(BasisLabel.parse("2"), 1)

    def test_closed_form_success_rates(self):
        assert grover_ideal_success(1) == pytest.approx(529.0 / 729.0, abs=1e-12)
        assert grover_ideal_success(2) == pytest.approx(58081.0 / 59049.0, abs=1e-12)

    @pytest.mark.parametrize("target", ALL_LABELS)
    def test_single_round_on_every_target(self, target):
        dist = measure_probs(simulate_pure(grover_circuit(GroverSpec(BasisLabel.parse(target), 1))))
        assert dist.prob_of(target) == pytest.approx(529.0 / 729.0, abs=1e-10)
        others = [dist.prob_of(lbl) for lbl in ALL_LABELS if lbl != target]
        assert others == pytest.approx([25.0 / 729.0] * 8, abs=1e-10)

    @pytest.mark.parametrize("target", ["00", "12", "22"])
    def test_two_rounds(self, target):
        dist = measure_probs(simulate_pure(grover_circuit(GroverSpec(BasisLabel.parse(target), 2))))
        assert dist.prob_of(target) == pytest.approx(58081.0 / 59049.0, abs=1e-10)

    def test_native_gate_budget(self):
        assert grover_circuit(GroverSpec(BasisLabel.parse("21"), 1)).native_two_qutrit_count() == 2
        assert grover_circuit(GroverSpec(BasisLabel.parse("21"), 2)).native_two_qutrit_count() == 4

    def test_round_operator_matches_textbook_reflections(self):
        # oracle reflection about the target, then reflection about the mean
        target = 5
        u = circuit_unitary(grover_circuit(GroverSpec(BasisLabel.parse("12"), 1)))
        uniform = np.full(9, 1.0 / 3.0, dtype=complex)
        oracle = np.eye(9, dtype=complex)
        oracle[target, target] = -1.0
        diffusion = 2.0 * np.outer(uniform, uniform.conj()) - np.eye(9)
        expected = diffusion @ oracle @ uniform
        got = u @ np.eye(9, dtype=complex)[:, 0]
        overlap = abs(np.vdot(expected, got))
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestTwoStageMargin:
    """The paper's two-stage claim, round2_avg > round1_avg on exact noisy
    distributions, rests on a margin of 0.003 under the default coherence
    times; every time scaled by 0.9 reverses the order (README, "Two Grover
    rounds against one")."""

    @pytest.mark.filterwarnings("ignore::UserWarning")  # q2 takes the correlated-dephasing branch, which warns
    @pytest.mark.parametrize("scale, round1, round2", [
        (1.0, 0.4666656, 0.4696827), (0.9, 0.4463739, 0.4377912), (1.1, 0.4842886, 0.4984006),
    ])
    def test_round_averages_under_scaled_coherence_times(self, scale, round1, round2):
        coherence = ExperimentConfig.default().to_mapping()["coherence"]
        scaled = {q: {name: t * scale for name, t in times.items()} for q, times in coherence.items()}
        config = ExperimentConfig.from_mapping({"noisy": True, "shots": None, "coherence": scaled})
        summary = run_grover(config).summary
        assert summary["round1_avg"] == pytest.approx(round1, abs=1e-6)
        assert summary["round2_avg"] == pytest.approx(round2, abs=1e-6)
        assert summary["round2_exceeds_round1"] is (scale != 0.9)

    @pytest.mark.parametrize("root, round1, round2", [("-", 0.4880111, 0.5025255), ("+", 0.3137301, 0.2662192)])
    def test_round_averages_under_one_correlated_operator_per_qutrit(self, root, round1, round2):
        # the reference pipeline with both qutrits dephased by one correlated operator of either root:
        # the inputs fix the 01 and 12 rates, the root the 02 rate (README, "Two Grover rounds against one")
        config = ExperimentConfig.from_mapping({"noisy": True, "shots": None})
        summary = reference_algorithm("grover", config, walk="textbook", root=root)[0]["summary"]
        assert summary["round1_avg"] == pytest.approx(round1, abs=1e-6)
        assert summary["round2_avg"] == pytest.approx(round2, abs=1e-6)
        assert summary["round2_exceeds_round1"] is (root != "+")


class TestCalibrationModels:
    """Which gate windows are calibrated against the always-on coupling moves the Grover averages by 0.23
    (README, "Two Grover rounds against one"); the package calibrates every timed window."""

    @pytest.mark.filterwarnings("ignore::UserWarning")  # q2 takes the correlated-dephasing branch, which warns
    @pytest.mark.parametrize("calibration, round1, round2, balanced, constant", [
        ("every", 0.4666656, 0.4696827, 0.9818051, 0.8923278),
        ("native", 0.2605806, 0.2473094, 0.9689210, 0.8206947),
        ("none", 0.2356877, 0.2206182, 0.9689210, 0.8206947),
    ])
    def test_averages_under_each_calibration_model(self, calibration, round1, round2, balanced, constant):
        # the reference pipeline's textbook walk, with the coupling phase undone in every timed window, only in
        # those that hold a native conditional phase, or in none
        config = ExperimentConfig.from_mapping({"noisy": True, "shots": None})
        grover = reference_algorithm("grover", config, walk="textbook", calibration=calibration)[0]["summary"]
        dj = reference_algorithm("dj", config, walk="textbook", calibration=calibration)[0]["summary"]
        got = (grover["round1_avg"], grover["round2_avg"], dj["balanced_avg"], dj["constant_avg"])
        assert got == pytest.approx((round1, round2, balanced, constant), abs=1e-6)
        if calibration == "every":
            grover, dj = run_grover(config).summary, run_dj(config).summary
            package = (grover["round1_avg"], grover["round2_avg"], dj["balanced_avg"], dj["constant_avg"])
            assert package == pytest.approx(got, abs=1e-6)


class TestBaselines:
    def test_single_shot_reference_rates(self):
        base = classical_baselines()
        assert base["dj"] == pytest.approx(0.5)
        assert base["bv"] == pytest.approx(1.0 / 3.0)
        assert base["grover1"] == pytest.approx(1.0 / 9.0)
        assert base["grover2"] == pytest.approx(2.0 / 9.0)
