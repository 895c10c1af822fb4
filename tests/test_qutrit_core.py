"""Core types: labels, states, tensor products, distribution metrics."""

import numpy as np
import pytest

from qutritlab import (
    DIM,
    BasisLabel,
    DensityMatrix,
    DimensionMismatchError,
    ProbDist,
    PureState,
    StateValidationError,
    fidelity,
    partial_trace,
    sso,
    tensor,
)
from qutritlab.gates_compiler import logical_gate
from qutritlab.qutrit_core import check_density_rows, check_prob_rows, check_pure_rows, traces
from reference_model import checked_amplitudes


def basis_state(label: str) -> PureState:
    lbl = BasisLabel.parse(label)
    amps = np.zeros(DIM**lbl.n_qutrits, dtype=complex)
    amps[lbl.index] = 1.0
    return PureState(amps)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasisLabel:
    def test_first_qutrit_most_significant(self):
        assert BasisLabel((2, 1)).index == 7

    def test_index_formula_all_two_qutrit_labels(self):
        for a in range(3):
            for b in range(3):
                assert BasisLabel((a, b)).index == 3 * a + b

    def test_round_trip(self):
        for n in (1, 2, 3):
            for idx in range(DIM**n):
                lbl = BasisLabel.from_index(idx, n)
                assert lbl.index == idx
                assert BasisLabel(lbl.digits).digits == lbl.digits

    def test_parse_and_str(self):
        assert str(BasisLabel.parse("21")) == "21"
        with pytest.raises(StateValidationError):
            BasisLabel.parse("13")
        with pytest.raises(StateValidationError):
            BasisLabel(())


class TestStateValidation:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(StateValidationError):
            PureState(np.array([1.0, 1.0, 0.0]))

    def test_density_matrix_trace_enforced(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(2.0 * np.eye(3) / 3.0)

    def test_density_matrix_hermiticity_enforced(self):
        m = np.eye(3, dtype=complex) / 3.0
        m[0, 1] = 0.5
        with pytest.raises(StateValidationError):
            DensityMatrix(m)

    def test_prob_dist_rejects_negative_mass(self):
        with pytest.raises(StateValidationError):
            ProbDist(np.array([1.2, -0.2, 0.0] + [0.0] * 6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prob_dist_rejects_nonfinite_entries(self, bad):
        for p in (np.full(9, bad), np.array([bad, 1.0] + [0.0] * 7)):
            with pytest.raises(StateValidationError):
                ProbDist(p)

    def test_prob_dist_requires_power_of_three_length(self):
        with pytest.raises(DimensionMismatchError):
            ProbDist(np.array([0.5, 0.5]))

    def test_prob_of_reads_every_label(self):
        probs = np.arange(1.0, 10.0) / 45.0
        dist = ProbDist(probs)
        for idx in range(9):
            label = BasisLabel.from_index(idx, 2)
            assert dist.prob_of(label) == dist.prob_of(str(label)) == probs[idx]
        assert ProbDist(np.array([0.2, 0.3, 0.5])).prob_of("2") == 0.5

    @pytest.mark.parametrize("n_qutrits, label", [
        (2, "2"), (2, BasisLabel((1,))), (2, "222"), (2, BasisLabel((0, 1, 2))), (1, "00"), (1, BasisLabel((2, 2))),
    ], ids=["2q_short_text", "2q_short_label", "2q_long_text", "2q_long_label", "1q_long_text", "1q_long_label"])
    def test_prob_of_rejects_a_label_of_another_register(self, n_qutrits, label):
        # "2" used to read P(|02>) and "222" to raise a bare numpy IndexError
        dist = ProbDist(np.full(DIM**n_qutrits, 1.0 / DIM**n_qutrits))
        with pytest.raises(DimensionMismatchError, match=f"label {label} names {len(str(label))} qutrits"):
            dist.prob_of(label)

    def test_prob_of_rejects_a_malformed_text(self):
        with pytest.raises(StateValidationError, match="cannot parse basis label"):
            ProbDist(np.full(9, 1.0 / 9.0)).prob_of("13")


def _bad_density(kind: str) -> np.ndarray:
    rho = np.diag([0.5, 0.5] + [0.0] * 7).astype(complex)
    if kind == "non_finite":
        rho[3, 3] = np.nan
    elif kind == "non_hermitian":
        rho[0, 1] = 0.1
    elif kind == "off_trace":
        rho[0, 0] = 0.6
    else:
        rho[:3, :3] = np.diag([0.5, 0.501, -1e-3])
    return rho


class TestRowChecks:
    """The stacked checks are the constructors' checks: a stack raises what the
    constructor raises for its first failing row, and names that row."""

    @pytest.mark.parametrize("kind", ["non_finite", "non_hermitian", "off_trace", "negative_eigenvalue"])
    def test_density_rows_match_the_constructor(self, kind):
        bad = _bad_density(kind)
        with pytest.raises(StateValidationError) as single:
            DensityMatrix(bad)
        good = np.diag([0.25, 0.75] + [0.0] * 7).astype(complex)
        later = {"non_finite": "non_hermitian", "non_hermitian": "off_trace", "off_trace": "negative_eigenvalue"}
        for row in (0, 3):
            stack = np.array([good] * 5)
            stack[row] = bad
            if kind in later:  # a later check failing on a later row does not mask it
                stack[4] = _bad_density(later[kind])
            with pytest.raises(StateValidationError) as rows:
                check_density_rows(stack)
            assert str(rows.value) == str(single.value)
            assert rows.value.row == row
        check_density_rows(np.array([good] * 5))

    def test_each_check_runs_on_every_row_before_the_next(self):
        stack = np.array([_bad_density("negative_eigenvalue"), _bad_density("non_finite")])
        with pytest.raises(StateValidationError, match="non-finite") as rows:
            check_density_rows(stack)
        assert rows.value.row == 1

    @pytest.mark.parametrize("bad", [
        [1.2, -0.2] + [0.0] * 7, [np.nan, 1.0] + [0.0] * 7, [np.inf] + [0.0] * 8, [0.5] + [0.0] * 8,
    ], ids=["negative", "nan", "inf", "sum"])
    def test_prob_rows_match_the_constructor(self, bad):
        with pytest.raises(StateValidationError) as single:
            ProbDist(np.array(bad))
        good = np.full(9, 1.0 / 9.0)
        for row in (0, 2):
            stack = np.array([good] * 4)
            stack[row] = bad
            with pytest.raises(StateValidationError) as rows:
                check_prob_rows(stack)
            assert str(rows.value) == str(single.value)
            assert rows.value.row == row

    def test_prob_rows_hold_the_constructors_values(self):
        stack = np.array([[0.5, 0.5] + [0.0] * 7, [1.0 + 1e-7, -1e-10] + [0.0] * 7])
        for probs, row in zip(check_prob_rows(stack), stack):
            assert probs.tobytes() == ProbDist(row).probs.tobytes()

    @pytest.mark.parametrize("bad", [
        [np.nan] + [0.0] * 8, [1.0, np.inf] + [0.0] * 7, [1.001] + [0.0] * 8, [0.6, 0.8j + 1e-3] + [0.0] * 7,
    ], ids=["nan", "inf", "norm", "complex_norm"])
    def test_pure_rows_match_the_constructor(self, bad):
        with pytest.raises(StateValidationError) as single:
            PureState(np.array(bad, dtype=complex))
        good = np.full(9, 1.0 / 3.0, dtype=complex)
        for row in (0, 3):
            stack = np.array([good] * 5)
            stack[row] = bad
            with pytest.raises(StateValidationError) as rows:
                check_pure_rows(stack)
            assert str(rows.value) == str(single.value)
            assert rows.value.row == row
        check_pure_rows(np.array([good] * 5))

    def test_pure_checks_run_on_every_row_before_the_next(self):
        stack = np.array([[1.5] + [0.0] * 8, [np.nan] + [0.0] * 8], dtype=complex)
        with pytest.raises(StateValidationError, match="non-finite") as rows:
            check_pure_rows(stack)
        assert rows.value.row == 1

    @pytest.mark.parametrize("amps", [
        [np.nan] + [0.0] * 8, [[1.0, 0.0, 0.0]] * 3, 1.0, [1.0, 0.0, 0.0, 0.0], [], [1.0 + 2e-9] + [0.0] * 8,
        [1.0 + 5e-10] + [0.0] * 8, [0.6, 0.8j] + [0.0] * 7, [1.0, 0.0, 0.0],
    ], ids=["nan", "matrix", "scalar", "dim4", "empty", "norm", "norm_within", "complex", "one_qutrit"])
    def test_pure_state_checks_as_before(self, amps):
        outcomes = []
        for check in (checked_amplitudes, lambda a: PureState(a).amplitudes):
            try:
                outcomes.append(check(amps).tobytes())
            except (StateValidationError, DimensionMismatchError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_traces_sum_as_np_trace(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(50, 9, 9)) + 1j * rng.normal(size=(50, 9, 9))
        assert traces(stack).tobytes() == np.array([np.trace(m) for m in stack]).tobytes()


class TestTensor:
    def test_identity_identity(self):
        assert np.array_equal(tensor(np.eye(3), np.eye(3)), np.eye(9))

    def test_shift_pair_on_22(self):
        x = logical_gate("X")
        out = tensor(x, x) @ basis_state("22").amplitudes
        assert np.allclose(out, basis_state("00").amplitudes)

    def test_phase_on_first_qutrit(self):
        z = logical_gate("Z")
        omega = np.exp(2j * np.pi / 3)
        out = tensor(z, np.eye(3)) @ basis_state("10").amplitudes
        assert np.allclose(out, omega * basis_state("10").amplitudes)

    def test_associative(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_action_matches_label_concatenation(self):
        for i in range(9):
            for j in range(9):
                la = BasisLabel.from_index(i, 2)
                lb = BasisLabel.from_index(j, 2)
                va = np.zeros(9)
                vb = np.zeros(9)
                va[i] = 1.0
                vb[j] = 1.0
                joint = tensor(va, vb)
                combined = BasisLabel(la.digits + lb.digits)
                assert joint[combined.index] == 1.0
                assert joint.sum() == 1.0


class TestFidelity:
    def test_identical_pure(self):
        assert fidelity(basis_state("00"), basis_state("00")) == pytest.approx(1.0)

    def test_orthogonal_pure(self):
        assert fidelity(basis_state("00"), basis_state("01")) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_vs_basis(self):
        uniform = PureState(np.full(9, 1.0 / 3.0, dtype=complex))
        assert fidelity(uniform, basis_state("22")) == pytest.approx(1.0 / 9.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(basis_state("0"), basis_state("00"))

    def test_pure_mixed_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = random_unitary(rng, 9)
            psi = PureState(u[:, 0])
            rho = DensityMatrix(np.outer(u[:, 0], u[:, 0].conj()))
            f_pp = fidelity(psi, psi)
            f_pm = fidelity(psi, rho)
            f_mm = fidelity(rho, rho)
            assert f_pp == pytest.approx(1.0, abs=1e-9)
            assert f_pm == pytest.approx(1.0, abs=1e-9)
            assert f_mm == pytest.approx(1.0, abs=1e-7)

    def test_symmetric_and_unitary_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = random_unitary(rng, 9)
            a = PureState(random_unitary(rng, 9)[:, 0])
            b = PureState(random_unitary(rng, 9)[:, 0])
            f_ab = fidelity(a, b)
            f_ba = fidelity(b, a)
            ua = PureState(u @ a.amplitudes)
            ub = PureState(u @ b.amplitudes)
            assert f_ab == pytest.approx(f_ba, abs=1e-12)
            assert fidelity(ua, ub) == pytest.approx(f_ab, abs=1e-10)

    def test_equals_one_iff_same_ray(self):
        rng = np.random.default_rng(23)
        psi = PureState(random_unitary(rng, 9)[:, 0])
        rephased = PureState(np.exp(0.71j) * psi.amplitudes)
        assert fidelity(psi, rephased) == pytest.approx(1.0, abs=1e-12)
        other = PureState(random_unitary(rng, 9)[:, 0])
        assert fidelity(psi, other) < 1.0 - 1e-6


class TestSso:
    def test_self_overlap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(9))
            assert sso(ProbDist(p), ProbDist(p)) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        d00 = np.zeros(9)
        d00[0] = 1.0
        d22 = np.zeros(9)
        d22[8] = 1.0
        assert sso(ProbDist(d00), ProbDist(d22)) == 0.0

    def test_uniform_vs_delta(self):
        uniform = ProbDist(np.full(9, 1.0 / 9.0))
        delta = np.zeros(9)
        delta[0] = 1.0
        assert sso(uniform, ProbDist(delta)) == pytest.approx(1.0 / 9.0)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = ProbDist(rng.dirichlet(np.ones(9)))
            q = ProbDist(rng.dirichlet(np.ones(9)))
            v = sso(p, q)
            assert v == pytest.approx(sso(q, p), abs=1e-12)
            assert v <= 1.0 + 1e-12
            assert v < 1.0 - 1e-9 or np.allclose(p.probs, q.probs)


class TestPartialTrace:
    def test_product_state_factors(self):
        rho = basis_state("21").density().matrix
        left = partial_trace(rho, keep=0, n_qutrits=2)
        right = partial_trace(rho, keep=1, n_qutrits=2)
        assert left[2, 2] == pytest.approx(1.0)
        assert right[1, 1] == pytest.approx(1.0)

    def test_trace_preserved(self):
        rng = np.random.default_rng(41)
        z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = z @ z.conj().T
        rho = rho / np.trace(rho)
        red = partial_trace(rho, keep=1, n_qutrits=2)
        assert np.trace(red) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(red, red.conj().T)
