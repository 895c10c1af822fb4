"""Readout assignment model: forward confusion, linear inversion and the
constrained least-squares repair that returns physical counts."""

import math

import numpy as np
import pytest

from qutritlab.qutrit_core import BasisLabel, ProbDist
from qutritlab.noise_sim import measure_probs, sample_counts, simulate_pure
from qutritlab.algorithms import GroverSpec, grover_circuit
from qutritlab.readout_mitigation import (
    ConfusionMatrix,
    IllConditionedError,
    InfeasibleError,
    MitigationError,
    SignedCounts,
    _check_signed_rows,
    apply_confusion,
    confuse_rows,
    invert_confusion,
    load_confusion,
    mitigate_counts,
    mitigate_rows,
    mle_correct,
    save_confusion,
    synthetic_confusion,
)
from reference_model import confusion, reference_repair


class TestConfusionMatrix:
    def test_synthetic_entries(self):
        m = synthetic_confusion().m
        assert np.array_equal(m, confusion(0.85))
        assert np.allclose(m.sum(axis=0), 1.0)

    def test_synthetic_diagonal_range(self):
        with pytest.raises(MitigationError):
            synthetic_confusion(diagonal=0.0)
        with pytest.raises(MitigationError):
            synthetic_confusion(diagonal=1.2)
        perfect = synthetic_confusion(diagonal=1.0)
        assert np.allclose(perfect.m, np.eye(9))

    def test_rejects_nonsquare(self):
        with pytest.raises(MitigationError):
            ConfusionMatrix(np.ones((2, 3)) / 2.0)

    def test_rejects_bad_columns(self):
        m = np.eye(3)
        m[0, 0] = 0.9
        with pytest.raises(MitigationError):
            ConfusionMatrix(m)

    def test_rejects_out_of_range_entries(self):
        m = np.eye(3)
        m[0, 0] = 1.5
        m[1, 0] = -0.5
        with pytest.raises(MitigationError):
            ConfusionMatrix(m)

    def test_holds_a_read_only_copy_of_its_input(self):
        source = np.full((9, 9), 0.15 / 8.0)
        np.fill_diagonal(source, 0.85)
        before = source.copy()
        matrix = ConfusionMatrix(source)
        cond = matrix.condition_number()
        source[:] = np.eye(9)  # the caller's array, changed after the checks
        assert np.array_equal(matrix.m, before)
        assert matrix.condition_number() == cond == float(np.linalg.cond(matrix.m))
        assert not matrix.m.flags.writeable
        with pytest.raises(ValueError):
            matrix.m[0, 0] = 1.0

    def test_synthetic_matrix_built_once_per_diagonal(self):
        assert synthetic_confusion(0.9) is synthetic_confusion(0.9) is not synthetic_confusion(0.8)
        assert not synthetic_confusion(0.9).m.flags.writeable

    def test_condition_number_of_uniform_leak(self):
        # eigenvalues of dI + off(J - I): 1 once, (d - off*dim) elsewhere
        m = confusion(0.85)
        expected = 1.0 / (m[0, 0] - m[0, 1])
        assert synthetic_confusion().condition_number() == pytest.approx(expected, rel=1e-9)


class TestForwardModel:
    def test_identity_matrix_is_transparent(self):
        p = ProbDist(np.full(9, 1.0 / 9.0))
        out = apply_confusion(p, synthetic_confusion(diagonal=1.0))
        assert np.allclose(out.probs, p.probs)

    def test_delta_input_reads_matrix_column(self):
        matrix = synthetic_confusion()
        p = ProbDist(np.eye(9)[4])
        out = apply_confusion(p, matrix)
        assert np.allclose(out.probs, matrix.m[:, 4])

    def test_uniform_input_is_fixed_point(self):
        # column-stochastic uniform leakage keeps the flat distribution flat
        p = ProbDist(np.full(9, 1.0 / 9.0))
        out = apply_confusion(p, synthetic_confusion())
        assert np.allclose(out.probs, p.probs)

    def test_size_mismatch(self):
        with pytest.raises(MitigationError):
            apply_confusion(ProbDist(np.array([0.5, 0.3, 0.2])), synthetic_confusion())


class TestInversion:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_counts_rejected(self, bad):
        counts = np.array([bad] + [1000.0] * 8)
        for call in (invert_confusion, mitigate_counts):
            with pytest.raises(MitigationError, match="counts must be finite"):
                call(counts, synthetic_confusion())

    def test_negative_counts_rejected(self):
        # inverted and repaired, these came back as [100.0, 2966.6, 2007.3, ...]
        counts = np.array([-500.0, 3000, 2000, 1000, 500, 500, 500, 500, 2500])
        for call in (invert_confusion, mitigate_counts):
            with pytest.raises(MitigationError, match="counts must be non-negative"):
                call(counts, synthetic_confusion())
        # fractional counts, which the counts-file loader accepts too, stay valid
        assert mitigate_counts(counts + 500.5, synthetic_confusion()).sum() == pytest.approx(counts.sum() + 9 * 500.5)

    def test_singular_matrix_rejected(self):
        # all columns identical: nothing to invert
        flat = ConfusionMatrix(np.full((9, 9), 1.0 / 9.0))
        with pytest.raises(IllConditionedError):
            invert_confusion(np.full(9, 100.0), flat)

    def test_condition_number_computed_once_per_matrix(self, monkeypatch):
        synthetic_confusion.cache_clear()  # matrices built by earlier tests would count no SVD here
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m, *a: calls.append(1) or cond(m, *a))
        matrix = synthetic_confusion()
        for _ in range(5):
            invert_confusion(np.full(9, 100.0), matrix)
        assert len(calls) == 1
        flat = synthetic_confusion(diagonal=1.0 / 9.0)
        for _ in range(2):
            with pytest.raises(IllConditionedError):
                invert_confusion(np.full(9, 100.0), flat)
        assert len(calls) == 2

    def test_barely_distinguishable_columns_rejected(self):
        eps = 1e-9
        diag = 1.0 / 9.0 + eps
        off = (1.0 - diag) / 8.0
        m = np.full((9, 9), off)
        np.fill_diagonal(m, diag)
        with pytest.raises(IllConditionedError):
            invert_confusion(np.full(9, 100.0), ConfusionMatrix(m))

    def test_inverted_counts_can_go_negative(self):
        matrix = synthetic_confusion()
        observed = np.zeros(9)
        observed[0] = 10000.0
        signed = invert_confusion(observed, matrix)
        assert signed.q[0] > 10000.0
        assert np.all(signed.q[1:] < 0.0)
        assert signed.q.sum() == pytest.approx(10000.0)

    def test_sampled_counts_recovered_within_noise(self):
        matrix = synthetic_confusion()
        shots = 20000
        true = measure_probs(simulate_pure(grover_circuit(GroverSpec(BasisLabel.parse("22"), 1))))
        observed = sample_counts(apply_confusion(true, matrix), shots, seed=23)
        corrected = mitigate_counts(observed, matrix)
        # multinomial per-bin scatter, inflated by the inverse matrix norm
        amplification = np.linalg.norm(np.linalg.inv(matrix.m), np.inf)
        sigma = math.sqrt(shots * (1.0 / 9.0) * (8.0 / 9.0)) * amplification
        assert np.all(np.abs(corrected - shots * true.probs) < 5.0 * sigma)


class TestSignedCounts:
    def test_sum_must_match_shots(self):
        with pytest.raises(MitigationError):
            SignedCounts(np.array([10.0, 20.0]), 50.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_counts_and_totals_rejected(self, bad):
        with pytest.raises(MitigationError, match="finite"):
            SignedCounts(np.full(9, bad), bad)
        with pytest.raises(MitigationError, match="counts must be finite"):
            SignedCounts(np.array([bad, 100.0]), 100.0)
        with pytest.raises(MitigationError, match="shots must be positive and finite"):
            SignedCounts(np.array([50.0, 50.0]), bad)

    def test_negative_entries_allowed(self):
        signed = SignedCounts(np.array([-5.0, 105.0]), 100.0)
        assert signed.q[0] == -5.0

    @pytest.mark.parametrize("q, shots", [
        ([math.nan, 100.0], 100.0), ([50.0, 50.0], math.inf), ([50.0, 50.0], 0.0), ([10.0, 20.0], 50.0),
    ], ids=["nonfinite", "infinite_total", "zero_total", "sum"])
    def test_row_check_matches_the_constructor(self, q, shots):
        with pytest.raises(MitigationError) as single:
            SignedCounts(np.array(q), shots)
        good = [60.0, 40.0]
        for row in (0, 2):
            stack = np.array([good] * 4)
            stack[row] = q
            totals = [100.0] * 4
            totals[row] = shots
            with pytest.raises(MitigationError) as rows:
                _check_signed_rows(stack, totals)
            assert type(rows.value) is type(single.value)
            assert str(rows.value) == str(single.value)
            assert rows.value.row == row
        _check_signed_rows(np.array([good] * 4), [100.0] * 4)


class TestRepair:
    def test_interior_vector_untouched(self):
        q = np.array([3000.0, 2000.0, 2500.0, 1500.0, 2200.0, 1800.0, 2600.0, 2400.0, 2000.0])
        out = mle_correct(SignedCounts(q, q.sum()))
        assert np.allclose(out, q, atol=1e-9)

    def test_two_entry_floor_pinning(self):
        n = 20000.0
        q = np.zeros(9)
        q[0] = -50.0
        q[1] = 20050.0
        out = mle_correct(SignedCounts(q, n))
        floor = math.sqrt(n)
        assert out[0] == pytest.approx(floor, abs=1e-9)
        assert np.allclose(out[2:], floor, atol=1e-9)
        assert out[1] == pytest.approx(n - 8.0 * floor, abs=1e-6)
        assert out.sum() == pytest.approx(n, abs=1e-6)

    def test_three_entry_frozen_solution(self):
        out = mle_correct(SignedCounts(np.array([-10.0, 60.0, 50.0]), 100.0))
        assert out == pytest.approx([10.0, 48.197, 41.803], abs=0.01)

    def test_custom_floor(self):
        out = mle_correct(SignedCounts(np.array([-10.0, 60.0, 50.0]), 100.0), floor=0.0)
        assert out[0] == pytest.approx(0.0, abs=1e-9)
        assert out.sum() == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("floor", [-50.0, -1e-300, math.nan, -math.inf, math.inf])
    def test_floor_must_be_finite_and_non_negative(self, floor):
        # a negative floor used to come back as a count, and a nan or -inf one as nine nan counts
        with pytest.raises(MitigationError, match="floor must be finite and non-negative"):
            mle_correct(SignedCounts(np.array([-10.0, 60.0, 50.0]), 100.0), floor=floor)

    def test_infeasible_totals(self):
        q = np.full(9, 80.0 / 9.0)
        with pytest.raises(InfeasibleError):
            mle_correct(SignedCounts(q, 80.0))
        out = mle_correct(SignedCounts(np.full(9, 9.0), 81.0))
        assert np.allclose(out, 9.0)

    def test_random_vectors_keep_constraints(self):
        rng = np.random.default_rng(41)
        n = 10000.0
        floor = math.sqrt(n)
        for _ in range(300):
            raw = rng.normal(loc=n / 9.0, scale=n / 6.0, size=9)
            q = raw + (n - raw.sum()) / 9.0
            out = mle_correct(SignedCounts(q, n))
            assert out.sum() == pytest.approx(n, abs=1e-6)
            assert np.min(out) >= floor - 1e-9

    def test_random_vectors_locally_optimal(self):
        # moving mass between two interior coordinates must not lower the cost
        rng = np.random.default_rng(43)
        n = 10000.0
        floor = math.sqrt(n)
        checked = 0
        for _ in range(200):
            raw = rng.normal(loc=n / 9.0, scale=n / 5.0, size=9)
            q = raw + (n - raw.sum()) / 9.0
            out = mle_correct(SignedCounts(q, n))
            weights = np.where(np.abs(q) < floor, floor, np.abs(q))

            def cost(p):
                return float(np.sum(((p - q) / weights) ** 2))

            base = cost(out)
            interior = np.where(out > floor + 1e-6)[0]
            if len(interior) < 2:
                continue
            checked += 1
            for delta in (0.01, -0.01):
                trial = out.copy()
                trial[interior[0]] += delta
                trial[interior[1]] -= delta
                assert cost(trial) >= base - 1e-9
        assert checked > 100

    def test_idempotent_on_feasible_vectors(self):
        rng = np.random.default_rng(47)
        n = 10000.0
        for _ in range(50):
            q = rng.normal(loc=n / 9.0, scale=n / 6.0, size=9)
            q += (n - q.sum()) / 9.0
            out = mle_correct(SignedCounts(q, n))
            again = mle_correct(SignedCounts(out, n))
            assert np.allclose(again, out, atol=1e-6)


def repair_cases():
    """(q, n, floor): every branch of the repair, on 3 and 9 entries."""
    interior = np.array([3000.0, 2000.0, 2500.0, 1500.0, 2200.0, 1800.0, 2600.0, 2400.0, 2000.0])
    three = np.array([-10.0, 60.0, 50.0])
    cases = [(interior, interior.sum(), None), (three, 100.0, None), (three, 100.0, 0.0), (three, 100.0, 5.0),
             (three, 100.0, 100.0 / 3.0 + 1e-10), (np.full(9, 9.0), 81.0, None)]
    rng = np.random.default_rng(53)
    for d in (3, 9):
        for n in (1e4, 2e4, 1e9):
            for _ in range(100):
                raw = rng.normal(loc=n / d, scale=n / 5.0, size=d)
                q = raw + (n - raw.sum()) / d
                cases.append((q, float(q.sum()), None))
    return cases


class TestLeanRepair:
    def test_bytes_of_the_reference_loop(self):
        taken = set()
        for q, n, floor in repair_cases():
            want = reference_repair(q, n, floor, taken)
            assert mle_correct(SignedCounts(q, n), floor=floor).tobytes() == want.tobytes(), (q, n, floor)
        assert taken == {"floored", "all floored", "slack"}


class TestPipeline:
    def test_search_peak_survives_readout(self):
        matrix = synthetic_confusion()
        shots = 20000
        true = measure_probs(simulate_pure(grover_circuit(GroverSpec(BasisLabel.parse("22"), 1))))
        observed = sample_counts(apply_confusion(true, matrix), shots, seed=29)
        corrected = mitigate_counts(observed, matrix)
        assert int(np.argmax(corrected)) == 8
        raw_err = np.abs(observed / shots - true.probs).sum()
        fixed_err = np.abs(corrected / shots - true.probs).sum()
        assert fixed_err < raw_err


class TestStackedMitigation:
    def test_rows_give_the_per_vector_bytes(self):
        # one stack through every branch: counts in 9 - j of the bins, so that j entries end floored
        # for j = 0 ... 8, at 2e4 and 1e9 shots (the large totals leave a slack to spread), the single
        # feasible point np.full(9, 9.0) at n = 81, and a total just below 81 that floors every entry;
        # in shuffled order, so rows with different numbers of free entries step together
        matrix = synthetic_confusion(0.6)
        rng = np.random.default_rng(3)
        rows = list(rng.multinomial(20000, rng.dirichlet(np.full(9, 0.3), size=40)[0], size=40))
        rows.append(rng.multinomial(20000, np.full(9, 1.0 / 9.0)))
        for kept in range(1, 10):
            for n in (20000, 10**9):
                for _ in range(3):
                    row = np.zeros(9)
                    row[rng.choice(9, kept, replace=False)] = rng.multinomial(n, np.full(kept, 1.0 / kept))
                    rows.append(row)
        rows += [np.full(9, 9.0), np.full(9, (81.0 - 1e-9) / 9.0)]
        counts = np.array(rows, dtype=float)
        rng.shuffle(counts)
        out = mitigate_rows(counts, matrix)
        taken = set()
        floored = set()
        for c, got in zip(counts, out):
            want = reference_repair(invert_confusion(c, matrix).q, float(c.sum()), None, taken)
            assert got.tobytes() == want.tobytes(), c
            floored.add(int(np.count_nonzero(got == math.sqrt(c.sum()))))
        assert taken == {"floored", "all floored", "slack"}
        assert floored == set(range(10))
        assert out.tobytes() == np.array([mitigate_counts(c, matrix) for c in counts]).tobytes()
        # a total below 81 cannot hold nine entries at the sqrt(N) floor
        counts[17] = np.full(9, 8.0)
        with pytest.raises(InfeasibleError) as infeasible:
            mitigate_rows(counts, matrix)
        assert infeasible.value.row == 17

    def test_first_failing_row_raises(self):
        counts = np.full((4, 9), 100.0)
        counts[2, 3] = counts[3, 0] = math.nan
        with pytest.raises(MitigationError, match="counts must be finite") as rows:
            mitigate_rows(counts, synthetic_confusion())
        assert rows.value.row == 2
        counts[2, 3] = 100.0
        counts[1, 4] = -1.0
        with pytest.raises(MitigationError, match="counts must be finite") as rows:
            mitigate_rows(counts, synthetic_confusion())
        assert rows.value.row == 3
        counts[3, 0] = 100.0
        with pytest.raises(MitigationError, match="counts must be non-negative") as rows:
            mitigate_rows(counts, synthetic_confusion())
        assert rows.value.row == 1

    @pytest.mark.parametrize("shape", [(9,), (1, 1, 9), ()])
    def test_a_stack_is_rows_by_labels(self, shape):
        # a single vector too is refused: the stacked routes index its second axis
        with pytest.raises(MitigationError, match="stack"):
            mitigate_rows(np.full(shape, 100.0), synthetic_confusion())
        with pytest.raises(MitigationError, match="stack"):
            confuse_rows(np.full(shape, 1 / 9), synthetic_confusion())


class TestPersistence:
    def test_round_trip(self, tmp_path):
        matrix = synthetic_confusion(diagonal=0.9)
        path = tmp_path / "confusion.txt"
        save_confusion(matrix, path)
        loaded = load_confusion(path)
        assert np.array_equal(loaded.m, matrix.m)

    def test_hand_written_file_with_comments(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# tiny model\n0.9 0.2\n0.1 0.8\n\n")
        loaded = load_confusion(path)
        assert loaded.m[0, 1] == 0.2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(MitigationError):
            load_confusion(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0.9 0.2\n0.1\n")
        with pytest.raises(MitigationError):
            load_confusion(path)
