"""Readout error mitigation: confusion-matrix forward model, linear
inversion, and a constrained least-squares repair of unphysical counts.

Inverting a measured confusion matrix on finite-shot data can return
negative counts. The repair picks the closest physical count vector in a
weighted least-squares sense, with every entry floored at the shot-noise
scale sqrt(N) and the total held at N.

The repair is one active-set pass over a whole (rows, d) stack of
inverted counts, a single vector being a one-row stack. At each step the
rows still moving are grouped by their number k of free entries, and each
group's free entries are summed as one (m, k) block: such a block sum
rounds exactly as each row's own q[free].sum() (0 of 59,559 random rows
differ, numpy 2.4.6), so a stack gives each row the bytes of its own
repair. Free entries summed over zero-padded rows of length d, or by
np.add.reduceat, round differently in 17% and 33% of those rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qutrit_core import DIM, ProbDist, QutritLabError, _passed, check_prob_rows, fail_first_row


class MitigationError(QutritLabError, ValueError):
    """Base for readout-mitigation failures."""


class IllConditionedError(MitigationError):
    """The confusion matrix cannot be inverted reliably."""


class InfeasibleError(MitigationError):
    """No count vector satisfies the floor and total constraints."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic assignment matrix: M[i, j] = P(assigned i | prepared j)."""

    m: np.ndarray

    def __post_init__(self):
        # a copy of its own, read-only: a checked matrix and its condition number cannot go stale
        m = np.array(self.m, dtype=float)
        m.flags.writeable = False
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MitigationError("confusion matrix must be square")
        if not np.all(np.isfinite(m)):
            raise MitigationError("entries must be finite")
        if np.min(m) < -1e-12 or np.max(m) > 1.0 + 1e-12:
            raise MitigationError("entries must lie in [0, 1]")
        col_sums = m.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > 1e-9:
            raise MitigationError(f"columns must sum to 1 within 1e-9, got {col_sums}")
        object.__setattr__(self, "m", m)
        # one SVD per matrix: invert_confusion checks it on every call
        object.__setattr__(self, "_condition", float(np.linalg.cond(m)))

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def condition_number(self) -> float:
        return self._condition


@functools.lru_cache(maxsize=8)
def synthetic_confusion(diagonal: float = 0.85) -> ConfusionMatrix:
    """Uniform-leakage model on the 9 two-qutrit outcomes: `diagonal` on the
    diagonal, the rest spread evenly over the other outcomes of each column.

    Built once per diagonal; every caller shares the read-only matrix.
    """
    if not 0.0 < diagonal <= 1.0:
        raise MitigationError("diagonal must be in (0, 1]")
    dim = DIM * DIM
    off = (1.0 - diagonal) / (dim - 1)
    m = np.full((dim, dim), off)
    np.fill_diagonal(m, diagonal)
    return ConfusionMatrix(m)


@dataclass(frozen=True)
class SignedCounts:
    """Possibly negative count vector from inversion, still summing to N."""

    q: np.ndarray
    shots: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        _check_signed_rows(q[None], [self.shots])
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "shots", float(self.shots))


def _check_signed_rows(q: np.ndarray, shots) -> None:
    """SignedCounts' checks on each row of an (n, d) stack, row i totalling shots[i]; the first failing row raises."""
    if q.ndim != 2:
        raise MitigationError("counts must form a vector")
    fail_first_row(~np.isfinite(q).all(axis=1), MitigationError, lambda i: "counts must be finite")
    totals = np.asarray(shots, dtype=float)
    fail_first_row(~((0 < totals) & (totals < math.inf)), MitigationError,
                   lambda i: "total shots must be positive and finite")
    sums = q.sum(axis=1)
    fail_first_row(np.abs(sums - totals) > 1e-6 * np.maximum(1.0, totals), MitigationError,
                   lambda i: f"counts sum to {sums[i]}, expected {shots[i]}")


def confuse_rows(probs: np.ndarray, matrix: ConfusionMatrix) -> np.ndarray:
    """Distributions actually observed when measuring each row of an (n, d) stack of distributions,
    stacked, each row checked as ProbDist checks one."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != matrix.dim:
        raise MitigationError(f"distributions of shape {probs.shape} are not an (n, {matrix.dim}) stack")
    # one matrix-vector product per row: a matrix-matrix product may round differently
    return check_prob_rows(np.array([matrix.m @ p for p in probs]))


def apply_confusion(true_probs, matrix: ConfusionMatrix) -> ProbDist:
    """Distribution actually observed when measuring `true_probs`."""
    p = true_probs.probs if isinstance(true_probs, ProbDist) else np.asarray(true_probs, dtype=float)
    return _passed(ProbDist, probs=confuse_rows(p[None], matrix)[0])


def _invert_rows(counts: np.ndarray, matrix: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Inverted counts and total of each row of a float (n, d) stack of counts, each checked as SignedCounts."""
    if counts.ndim != 2 or counts.shape[1] != matrix.dim:
        raise MitigationError(f"counts of shape {counts.shape} are not an (n, {matrix.dim}) stack")
    fail_first_row(~np.isfinite(counts).all(axis=1), MitigationError, lambda i: "counts must be finite")
    fail_first_row((counts < 0).any(axis=1), MitigationError, lambda i: "counts must be non-negative")
    cond = matrix.condition_number()
    if not math.isfinite(cond) or cond > 1e6:
        raise IllConditionedError(f"condition number {cond:.3g} exceeds 1e6")
    # one LAPACK solve per row, as for a single vector
    q = np.linalg.solve(matrix.m, counts[:, :, None])[:, :, 0]
    shots = counts.sum(axis=1)
    _check_signed_rows(q, shots)
    return q, shots


def invert_confusion(measured_counts, matrix: ConfusionMatrix) -> SignedCounts:
    """Undo the assignment model by direct linear inversion.

    The result can carry negative entries; downstream repair handles them.
    """
    q, shots = _invert_rows(np.asarray(measured_counts, dtype=float)[None], matrix)
    return _passed(SignedCounts, q=q[0], shots=float(shots[0]))


def mle_correct(signed: SignedCounts, floor: float | None = None) -> np.ndarray:
    """Closest physical counts to an inverted vector.

    Minimizes sum(((p_i - q_i)/w_i)**2) subject to p_i >= floor and
    sum(p) = N, where w_i is q_i with a sqrt(N) guard for small entries
    and the floor defaults to sqrt(N). Solved exactly by an active-set
    pass: free coordinates share a common Lagrange multiplier, floored
    ones pin to the floor, repeated until the free set is stable. Runs
    the stacked pass on a one-row stack, which forms its one group of
    free entries at each step (see the module docstring).
    """
    return _repair_rows(signed.q[None], np.array([signed.shots]), floor)[0]


def _repair_rows(q: np.ndarray, n: np.ndarray, floor: float | None = None) -> np.ndarray:
    """mle_correct of each row of an (rows, d) stack of inverted counts, row i totalling n[i],
    all rows stepping together with the free entries summed per group of equal size (see the
    module docstring); the first infeasible row raises."""
    rows, d = q.shape
    root_n = np.sqrt(n)
    if floor is None:
        f = root_n
    else:
        if not 0.0 <= float(floor) < math.inf:
            raise MitigationError(f"floor must be finite and non-negative, got {floor!r}")
        f = np.full(rows, float(floor))
    fail_first_row(d * f > n + 1e-9, InfeasibleError,
                   lambda i: f"{d} entries at floor {f[i]:.6g} exceed the total {n[i]}")
    abs_q = np.abs(q)
    w2 = np.where(abs_q < root_n[:, None], root_n[:, None], abs_q) ** 2

    p = np.empty_like(q)
    # the rows still moving: their index, inputs, free entries and count of entries pinned to the floor
    moving, mq, mw2, mn, mf = np.arange(rows), q, w2, n, f
    free = np.ones((rows, d), dtype=bool)
    fixed = np.zeros(rows, dtype=int)
    while moving.size:
        k = d - fixed
        q_sum = np.empty(moving.size)
        w2_sum = np.empty(moving.size)
        for size in set(k.tolist()):
            group = k == size
            block = free[group]
            q_sum[group] = mq[group][block].reshape(-1, size).sum(axis=1)
            w2_sum[group] = mw2[group][block].reshape(-1, size).sum(axis=1)
        # stationarity: p_i = q_i + lam * w_i^2 / 2 on the free set,
        # with lam chosen so the total lands on N:
        lam = 2.0 * (mn - mf * fixed - q_sum) / w2_sum
        f_col = mf[:, None]
        mp = np.where(free, mq + (0.5 * lam)[:, None] * mw2, f_col)
        violating = free & (mp < f_col - 1e-12)
        newly = violating.sum(axis=1)
        fixed += newly
        p[moving] = mp
        # a row stops once its free set is stable, or once every entry is floored, which the clip
        # below then sets to exactly the floor
        going = (newly > 0) & (fixed < d)
        if not going.all():
            moving, mq, mw2, mn, mf, fixed = moving[going], mq[going], mw2[going], mn[going], mf[going], fixed[going]
            free, violating = free[going], violating[going]
        free &= ~violating
    f_col = f[:, None]
    p = np.where(p < f_col, f_col, p)
    # tiny residual from the final clipping is spread over interior entries:
    slack = n - p.sum(axis=1)
    interior = (p > f_col + 1e-12) & (np.abs(slack) > 1e-9)[:, None]
    count = interior.sum(axis=1)
    has = count > 0
    p[interior] += np.repeat(slack[has] / count[has], count[has])
    return p


def mitigate_counts(measured_counts, matrix: ConfusionMatrix) -> np.ndarray:
    """Inversion followed by repair, the full pipeline on raw counts."""
    return mle_correct(invert_confusion(measured_counts, matrix))


def mitigate_rows(counts: np.ndarray, matrix: ConfusionMatrix) -> np.ndarray:
    """mitigate_counts of each row of an (n, d) stack of counts; the first failing row raises.

    All rows are repaired in one stacked pass whose steps sum the free
    entries of rows with equally many as one block, which rounds as each
    row's own repair does (see the module docstring).
    """
    return _repair_rows(*_invert_rows(np.asarray(counts, dtype=float), matrix))


def save_confusion(matrix: ConfusionMatrix, path) -> None:
    """Plain-text table, row-major, with the convention in the header."""
    lines = [
        "# confusion matrix, row-major: entry (i, j) = P(assigned i | prepared j)",
        f"# {matrix.dim} x {matrix.dim}, columns sum to 1",
    ]
    for row in matrix.m:
        lines.append(" ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_confusion(path) -> ConfusionMatrix:
    """Read a plain-text matrix saved by save_confusion (or hand-written)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MitigationError(f"cannot read confusion matrix file: {exc}") from exc
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(x) for x in line.split()])
        except ValueError:
            raise MitigationError(f"confusion matrix entry is not a number: {line!r}") from None
    if not rows:
        raise MitigationError(f"no numeric rows found in {path}")
    if len({len(r) for r in rows}) != 1:
        raise MitigationError(f"rows in {path} have unequal lengths")
    m = np.array(rows, dtype=float)
    return ConfusionMatrix(m)
