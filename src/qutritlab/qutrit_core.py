"""Core linear algebra for registers of three-level systems.

States live in dimension 3**n with the first qutrit most significant,
so for two qutrits the basis order is 00, 01, 02, 10, ..., 22 and
the label "21" sits at index 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 3


class QutritLabError(Exception):
    """Base class for all errors raised by this package.

    A check on the rows of a stack sets `row` to the index of the first
    row it failed on.
    """

    row: int | None = None


class DimensionMismatchError(QutritLabError, ValueError):
    """Operands describe registers of different sizes."""


class StateValidationError(QutritLabError, ValueError):
    """A state or distribution failed its structural checks."""


class KindMismatchError(QutritLabError, TypeError):
    """Operands of different kinds (a state and an operator, say) were combined."""


def fail_first_row(bad, error: type[QutritLabError], message) -> None:
    """Raise error(message(i)) for the first row i of a stack where `bad` holds, with its row set to i."""
    failing = np.flatnonzero(bad)
    if failing.size:
        exc = error(message(int(failing[0])))
        exc.row = int(failing[0])
        raise exc


def each_row(fn, *columns) -> list:
    """fn of each row's items, in row order; an error of this package gets the row it was raised for."""
    out = []
    for i, items in enumerate(zip(*columns)):
        try:
            out.append(fn(*items))
        except QutritLabError as exc:
            exc.row = i
            raise
    return out


def _passed(cls, **fields):
    """An instance of a frozen dataclass holding values that have passed its checks, not checked again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def traces(matrices: np.ndarray) -> np.ndarray:
    """np.trace of each matrix of an (n, d, d) stack, each diagonal summed as np.trace sums one."""
    return np.ascontiguousarray(matrices.diagonal(axis1=1, axis2=2)).sum(axis=1)


def n_qutrits_for_dim(dim: int) -> int:
    n = 0
    d = 1
    while d < dim:
        d *= DIM
        n += 1
    if d != dim or n == 0:
        raise DimensionMismatchError(f"dimension {dim} is not a positive power of 3")
    return n


@dataclass(frozen=True)
class BasisLabel:
    """Ternary register label, e.g. BasisLabel((2, 1)) for |21>."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) == 0:
            raise StateValidationError("a basis label needs at least one digit")
        if any(d not in (0, 1, 2) for d in self.digits):
            raise StateValidationError(f"digits must be 0, 1 or 2: {self.digits}")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

    @property
    def n_qutrits(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        # first qutrit is the most significant ternary digit:
        idx = 0
        for d in self.digits:
            idx = idx * DIM + d
        return idx

    @classmethod
    def from_index(cls, index: int, n_qutrits: int) -> "BasisLabel":
        if n_qutrits < 1 or not 0 <= index < DIM**n_qutrits:
            raise StateValidationError(f"index {index} out of range for {n_qutrits} qutrits")
        digits = []
        for _ in range(n_qutrits):
            digits.append(index % DIM)
            index //= DIM
        return cls(tuple(reversed(digits)))

    @classmethod
    def parse(cls, text: str) -> "BasisLabel":
        if not text or any(c not in "012" for c in text):
            raise StateValidationError(f"cannot parse basis label {text!r}")
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over one or more qutrits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        check_pure_rows(amps[None])
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, label: BasisLabel | str) -> "PureState":
        if isinstance(label, str):
            label = BasisLabel.parse(label)
        amps = np.zeros(DIM**label.n_qutrits, dtype=complex)
        amps[label.index] = 1.0
        return cls(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_qutrits(self) -> int:
        return n_qutrits_for_dim(self.dim)

    def probabilities(self) -> "ProbDist":
        return ProbDist(np.abs(self.amplitudes) ** 2)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        check_density_rows(rho[None])
        object.__setattr__(self, "matrix", rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qutrits(self) -> int:
        return n_qutrits_for_dim(self.dim)

    def diagonal_probs(self) -> "ProbDist":
        return ProbDist(np.real(np.diag(self.matrix)))


@dataclass(frozen=True)
class ProbDist:
    """Probability distribution over register basis states."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", check_prob_rows(np.asarray(self.probs, dtype=float)[None])[0])

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def prob_of(self, label: BasisLabel | str) -> float:
        if isinstance(label, str):
            label = BasisLabel.parse(label)
        n, index = label.n_qutrits, label.index
        if DIM**n != self.dim:
            raise DimensionMismatchError(f"label {label} names {n} qutrits, the distribution has dimension {self.dim}")
        return float(self.probs[index])

    def argmax_label(self) -> BasisLabel:
        # np.argmax returns the lowest index on ties:
        n = n_qutrits_for_dim(self.dim)
        return BasisLabel.from_index(int(np.argmax(self.probs)), n)


def check_pure_rows(amps: np.ndarray) -> None:
    """PureState's checks on each vector of a complex (n, d) stack; the first failing row raises."""
    fail_first_row(~np.isfinite(amps).reshape(len(amps), -1).all(axis=1), StateValidationError,
                   lambda i: "amplitudes contains non-finite entries")
    if amps.ndim != 2:
        raise StateValidationError("amplitudes must be a vector")
    n_qutrits_for_dim(amps.shape[1])
    norms = np.linalg.norm(amps, axis=1)
    # the message prints the norm of the row alone, as np.linalg.norm of a vector sums it
    fail_first_row(np.abs(norms - 1.0) > 1e-9, StateValidationError,
                   lambda i: f"state norm {float(np.linalg.norm(amps[i]))} is not 1 within 1e-9")


def check_density_rows(rhos: np.ndarray) -> None:
    """DensityMatrix's checks on each matrix of a complex (n, d, d) stack; the first failing row raises."""
    fail_first_row(~np.isfinite(rhos).reshape(len(rhos), -1).all(axis=1), StateValidationError,
                   lambda i: "density matrix contains non-finite entries")
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise StateValidationError("density matrix must be square")
    n_qutrits_for_dim(rhos.shape[1])
    adjoint = rhos.conj().transpose(0, 2, 1)
    fail_first_row(np.abs(rhos - adjoint).max(axis=(1, 2)) > 1e-8, StateValidationError,
                   lambda i: "density matrix is not Hermitian within 1e-8")
    tr = traces(rhos)
    fail_first_row(np.abs(tr - 1.0) > 1e-6, StateValidationError,
                   lambda i: f"trace {complex(tr[i])} is not 1 within 1e-6")
    min_eig = np.linalg.eigvalsh((rhos + adjoint) / 2).min(axis=1)
    fail_first_row(min_eig < -1e-6, StateValidationError,
                   lambda i: f"negative eigenvalue {float(min_eig[i])} beyond -1e-6")


def check_prob_rows(probs: np.ndarray) -> np.ndarray:
    """ProbDist's checks on each row of a float (n, d) stack: the rows clipped at 0; the first failing row raises."""
    if probs.ndim != 2:
        raise StateValidationError("probabilities must form a vector")
    n_qutrits_for_dim(probs.shape[1])
    low = probs.min(axis=1)
    fail_first_row(low < -1e-9, StateValidationError, lambda i: f"negative probability {low[i]}")
    p = np.clip(probs, 0.0, None)
    s = p.sum(axis=1)
    # also false for a nan or inf entry, which makes the sum nan or inf:
    fail_first_row(~(np.abs(s - 1.0) <= 1e-6), StateValidationError,
                   lambda i: f"probabilities sum to {float(s[i])}, not 1 within 1e-6")
    return p


_TENSOR_FIELDS = {PureState: "amplitudes", DensityMatrix: "matrix", ProbDist: "probs"}


def tensor(*operands):
    """Kronecker product of states, operators or distributions.

    Mixed input kinds are not combined: when one operand is a PureState,
    DensityMatrix or ProbDist, all must be of its kind, or
    KindMismatchError names the first two kinds. Plain arrays combine
    with each other.
    """
    if len(operands) < 1:
        raise DimensionMismatchError("tensor needs at least one operand")
    kind = type(operands[0])
    field = _TENSOR_FIELDS.get(kind) if all(isinstance(op, kind) for op in operands) else None
    if field is None and any(isinstance(op, tuple(_TENSOR_FIELDS)) for op in operands):
        other = next(type(op) for op in operands if not isinstance(op, kind))
        raise KindMismatchError(f"tensor cannot combine {kind.__name__} and {other.__name__} operands")
    arrs = [np.asarray(op) if field is None else getattr(op, field) for op in operands]
    out = arrs[0]
    for a in arrs[1:]:
        out = np.kron(out, a)
    return out if field is None else kind(out)


def _coerce_state(state):
    if isinstance(state, (PureState, DensityMatrix)):
        return state
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return PureState(arr)
    if arr.ndim == 2:
        return DensityMatrix(arr)
    raise StateValidationError("expected a state vector or a density matrix")


def fidelity(a, b) -> float:
    """Uhlmann fidelity between two states (squared-overlap convention).

    Pure/pure reduces to |<a|b>|**2 and pure/mixed to <a|rho|a>.
    """
    a = _coerce_state(a)
    b = _coerce_state(b)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} vs {b.dim}")
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(b, PureState):
        a, b = b, a
    if isinstance(a, PureState):
        psi = a.amplitudes
        return float(np.real(np.vdot(psi, b.matrix @ psi)))
    sqrt_a = _psd_sqrt(a.matrix)
    inner = _psd_sqrt(sqrt_a @ b.matrix @ sqrt_a)
    val = float(np.real(np.trace(inner)) ** 2)
    return min(max(val, 0.0), 1.0 + 1e-12)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def sso(p, q) -> float:
    """Squared statistical overlap (sum of sqrt(p*q), squared)."""
    p = p.probs if isinstance(p, ProbDist) else np.asarray(p, dtype=float)
    q = q.probs if isinstance(q, ProbDist) else np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    if np.min(p) < -1e-12 or np.min(q) < -1e-12:
        raise StateValidationError("sso requires nonnegative entries")
    return float(np.sum(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None))) ** 2)


def partial_trace(rho: np.ndarray, keep: int, n_qutrits: int) -> np.ndarray:
    """Trace out all qutrits except position `keep` (0-based)."""
    if not 0 <= keep < n_qutrits:
        raise DimensionMismatchError(f"keep={keep} out of range for {n_qutrits} qutrits")
    rho = np.asarray(rho, dtype=complex)
    shape = (DIM,) * (2 * n_qutrits)
    t = rho.reshape(shape)
    for pos in reversed(range(n_qutrits)):
        if pos == keep:
            continue
        t = np.trace(t, axis1=pos, axis2=pos + (t.ndim // 2))
    return t
