"""Time-resolved open-system simulation of compiled circuits.

Each finite-duration moment evolves the register density matrix under a
static Lindblad generator (always-on dispersive coupling plus relaxation
and dephasing), after which the moment's gate unitary is applied
instantaneously. Gates are modeled as calibrated: tune-up on hardware
absorbs the deterministic phase the always-on coupling accrues during a
gate's own window, so the applied unitary nulls that phase while the
dissipative part of the window is untouched. The generator is
exponentiated with a fixed-step fourth-order integrator.

Work that depends only on the noise model is done once per process.
`simulate_lindblad`, `circuit_channel` and `evolve_idle` take their
`LindbladEngine` from one cache slot keyed by (noise model, step_scale),
the only route to an engine; a run with a new noise model replaces it.
The engine holds the 81x81 generator, one propagator per distinct
duration and, per circuit it has run, the (duration, calibrated unitary)
steps that both the state and the channel path walk: 0.8 MB of
propagators and 0.9 MB of steps for the 43 DJ/BV/Grover circuits. Cached
arrays are read-only, and reuse changes no output byte.

Coherence times are given in microseconds, coupling coefficients in kHz,
and circuit durations in nanoseconds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qutrit_core import (
    DIM,
    DensityMatrix,
    ProbDist,
    PureState,
    QutritLabError,
    StateValidationError,
    _coerce_state,
)
from .gates_compiler import Circuit, moment_unitary

DIM2 = DIM * DIM


class SimulationError(QutritLabError, RuntimeError):
    """Numerical integration left the physical state space."""


class ChannelError(QutritLabError, ValueError):
    """A process description is not completely positive and trace preserving."""


@dataclass(frozen=True)
class QutritCoherence:
    """Relaxation and Ramsey dephasing times of one qutrit, in microseconds."""

    t1_01: float
    t1_12: float
    t2r_01: float
    t2r_12: float

    def __post_init__(self):
        for name in ("t1_01", "t1_12", "t2r_01", "t2r_12"):
            v = float(getattr(self, name))
            if not v > 0:
                raise StateValidationError(f"{name} must be positive, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class NoiseModel:
    """Coherence of both qutrits plus the always-on cross-Kerr coefficients.

    The coupling coefficients are in kHz and multiply the level products
    m*n, m**2*n, m*n**2 and m**2*n**2 of the pair state |mn>.
    """

    q1: QutritCoherence
    q2: QutritCoherence
    j11: float = 0.0
    j21: float = 0.0
    j12: float = 0.0
    j22: float = 0.0

    @classmethod
    def none(cls) -> "NoiseModel":
        inf = math.inf
        quiet = QutritCoherence(inf, inf, inf, inf)
        return cls(q1=quiet, q2=quiet)


def dephasing_rates(coh: QutritCoherence) -> tuple[float, float]:
    """Pure-dephasing rates (gamma_a on level 1, gamma_b on level 2) in 1/us.

    gamma_a removes the relaxation contribution from the 01 Ramsey rate and
    gamma_b is whatever the 12 Ramsey rate still needs on top of gamma_a
    and the relaxation ladder.
    """
    gamma_a = 1.0 / coh.t2r_01 - 0.5 / coh.t1_01
    gamma_b = 1.0 / coh.t2r_12 - gamma_a - 0.5 * (1.0 / coh.t1_01 + 1.0 / coh.t1_12)
    return gamma_a, gamma_b


def _single_qutrit_collapse_ops(coh: QutritCoherence) -> list[np.ndarray]:
    ops = []
    for lower, t1 in ((0, coh.t1_01), (1, coh.t1_12)):
        if math.isfinite(t1):
            relax = np.zeros((DIM, DIM), dtype=complex)
            relax[lower, lower + 1] = math.sqrt(1.0 / t1)
            ops.append(relax)
    gamma_a, gamma_b = dephasing_rates(coh)
    if gamma_a < -1e-12:
        warnings.warn(f"negative 01 dephasing rate {gamma_a:.4g}/us clamped to zero")
    gamma_a = max(gamma_a, 0.0)
    if gamma_b >= -1e-12:
        gamma_b = max(gamma_b, 0.0)
        if gamma_a > 0.0:
            ops.append(np.diag([0.0, math.sqrt(2.0 * gamma_a), 0.0]).astype(complex))
        if gamma_b > 0.0:
            ops.append(np.diag([0.0, 0.0, math.sqrt(2.0 * gamma_b)]).astype(complex))
    else:
        # Independent level projectors cannot realize a 12 coherence decaying
        # slower than the 01 one. A single correlated diagonal operator can:
        # its level-2 weight is chosen so both Ramsey rates come out exact.
        warnings.warn(
            f"negative 12 dephasing rate {gamma_b:.4g}/us; using one correlated dephasing operator"
        )
        total = gamma_a + gamma_b
        if total < 0.0:
            warnings.warn(f"total 12 dephasing {total:.4g}/us still negative, clamped to zero")
            total = 0.0
        g1 = math.sqrt(gamma_a)
        g2 = g1 - math.sqrt(total)
        ops.append(math.sqrt(2.0) * np.diag([0.0, g1, g2]).astype(complex))
    return ops


def build_collapse_ops(noise: NoiseModel) -> list[np.ndarray]:
    """Collapse operators of the pair, embedded to 9x9, amplitudes in 1/sqrt(us)."""
    eye = np.eye(DIM, dtype=complex)
    return ([np.kron(op, eye) for op in _single_qutrit_collapse_ops(noise.q1)]
            + [np.kron(eye, op) for op in _single_qutrit_collapse_ops(noise.q2)])


def idle_hamiltonian(noise: NoiseModel) -> np.ndarray:
    """Diagonal always-on coupling Hamiltonian of the pair, in rad/us."""
    m, n = np.indices((DIM, DIM))
    poly = noise.j11 * m * n + noise.j21 * m * m * n + noise.j12 * m * n * n + noise.j22 * m * m * n * n
    return np.diag(2.0 * math.pi * 1e-3 * poly.reshape(-1)).astype(complex)


# ---------------------------------------------------------------------------
# Lindblad propagation

def lindblad_generator(noise: NoiseModel) -> np.ndarray:
    """81x81 generator acting on the row-major vectorized density matrix."""
    eye = np.eye(DIM2, dtype=complex)
    h = idle_hamiltonian(noise)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in build_collapse_ops(noise):
        opc = op.conj()
        herm = op.conj().T @ op
        gen += np.kron(op, opc)
        gen -= 0.5 * (np.kron(herm, eye) + np.kron(eye, herm.T))
    return gen


class LindbladEngine:
    """Caches per-duration propagators and per-circuit calibrated steps of a fixed noise model."""

    def __init__(self, noise: NoiseModel, step_scale: int = 1):
        if step_scale < 1:
            raise SimulationError("step_scale must be a positive integer")
        self.noise = noise
        self.step_scale = int(step_scale)
        self.generator = lindblad_generator(noise)
        self._cache: dict[float, np.ndarray] = {}
        self._steps: dict[Circuit, tuple[tuple[float, np.ndarray], ...]] = {}
        self._coupling_diag = np.real(np.diag(idle_hamiltonian(noise)))
        self._coupled = bool(np.any(self._coupling_diag))

    def propagator(self, duration_ns: float) -> np.ndarray:
        key = round(float(duration_ns), 9)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n_steps = self.step_scale * max(16, int(math.ceil(duration_ns)))
        h = (duration_ns * 1e-3) / n_steps
        gen = self.generator
        eye = np.eye(gen.shape[0], dtype=complex)
        # fourth-order Taylor step, identical to classic RK4 for a
        # time-independent linear generator:
        step = eye + h * gen @ (eye + (h / 2.0) * gen @ (eye + (h / 3.0) * gen @ (eye + (h / 4.0) * gen)))
        prop = np.linalg.matrix_power(step, n_steps)
        prop.flags.writeable = False
        self._cache[key] = prop
        return prop

    def evolve(self, rho: np.ndarray, duration_ns: float) -> np.ndarray:
        if duration_ns <= 0.0:
            return rho
        out = (self.propagator(duration_ns) @ rho.reshape(-1)).reshape(rho.shape)
        return (out + out.conj().T) / 2.0

    def moments(self, circuit: Circuit) -> tuple[tuple[float, np.ndarray], ...]:
        """(duration, calibrated unitary) of each moment of a two-qutrit circuit.

        Calibration on hardware makes each gate realize its ideal unitary
        across its own window, so the deterministic phase the always-on
        coupling accrued during the window is undone here; relaxation and
        dephasing during the window are not. The steps are built once per
        circuit and shared; their arrays are read-only.
        """
        steps = self._steps.get(circuit)
        if steps is None:
            if circuit.n_qutrits != 2:
                raise SimulationError("the noise model is calibrated for a two-qutrit register")
            built = []
            for duration, moment in zip(circuit.durations, circuit.moments):
                u = moment_unitary(moment, 2)
                if duration > 0.0 and self._coupled:
                    u = u @ np.diag(np.exp(1j * self._coupling_diag * duration * 1e-3))
                    u.flags.writeable = False
                built.append((duration, u))
            steps = self._steps[circuit] = tuple(built)
        return steps

    def run(self, circuit: Circuit, initial=None) -> np.ndarray:
        """Density matrix after the circuit, from |00> or the given state."""
        moments = self.moments(circuit)
        rho = _initial_rho(initial)
        for duration, u in moments:
            rho = self.evolve(rho, duration)
            rho = u @ rho @ u.conj().T
        return rho


@functools.lru_cache(maxsize=1)
def _engine(noise: NoiseModel, step_scale: int) -> LindbladEngine:
    """The shared engine of the last noise model asked for; one slot, as a run uses one noise model."""
    return LindbladEngine(noise, step_scale)


def _initial_rho(initial) -> np.ndarray:
    if initial is None:
        rho = np.zeros((DIM2, DIM2), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    state = _coerce_state(initial)
    if state.dim != DIM2:
        raise StateValidationError("initial state size does not match the register")
    return state.density().matrix if isinstance(state, PureState) else state.matrix.copy()


def simulate_lindblad(circuit: Circuit, noise: NoiseModel, initial=None, step_scale: int = 1) -> DensityMatrix:
    """Evolve through a compiled circuit under the noise model.

    Returns the final density matrix. Raises SimulationError when the
    integration drifts off trace one by more than 1e-6 or produces an
    eigenvalue below -1e-6.
    """
    rho = _engine(noise, step_scale).run(circuit, initial)
    rho = (rho + rho.conj().T) / 2.0
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > 1e-6:
        raise SimulationError(f"trace drifted by {abs(trace - 1.0):.3g}")
    try:
        return DensityMatrix(rho / trace)
    except StateValidationError as exc:
        raise SimulationError(str(exc)) from exc


def evolve_idle(noise: NoiseModel, initial, duration_ns: float, step_scale: int = 1) -> DensityMatrix:
    """Free evolution of the pair for a fixed time, no pulses."""
    engine = _engine(noise, step_scale)
    return DensityMatrix(engine.evolve(_initial_rho(initial), float(duration_ns)))


def ramsey_coherence_time(noise: NoiseModel, qutrit: int, transition: str, delay_us: float = 1.0) -> float:
    """Extract a Ramsey decay constant (us) from simulated free evolution.

    Prepares an equal superposition on the chosen transition, idles, and
    reads the surviving coherence magnitude.
    """
    levels = {"01": (0, 1), "12": (1, 2)}[transition]
    single = np.zeros(DIM, dtype=complex)
    single[levels[0]] = single[levels[1]] = 1.0 / math.sqrt(2.0)
    ground = np.zeros(DIM, dtype=complex)
    ground[0] = 1.0
    psi = np.kron(single, ground) if qutrit == 0 else np.kron(ground, single)
    rho = evolve_idle(noise, psi, delay_us * 1000.0).matrix
    if qutrit == 0:
        i = levels[0] * DIM
        j = levels[1] * DIM
    else:
        i, j = levels
    coherence = abs(rho[i, j])
    if coherence <= 0 or coherence >= 0.5:
        raise SimulationError("no measurable coherence decay over the chosen delay")
    return float(-delay_us / math.log(coherence / 0.5))


# ---------------------------------------------------------------------------
# Ideal evolution, measurement, sampling

def simulate_pure(circuit: Circuit, initial: PureState | None = None) -> PureState:
    """Noiseless evolution of a circuit on a state vector."""
    dim = DIM**circuit.n_qutrits
    if initial is None:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    else:
        if initial.dim != dim:
            raise StateValidationError("initial state size does not match the circuit")
        amps = initial.amplitudes.copy()
    for moment in circuit.moments:
        amps = moment_unitary(moment, circuit.n_qutrits) @ amps
    return PureState(amps)


def measure_probs(state) -> ProbDist:
    """Computational-basis outcome distribution of a state."""
    state = _coerce_state(state)
    return state.probabilities() if isinstance(state, PureState) else state.diagonal_probs()


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts from a distribution; the seed fixes the draw."""
    p = probs.probs if isinstance(probs, ProbDist) else np.asarray(probs, dtype=float)
    if shots < 0:
        raise StateValidationError("shots must be nonnegative")
    if seed is None:
        raise StateValidationError("sampling requires an explicit seed")
    if np.min(p) < -1e-9 or abs(p.sum() - 1.0) > 1e-6:
        raise StateValidationError("not a probability distribution")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(int(seed))
    return rng.multinomial(int(shots), p)


# ---------------------------------------------------------------------------
# Quantum channels and process matrices

@dataclass(frozen=True)
class ProcessMatrix:
    """Process (chi) matrix in the matrix-unit operator basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ChannelError("process matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-7:
            raise ChannelError("process matrix must be Hermitian")
        object.__setattr__(self, "matrix", (m + m.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return int(round(math.sqrt(self.matrix.shape[0])))

    def normalized(self) -> np.ndarray:
        return self.matrix / np.real(np.trace(self.matrix))


class QuantumChannel:
    """Linear map on density matrices, stored by its matrix-unit images."""

    def __init__(self, superop: np.ndarray, dim: int):
        superop = np.asarray(superop, dtype=complex)
        if superop.shape != (dim * dim, dim * dim):
            raise ChannelError(f"superoperator shape {superop.shape} does not match dim {dim}")
        self.superop = superop
        self.dim = dim

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "QuantumChannel":
        u = np.asarray(u, dtype=complex)
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
            raise ChannelError("operator is not unitary within 1e-10")
        return cls(np.kron(u, u.conj()), u.shape[0])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return (self.superop @ rho.reshape(-1)).reshape(self.dim, self.dim)

    def choi(self) -> np.ndarray:
        d = self.dim
        return self.superop.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)

    def trace_preservation_defect(self) -> float:
        d = self.dim
        traces = np.einsum("aakl->kl", self.superop.reshape(d, d, d, d))
        return float(np.max(np.abs(traces - np.eye(d))))


def circuit_channel(circuit: Circuit, noise: NoiseModel, step_scale: int = 1) -> QuantumChannel:
    """Full-register channel of a compiled circuit under the noise model."""
    engine = _engine(noise, step_scale)
    total = np.eye(DIM2 * DIM2, dtype=complex)
    for duration, u in engine.moments(circuit):
        if duration > 0.0:
            total = engine.propagator(duration) @ total
        total = np.kron(u, u.conj()) @ total
    return QuantumChannel(total, DIM2)


def reduced_qutrit_channel(channel: QuantumChannel, qutrit: int) -> QuantumChannel:
    """Single-qutrit channel seen by one qutrit, the other starting in |0>."""
    if channel.dim != DIM2 or qutrit not in (0, 1):
        raise ChannelError("reduction expects a two-qutrit channel and qutrit 0 or 1")
    # axes: output ket, output bra, input ket, input bra, each as (q1, q2)
    s = channel.superop.reshape((DIM,) * 8)
    if qutrit == 1:
        s = s.transpose(1, 0, 3, 2, 5, 4, 7, 6)
    # the other qutrit enters as |0><0| and its output is traced out
    return QuantumChannel(np.trace(s[..., 0, :, 0], axis1=1, axis2=3).reshape(DIM2, DIM2), DIM)


def chi_matrix(channel: QuantumChannel, tol: float = 1e-6) -> ProcessMatrix:
    """Process matrix chi[(a d + k), (c d + l)] = <a| E(|k><l|) |c>.

    Rejects maps that are not trace preserving or completely positive
    within tolerance.
    """
    defect = channel.trace_preservation_defect()
    if defect > tol:
        raise ChannelError(f"map is not trace preserving (defect {defect:.3g})")
    choi = channel.choi()
    choi_min = float(np.min(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)))
    if choi_min < -10.0 * tol:
        raise ChannelError(f"map is not completely positive (eigenvalue {choi_min:.3g})")
    d = channel.dim
    return ProcessMatrix(channel.superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))


def chi_of_unitary(u: np.ndarray) -> ProcessMatrix:
    return chi_matrix(QuantumChannel.from_unitary(u))


def process_fidelity(chi_a: ProcessMatrix, chi_b: ProcessMatrix) -> float:
    """Overlap of two unit-trace-normalized process matrices.

    For two unitaries this equals |Tr(U^dag V)|**2 / d**2.
    """
    if chi_a.matrix.shape != chi_b.matrix.shape:
        raise ChannelError("process matrices have different shapes")
    return float(np.real(np.trace(chi_a.normalized() @ chi_b.normalized())))
