"""Time-resolved open-system simulation of compiled circuits.

Each finite-duration moment evolves the register density matrix under a
static Lindblad generator (always-on dispersive coupling plus relaxation
and dephasing), after which the moment's gate unitary is applied
instantaneously. Gates are modeled as calibrated: tune-up on hardware
absorbs the deterministic phase the always-on coupling accrues during a
gate's own window, so the applied unitary nulls that phase while the
dissipative part of the window is untouched. The generator is
exponentiated with a fixed-step fourth-order integrator.

The 81x81 generator is block-diagonal over 25 sectors: |a><b| keeps its
per-qutrit level differences (a1 - b1, a2 - b2), because the coupling
Hamiltonian and the dephasing operators are diagonal and each relaxation
operator lowers ket and bra together. No sector has more than 9 members.
The generator is formed only inside its sectors, 361 of its 6561 entries;
each engine stacks those into zero-padded 9x9 sector blocks, forms the
integrator step and its power on the stack and scatters the result into
the 81x81 propagator that the state and channel paths read.

Work that depends only on the noise model is done once per process.
`simulate_lindblad`, `circuit_channel` and `evolve_idle` take their
`LindbladEngine` from one cache slot keyed by (noise model, step_scale),
the only route to an engine; a run with a new noise model replaces it.
The engine holds the generator, one propagator per distinct duration,
one map per moment and, per circuit it has run, the sequence of those
maps; a moment's calibrated unitary is formed only to build its map or for
a channel walk. Cached arrays are read-only; reuse changes no output byte.

The state path (`simulate_lindblad`) walks one linear map per moment on
the vectorized density matrix: kron(u, conj(u)) @ propagator, composed
once per engine for each timed moment, and for a zero-duration moment,
which holds only virtual phases, the diagonal d x conj(d) as an 81-vector
applied elementwise. The 43 DJ/BV/Grover circuits hold 21 timed moments,
so their maps take 2.2 MB next to 0.8 MB of propagators.

`circuit_channel` pushes a stack of 9x9 inputs through one walk of the
steps, applying each propagator and then u x u^dag; it composes no maps,
because a tomography engine serves one noise profile, whose 20 timed steps
hold 12 distinct moments, and composing a map (about 0.14 ms) would cost
more than it saves there. The full channel
pushes all 81 matrix units; the single-qutrit channel that tomography
reads pushes only the nine inputs |k><l| with the other qutrit in |0><0|
and traces the other qutrit out.

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

    def __post_init__(self):
        for name in ("j11", "j21", "j12", "j22"):
            if not math.isfinite(getattr(self, name)):
                raise StateValidationError(f"{name} must be finite, got {getattr(self, name)}")

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

def _sector_tables():
    """The entries of the 81x81 generator that lie inside a level-difference sector.

    The row-major index of |a><b| is 9 a + b with a = 3 a1 + a2 and
    b = 3 b1 + b2; its sector is (a1 - b1, a2 - b2). Returns the (row, col)
    of each of the 361 in-sector entries and its place (sector, rank of the
    row among the sector's members, rank of the column) in the stacked 9x9
    sector blocks, whose members come in increasing index order.
    """
    a1, a2, b1, b2 = np.indices((DIM,) * 4).reshape(4, -1)
    sector = (a1 - b1 + DIM - 1) * (2 * DIM - 1) + (a2 - b2 + DIM - 1)
    same = sector[:, None] == sector[None, :]
    rank = np.count_nonzero(np.tril(same, -1), axis=1)  # earlier members of each index's sector
    entries = np.stack(np.nonzero(same))
    slots = np.stack((sector[entries[0]], rank[entries[0]], rank[entries[1]]))
    entries.flags.writeable = slots.flags.writeable = False
    return tuple(entries), tuple(slots)


# (row, col) of each in-sector generator entry, and its (sector, row, col) in the sector blocks
_ENTRIES, _SLOTS = _sector_tables()
_N_SECTORS = (2 * DIM - 1) ** 2


def lindblad_generator(noise: NoiseModel) -> np.ndarray:
    """81x81 generator acting on the row-major vectorized density matrix.

    Only the entries inside a level-difference sector are formed; the rest
    are zero. Entry (9 a + b, 9 c + d) of a term x (x) y is x[a, c] * y[b, d].
    """
    (a, c), (b, d) = np.divmod(_ENTRIES, DIM2)
    eye = np.eye(DIM2, dtype=complex)
    h = idle_hamiltonian(noise)
    values = -1j * (h[a, c] * eye[b, d] - eye[a, c] * h.T[b, d])
    for op in build_collapse_ops(noise):
        herm = op.conj().T @ op
        values += op[a, c] * op.conj()[b, d]
        values -= 0.5 * (herm[a, c] * eye[b, d] + eye[a, c] * herm.T[b, d])
    gen = np.zeros((DIM2 * DIM2, DIM2 * DIM2), dtype=complex)
    gen[_ENTRIES] = values
    return gen


class LindbladEngine:
    """Caches the propagators and step maps of a fixed noise model.

    The state path (`run`) applies one precomposed map per moment. The
    channel path (`_propagate`) keeps its own stepwise walk on purpose: a
    tomography engine is used once, and composing its maps would cost more
    than they save.
    """

    def __init__(self, noise: NoiseModel, step_scale: int = 1):
        if step_scale < 1:
            raise SimulationError("step_scale must be a positive integer")
        self.noise = noise
        self.step_scale = int(step_scale)
        self.generator = lindblad_generator(noise)
        self._blocks = np.zeros((_N_SECTORS, DIM2, DIM2), dtype=complex)
        self._blocks[_SLOTS] = self.generator[_ENTRIES]
        self._cache: dict[float, np.ndarray] = {}
        # map of one moment on the vectorized density matrix, shared by every circuit that holds the moment
        self._superops: dict[tuple, np.ndarray] = {}
        # per circuit, the maps `run` applies in order
        self._walks: dict[Circuit, tuple[np.ndarray, ...]] = {}
        self._coupling_diag = np.real(np.diag(idle_hamiltonian(noise)))
        self._coupled = bool(np.any(self._coupling_diag))

    def propagator(self, duration_ns: float) -> np.ndarray:
        key = round(float(duration_ns), 9)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n_steps = self.step_scale * max(16, int(math.ceil(duration_ns)))
        h = (duration_ns * 1e-3) / n_steps
        gen = self._blocks
        eye = np.eye(DIM2, dtype=complex)
        # fourth-order Taylor step, identical to classic RK4 for a
        # time-independent linear generator, on every sector block at once:
        step = eye + h * gen @ (eye + (h / 2.0) * gen @ (eye + (h / 3.0) * gen @ (eye + (h / 4.0) * gen)))
        prop = np.zeros_like(self.generator)
        prop[_ENTRIES] = np.linalg.matrix_power(step, n_steps)[_SLOTS]
        prop.flags.writeable = False
        self._cache[key] = prop
        return prop

    @staticmethod
    def _timed(circuit: Circuit):
        """(moment, duration) pairs of a two-qutrit circuit."""
        if circuit.n_qutrits != 2:
            raise SimulationError("the noise model is calibrated for a two-qutrit register")
        return zip(circuit.moments, circuit.durations)

    def _calibrated_unitary(self, moment: tuple, duration: float) -> np.ndarray:
        """Unitary of one moment, with the coupling phase accrued over its window undone.

        Calibration on hardware makes each gate realize its ideal unitary
        across its own window, so the deterministic phase the always-on
        coupling accrued during the window is undone here; relaxation and
        dephasing during the window are not.
        """
        u = moment_unitary(moment, 2)
        if duration > 0.0 and self._coupled:
            # a matmul, not a column scaling: the scaling rounds differently
            u = u @ np.diag(np.exp(1j * self._coupling_diag * duration * 1e-3))
        return u

    def moments(self, circuit: Circuit) -> list[tuple[float, np.ndarray]]:
        """(duration, calibrated unitary) of each moment of a two-qutrit circuit, built fresh."""
        return [(duration, self._calibrated_unitary(m, duration)) for m, duration in self._timed(circuit)]

    def _superop(self, moment: tuple, duration: float) -> np.ndarray:
        """Map of one moment (evolve, then apply its calibrated unitary u) on the vectorized density matrix.

        vec(u rho u^dag) = kron(u, conj(u)) vec(rho). Pulses last at least
        10 ns, so a zero-duration moment holds only virtual phases: its u is
        diagonal, and its map is kept as the 81-vector d x conj(d).
        """
        s = self._superops.get(moment)
        if s is None:
            u = self._calibrated_unitary(moment, duration)
            if duration > 0.0:
                # kron(u, conj(u)) @ propagator, formed as the images u x u^dag
                # of the propagator's columns x: only 9x9 products, because an
                # 81x81 product split over OpenBLAS threads can stall for
                # milliseconds on a busy machine. C order: OpenBLAS's matvec on
                # a Fortran-order matrix rounds differently at 1 and 2 threads.
                images = u @ self.propagator(duration).T.reshape(DIM2 * DIM2, DIM2, DIM2) @ u.conj().T
                s = np.ascontiguousarray(images.reshape(DIM2 * DIM2, DIM2 * DIM2).T)
            else:
                d = np.diagonal(u)
                s = np.outer(d, d.conj()).reshape(-1)
            s.flags.writeable = False
            self._superops[moment] = s
        return s

    def run(self, circuit: Circuit, initial=None) -> np.ndarray:
        """Density matrix after the circuit, from |00> or the given state."""
        walk = self._walks.get(circuit)
        if walk is None:
            walk = self._walks[circuit] = tuple(self._superop(m, d) for m, d in self._timed(circuit))
        v = _initial_rho(initial).reshape(-1)
        for s in walk:
            v = s @ v if s.ndim == 2 else s * v
        return v.reshape(DIM2, DIM2)


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
    """Free evolution of the pair for a finite, nonnegative time, no pulses."""
    duration_ns = float(duration_ns)
    if not 0.0 <= duration_ns < math.inf:
        raise SimulationError(f"idle duration must be finite and nonnegative, got {duration_ns} ns")
    engine = _engine(noise, step_scale)
    rho = _initial_rho(initial)
    if duration_ns > 0.0:
        out = (engine.propagator(duration_ns) @ rho.reshape(-1)).reshape(rho.shape)
        rho = (out + out.conj().T) / 2.0
    return DensityMatrix(rho)


def ramsey_coherence_time(noise: NoiseModel, qutrit: int, transition: str) -> float:
    """Extract a Ramsey decay constant (us) from simulated free evolution.

    Prepares an equal superposition on transition "01" or "12" of qutrit 0
    or 1, idles for 1 us, and reads the surviving coherence magnitude.
    """
    levels = {"01": (0, 1), "12": (1, 2)}.get(transition)
    if qutrit not in (0, 1) or levels is None:
        raise SimulationError(f"need qutrit 0 or 1 and transition '01' or '12', got {qutrit!r} and {transition!r}")
    delay_us = 1.0
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
        if not np.max(np.abs(m - m.conj().T)) <= 1e-7:
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


# the 81 matrix units |a><b| of the pair, unit 9 a + b at index 9 a + b
_PAIR_UNITS = np.eye(DIM2 * DIM2, dtype=complex).reshape(DIM2 * DIM2, DIM2, DIM2)
_PAIR_UNITS.flags.writeable = False


# per qutrit, the index of the pair unit that is |k><l| on that qutrit and
# |0><0| on the other, for k l = 00, 01, ..., 22
_K, _L = np.divmod(np.arange(DIM2), DIM)
_QUTRIT_UNITS = (DIM2 * DIM * _K + DIM * _L, DIM2 * _K + _L)


def _propagate(engine: LindbladEngine, circuit: Circuit, inputs: np.ndarray) -> np.ndarray:
    """Images of a (k, 9, 9) stack of pair operators after the circuit's moments."""
    x = inputs
    for duration, u in engine.moments(circuit):
        if duration > 0.0:
            x = (x.reshape(len(x), -1) @ engine.propagator(duration).T).reshape(x.shape)
        x = u @ x @ u.conj().T
    return x


def _qutrit_superop(images: np.ndarray, qutrit: int) -> np.ndarray:
    """9x9 superoperator from the pair images of the nine inputs of one qutrit.

    The other qutrit's output is traced out; column 3 k + l holds the image
    of |k><l|.
    """
    # axes: input, output ket (q1, q2), output bra (q1, q2)
    t = images.reshape(DIM2, DIM, DIM, DIM, DIM)
    traced = np.trace(t, axis1=2, axis2=4) if qutrit == 0 else np.trace(t, axis1=1, axis2=3)
    return traced.reshape(DIM2, DIM2).T


def circuit_channel(circuit: Circuit, noise: NoiseModel, step_scale: int = 1,
                    qutrit: int | None = None) -> QuantumChannel:
    """Channel of a compiled circuit under the noise model.

    The full-register channel, or with qutrit 0 or 1 the single-qutrit
    channel that qutrit sees while the other starts in |0> (the channel
    reduced_qutrit_channel takes from the full one).
    """
    engine = _engine(noise, step_scale)
    if qutrit is None:
        images = _propagate(engine, circuit, _PAIR_UNITS)
        return QuantumChannel(images.reshape(DIM2 * DIM2, DIM2 * DIM2).T, DIM2)
    if qutrit not in (0, 1):
        raise ChannelError(f"qutrit must be 0 or 1, got {qutrit}")
    inputs = _PAIR_UNITS[_QUTRIT_UNITS[qutrit]]
    return QuantumChannel(_qutrit_superop(_propagate(engine, circuit, inputs), qutrit), DIM)


def reduced_qutrit_channel(channel: QuantumChannel, qutrit: int) -> QuantumChannel:
    """Single-qutrit channel seen by one qutrit, the other starting in |0>."""
    if channel.dim != DIM2 or qutrit not in (0, 1):
        raise ChannelError("reduction expects a two-qutrit channel and qutrit 0 or 1")
    images = channel.superop[:, _QUTRIT_UNITS[qutrit]].T
    return QuantumChannel(_qutrit_superop(images, qutrit), DIM)


def chi_matrix(channel: QuantumChannel) -> ProcessMatrix:
    """Process matrix chi[(a d + k), (c d + l)] = <a| E(|k><l|) |c>.

    Rejects maps that are not trace preserving within 1e-6 or not
    completely positive within 1e-5.
    """
    tol = 1e-6
    defect = channel.trace_preservation_defect()
    if not defect <= tol:
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
