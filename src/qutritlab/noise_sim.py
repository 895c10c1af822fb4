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
`simulate_lindblad`, `evolve_idle` and the full-register `circuit_channel`
take their `LindbladEngine` from one cache slot keyed by (noise model,
step_scale), the only route to a pair engine; a run with a new noise
model replaces it. The engine holds the generator, one propagator per
distinct duration, one map per moment and, per tuple of circuits it has
walked, the map of each step of that walk; a moment's calibrated unitary
is formed only to build its map. The three memos are bounded and drop
their oldest entry first, so a sweep over many distinct angles does not
grow the engine without end. Cached arrays are read-only; reuse changes
no output byte, and an evicted entry is rebuilt to the same floats.

Both backends walk a tuple of circuits as the tree of their distinct
moment prefixes (`_shared_prefixes`): each prefix's state is formed once,
from its parent prefix's state by the map of its last moment, and each
circuit's final state is read off its slot. The steps come by prefix
length, so each level of the tree fills one run of slots. The tree is
found once per tuple of circuits, when the engine or the pure backend
(`_pure_plan`) first plans that tuple's walk. The two-round Grover
circuit begins with the one-round one and every DJ/BV circuit with the
same fan-out, so the runners' 25, 9 and 18 circuits hold 299, 98 and 648
moments but only 179, 58 and 371 distinct prefixes. A prefix's state is
the same floats whichever circuit reaches it, so each circuit's state is
the one a walk of it alone gives, byte for byte. `simulate_pure`,
`simulate_lindblad` and the full-register channel walk a tuple of one
circuit.

The pure backend walks the tree one level at a time. Level L holds the
prefixes of L + 1 moments; the plan slices each level's steps out of the
one list and keeps the place of each prefix's parent in the level before
(its slot less that level's first) and the prefixes' moment unitaries
stacked (k, 3**n, 3**n), so one matmul of the stack against the gathered
parent states fills the level: 13, 11 and 53 products for the runners'
tuples. A stacked product computes each slice as unitary @ vector does,
so no state moves a byte. The stacks are copies, 16 * 9**n bytes per
step: 232 KB for the DJ plan and 481 KB for the Grover one at n = 2, and
the memo keeps at most 64 plans.

The Lindblad walk (`_walk_prefixes`) applies one map per step. A step's
map is its moment's map on the vectorized density matrix,
kron(u, conj(u)) @ propagator, composed once per engine for each timed
moment; a zero-duration moment holds only virtual phases, and its map is
the diagonal d x conj(d) as an 81-vector applied elementwise. The full
channel is the walk of the 81x81 identity. The 43 DJ/BV/Grover circuits
hold 21 timed moments, so their maps take 2.2 MB next to 0.8 MB of
propagators. A map takes 105 KB, so copies of one plan's timed maps
stacked by level would take 3.1 MB (BV) to 31 MB (Grover). Applying each
distinct map of a level once, to all its parents' states, measured slower
on one OpenBLAS thread (a DJ walk 0.41 -> 0.43 ms, a Grover walk 0.99 ->
1.72 ms) and moves states in their last bits.

The single-qutrit channel that tomography reads, of a pair circuit that
acts on the measured qutrit alone, is exactly a one-qutrit problem: the
partner's collapse operators annihilate |0> and the coupling carries a
factor m*n, so the nine operators |k><l| (x) |0><0| map only among
themselves. `QutritEngine` forms that 9x9 generator (5 sector blocks of
at most 3) from the qutrit's own collapse operators, and the channel is
the product of 9x9 maps, kron(u, conj(u)) after each window's
propagator. Its engines come from a two-slot cache keyed by (coherence,
step_scale), one per qutrit, and the per-moment kron(u, conj(u)) from a
cache of its own, u read off the compiler's cached pair unitary of the
moment. Any other single-qutrit channel is reduced from the full one.

Coherence times are given in microseconds, coupling coefficients in kHz,
and circuit durations in nanoseconds.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .qutrit_core import (
    DIM,
    DensityMatrix,
    DimensionMismatchError,
    ProbDist,
    PureState,
    QutritLabError,
    StateValidationError,
    _coerce_state,
    _passed,
    check_density_rows,
    check_pure_rows,
    each_row,
    fail_first_row,
    traces,
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
            v = getattr(self, name)
            # float() would pass True as 1 us and "47.9" as 47.9 us
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not v > 0:
                raise StateValidationError(f"{name} must be a positive number, got {v!r}")
            object.__setattr__(self, name, float(v))


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
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise StateValidationError(f"{name} must be a finite number, got {v!r}")

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

def _sector_tables(n_qutrits: int):
    """The entries of an n-qutrit generator that lie inside a level-difference sector.

    The row-major index of |a><b| is D a + b, D = 3**n, with the digits of
    a and b the qutrit levels; its sector is the tuple of per-qutrit level
    differences. Returns the (row, col) of each in-sector entry and its
    place (sector, rank of the row among the sector's members, rank of the
    column) in the stacked sector blocks, whose members come in increasing
    index order: 361 entries in 25 blocks of at most 9 for the pair, 19 in 5
    blocks of at most 3 for one qutrit.
    """
    digits = np.indices((DIM,) * 2 * n_qutrits).reshape(2 * n_qutrits, -1)
    sector = np.ravel_multi_index(digits[:n_qutrits] - digits[n_qutrits:] + DIM - 1, (2 * DIM - 1,) * n_qutrits)
    same = sector[:, None] == sector[None, :]
    rank = np.count_nonzero(np.tril(same, -1), axis=1)  # earlier members of each index's sector
    entries = np.stack(np.nonzero(same))
    slots = np.stack((sector[entries[0]], rank[entries[0]], rank[entries[1]]))
    entries.flags.writeable = slots.flags.writeable = False
    return tuple(entries), tuple(slots)


# per register size (1, 2): the (row, col) of each in-sector generator entry,
# and its (sector, row, col) in the sector blocks
_SECTORS = {n: _sector_tables(n) for n in (1, 2)}


def _generator(n_qutrits: int, ops: list[np.ndarray], h: np.ndarray | None = None) -> np.ndarray:
    """Generator on the row-major vectorized density matrix of an n-qutrit register.

    Only the entries inside a level-difference sector are formed; the rest
    are zero. Entry (D a + b, D c + d) of a term x (x) y is x[a, c] * y[b, d].
    """
    entries = _SECTORS[n_qutrits][0]
    dim = DIM**n_qutrits
    (a, c), (b, d) = np.divmod(entries, dim)
    eye = np.eye(dim, dtype=complex)
    values = np.zeros(len(a), dtype=complex) if h is None else -1j * (h[a, c] * eye[b, d] - eye[a, c] * h.T[b, d])
    for op in ops:
        herm = op.conj().T @ op
        values += op[a, c] * op.conj()[b, d]
        values -= 0.5 * (herm[a, c] * eye[b, d] + eye[a, c] * herm.T[b, d])
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    gen[entries] = values
    return gen


def lindblad_generator(noise: NoiseModel) -> np.ndarray:
    """81x81 generator of the pair, formed inside its 25 level-difference sectors."""
    return _generator(2, build_collapse_ops(noise), idle_hamiltonian(noise))


def _whole_number(name: str, value, minimum: int, error: type[QutritLabError]) -> int:
    """`value` as an int; `error` for a bool, a non-integral or non-finite value, or one below `minimum`."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer())
    if isinstance(value, bool) or not whole or value < minimum:
        raise error(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


# Bounds of an engine's memos. No benchmark op or test puts more than 10
# propagators, 44 moment maps or 61 walked tuples through one engine;
# a propagator or a map holds about 105 KB.
_PROPAGATOR_MEMO = 32
_MAP_MEMO = 128
_PLAN_MEMO = 128


def _remember(memo: dict, bound: int, key, value):
    """memo[key] = value, the oldest entries dropped first so that at most `bound` remain; returns value."""
    while len(memo) >= bound:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


class LindbladEngine:
    """Caches the propagators and moment maps of a fixed noise model.

    `walk` takes a tuple of circuits through their shared moment prefixes,
    with the maps of the tuple's steps built once per tuple.
    """

    n_qutrits = 2  # the register the generator acts on

    def __init__(self, noise: NoiseModel, step_scale: int = 1):
        self._set_generator(lindblad_generator(noise), step_scale)
        self.noise = noise
        # map of one moment on the vectorized density matrix, shared by every circuit that holds the moment
        self._superops: dict[tuple, np.ndarray] = {}
        # per tuple of circuits walked together, its plan: the steps' parent slots and maps, the final slots
        self._plans: dict[tuple[Circuit, ...], tuple] = {}
        self._coupling_diag = np.real(np.diag(idle_hamiltonian(noise)))
        self._coupled = bool(np.any(self._coupling_diag))

    def _set_generator(self, generator: np.ndarray, step_scale) -> None:
        """Keep the generator, its stacked sector blocks and the step count factor."""
        self.step_scale = _whole_number("step_scale", step_scale, 1, SimulationError)
        self.generator = generator
        size = DIM**self.n_qutrits
        self._blocks = np.zeros(((2 * DIM - 1) ** self.n_qutrits, size, size), dtype=complex)
        entries, slots = _SECTORS[self.n_qutrits]
        self._blocks[slots] = generator[entries]
        self._cache: dict[float, np.ndarray] = {}

    def propagator(self, duration_ns: float) -> np.ndarray:
        key = round(float(duration_ns), 9)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n_steps = self.step_scale * max(16, int(math.ceil(duration_ns)))
        h = (duration_ns * 1e-3) / n_steps
        gen = self._blocks
        eye = np.eye(gen.shape[-1], dtype=complex)
        # fourth-order Taylor step, identical to classic RK4 for a
        # time-independent linear generator, on every sector block at once:
        step = eye + h * gen @ (eye + (h / 2.0) * gen @ (eye + (h / 3.0) * gen @ (eye + (h / 4.0) * gen)))
        entries, slots = _SECTORS[self.n_qutrits]
        prop = np.zeros_like(self.generator)
        prop[entries] = np.linalg.matrix_power(step, n_steps)[slots]
        prop.flags.writeable = False
        return _remember(self._cache, _PROPAGATOR_MEMO, key, prop)

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
            _remember(self._superops, _MAP_MEMO, moment, s)
        return s

    def walk(self, circuits: tuple[Circuit, ...], initial: np.ndarray) -> np.ndarray:
        """The image of the vectorized `initial` (an 81-vector or 81 columns) under each circuit, stacked.

        SimulationError, its row the first such circuit, when a circuit is
        not on two qutrits.
        """
        plan = self._plans.get(circuits)
        if plan is None:
            fail_first_row([c.n_qutrits != 2 for c in circuits], SimulationError,
                           lambda i: "the noise model is calibrated for a two-qutrit register")
            steps, _, finals = _shared_prefixes(circuits)
            plan = _remember(self._plans, _PLAN_MEMO, circuits, (
                tuple(parent for parent, _, _ in steps), tuple(self._superop(m, d) for _, m, d in steps), finals))
        return _walk_prefixes(plan, initial)


class QutritEngine(LindbladEngine):
    """Propagators and channels of one qutrit under its own relaxation and dephasing.

    Every collapse operator of the partner annihilates |0>, and the coupling
    polynomial carries a factor m*n, so the pair generator maps the nine
    operators |k><l| (x) |0><0| only among themselves. On them it is this
    engine's 9x9 generator, formed from the qutrit's collapse operators
    with no Hamiltonian, and the coupling phase that calibration undoes is
    1. The engine serves its own `channel` alone; its `walk` raises
    SimulationError.
    """

    n_qutrits = 1

    def __init__(self, coherence: QutritCoherence, step_scale: int = 1):
        self._set_generator(_generator(1, _single_qutrit_collapse_ops(coherence)), step_scale)
        self.coherence = coherence

    def channel(self, circuit: Circuit) -> np.ndarray:
        """9x9 superoperator of a pair circuit that acts on this qutrit alone, the partner in |0>.

        Per moment the propagator of its window, then kron(u, conj(u)).
        """
        s = np.eye(DIM2, dtype=complex)
        for moment, duration in zip(circuit.moments, circuit.durations):
            if duration > 0.0:
                s = self.propagator(duration) @ s
            s = _qutrit_moment_map(moment) @ s
        return s

    def walk(self, circuits, initial):
        raise SimulationError("the one-qutrit engine has no walk: it forms single-qutrit channels only")


def _shared_prefixes(circuits: tuple[Circuit, ...]) -> tuple[tuple, tuple, tuple]:
    """The circuits' distinct moment prefixes, as the steps of one walk, ordered by prefix length.

    Slot 0 holds the initial state and step k fills slot k + 1. Returns
    the steps (parent slot, moment, duration), one per distinct nonempty
    prefix, each extending its parent's prefix by one moment: first every
    prefix of one moment, in first-seen order, then every prefix of two,
    and so on; the number of steps of each length; and each circuit's
    final slot (0 for an empty circuit).
    """
    slots = [0] * len(circuits)
    steps, counts = [], []
    for length in range(max((len(c.moments) for c in circuits), default=0)):
        slot_of: dict[tuple, int] = {}
        for i, circuit in enumerate(circuits):
            if length < len(circuit.moments):
                key = (slots[i], circuit.moments[length])
                if key not in slot_of:
                    steps.append((*key, circuit.durations[length]))
                    slot_of[key] = len(steps)
                slots[i] = slot_of[key]
        counts.append(len(slot_of))
    return tuple(steps), tuple(counts), tuple(slots)


def _walk_prefixes(plan: tuple, initial: np.ndarray) -> np.ndarray:
    """The state after each circuit of a plan, from `initial`, stacked.

    One product per step: its map times its parent slot's state, or for
    a diagonal map (an 81-vector) its elementwise product with each of
    the state's columns. Every step's map is applied on every walk.
    """
    parents, maps, finals = plan
    rows = (slice(None),) + (None,) * (initial.ndim - 1)  # a diagonal map scales each column of the state
    states = [initial]
    for parent, m in zip(parents, maps):
        states.append(m @ states[parent] if m.ndim == 2 else m[rows] * states[parent])
    return np.array([states[slot] for slot in finals])


@functools.lru_cache(maxsize=256)
def _qutrit_moment_map(moment: tuple) -> np.ndarray:
    """kron(u, conj(u)), read-only, for the 3x3 unitary u of a pair moment on one qutrit.

    u is read off the compiler's cached pair unitary of the moment,
    kron(u, 1) for qutrit 0 and kron(1, u) for qutrit 1. Cached per moment,
    as it does not depend on the noise, and formed as a broadcast outer
    product, which costs a fraction of np.kron.
    """
    pair = moment_unitary(moment, 2)
    u = pair[::DIM, ::DIM] if any(instr.targets == (0,) for instr in moment) else pair[:DIM, :DIM]
    m = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(DIM2, DIM2)
    m.flags.writeable = False
    return m


# typed, as is the cache below: True and 1.0 equal 1 as keys, and the engine must see True to reject it
@functools.lru_cache(maxsize=1, typed=True)
def _engine(noise: NoiseModel, step_scale: int) -> LindbladEngine:
    """The shared engine of the last noise model asked for; one slot, as a run uses one noise model."""
    return LindbladEngine(noise, step_scale)


@functools.lru_cache(maxsize=2, typed=True)
def _qutrit_engine(coherence: QutritCoherence, step_scale: int) -> QutritEngine:
    """The one-qutrit engines of the last two coherences asked for: tomography alternates the qutrits."""
    return QutritEngine(coherence, step_scale)


def _initial_rho(initial) -> np.ndarray:
    if initial is None:
        rho = np.zeros((DIM2, DIM2), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    state = _coerce_state(initial)
    if state.dim != DIM2:
        raise StateValidationError("initial state size does not match the register")
    return state.density().matrix if isinstance(state, PureState) else state.matrix.copy()


def _checked_states(walked: np.ndarray) -> np.ndarray:
    """The Hermitian parts of an (n, 9, 9) stack of walked states over their traces, each row checked.

    SimulationError for the first row that drifted off trace one by more
    than 1e-6, then for the first that fails a DensityMatrix check.
    """
    rho = (walked + walked.conj().transpose(0, 2, 1)) / 2.0
    trace = traces(rho).real
    drift = np.abs(trace - 1.0)
    fail_first_row(drift > 1e-6, SimulationError, lambda i: f"trace drifted by {drift[i]:.3g}")
    rho = rho / trace[:, None, None]
    try:
        check_density_rows(rho)
    except StateValidationError as exc:
        error = SimulationError(str(exc))
        error.row = exc.row
        raise error from exc
    return rho


def simulate_lindblad(circuit: Circuit, noise: NoiseModel, initial=None, step_scale: int = 1) -> DensityMatrix:
    """Evolve through a compiled circuit under the noise model.

    Returns the final density matrix. Raises SimulationError when the
    integration drifts off trace one by more than 1e-6 or produces an
    eigenvalue below -1e-6.
    """
    walked = _engine(noise, step_scale).walk((circuit,), _initial_rho(initial).reshape(-1))
    rho = _checked_states(walked.reshape(1, DIM2, DIM2))[0]
    return _passed(DensityMatrix, matrix=rho)


def final_states(circuits, noise: NoiseModel, step_scale: int = 1) -> np.ndarray:
    """The final density matrices of circuits run from |00>, stacked (len(circuits), 9, 9).

    The circuits are walked together, each shared moment prefix once; the
    states are then checked as simulate_lindblad checks one, the first
    failing circuit raising with its index as the error's row.
    """
    walked = _engine(noise, step_scale).walk(tuple(circuits), _initial_rho(None).reshape(-1))
    return _checked_states(walked.reshape(-1, DIM2, DIM2))


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

@functools.lru_cache(maxsize=64)
def _pure_plan(circuits: tuple[Circuit, ...]) -> tuple:
    """The circuits' walk one prefix-tree level at a time; DimensionMismatchError unless they share a register.

    Level L holds the prefixes of L + 1 moments, in first-seen order, and
    fills one contiguous run of slots. Returns, per level, the place of
    each prefix's parent in the level before (the initial state alone
    before level 0) and the stacked (k, 3**n, 3**n) moment unitaries,
    read-only; and each circuit's final slot among the states of all
    levels laid end to end after the initial.
    """
    n_qutrits = circuits[0].n_qutrits
    fail_first_row([c.n_qutrits != n_qutrits for c in circuits], DimensionMismatchError,
                   lambda i: f"circuit {i} acts on a {circuits[i].n_qutrits}-qutrit register, "
                             f"circuit 0 on a {n_qutrits}-qutrit one")
    steps, counts, finals = _shared_prefixes(circuits)
    levels, first, previous = [], 0, 0  # the level's first step; the first slot of the level before
    for count in counts:
        level = steps[first:first + count]
        unitaries = np.array([moment_unitary(moment, n_qutrits) for _, moment, _ in level])
        unitaries.flags.writeable = False
        levels.append((np.array([parent for parent, _, _ in level]) - previous, unitaries))
        previous, first = first + 1, first + count
    return tuple(levels), list(finals)


def pure_states(circuits, initial: PureState | None = None) -> np.ndarray:
    """The state vectors after noiseless runs of circuits on one register, stacked (len(circuits), 3**n).

    The circuits are walked together from |0...0> or the given state, each
    shared moment prefix once, with one stacked product per prefix length;
    the states are then checked as PureState checks one, the first failing
    circuit raising with its index as the error's row.
    """
    circuits = tuple(circuits)
    levels, finals = _pure_plan(circuits)
    dim = DIM ** circuits[0].n_qutrits
    if initial is None:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    else:
        if initial.dim != dim:
            raise StateValidationError("initial state size does not match the circuit")
        amps = initial.amplitudes
    states = [amps[None]]
    for parents, unitaries in levels:
        # one stacked product per level: each slice is computed as unitary @ vector is
        states.append((unitaries @ states[-1][parents][:, :, None])[:, :, 0])
    states = np.concatenate(states)[finals]
    check_pure_rows(states)
    return states


def simulate_pure(circuit: Circuit, initial: PureState | None = None) -> PureState:
    """Noiseless evolution of a circuit on a state vector: the walk of the one circuit."""
    return _passed(PureState, amplitudes=pure_states((circuit,), initial)[0])


def measure_probs(state) -> ProbDist:
    """Computational-basis outcome distribution of a state."""
    state = _coerce_state(state)
    return state.probabilities() if isinstance(state, PureState) else state.diagonal_probs()


def _seed(seed) -> int:
    if seed is None:
        raise StateValidationError("sampling requires an explicit seed")
    return _whole_number("seed", seed, 0, StateValidationError)


def sample_rows(probs: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Multinomial counts of each row of an (n, d) stack of distributions, row i drawn with seeds[i].

    Each row is checked as sample_counts checks one; the first failing
    row raises.
    """
    shots = _whole_number("shots", shots, 0, StateValidationError)
    seeds = each_row(_seed, seeds)
    with np.errstate(invalid="ignore"):  # a row holding both infinities sums to nan
        total = probs.sum(axis=1)
    # the sum of a nan or inf entry fails too:
    fail_first_row((probs.min(axis=1) < -1e-9) | ~(np.abs(total - 1.0) <= 1e-6),
                   StateValidationError, lambda i: "not a probability distribution")
    p = np.clip(probs, 0.0, None)
    p = p / p.sum(axis=1)[:, None]
    return np.array([np.random.default_rng(seed).multinomial(shots, row) for seed, row in zip(seeds, p)])


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts from a distribution; the seed fixes the draw."""
    p = probs.probs if isinstance(probs, ProbDist) else np.asarray(probs, dtype=float)
    return sample_rows(p[None], shots, [seed])[0]


# ---------------------------------------------------------------------------
# Quantum channels and process matrices

@dataclass(frozen=True)
class ProcessMatrix:
    """Process (chi) matrix in the matrix-unit operator basis, stored read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ChannelError("process matrix must be square")
        _check_hermitian(m)
        hermitian = (m + m.conj().T) / 2.0
        hermitian.flags.writeable = False
        object.__setattr__(self, "matrix", hermitian)

    @property
    def dim(self) -> int:
        return int(round(math.sqrt(self.matrix.shape[0])))

    def normalized(self) -> np.ndarray:
        """The matrix over its real trace, read-only; formed on the first call, as the matrix cannot change."""
        return self._normalized

    @functools.cached_property
    def _normalized(self) -> np.ndarray:
        unit = self.matrix / np.real(np.trace(self.matrix))
        unit.flags.writeable = False
        return unit


def _check_hermitian(m: np.ndarray) -> None:
    if not np.max(np.abs(m - m.conj().T)) <= 1e-7:
        raise ChannelError("process matrix must be Hermitian")


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


# per qutrit, the index of the pair unit that is |k><l| on that qutrit and
# |0><0| on the other, for k l = 00, 01, ..., 22
_K, _L = np.divmod(np.arange(DIM2), DIM)
_QUTRIT_UNITS = (DIM2 * DIM * _K + DIM * _L, DIM2 * _K + _L)


def circuit_channel(circuit: Circuit, noise: NoiseModel, step_scale: int = 1,
                    qutrit: int | None = None) -> QuantumChannel:
    """Channel of a compiled circuit under the noise model.

    The full-register channel, or with qutrit 0 or 1 the single-qutrit
    channel that qutrit sees while the other starts in |0> (the channel
    reduced_qutrit_channel takes from the full one). For a two-qutrit
    circuit whose every instruction targets that qutrit alone, as in
    single-qutrit tomography, it is formed on the qutrit's own 9x9
    generator (QutritEngine), so the other qutrit's coherence and the
    coupling do not enter; any other circuit's is reduced from the full
    channel. The full channel is the product of the moment maps of the
    pair engine that `simulate_lindblad` uses, so forming it leaves the
    circuit's maps in that engine's cache, and a later run reuses them.
    """
    if qutrit is not None:
        if qutrit not in (0, 1):
            raise ChannelError(f"qutrit must be 0 or 1, got {qutrit}")
        if circuit.n_qutrits == 2 and all(i.targets == (qutrit,) for i in circuit.instructions()):
            engine = _qutrit_engine(noise.q2 if qutrit else noise.q1, step_scale)
            return QuantumChannel(engine.channel(circuit), DIM)
        return reduced_qutrit_channel(circuit_channel(circuit, noise, step_scale), qutrit)
    engine = _engine(noise, step_scale)
    return QuantumChannel(engine.walk((circuit,), np.eye(DIM2 * DIM2, dtype=complex))[0], DIM2)


def reduced_qutrit_channel(channel: QuantumChannel, qutrit: int) -> QuantumChannel:
    """Single-qutrit channel seen by one qutrit, the other starting in |0>.

    Column 3 k + l holds the image of |k><l| with the other qutrit traced out.
    """
    if channel.dim != DIM2 or qutrit not in (0, 1):
        raise ChannelError("reduction expects a two-qutrit channel and qutrit 0 or 1")
    # axes: input, output ket (q1, q2), output bra (q1, q2)
    t = channel.superop[:, _QUTRIT_UNITS[qutrit]].T.reshape(DIM2, DIM, DIM, DIM, DIM)
    traced = np.trace(t, axis1=2, axis2=4) if qutrit == 0 else np.trace(t, axis1=1, axis2=3)
    return QuantumChannel(traced.reshape(DIM2, DIM2).T, DIM)


def chi_matrix(channel: QuantumChannel) -> ProcessMatrix:
    """Process matrix chi[(a d + k), (c d + l)] = <a| E(|k><l|) |c>.

    Rejects maps that are not trace preserving within 1e-6 or not
    completely positive within 1e-5. The positivity check reads chi itself:
    chi is the Choi matrix with its two tensor factors swapped, a
    permutation similarity, so the two share one spectrum.
    """
    tol = 1e-6
    defect = channel.trace_preservation_defect()
    if not defect <= tol:
        raise ChannelError(f"map is not trace preserving (defect {defect:.3g})")
    d = channel.dim
    chi = channel.superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    hermitian = (chi + chi.conj().T) / 2.0
    chi_min = float(np.min(np.linalg.eigvalsh(hermitian)))
    if chi_min < -10.0 * tol:
        raise ChannelError(f"map is not completely positive (eigenvalue {chi_min:.3g})")
    # ProcessMatrix's own check, with the Hermitian part it would store formed once
    _check_hermitian(chi)
    hermitian.flags.writeable = False
    return _passed(ProcessMatrix, matrix=hermitian)


def chi_of_unitary(u: np.ndarray) -> ProcessMatrix:
    return chi_matrix(QuantumChannel.from_unitary(u))


def process_fidelity(chi_a: ProcessMatrix, chi_b: ProcessMatrix) -> float:
    """Overlap of two unit-trace-normalized process matrices.

    For two unitaries this equals |Tr(U^dag V)|**2 / d**2. The trace is
    read off the full product: summing a * b.T instead moves 7 of the 21
    tomography fidelities in the last digit.
    """
    if chi_a.matrix.shape != chi_b.matrix.shape:
        raise ChannelError("process matrices have different shapes")
    return float(np.real(np.trace(chi_a.normalized() @ chi_b.normalized())))
