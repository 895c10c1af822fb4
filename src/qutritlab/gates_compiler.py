"""Native gate set, logical-gate decompositions and phase-frame compilation.

The hardware executes four instruction kinds: R01 and R12 rotation pulses,
virtual phase advances (VPhase, zero duration) and two calibrated
conditional-phase natives acting on the |21> and |22> levels of the pair.
Logical single-qutrit gates and arbitrary two-qutrit conditional phases are
compiled onto that set.

Circuits are sequences of moments. Instructions inside one moment act on
disjoint qutrits and run simultaneously; the moment lasts as long as its
slowest instruction.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .qutrit_core import DIM, BasisLabel, QutritLabError

OMEGA = np.exp(2j * np.pi / 3)
BETA = 2.0 * math.atan(math.sqrt(2.0))

SIGMA_NS = 2.5
MIN_PULSE_NS = 4.0 * SIGMA_NS

# Calibrated pulse lengths in ns, (half-turn, full-turn) per qutrit and transition:
_PULSE_ANCHORS_NS = {
    (0, "01"): (49.50, 94.98),
    (0, "12"): (41.27, 78.52),
    (1, "01"): (49.71, 95.41),
    (1, "12"): (44.15, 84.28),
}
CPHASE21_NS = 55.9
CPHASE22_NS = 94.0

# rotation kind -> lower level of the level pair it drives; the kind is "R" + the pair
_ROTATION_LOWER = {"R01": 0, "R12": 1}
KINDS = (*_ROTATION_LOWER, "VPhase", "CPhaseNative21", "CPhaseNative22")
LOGICAL_GATE_NAMES = ("I", "X", "Xsq", "Z", "Zsq", "H", "Hdag")


class CompileError(QutritLabError, ValueError):
    """A circuit or instruction violates the compilation contracts."""


class PulseShapeError(QutritLabError, ValueError):
    """Envelope parameters leave no room for the rise and fall edges."""


class CalibrationFitError(QutritLabError, RuntimeError):
    """Phase-calibration data has no usable oscillation to fit."""


def rotation_duration(qutrit: int, transition: str, theta: float) -> float:
    """Pulse length of a rotation, linear in the angle through the
    calibrated half-turn and full-turn lengths, floored at 4 sigma."""
    try:
        d_half, d_pi = _PULSE_ANCHORS_NS[(qutrit, transition)]
    except KeyError:
        raise CompileError(f"no calibrated durations for qutrit {qutrit} transition {transition}")
    slope = (d_pi - d_half) / (math.pi / 2.0)
    d = d_half + (abs(theta) - math.pi / 2.0) * slope
    return max(d, MIN_PULSE_NS)


def _calibrated_duration(kind: str, targets: tuple[int, ...], params: tuple[float, ...]) -> float:
    if kind == "VPhase":
        return 0.0
    if kind in _ROTATION_LOWER:
        return rotation_duration(targets[0], kind[1:], params[1])
    return CPHASE21_NS if kind == "CPhaseNative21" else CPHASE22_NS


@dataclass(frozen=True)
class GateInstruction:
    """One native instruction: kind, target qutrits, parameters, length in ns."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...]
    # the calibrated pulse length, fixed by kind, targets and params
    duration: float = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CompileError(f"unknown instruction kind {self.kind!r}")
        targets = tuple(int(q) for q in self.targets)
        params = tuple(float(p) for p in self.params)
        if any(q < 0 for q in targets) or len(set(targets)) != len(targets):
            raise CompileError(f"bad targets {targets}")
        # a nan or infinite angle would give a nan or infinite pulse length or unitary
        if not all(math.isfinite(p) for p in params):
            raise CompileError(f"{self.kind} params must be finite, got {params}")
        if self.kind in _ROTATION_LOWER or self.kind == "VPhase":
            if len(targets) != 1 or len(params) != 2:
                raise CompileError(f"{self.kind} takes one target and two params")
        else:
            if targets != (0, 1) or len(params) != 1:
                raise CompileError(f"{self.kind} is calibrated on the pair (0, 1) and takes one param")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "duration", _calibrated_duration(self.kind, targets, params))
        # the dataclass hash, computed once: moment and circuit lookups hash every instruction
        object.__setattr__(self, "_hash", hash((self.kind, targets, params, self.duration)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: an unpickled instruction computes its own
        return GateInstruction, (self.kind, self.targets, self.params)

    def _text(self) -> str:
        t = ",".join(str(q) for q in self.targets)
        p = ",".join(repr(x) for x in self.params)
        return f"{self.kind}({t}; {p}; {self.duration!r})"


def pulse_r01(qutrit: int, phi: float, theta: float) -> GateInstruction:
    return GateInstruction("R01", (qutrit,), (phi, theta))


def pulse_r12(qutrit: int, phi: float, theta: float) -> GateInstruction:
    return GateInstruction("R12", (qutrit,), (phi, theta))


def pulse_vphase(qutrit: int, x: float, y: float) -> GateInstruction:
    return GateInstruction("VPhase", (qutrit,), (x, y))


def native_cphase(anchor: str, theta: float) -> GateInstruction:
    if anchor not in ("21", "22"):
        raise CompileError(f"no native conditional phase on |{anchor}>")
    return GateInstruction(f"CPhaseNative{anchor}", (0, 1), (theta,))


_INSTR_RE = re.compile(r"^(\w+)\(([^;]*);([^;]*);([^)]*)\)$")


@dataclass(frozen=True)
class Circuit:
    """Immutable moment-ordered circuit on a fixed-size register."""

    n_qutrits: int
    moments: tuple[tuple[GateInstruction, ...], ...]
    # each moment's length in ns; derived, so outside equality, hashing and the text form
    durations: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_qutrits < 1:
            raise CompileError("a circuit needs at least one qutrit")
        moments = tuple(tuple(m) for m in self.moments)
        durations = []
        for moment in moments:
            used = []
            for instr in moment:
                if not isinstance(instr, GateInstruction):
                    raise CompileError("moments may only contain GateInstruction values")
                if any(q >= self.n_qutrits for q in instr.targets):
                    raise CompileError(f"target out of range in {instr}")
                used.extend(instr.targets)
            if len(set(used)) != len(used):
                raise CompileError("instructions within a moment must act on disjoint qutrits")
            durations.append(max((i.duration for i in moment), default=0.0))
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "durations", tuple(durations))
        # the dataclass hash of (n_qutrits, moments), computed once for the engine's per-circuit memo
        object.__setattr__(self, "_hash", hash((self.n_qutrits, moments)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: an unpickled circuit computes its own
        return Circuit, (self.n_qutrits, self.moments)

    @property
    def total_duration(self) -> float:
        return float(sum(self.durations))

    def instructions(self):
        for moment in self.moments:
            yield from moment

    def pulse_count(self) -> int:
        return sum(1 for i in self.instructions() if i.kind in _ROTATION_LOWER)

    def pi_pulse_count(self) -> int:
        """Rotations by pi (within 1e-12) on either level pair."""
        return sum(1 for i in self.instructions() if i.kind in _ROTATION_LOWER and abs(i.params[1] - math.pi) < 1e-12)

    def native_two_qutrit_count(self) -> int:
        return sum(1 for i in self.instructions() if i.kind.startswith("CPhaseNative"))

    def then(self, other: "Circuit") -> "Circuit":
        if other.n_qutrits != self.n_qutrits:
            raise CompileError("cannot concatenate circuits of different width")
        return Circuit(self.n_qutrits, self.moments + other.moments)

    def to_text(self) -> str:
        lines = [f"qutrits: {self.n_qutrits}"]
        for moment in self.moments:
            lines.append(" | ".join(i._text() for i in moment))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("qutrits:"):
            raise CompileError("circuit text must start with a 'qutrits: <n>' line")
        try:
            n = int(lines[0].split(":", 1)[1])
        except ValueError:
            raise CompileError(f"bad register size line {lines[0]!r}")
        moments = []
        for line in lines[1:]:
            moment = []
            for part in line.split(" | "):
                m = _INSTR_RE.match(part.strip())
                if m is None:
                    raise CompileError(f"cannot parse instruction {part!r}")
                kind, t, p, d = m.groups()
                try:
                    targets = tuple(int(x) for x in t.split(",") if x.strip())
                    params = tuple(float(x) for x in p.split(",") if x.strip())
                    duration = float(d)
                except ValueError:
                    raise CompileError(f"bad number in circuit line {line!r}") from None
                instr = GateInstruction(kind, targets, params)
                # the text carries a duration the instruction already implies; a nan fails the test
                if not abs(duration - instr.duration) <= 1e-6:
                    raise CompileError(
                        f"duration {duration} disagrees with the calibrated value {instr.duration} for {kind}"
                    )
                moment.append(instr)
            moments.append(tuple(moment))
        return cls(n, tuple(moments))


def moments_of(instructions) -> tuple[tuple[GateInstruction, ...], ...]:
    """One instruction per moment, in order."""
    return tuple((i,) for i in instructions)


def merge_streams(n_qutrits: int, streams: dict[int, tuple[GateInstruction, ...]]) -> Circuit:
    """Zip per-qutrit instruction streams into simultaneous moments.

    Moment k holds the k-th instruction of every stream that still has one,
    so equal-length streams stay aligned step by step.
    """
    depth = max((len(s) for s in streams.values()), default=0)
    moments = []
    for k in range(depth):
        moment = tuple(s[k] for q, s in sorted(streams.items()) if k < len(s))
        if moment:
            moments.append(moment)
    return Circuit(n_qutrits, tuple(moments))


# ---------------------------------------------------------------------------
# Matrices

def _rotation_matrix(lower: int, phi: float, theta: float) -> np.ndarray:
    """Rotation by theta at drive phase phi on the levels (lower, lower + 1)."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    u = np.eye(DIM, dtype=complex)
    u[lower : lower + 2, lower : lower + 2] = [[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]]
    return u


r01_matrix = functools.partial(_rotation_matrix, 0)
r12_matrix = functools.partial(_rotation_matrix, 1)


def vphase_matrix(x: float, y: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * x), np.exp(1j * (x + y))]).astype(complex)


def logical_gate(name: str) -> np.ndarray:
    """Ideal 3x3 unitary of a logical single-qutrit gate."""
    if name == "I":
        return np.eye(3, dtype=complex)
    if name == "H":
        w = OMEGA
        return np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]], dtype=complex) / math.sqrt(3)
    if name == "Hdag":
        return logical_gate("H").conj().T
    if name == "X":
        return np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    if name == "Xsq":
        x = logical_gate("X")
        return x @ x
    if name == "Z":
        return np.diag([1.0, OMEGA, OMEGA**2]).astype(complex)
    if name == "Zsq":
        z = logical_gate("Z")
        return z @ z
    raise CompileError(f"unknown logical gate {name!r}")


def cphase_matrix(theta: float, target) -> np.ndarray:
    """Two-qutrit conditional phase: e**(i theta) on one basis state."""
    label = target if isinstance(target, BasisLabel) else BasisLabel.parse(str(target))
    if label.n_qutrits != 2:
        raise CompileError("conditional phase targets a two-qutrit basis state")
    u = np.eye(DIM**2, dtype=complex)
    u[label.index, label.index] = np.exp(1j * theta)
    return u


def instruction_matrix(instr: GateInstruction) -> np.ndarray:
    """Unitary of one instruction on its own targets (3x3 or 9x9)."""
    if instr.kind in _ROTATION_LOWER:
        return _rotation_matrix(_ROTATION_LOWER[instr.kind], *instr.params)
    if instr.kind == "VPhase":
        return vphase_matrix(*instr.params)
    if instr.kind == "CPhaseNative21":
        return cphase_matrix(instr.params[0], "21")
    return cphase_matrix(instr.params[0], "22")


def embed_operator(u: np.ndarray, targets: tuple[int, ...], n_qutrits: int) -> np.ndarray:
    """Lift an operator on `targets` to the full register."""
    u = np.asarray(u, dtype=complex)
    k = len(targets)
    if u.shape != (DIM**k, DIM**k):
        raise CompileError(f"operator shape {u.shape} does not match {k} qutrits")
    if len(set(targets)) != k or any(not 0 <= q < n_qutrits for q in targets):
        raise CompileError(f"bad embedding targets {targets}")
    if k == n_qutrits and targets == tuple(range(n_qutrits)):
        return u
    rest = [q for q in range(n_qutrits) if q not in targets]
    order = list(targets) + rest
    full = np.kron(u, np.eye(DIM ** len(rest), dtype=complex))
    # the kron's ket and bra axes run over `order`; send both back to register order:
    axes = np.argsort(order)
    dim = DIM**n_qutrits
    full = full.reshape((DIM,) * (2 * n_qutrits))
    return full.transpose(np.concatenate([axes, axes + n_qutrits])).reshape(dim, dim)


# Circuits reuse a few dozen distinct moments (69 over all benchmark workloads,
# 84-98% of the moments in one algorithm run are repeats); a full cache of
# two-qutrit moments holds about 0.3 MB.
_MOMENT_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_MOMENT_CACHE_SIZE)
def _moment_unitary(moment: tuple, n_qutrits: int) -> np.ndarray:
    u = np.eye(DIM**n_qutrits, dtype=complex)
    for instr in moment:
        u = embed_operator(instruction_matrix(instr), instr.targets, n_qutrits) @ u
    u.flags.writeable = False
    return u


def moment_unitary(moment, n_qutrits: int) -> np.ndarray:
    """Unitary of one moment on the full register.

    Results are memoized per (moment, register size) and returned
    read-only; copy one before changing it in place.
    """
    return _moment_unitary(tuple(moment), n_qutrits)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of moment unitaries, first moment applied first."""
    u = np.eye(DIM**circuit.n_qutrits, dtype=complex)
    for moment in circuit.moments:
        u = moment_unitary(moment, circuit.n_qutrits) @ u
    return u


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        return False
    i = int(np.argmax(np.abs(v)))
    pivot = v.flat[i]
    if abs(pivot) < tol:
        return bool(np.max(np.abs(u)) <= tol and np.max(np.abs(v)) <= tol)
    lam = u.flat[i] / pivot
    if abs(abs(lam) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(u - lam * v)) <= tol)


# ---------------------------------------------------------------------------
# Logical-gate decompositions (time-ordered native sequences, exact)

def decompose_single(name: str, qutrit: int = 0) -> tuple[GateInstruction, ...]:
    """Native sequence for a logical gate on one qutrit, first pulse first.

    Every sequence reproduces the logical matrix exactly, including global
    phase.
    """
    q = qutrit
    if name == "I":
        return ()
    if name == "H":
        return (
            pulse_vphase(q, 0.0, math.pi),
            pulse_r12(q, 0.0, math.pi / 2.0),
            pulse_vphase(q, math.pi, math.pi / 2.0),
            pulse_r01(q, 0.0, BETA),
            pulse_r12(q, 0.0, math.pi / 2.0),
        )
    if name == "Hdag":
        return (
            pulse_r12(q, math.pi, math.pi / 2.0),
            pulse_r01(q, math.pi, BETA),
            pulse_vphase(q, -math.pi, -math.pi / 2.0),
            pulse_r12(q, math.pi, math.pi / 2.0),
            pulse_vphase(q, 0.0, -math.pi),
        )
    if name == "X":
        return (pulse_r12(q, 0.0, math.pi), pulse_r01(q, 0.0, math.pi))
    if name == "Xsq":
        return (
            pulse_vphase(q, -math.pi, 0.0),
            pulse_r01(q, 0.0, math.pi),
            pulse_r12(q, 0.0, math.pi),
        )
    if name == "Z":
        return (pulse_vphase(q, 2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0),)
    if name == "Zsq":
        return (pulse_vphase(q, 4.0 * math.pi / 3.0, 4.0 * math.pi / 3.0),)
    raise CompileError(f"unknown logical gate {name!r}")


def single_qutrit_circuit(name: str, qutrit: int, n_qutrits: int) -> Circuit:
    return Circuit(n_qutrits, moments_of(decompose_single(name, qutrit)))


# ---------------------------------------------------------------------------
# Conditional-phase compilation

# Forward ladder of full-turn pulses carrying each basis state onto its anchor.
# Ties between equally long routes resolve toward the |22> native.
_CPHASE_ROUTES = {
    (0, 0): ("21", (("R01", 0), ("R12", 0), ("R01", 1))),
    (0, 1): ("21", (("R01", 0), ("R12", 0))),
    (0, 2): ("22", (("R01", 0), ("R12", 0))),
    (1, 0): ("21", (("R12", 0), ("R01", 1))),
    (1, 1): ("21", (("R12", 0),)),
    (1, 2): ("22", (("R12", 0),)),
    (2, 0): ("21", (("R01", 1),)),
    (2, 1): ("21", ()),
    (2, 2): ("22", ()),
}


def compile_cphase(theta: float, target) -> Circuit:
    """Compile a conditional phase on any |mn> onto the two native anchors.

    The target state is walked up the level ladder with full-turn pulses,
    the native conditional phase fires on the anchor, and the same pulses
    run in reverse (phase advanced by pi) to undo the permutation. The
    result equals cphase_matrix(theta, target) exactly.
    """
    label = target if isinstance(target, BasisLabel) else BasisLabel.parse(str(target))
    if label.n_qutrits != 2:
        raise CompileError("conditional phase compilation targets a two-qutrit state")
    anchor, forward = _CPHASE_ROUTES[tuple(label.digits)]
    up = [(GateInstruction(kind, (q,), (0.0, math.pi)),) for kind, q in forward]
    down = [(GateInstruction(kind, (q,), (math.pi, math.pi)),) for kind, q in reversed(forward)]
    return Circuit(2, (*up, (native_cphase(anchor, theta),), *down))


def native_cphase_pulse_model(theta: float) -> float:
    """Drive-phase setting that realizes a conditional phase of theta.

    A full pi conditional phase needs no adjustment and the required
    setting grows linearly as theta backs away from pi.
    """
    return math.pi - theta


# ---------------------------------------------------------------------------
# Phase frames

def lower_frames(circuit: Circuit) -> Circuit:
    """Rewrite a circuit so no VPhase instruction is physically executed.

    Virtual phases are folded into the drive phases of later pulses
    (a pulse on transition t sees its phase reduced by the accumulated
    advance on t) and the leftover frame is emitted as one final moment
    of VPhase instructions. The lowered circuit equals the original
    exactly.
    """
    # accumulated virtual phase advances per qutrit, one pair (01, 12) each
    frame = np.zeros((circuit.n_qutrits, 2))
    moments = []
    for moment in circuit.moments:
        kept = []
        for instr in moment:
            if instr.kind == "VPhase":
                frame[instr.targets[0]] += instr.params
            elif instr.kind in _ROTATION_LOWER:
                advance = frame[instr.targets[0], _ROTATION_LOWER[instr.kind]]
                kept.append(GateInstruction(instr.kind, instr.targets, (instr.params[0] - advance, instr.params[1])))
            else:
                # the natives are diagonal and commute with every frame:
                kept.append(instr)
        if kept:
            moments.append(tuple(kept))
    residual = []
    for q in range(circuit.n_qutrits):
        x, y = frame[q]
        if x != 0.0 or y != 0.0:
            residual.append(pulse_vphase(q, x, y))
    if residual:
        moments.append(tuple(residual))
    return Circuit(circuit.n_qutrits, tuple(moments))


def frame_equivalence_check(circuit: Circuit) -> bool:
    """True when frame lowering reproduces the explicit-VPhase unitary (within 1e-10)."""
    u_explicit = circuit_unitary(circuit)
    u_lowered = circuit_unitary(lower_frames(circuit))
    return equal_up_to_global_phase(u_explicit, u_lowered)


# ---------------------------------------------------------------------------
# Frame-phase calibration

def _wrap_angle(x: float) -> float:
    w = (x + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w <= -math.pi + 1e-15 else w


def _fit_offset_phase(thetas: np.ndarray, signal: np.ndarray) -> float:
    # least squares on c + a cos(theta) + b sin(theta); the signal model is
    # offset + amplitude * cos(beta + theta), so beta = atan2(a, b) - pi/2:
    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    (c, a, b), *_ = np.linalg.lstsq(design, signal, rcond=None)
    amplitude = math.hypot(a, b)
    if amplitude < 0.05:
        raise CalibrationFitError(f"oscillation amplitude {amplitude:.4f} too small to fit")
    return _wrap_angle(math.atan2(a, b) - math.pi / 2.0)


def calibrate_frame_phases(channel, n_points: int = 12):
    """Measure the four frame phases a two-qutrit process imparts.

    `channel` maps a 9-component state vector to the output state vector.
    For each qutrit and transition a Ramsey-style experiment runs: prepare
    a superposition on the transition (on both qutrits), pass it through
    the channel, advance the frame by a swept angle on the probed qutrit,
    close with the inverse half-turn pulse and read the return probability.
    The prepared state depends on neither the angle nor the probed qutrit,
    so the channel is called once per transition, and both qutrits' signals
    over all angles are read off its output by one stacked product. The
    phase of the fitted oscillation is the calibration value.

    Returns ((beta01_q1, beta12_q1), (beta01_q2, beta12_q2)).
    """
    if n_points < 5:
        raise CalibrationFitError("need at least 5 sample angles")
    thetas = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    ones, frames = np.ones(n_points), np.exp(1j * thetas)
    transitions = (  # preparation, closing pulse, frame advance of levels 0, 1, 2 per angle, level read
        (r01_matrix(0.0, math.pi / 2.0), r01_matrix(math.pi, math.pi / 2.0), (ones, frames, frames), 0),
        (r12_matrix(0.0, math.pi / 2.0) @ r01_matrix(0.0, math.pi), r12_matrix(math.pi, math.pi / 2.0),
         (ones, ones, frames), 1),
    )
    signals = []
    for prep, close, advance, level in transitions:
        psi = np.asarray(channel(np.kron(prep[:, 0], prep[:, 0])), dtype=complex).reshape(-1)
        if psi.shape != (DIM**2,):
            raise CalibrationFitError("channel must return a 9-component state vector")
        if not np.isfinite(psi).all():
            raise CalibrationFitError("channel returned a state with a nan or infinite entry")
        norm = np.linalg.norm(psi)
        if norm < 1e-9:
            raise CalibrationFitError("channel returned a null state")
        pair = (psi / norm).reshape(DIM, DIM)
        probe = close[level] * np.column_stack(advance)  # per angle, the read level's row of close @ advance
        # per probed qutrit and angle, the amplitudes of the read level over the partner's levels
        signals.append(np.sum(np.abs(probe @ np.stack((pair, pair.T))) ** 2, axis=-1))
    return tuple(tuple(_fit_offset_phase(thetas, sig[q]) for sig in signals) for q in (0, 1))


# ---------------------------------------------------------------------------
# Pulse envelope

def pulse_envelope(t, t0: float, t1: float, sigma: float = SIGMA_NS, amplitude: float = 1.0):
    """Flat-top envelope with Gaussian rise and fall edges of width 2 sigma.

    Accepts a scalar or an array of times. Raises when the window is
    shorter than the 4 sigma needed by the two edges.
    """
    if sigma <= 0:
        raise PulseShapeError("sigma must be positive")
    if t1 - t0 < 4.0 * sigma:
        raise PulseShapeError(f"window {t1 - t0} ns is shorter than 4 sigma = {4 * sigma} ns")
    t_arr = np.asarray(t, dtype=float)
    rise = amplitude * np.exp(-((t_arr - t0 - 2.0 * sigma) ** 2) / (2.0 * sigma**2))
    fall = amplitude * np.exp(-((t_arr - t1 + 2.0 * sigma) ** 2) / (2.0 * sigma**2))
    out = np.where(
        (t_arr >= t0) & (t_arr < t0 + 2.0 * sigma),
        rise,
        np.where(
            (t_arr >= t0 + 2.0 * sigma) & (t_arr <= t1 - 2.0 * sigma),
            amplitude,
            np.where((t_arr > t1 - 2.0 * sigma) & (t_arr <= t1), fall, 0.0),
        ),
    )
    if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
        return float(out)
    return out
