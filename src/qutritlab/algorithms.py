"""Ternary algorithm circuits: function classification, string recovery
and amplitude-amplification search, plus their classical baselines.

All circuits are built from compiled native sequences, so their pulse
counts and total durations reflect what the hardware would execute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qutrit_core import BasisLabel, ProbDist, QutritLabError
from .gates_compiler import (
    Circuit,
    compile_cphase,
    decompose_single,
    merge_streams,
)

ORACLE_GATE_NAMES = ("I", "X", "Xsq", "Z", "Zsq")
_SHIFT_POWER = {"I": 0, "X": 1, "Xsq": 2}
_PHASE_POWER = {"Z": 1, "Zsq": 2}


class AlgorithmError(QutritLabError, ValueError):
    """An algorithm specification is outside the supported family."""


@dataclass(frozen=True)
class DJOracle:
    """Product oracle W1 x W2 over {I, X, Xsq, Z, Zsq}."""

    w1: str
    w2: str

    def __post_init__(self):
        for w in (self.w1, self.w2):
            if w not in ORACLE_GATE_NAMES:
                raise AlgorithmError(f"unsupported oracle gate {w!r}")

    @property
    def kind(self) -> str:
        """constant when both factors are shift gates, balanced otherwise."""
        if self.w1 in _SHIFT_POWER and self.w2 in _SHIFT_POWER:
            return "constant"
        return "balanced"

    @property
    def constant_value(self) -> int | None:
        """Output trit of a constant oracle, None for balanced ones."""
        if self.kind != "constant":
            return None
        return (_SHIFT_POWER[self.w1] + _SHIFT_POWER[self.w2]) % 3

    def label(self) -> str:
        return f"{self.w1}x{self.w2}"


@dataclass(frozen=True)
class BVString:
    """Hidden two-trit string."""

    s: tuple[int, int]

    def __post_init__(self):
        s = tuple(int(x) for x in self.s)
        if len(s) != 2 or any(x not in (0, 1, 2) for x in s):
            raise AlgorithmError(f"string must be two trits, got {self.s}")
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class GroverSpec:
    """Search target and number of amplification rounds."""

    target: BasisLabel
    iterations: int

    def __post_init__(self):
        target = self.target if isinstance(self.target, BasisLabel) else BasisLabel.parse(str(self.target))
        if target.n_qutrits != 2:
            raise AlgorithmError("search target must be a two-qutrit state")
        object.__setattr__(self, "target", target)
        if self.iterations not in (1, 2):
            raise AlgorithmError(f"iterations must be 1 or 2, got {self.iterations}")


def _both(name1: str, name2: str) -> Circuit:
    return merge_streams(2, {0: decompose_single(name1, 0), 1: decompose_single(name2, 1)})


def constant_oracles() -> list[DJOracle]:
    """The 9 constant oracles, shift powers in row-major order."""
    names = ("I", "X", "Xsq")
    return [DJOracle(a, b) for a in names for b in names]


def _term_annotation(name: str, var: str) -> str:
    if name in _SHIFT_POWER:
        return str(_SHIFT_POWER[name])
    power = _PHASE_POWER[name]
    return var if power == 1 else f"(2 ⊙ {var})"


def oracle_annotation(oracle: DJOracle) -> str:
    """Classical ternary function computed by a balanced oracle.

    Phase gates contribute a (scaled) input variable, shift gates a
    constant trit; the two terms add modulo 3.
    """
    return f"{_term_annotation(oracle.w1, 'A')} ⊕ {_term_annotation(oracle.w2, 'B')}"


def oracle_classical_function(oracle: DJOracle, a: int, b: int) -> int:
    """Evaluate the oracle's equivalent classical function at (a, b)."""

    def term(name, var):
        if name in _SHIFT_POWER:
            return _SHIFT_POWER[name]
        return (_PHASE_POWER[name] * var) % 3

    return (term(oracle.w1, a) + term(oracle.w2, b)) % 3


def balanced_oracle_table() -> list[tuple[DJOracle, str]]:
    """The 16 balanced oracles with their classical-function annotations.

    Ordered as published: mirrored phase-shift pairs first, pure
    phase-phase combinations last.
    """
    rows = [
        ("Z", "I"), ("I", "Z"),
        ("Z", "X"), ("X", "Z"),
        ("Z", "Xsq"), ("Xsq", "Z"),
        ("Zsq", "I"), ("I", "Zsq"),
        ("Zsq", "X"), ("X", "Zsq"),
        ("Zsq", "Xsq"), ("Xsq", "Zsq"),
        ("Z", "Z"), ("Z", "Zsq"),
        ("Zsq", "Z"), ("Zsq", "Zsq"),
    ]
    table = []
    for w1, w2 in rows:
        oracle = DJOracle(w1, w2)
        table.append((oracle, oracle_annotation(oracle)))
    return table


def dj_circuit(oracle: DJOracle) -> Circuit:
    """Single-query constant-vs-balanced test, no ancilla.

    Both qutrits are fanned out with H, the oracle product acts, and the
    inverse fan-in maps constant oracles back onto |00>.
    """
    return _both("H", "H").then(_both(oracle.w1, oracle.w2)).then(_both("Hdag", "Hdag"))


def dj_classify(dist: ProbDist) -> str:
    """constant when more than half the mass sits on |00>."""
    return "constant" if dist.prob_of("00") > 0.5 else "balanced"


def bv_circuit(s: BVString | tuple[int, int]) -> Circuit:
    """Inner-product oracle sandwiched in the same fan-out skeleton.

    The hidden string enters as phase-gate powers, so the ideal output
    state is exactly |s>.
    """
    if not isinstance(s, BVString):
        s = BVString(tuple(s))
    z_names = {0: "I", 1: "Z", 2: "Zsq"}
    oracle = DJOracle(z_names[s.s[0]], z_names[s.s[1]])
    return dj_circuit(oracle)


def bv_decode(dist: ProbDist) -> tuple[int, int]:
    """Most likely basis label, lowest index on ties."""
    label = dist.argmax_label()
    if label.n_qutrits != 2:
        raise AlgorithmError("expected a two-qutrit distribution")
    return label.digits


def grover_circuit(spec: GroverSpec) -> Circuit:
    """Amplitude amplification on 9 states.

    Each round applies the conditional-phase oracle on the target, then
    the diffusion reflection: inverse fan-out, conditional phase on |00>,
    fan-out. Both conditional phases run through the compiled ladder, so
    circuit depth matches the physical implementation.
    """
    circ = _both("H", "H")
    for _ in range(spec.iterations):
        circ = circ.then(compile_cphase(math.pi, spec.target))
        circ = circ.then(_both("Hdag", "Hdag"))
        circ = circ.then(compile_cphase(math.pi, "00"))
        circ = circ.then(_both("H", "H"))
    return circ


def grover_ideal_success(iterations: int) -> float:
    """Closed-form ideal success probability for k rounds on 9 states."""
    theta = math.asin(1.0 / 3.0)
    return math.sin((2 * iterations + 1) * theta) ** 2


def classical_baselines() -> dict[str, float]:
    """Best classical single-shot success rates for each task."""
    return {
        "dj": 0.5,
        "bv": 1.0 / 3.0,
        "grover1": 1.0 / 9.0,
        "grover2": 1.0 / 9.0 + (8.0 / 9.0) * (1.0 / 8.0),
    }


def dj_classical_query_count(n: int) -> int:
    """Worst-case classical queries to decide constant vs balanced on n trits."""
    if n < 1:
        raise AlgorithmError("need at least one trit of input")
    return 3 ** (n - 1) + 1
