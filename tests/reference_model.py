"""One slow textbook model of the laboratory's pipeline: the reference of every test module.

Each stage is written the plain way: the Lindblad generator from whole
Kronecker products and its RK4 step on the whole matrix; circuits walked
one moment and one case at a time; readout confusion, sampling, inversion
and repair one 9-vector at a time; the Fock device Hamiltonian as dense
Kronecker products with one full eigh; bundle text from the stdlib's JSON
writer. The physics inputs (collapse operators, coupling, moment
unitaries, compiled circuits, algorithm tables, normal form) are the
package's, apart from correlated_collapse_ops, a dephasing variant the
package does not have, and the two calibration models of
calibrated_steps that undo the coupling phase in fewer windows than the
package does. Test modules import their references from here
and keep no copy; a new reference (an exact propagator, a converged
basis) goes here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random

import numpy as np

import qutritlab
from qutritlab import noise_sim
from qutritlab.qutrit_core import DIM, BasisLabel, StateValidationError, n_qutrits_for_dim
from qutritlab.gates_compiler import (
    compile_cphase,
    decompose_single,
    logical_gate,
    merge_streams,
    moment_unitary,
    single_qutrit_circuit,
)
from qutritlab.noise_sim import build_collapse_ops, dephasing_rates, idle_hamiltonian
from qutritlab.algorithms import (
    BVString,
    GroverSpec,
    balanced_oracle_table,
    bv_circuit,
    classical_baselines,
    constant_oracles,
    dj_circuit,
    grover_circuit,
    grover_ideal_success,
)
from qutritlab.device_hamiltonian import normal_mode_transform
from qutritlab.cli_harness import ExperimentConfig

DIM2 = DIM * DIM
PAIR_LABELS = [str(BasisLabel.from_index(i, 2)) for i in range(DIM2)]


# ---------------------------------------------------------------------------
# Lindblad evolution

def correlated_collapse_ops(noise, root: str) -> list[np.ndarray]:
    """The pair's collapse operators with each qutrit dephased by one correlated operator
    sqrt(2) diag(0, g1, g2): g1 = sqrt(gamma_a) and g2 = g1 - sqrt(gamma_a + gamma_b) for root "-",
    g1 + sqrt(gamma_a + gamma_b) for root "+". Either root gives the 01 coherence the rate gamma_a and
    the 12 coherence gamma_a + gamma_b, as the package's operators do; they differ in the 02 rate."""
    sign = {"-": -1.0, "+": 1.0}[root]
    eye = np.eye(DIM, dtype=complex)
    ops = []
    for qutrit, coh in enumerate((noise.q1, noise.q2)):
        local = []
        for lower, t1 in ((0, coh.t1_01), (1, coh.t1_12)):
            relax = np.zeros((DIM, DIM), dtype=complex)
            relax[lower, lower + 1] = math.sqrt(1.0 / t1)
            local.append(relax)
        gamma_a, gamma_b = dephasing_rates(coh)
        g1 = math.sqrt(gamma_a)
        local.append(math.sqrt(2.0) * np.diag([0.0, g1, g1 + sign * math.sqrt(gamma_a + gamma_b)]).astype(complex))
        ops += [np.kron(op, eye) if qutrit == 0 else np.kron(eye, op) for op in local]
    return ops


def dense_generator(noise, root: str | None = None) -> np.ndarray:
    """The textbook generator from whole 81x81 krons, on the row-major vectorized density matrix; with a
    root, under correlated_collapse_ops."""
    eye = np.eye(DIM2, dtype=complex)
    h = idle_hamiltonian(noise)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in build_collapse_ops(noise) if root is None else correlated_collapse_ops(noise, root):
        herm = op.conj().T @ op
        gen += np.kron(op, op.conj())
        gen -= 0.5 * (np.kron(herm, eye) + np.kron(eye, herm.T))
    return gen


def dense_propagator(gen: np.ndarray, duration_ns: float, step_scale: int) -> np.ndarray:
    """The fourth-order step formed on the whole generator, then its power."""
    n_steps = step_scale * max(16, int(math.ceil(duration_ns)))
    h = (duration_ns * 1e-3) / n_steps
    eye = np.eye(gen.shape[0], dtype=complex)
    step = eye + h * gen @ (eye + (h / 2.0) * gen @ (eye + (h / 3.0) * gen @ (eye + (h / 4.0) * gen)))
    return np.linalg.matrix_power(step, n_steps)


@functools.lru_cache(maxsize=256)
def propagator(noise, step_scale: int, duration_ns: float, root: str | None) -> np.ndarray:
    """dense_propagator of the noise model's dense generator (with a root, under correlated_collapse_ops),
    kept per (model, step_scale, duration, root)."""
    return dense_propagator(dense_generator(noise, root), duration_ns, step_scale)


def calibrated_steps(noise, circuit, calibration: str = "every"):
    """(duration, calibrated unitary) of each moment: its unitary after undoing the window's coupling phase, in
    every timed window (calibration "every", the package's model), only in those that hold a native conditional
    phase ("native"), or in none ("none")."""
    coupling = np.real(np.diag(idle_hamiltonian(noise)))
    for moment, duration in zip(circuit.moments, circuit.durations):
        u = moment_unitary(moment, 2)
        native = any(i.kind in ("CPhaseNative21", "CPhaseNative22") for i in moment)
        if duration > 0.0 and {"every": True, "native": native, "none": False}[calibration]:
            u = u @ np.diag(np.exp(1j * coupling * duration * 1e-3))
        yield duration, u


def stepwise_state(noise, circuit, rho: np.ndarray, step_scale: int = 1, root: str | None = None,
                   calibration: str = "every") -> np.ndarray:
    """State walk: per moment the propagator, a hermitization, then u rho u^dag; at the end over the trace.
    `calibration` as calibrated_steps takes it."""
    for duration, u in calibrated_steps(noise, circuit, calibration):
        if duration > 0.0:
            rho = (propagator(noise, step_scale, duration, root) @ rho.reshape(-1)).reshape(rho.shape)
            rho = (rho + rho.conj().T) / 2.0
        rho = u @ rho @ u.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def stepwise_channel(noise, circuit, step_scale: int = 1, units=None) -> np.ndarray:
    """Columns of the full channel: the matrix units (all 81, or those at `units`) pushed through each
    propagator, then u x u^dag."""
    n = DIM2 * DIM2
    units = np.arange(n) if units is None else np.asarray(units)
    x = np.eye(n, dtype=complex)[units].reshape(len(units), DIM2, DIM2)
    for duration, u in calibrated_steps(noise, circuit):
        if duration > 0.0:
            x = (x.reshape(len(units), n) @ propagator(noise, step_scale, duration, None).T).reshape(x.shape)
        x = u @ x @ u.conj().T
    return x.reshape(len(units), n).T


def per_case_pure(circuit, initial=None) -> np.ndarray:
    """The noiseless walk of one circuit on its own: each moment's unitary in turn."""
    if initial is None:
        amps = np.zeros(DIM**circuit.n_qutrits, dtype=complex)
        amps[0] = 1.0
    else:
        amps = initial.amplitudes.copy()
    for moment in circuit.moments:
        amps = moment_unitary(moment, circuit.n_qutrits) @ amps
    return amps


def per_case_lindblad(engine, circuit, x: np.ndarray) -> np.ndarray:
    """The engine's walk of one circuit on its own, one moment map at a time, from an 81-vector (a state)
    or 81 columns (the channel)."""
    for moment, duration in zip(circuit.moments, circuit.durations):
        s = engine._superop(moment, duration)
        x = s @ x if s.ndim == 2 else (s * x if x.ndim == 1 else s[:, None] * x)
    return x


def vectorized_ground() -> np.ndarray:
    ground = np.zeros(DIM2 * DIM2, dtype=complex)
    ground[0] = 1.0
    return ground


def partner_ground_units(qutrit: int) -> np.ndarray:
    """Row-major indices of |k><l| on `qutrit` with the other qutrit in |0><0|, for k l = 00, 01, ..., 22."""
    k, l = np.divmod(np.arange(DIM2), DIM)
    return 27 * k + 3 * l if qutrit == 0 else 9 * k + l


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """The 3x3 state of qutrit `keep` of a pair state."""
    t = rho.reshape(DIM, DIM, DIM, DIM)
    return np.einsum("ajbj->ab", t) if keep == 0 else np.einsum("jajb->ab", t)


def reduced_channel(images: np.ndarray, qutrit: int) -> np.ndarray:
    """9x9 superoperator of one qutrit from the pair images of its nine units (the partner in |0><0|):
    column 3 k + l is the image of |k><l| with the partner traced out."""
    return np.stack([partial_trace(images[:, j].reshape(DIM2, DIM2), qutrit).reshape(-1)
                     for j in range(DIM2)], axis=1)


def matrix_unit_reduction(channel, qutrit: int) -> np.ndarray:
    """reduced_channel of a pair QuantumChannel, each unit pushed through channel.apply."""
    units = np.eye(DIM2 * DIM2, dtype=complex)[partner_ground_units(qutrit)]
    return reduced_channel(np.stack([channel.apply(u.reshape(DIM2, DIM2)).reshape(-1) for u in units], axis=1),
                           qutrit)


# ---------------------------------------------------------------------------
# Process matrices

def chi_of_superop(superop: np.ndarray) -> np.ndarray:
    """chi[(a d + k), (c d + l)] = <a| E(|k><l|) |c>, entry by entry, then its Hermitian part."""
    d = int(round(math.sqrt(superop.shape[0])))
    chi = np.empty_like(superop)
    for a, c, k, l in itertools.product(range(d), repeat=4):
        chi[a * d + k, c * d + l] = superop[a * d + c, k * d + l]
    return (chi + chi.conj().T) / 2.0


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Channel of a unitary from the images u |k><l| u^dag of the matrix units."""
    d = u.shape[0]
    return np.stack([(u @ np.outer(np.eye(d)[k], np.eye(d)[l]) @ u.conj().T).reshape(-1)
                     for k, l in itertools.product(range(d), repeat=2)], axis=1)


def fidelity(chi_a: np.ndarray, chi_b: np.ndarray) -> float:
    """Re Tr(chi_a chi_b) over the product of the real traces."""
    return float(np.real(np.trace(chi_a @ chi_b)) / (np.real(np.trace(chi_a)) * np.real(np.trace(chi_b))))


def reference_tomo_csv(chi: np.ndarray) -> str:
    """The tomography figure as one f-string per row prints it, after the 1e-12 clamp."""
    chi = chi.copy()
    chi.real[np.abs(chi.real) < 1e-12] = 0.0
    chi.imag[np.abs(chi.imag) < 1e-12] = 0.0
    rows = [f"{r},{c},{v.real:.9g},{v.imag:.9g}" for r, row in enumerate(chi.tolist()) for c, v in enumerate(row)]
    return "\n".join(["row,col,re,im", *rows]) + "\n"


def benchmark_tomo_profile(index: int) -> dict:
    """Coherence table `index` of the benchmark's tomography scan (bench/workloads.py `tomo_profile`, which
    this mirrors): each default time scaled within +-25% by a generator of its own fixed seed."""
    base = ExperimentConfig.default().to_mapping()["coherence"]
    rng = random.Random(1_000_003 * (index + 1))
    return {q: {k: round(base[q][k] * rng.uniform(0.75, 1.25), 4) for k in ("t1_01", "t1_12", "t2r_01", "t2r_12")}
            for q in ("q1", "q2")}


def reference_tomo(config, gate: str, qutrit: int) -> tuple[dict, np.ndarray]:
    """The tomography bundle document of a gate on qutrit 1 or 2, and the noisy chi, from the full channel's
    stepwise images of the measured qutrit's nine units."""
    qidx = qutrit - 1
    ideal = chi_of_superop(unitary_superop(logical_gate(gate)))
    compiled = np.eye(DIM, dtype=complex)
    for moment in single_qutrit_circuit(gate, 0, n_qutrits=1).moments:
        compiled = moment_unitary(moment, 1) @ compiled
    pair = merge_streams(2, {qidx: decompose_single(gate, qidx)})
    images = stepwise_channel(config.noise, pair, config.step_scale, partner_ground_units(qidx))
    noisy = chi_of_superop(reduced_channel(images, qidx))
    fidelities = {"noiseless": fidelity(chi_of_superop(unitary_superop(compiled)), ideal),
                  "noisy": fidelity(noisy, ideal)}
    entries = [{"name": name, "fidelity": f} for name, f in fidelities.items()]
    if sum(pair.durations) > 0.0:
        for entry in entries:
            entry["duration_ns"] = sum(pair.durations)
    summary = {"gate": gate, "qutrit": qutrit, "noiseless_fidelity": fidelities["noiseless"],
               "noisy_fidelity": fidelities["noisy"]}
    return bundle_document("tomo", config, entries, summary), noisy


# ---------------------------------------------------------------------------
# Readout

def confusion(diagonal: float) -> np.ndarray:
    """Uniform leakage: `diagonal` on the diagonal, the rest of each column spread evenly."""
    m = np.full((DIM2, DIM2), (1.0 - diagonal) / (DIM2 - 1))
    np.fill_diagonal(m, diagonal)
    return m


def reference_repair(q, n, floor=None, taken: set | None = None) -> np.ndarray:
    """The count repair's active-set loop as first written; `taken` collects the branches it went through."""
    taken = set() if taken is None else taken
    root_n = math.sqrt(n)
    f = root_n if floor is None else float(floor)
    d = q.shape[0]
    weights = np.where(np.abs(q) < root_n, root_n, np.abs(q))
    w2 = weights**2
    free = np.ones(d, dtype=bool)
    for _ in range(d + 1):
        lam = 2.0 * (n - f * np.sum(~free) - q[free].sum()) / w2[free].sum()
        p = np.where(free, q + 0.5 * lam * w2, f)
        violating = free & (p < f - 1e-12)
        if not violating.any():
            break
        taken.add("floored")
        free &= ~violating
        if not free.any():
            taken.add("all floored")
            p = np.full(d, f)
            break
    p = np.where(p < f, f, p)
    slack = n - p.sum()
    if abs(slack) > 1e-9:
        interior = p > f + 1e-12
        if interior.any():
            taken.add("slack")
            p[interior] += slack / interior.sum()
    return p


# ---------------------------------------------------------------------------
# Algorithm runners

def dj_cases():
    """(circuit, fields, score, seed offset) of the 25 oracles: 9 constant, then 16 balanced."""
    oracles = [(o, "0") for o in constant_oracles()] + list(balanced_oracle_table())
    for idx, (oracle, note) in enumerate(oracles):
        fields = {"name": oracle.label(), "kind": oracle.kind, "function": note}
        if oracle.kind == "constant":
            fields["constant_value"] = oracle.constant_value
        score = (lambda p: float(p[0])) if oracle.kind == "constant" else (lambda p: 1.0 - float(p[0]))
        yield dj_circuit(oracle), lambda p, fields=fields: dict(fields), score, idx


def bv_cases():
    """The 9 hidden strings, each decoded as the most likely label (lowest index on ties)."""
    for idx in range(DIM2):
        label = PAIR_LABELS[idx]
        yield (bv_circuit(BVString(BasisLabel.from_index(idx, 2).digits)),
               lambda p, label=label: {"name": label, "decoded": PAIR_LABELS[int(np.argmax(p))],
                                       "decoded_correctly": PAIR_LABELS[int(np.argmax(p))] == label},
               lambda p, idx=idx: float(p[idx]), 100 + idx)


def grover_cases():
    """The 9 targets for one, then two amplification rounds."""
    for rounds in (1, 2):
        for idx in range(DIM2):
            fields = {"name": f"k{rounds}_{PAIR_LABELS[idx]}", "rounds": rounds, "target": PAIR_LABELS[idx],
                      "ideal_sp": grover_ideal_success(rounds)}
            yield (grover_circuit(GroverSpec(PAIR_LABELS[idx], rounds)), lambda p, fields=fields: dict(fields),
                   lambda p, idx=idx: float(p[idx]), 200 + 9 * rounds + idx)


CASES = {"dj": dj_cases, "bv": bv_cases, "grover": grover_cases}


def runner_circuits(name: str) -> tuple:
    """The circuits of a runner's cases, in case order."""
    return tuple(circuit for circuit, *_ in CASES[name]())


def final_probabilities(config, circuit, walk: str, root: str | None = None,
                        calibration: str = "every") -> np.ndarray:
    """Outcome probabilities of one circuit from |00>, clipped at 0.

    walk "engine": the pure backend's moment walk, or the Lindblad
    engine's moment maps one at a time, then the Hermitian part over its
    trace (the package promises these bytes). walk "textbook":
    stepwise_state on the dense propagators (within a tolerance), with a
    root under correlated_collapse_ops and the given calibration model.
    """
    if not config.noisy:
        probs = np.abs(per_case_pure(circuit)) ** 2
    elif walk == "engine":
        rho = per_case_lindblad(noise_sim._engine(config.noise, config.step_scale), circuit,
                                vectorized_ground()).reshape(DIM2, DIM2)
        rho = (rho + rho.conj().T) / 2.0
        probs = np.diagonal(rho / np.trace(rho).real).real
    else:
        ground = np.zeros((DIM2, DIM2), dtype=complex)
        ground[0, 0] = 1.0
        probs = np.diagonal(stepwise_state(config.noise, circuit, ground, config.step_scale, root, calibration)).real
    return np.clip(probs, 0.0, None)


def _by_label(values) -> dict:
    return {label: float(v) for label, v in zip(PAIR_LABELS, values)}


def reference_run_cases(config, cases, walk: str = "engine", replaced: dict | None = None,
                        root: str | None = None, calibration: str = "every") -> list[dict]:
    """One entry per case, each case walked, measured, confused, sampled (the distribution over its sum),
    inverted and repaired on its own; `replaced` maps a case index to probabilities taken in place of its walk;
    `root` and `calibration` as final_probabilities takes them."""
    m = confusion(config.readout_diagonal) if config.mitigate else None
    replaced, entries = replaced or {}, []
    for index, (circuit, fields, score, offset) in enumerate(cases):
        p = replaced[index] if index in replaced else final_probabilities(config, circuit, walk, root, calibration)
        entry = {**fields(p), "sp": score(p), "duration_ns": circuit.total_duration, "distribution": _by_label(p)}
        if config.shots is not None:
            measured = p if m is None else np.clip(m @ p, 0.0, None)
            counts = np.random.default_rng(config.seed + offset).multinomial(config.shots, measured / measured.sum())
            entry["counts"] = _by_label(counts)
            if m is not None:
                corrected = reference_repair(np.linalg.solve(m, counts.astype(float)), float(counts.sum()))
                mitigated = np.clip(corrected / corrected.sum(), 0.0, None)
                entry.update(mitigated_distribution=_by_label(mitigated), sp_mitigated=score(mitigated))
        entries.append(entry)
    return entries


def _mean(entries, key, **where) -> float:
    return float(np.mean([e[key] for e in entries if all(e[k] == v for k, v in where.items())]))


def reference_algorithm(name: str, config, walk: str = "engine", replaced: dict | None = None,
                        root: str | None = None, calibration: str = "every") -> tuple[dict, str]:
    """The bundle document and figure CSV of sim dj, bv or grover."""
    entries = reference_run_cases(config, CASES[name](), walk, replaced, root, calibration)
    baselines = classical_baselines()
    mitigated = ("sp", "sp_mitigated") if config.mitigate else ("sp",)
    if name == "dj":
        summary = {group + ("_mitigated" if key == "sp_mitigated" else ""): _mean(entries, key, kind=kind)
                   for key in mitigated for group, kind in (("constant_avg", "constant"), ("balanced_avg", "balanced"))}
        summary.update(classical_baseline=baselines["dj"], n_constant=sum(e["kind"] == "constant" for e in entries),
                       n_balanced=sum(e["kind"] == "balanced" for e in entries))
        rows = [f"{e['name']},{e['kind']},{e['function'].replace(' ', '')},{e['sp']:.9g}" for e in entries]
        header = "oracle,kind,function,sp"
    elif name == "bv":
        summary = {"average_sp" + ("_mitigated" if key == "sp_mitigated" else ""): _mean(entries, key)
                   for key in mitigated}
        summary.update(classical_baseline=baselines["bv"],
                       all_decoded_correctly=all(e["decoded_correctly"] for e in entries))
        rows = [f"{e['name']},{e['sp']:.9g},{e['decoded']}" for e in entries]
        header = "string,sp,decoded"
    else:
        summary = {f"round{k}_avg": _mean(entries, "sp", rounds=k) for k in (1, 2)}
        summary.update(round2_exceeds_round1=summary["round2_avg"] > summary["round1_avg"],
                       classical_baseline_round1=baselines["grover1"], classical_baseline_round2=baselines["grover2"],
                       round2_duration_ns_22=entries[-1]["duration_ns"])
        rows = [f"{e['rounds']},{e['target']}," + ",".join(f"{e['distribution'][lbl]:.9g}" for lbl in PAIR_LABELS)
                for e in entries]
        header = "rounds,target," + ",".join(PAIR_LABELS)
    return bundle_document(name, config, entries, summary), "\n".join([header, *rows]) + "\n"


# ---------------------------------------------------------------------------
# Device spectrum

def junction_quadratic(p) -> np.ndarray:
    """Quadratic form of the junctions on the node fluxes: each transmon junction to the coupler node,
    the coupler junction to ground."""
    ej1, ej2, ejc = p.e_j1, p.e_j2, p.coupler_energy()
    return 0.5 * np.array([[ej1, 0.0, -ej1], [0.0, ej2, -ej2], [-ej1, -ej2, ej1 + ej2 + ejc]])


def kron_hamiltonian(p, linearize: bool = False) -> np.ndarray:
    """H by dense Kronecker products and complex exponentials, term by term."""
    nf = normal_mode_transform(p)
    n = p.n_levels
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)

    def on_mode(k, op):
        ops = [np.eye(n)] * 3
        ops[k] = op
        return np.kron(np.kron(ops[0], ops[1]), ops[2])

    phis = [lam**-0.25 / math.sqrt(2.0) * (ladder + ladder.T) for lam in nf.d_tilde]
    h = np.zeros((n**3, n**3))
    for k, lam in enumerate(nf.d_tilde):
        h += on_mode(k, -math.sqrt(lam) / 2.0 * (ladder.T - ladder) @ (ladder.T - ladder))
    if linearize:
        for k, lam in enumerate(nf.d_tilde):
            h = h + on_mode(k, lam * (phis[k] @ phis[k]))
        return (h + h.T) / 2.0
    u = nf.u
    for energy, weights in ((p.e_j1, u[0] - u[2]), (p.e_j2, u[1] - u[2]), (p.coupler_energy(), u[2])):
        exps = []
        for k in range(3):
            ev, evec = np.linalg.eigh(weights[k] * phis[k])
            exps.append((evec * np.exp(1j * ev)) @ evec.conj().T)
        prod = np.kron(np.kron(exps[0], exps[1]), exps[2])
        h = h - energy * np.real((prod + prod.conj().T) / 2.0)
    return (h + h.T) / 2.0


REQUIRED_LABELS = [(m, n) for m in range(3) for n in range(3)] + [(3, 0), (3, 1)]


def full_matrix_labels(p) -> tuple[dict, dict]:
    """Energy above the ground state and overlap of each required |m n 0> label, from one eigh of the whole
    kron_hamiltonian (its diagonal mean taken off) and each eigenvector's dominant Fock component; of the
    eigenstates that share a label, the first (lowest) one of the largest overlap. A label no eigenstate
    carries is left out."""
    nf = normal_mode_transform(p)
    h = kron_hamiltonian(p)
    h[np.diag_indices_from(h)] -= np.diag(h).mean()
    evals, evecs = np.linalg.eigh(h)
    n = p.n_levels
    found = {}
    for idx in range(evals.shape[0]):
        weights = np.abs(evecs[:, idx]) ** 2
        j = int(np.argmax(weights))
        occupation = [0, 0, 0]
        for mode, level in enumerate(np.unravel_index(j, (n, n, n))):
            occupation[nf.mode_to_node[mode]] = int(level)
        if occupation[2] == 0 and (tuple(occupation[:2]) not in found
                                   or found[tuple(occupation[:2])][1] < weights[j]):
            found[tuple(occupation[:2])] = (float(evals[idx] - evals[0]), float(weights[j]))
    return ({label: found[label][0] for label in REQUIRED_LABELS if label in found},
            {label: found[label][1] for label in REQUIRED_LABELS if label in found})


def reference_spectrum(p) -> dict:
    """The labeled spectrum's numbers at one flux point, by SpectrumReport field name."""
    energies, overlaps = full_matrix_labels(p)

    def shift(m, n):
        return energies[m, n] - energies[m, 0] - energies[0, n] + energies[0, 0]

    # chi(m, n) = J11 m n + J21 m^2 n + J12 m n^2 + J22 m^2 n^2 at (1, 1), (2, 1), (1, 2) and (2, 2), in kHz
    monomials = np.array([[m * n, m * m * n, m * n * n, m * m * n * n] for m, n in ((1, 1), (2, 1), (1, 2), (2, 2))],
                         dtype=float)
    j = np.linalg.solve(monomials, [shift(1, 1), shift(2, 1), shift(1, 2), shift(2, 2)]) * 1e6
    nf = normal_mode_transform(p)
    return {"flux": p.flux, "energies": energies, "overlaps": overlaps,
            "w01_q1": energies[1, 0] - energies[0, 0], "w12_q1": energies[2, 0] - energies[1, 0],
            "w01_q2": energies[0, 1] - energies[0, 0], "w12_q2": energies[0, 2] - energies[0, 1],
            "j11": float(j[0]), "j21": float(j[1]), "j12": float(j[2]), "j22": float(j[3]),
            "coupler_ghz": float(2.0 * math.sqrt(nf.d_tilde[nf.mode_to_node.index(2)])),
            "min_overlap": min(overlaps.values()), "sweet_spot": math.remainder(p.flux, 2.0) == 0.0}


# device bundle entry key -> reference_spectrum key
DEVICE_ENTRY = {"flux": "flux", "w01_q1": "w01_q1", "w12_q1": "w12_q1", "w01_q2": "w01_q2", "w12_q2": "w12_q2",
                "j11_khz": "j11", "j21_khz": "j21", "j12_khz": "j12", "j22_khz": "j22",
                "coupler_ghz": "coupler_ghz", "min_overlap": "min_overlap", "sweet_spot": "sweet_spot"}


def reference_device(config, grid) -> tuple[dict, list[list[float]]]:
    """The device bundle document of a flux grid and the operating point, and the figure's rows as numbers."""
    spectra = [reference_spectrum(config.device.with_flux(f)) for f in grid]
    operating = reference_spectrum(config.device)
    entries = [{"name": f"flux_{s['flux']:.6g}", **{key: s[field] for key, field in DEVICE_ENTRY.items()}}
               for s in spectra]
    summary = {"points": len(spectra), "operating_flux": config.device.flux,
               **{f"operating_{key}": operating[DEVICE_ENTRY[key]]
                  for key in ("w01_q1", "w01_q2", "j11_khz", "coupler_ghz")}}
    columns = ("flux", "w01_q1", "w12_q1", "w01_q2", "w12_q2", "j11", "j21", "j12", "j22")
    return bundle_document("device", config, entries, summary), [[s[c] for c in columns] for s in spectra]


# ---------------------------------------------------------------------------
# Bundle documents

def bundle_document(experiment: str, config, entries: list, summary: dict) -> dict:
    """A result bundle's JSON document; the hash is sha256 of the resolved profile's compact sorted JSON."""
    canon = json.dumps(config.to_mapping(), sort_keys=True, separators=(",", ":"))
    return {"experiment": experiment, "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
            "package_version": qutritlab.__version__, "entries": entries, "summary": summary}


def json_text(doc) -> str:
    """The text format of every JSON document the command line writes: the stdlib's compact, sorted JSON
    on one line and a newline. Strict JSON: a nan or an infinity raises ValueError instead of being
    written as a bare NaN or Infinity."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def assert_documents_close(got, want, tol: float, key_tols: dict | None = None, path: str = "") -> None:
    """got equals want in structure, keys, strings, bools and ints, and every float is within tol,
    or within key_tols[key] for a value under one of its keys."""
    key_tols = key_tols or {}
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (path, sorted(got), sorted(want))
        for key in want:
            assert_documents_close(got[key], want[key], key_tols.get(key, tol), key_tols, f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_documents_close(g, w, tol, key_tols, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and abs(got - want) <= tol, (path, got, want, tol)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


# ---------------------------------------------------------------------------
# States and registers

def checked_amplitudes(amps) -> np.ndarray:
    """PureState's checks, one after the other, on one vector; the amplitudes as complex."""
    amps = np.asarray(amps, dtype=complex)
    if not np.all(np.isfinite(amps)):
        raise StateValidationError("amplitudes contains non-finite entries")
    if amps.ndim != 1:
        raise StateValidationError("amplitudes must be a vector")
    n_qutrits_for_dim(amps.shape[0])
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-9:
        raise StateValidationError(f"state norm {norm} is not 1 within 1e-9")
    return amps


def reference_compile_report(theta: float, target: str) -> dict:
    """compile cphase's report: the compiled circuit's counts, kind, length and text, and whether the product
    of its moment unitaries is e^(i theta) on the target and 1 elsewhere, up to a global phase, within 1e-10."""
    circ = compile_cphase(theta, target)
    u = np.eye(DIM2, dtype=complex)
    for moment in circ.moments:
        u = moment_unitary(moment, 2) @ u
    ideal = np.eye(DIM2, dtype=complex)
    ideal[PAIR_LABELS.index(target), PAIR_LABELS.index(target)] = np.exp(1j * theta)
    overlap = np.trace(ideal.conj().T @ u)
    return {"target": target, "theta": float(theta), "pulse_count": circ.pulse_count(),
            "pi_pulse_count": pi_pulse_count(circ), "duration_ns": sum(circ.durations),
            "native_kind": next(i.kind for i in circ.instructions() if i.kind.startswith("CPhaseNative")),
            "matches_ideal": bool(np.max(np.abs(u - overlap / abs(overlap) * ideal)) <= 1e-10),
            "circuit_text": circ.to_text()}


def pi_pulse_count(circuit) -> int:
    """Half-turn rotations (R01 or R12 by pi) in a circuit."""
    return sum(1 for i in circuit.instructions() if i.kind in ("R01", "R12") and abs(i.params[1] - math.pi) < 1e-12)


def embed_by_permutation(u, targets, n_qutrits):
    """Embedding of u on `targets`: kron onto the targets, then permute every basis
    index digit by digit from (targets, rest) order into register order."""
    rest = [q for q in range(n_qutrits) if q not in targets]
    order = list(targets) + rest
    full = np.kron(u, np.eye(DIM ** len(rest), dtype=complex))
    perm = []
    for idx in range(DIM**n_qutrits):
        digits = BasisLabel.from_index(idx, n_qutrits).digits
        perm.append(sum(digits[q] * DIM ** (n_qutrits - 1 - k) for k, q in enumerate(order)))
    return full[np.ix_(perm, perm)]
