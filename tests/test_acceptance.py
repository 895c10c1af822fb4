"""Acceptance suite: ten end-to-end criteria, one test and one printed
PASS/FAIL line each. Every criterion is evaluated at its stated tolerance;
nothing is loosened to force green."""

import math

import numpy as np
import pytest

from qutritlab.qutrit_core import BasisLabel, ProbDist, fidelity
from qutritlab.gates_compiler import (
    circuit_unitary,
    compile_cphase,
    cphase_matrix,
    equal_up_to_global_phase,
    logical_gate,
    merge_streams,
    decompose_single,
    single_qutrit_circuit,
)
from qutritlab.noise_sim import (
    LindbladEngine,
    NoiseModel,
    chi_matrix,
    chi_of_unitary,
    circuit_channel,
    measure_probs,
    process_fidelity,
    ramsey_coherence_time,
    reduced_qutrit_channel,
    sample_counts,
    simulate_lindblad,
    simulate_pure,
)
from qutritlab.algorithms import (
    BVString,
    DJOracle,
    GroverSpec,
    balanced_oracle_table,
    bv_circuit,
    bv_decode,
    constant_oracles,
    dj_circuit,
    dj_classify,
    grover_circuit,
)
from qutritlab.readout_mitigation import (
    SignedCounts,
    apply_confusion,
    invert_confusion,
    mitigate_counts,
    mle_correct,
    synthetic_confusion,
)
from qutritlab.device_hamiltonian import DeviceParams, flux_sweep, labeled_spectrum
from qutritlab.cli_harness import ExperimentConfig, run_bv, run_dj, run_grover

pytestmark = pytest.mark.filterwarnings("ignore:negative 12 dephasing rate")

ALL_LABELS = [str(BasisLabel.from_index(i, 2)) for i in range(9)]

PI_PULSE_REGIONS = {
    "22": 0, "21": 0,
    "12": 2, "20": 2, "11": 2,
    "02": 4, "10": 4, "01": 4,
    "00": 6,
}


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def noisy_exact_config() -> ExperimentConfig:
    return ExperimentConfig.default().replace(noisy=True, shots=None, seed=None)


def test_01_ideal_search_rates(capsys):
    worst = {1: 0.0, 2: 0.0}
    for k, expected in ((1, 0.7265), (2, 0.9835)):
        for target in ALL_LABELS:
            dist = measure_probs(simulate_pure(grover_circuit(GroverSpec(BasisLabel.parse(target), k))))
            worst[k] = max(worst[k], abs(dist.prob_of(target) - expected))
    ok = worst[1] <= 1e-3 and worst[2] <= 1e-3
    report(capsys, 1, ok, f"max |SP - target|: round1 {worst[1]:.2e}, round2 {worst[2]:.2e} (tol 1e-3)")
    assert worst[1] <= 1e-3
    assert worst[2] <= 1e-3


def test_02_ideal_oracle_algorithms(capsys):
    dj_ok = True
    worst_sp = 1.0
    for oracle in constant_oracles():
        dist = measure_probs(simulate_pure(dj_circuit(oracle)))
        sp = dist.prob_of("00")
        worst_sp = min(worst_sp, sp)
        dj_ok &= sp >= 1.0 - 1e-9 and dj_classify(dist) == "constant"
    for oracle, _ in balanced_oracle_table():
        dist = measure_probs(simulate_pure(dj_circuit(oracle)))
        sp = 1.0 - dist.prob_of("00")
        worst_sp = min(worst_sp, sp)
        dj_ok &= sp >= 1.0 - 1e-9 and dj_classify(dist) == "balanced"
    bv_ok = True
    for s1 in range(3):
        for s2 in range(3):
            dist = measure_probs(simulate_pure(bv_circuit(BVString((s1, s2)))))
            sp = dist.prob_of(f"{s1}{s2}")
            worst_sp = min(worst_sp, sp)
            bv_ok &= sp >= 1.0 - 1e-9 and bv_decode(dist) == (s1, s2)
    ok = dj_ok and bv_ok
    report(capsys, 2, ok, f"25 oracles + 9 strings, worst SP {worst_sp:.12f} (need >= 1 - 1e-9)")
    assert dj_ok
    assert bv_ok


def test_03_compiler_exactness(capsys):
    worst = 0.0

    def residual(u, v):
        # largest deviation after aligning global phase
        inner = np.trace(u.conj().T @ v)
        phase = inner / abs(inner) if abs(inner) > 0 else 1.0
        return float(np.max(np.abs(u * phase - v)))

    gates_ok = True
    for name in ("H", "X", "Z", "Hdag"):
        compiled = circuit_unitary(single_qutrit_circuit(name, 0, n_qutrits=1))
        r = residual(compiled, logical_gate(name))
        worst = max(worst, r)
        gates_ok &= equal_up_to_global_phase(compiled, logical_gate(name), tol=1e-10)

    cphase_ok = True
    counts_ok = True
    for target in ALL_LABELS:
        circ = compile_cphase(math.pi, target)
        r = residual(circuit_unitary(circ), cphase_matrix(math.pi, target))
        worst = max(worst, r)
        cphase_ok &= equal_up_to_global_phase(circuit_unitary(circ), cphase_matrix(math.pi, target), tol=1e-10)
        pi_pulses = sum(
            1 for i in circ.instructions()
            if i.kind in ("R01", "R12") and abs(i.params[1] - math.pi) < 1e-12
        )
        counts_ok &= pi_pulses == PI_PULSE_REGIONS[target]

    duration = grover_circuit(GroverSpec(BasisLabel.parse("22"), 2)).total_duration
    duration_ok = abs(duration - 2110.0) <= 0.10 * 2110.0

    ok = gates_ok and cphase_ok and counts_ok and duration_ok
    report(
        capsys, 3, ok,
        f"max unitary residual {worst:.2e} (tol 1e-10), pulse regions {'ok' if counts_ok else 'WRONG'}, "
        f"2-round duration {duration:.1f} ns (2110 +- 10%)",
    )
    assert gates_ok and cphase_ok
    assert counts_ok
    assert duration_ok


def test_04_noisy_search_brackets(capsys):
    summary = run_grover(noisy_exact_config()).summary
    r1, r2 = summary["round1_avg"], summary["round2_avg"]
    ordering = r2 > r1
    bracket = 0.35 <= r1 <= 0.65 and 0.35 <= r2 <= 0.65
    beats_classical = r1 > 2.0 * (1.0 / 9.0) and r2 > 2.0 * (2.0 / 9.0)
    ok = ordering and bracket and beats_classical
    report(
        capsys, 4, ok,
        f"noisy averages round1 {r1:.4f}, round2 {r2:.4f} "
        f"(bracket [0.35, 0.65], round2 > round1, > 2x classical 0.222/0.444)",
    )
    assert ordering
    assert bracket
    assert beats_classical


def test_05_noisy_oracle_brackets(capsys):
    config = noisy_exact_config()
    dj = run_dj(config).summary
    bv = run_bv(config).summary
    balanced_ok = 0.90 <= dj["balanced_avg"] <= 1.0
    constant_ok = dj["constant_avg"] > 0.5
    bv_ok = bv["average_sp"] > 1.0 / 3.0
    ok = balanced_ok and constant_ok and bv_ok
    report(
        capsys, 5, ok,
        f"noisy DJ balanced {dj['balanced_avg']:.4f} (in [0.90, 1]), "
        f"constant {dj['constant_avg']:.4f} (> 0.5), BV {bv['average_sp']:.4f} (> 1/3)",
    )
    assert balanced_ok
    assert constant_ok
    assert bv_ok


def test_06_lindblad_integrity(capsys):
    noise = ExperimentConfig.default().noise
    deep = grover_circuit(GroverSpec(BasisLabel.parse("22"), 2))

    rho = simulate_lindblad(deep, noise).matrix
    drift = abs(float(np.real(np.trace(rho))) - 1.0)
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))

    zero_noise_fid = fidelity(simulate_pure(deep), simulate_lindblad(deep, NoiseModel.none()))

    probe = dj_circuit(DJOracle("Z", "X"))
    halved = fidelity(
        simulate_lindblad(probe, noise, step_scale=1),
        simulate_lindblad(probe, noise, step_scale=2),
    )
    step_gap = 1.0 - halved

    table = {(0, "01"): 4.5, (0, "12"): 2.0, (1, "01"): 3.2, (1, "12"): 2.4}
    worst_ramsey = 0.0
    for (qutrit, transition), expected in table.items():
        got = ramsey_coherence_time(noise, qutrit, transition)
        worst_ramsey = max(worst_ramsey, abs(got - expected) / expected)

    ok = (
        drift < 1e-6 and min_eig >= -1e-6 and zero_noise_fid >= 1.0 - 1e-8
        and step_gap < 1e-6 and worst_ramsey <= 0.02
    )
    report(
        capsys, 6, ok,
        f"trace drift {drift:.1e}, min eig {min_eig:.1e}, zero-noise fid 1-{1.0 - zero_noise_fid:.1e}, "
        f"step-halving gap {step_gap:.1e}, worst Ramsey error {100 * worst_ramsey:.2f}% (tol 2%)",
    )
    assert drift < 1e-6
    assert min_eig >= -1e-6
    assert zero_noise_fid >= 1.0 - 1e-8
    assert step_gap < 1e-6
    assert worst_ramsey <= 0.02


def test_07_readout_mitigation(capsys):
    matrix = synthetic_confusion()

    true_counts = np.array([8000.0, 1000.0, 3000.0, 500.0, 2500.0, 1500.0, 900.0, 1600.0, 1000.0])
    roundtrip_err = float(np.max(np.abs(invert_confusion(matrix.m @ true_counts, matrix).q - true_counts)))
    roundtrip_ok = roundtrip_err < 1e-8

    rng = np.random.default_rng(59)
    n = 100.0
    floor = 10.0
    oracle_gap = 0.0
    feasible_ok = True
    step = 0.05
    axis = np.arange(floor, n - 2 * floor + step, step)
    p0, p1 = np.meshgrid(axis, axis, indexing="ij")
    p2 = n - p0 - p1
    valid = p2 >= floor
    for _ in range(6):
        q = rng.normal(loc=n / 3.0, scale=30.0, size=3)
        q += (n - q.sum()) / 3.0
        out = mle_correct(SignedCounts(q, n))
        feasible_ok &= abs(out.sum() - n) < 1e-6 and np.min(out) >= floor - 1e-9
        weights = np.where(np.abs(q) < math.sqrt(n), math.sqrt(n), np.abs(q))
        obj = ((p0 - q[0]) / weights[0]) ** 2 + ((p1 - q[1]) / weights[1]) ** 2 + ((p2 - q[2]) / weights[2]) ** 2
        obj = np.where(valid, obj, np.inf)
        best = np.unravel_index(np.argmin(obj), obj.shape)
        grid_best = np.array([p0[best], p1[best], n - p0[best] - p1[best]])
        oracle_gap = max(oracle_gap, float(np.max(np.abs(out - grid_best))))
    oracle_ok = oracle_gap <= 0.5

    pipeline_ok = True
    for idx in range(9):
        observed = sample_counts(apply_confusion(ProbDist(np.eye(9)[idx]), matrix), 20000, seed=300 + idx)
        corrected = mitigate_counts(observed, matrix)
        pipeline_ok &= int(np.argmax(corrected)) == idx

    ok = roundtrip_ok and feasible_ok and oracle_ok and pipeline_ok
    report(
        capsys, 7, ok,
        f"roundtrip err {roundtrip_err:.1e} (tol 1e-8), grid-oracle gap {oracle_gap:.3f} counts (tol 0.5), "
        f"argmax recovery {'9/9' if pipeline_ok else 'INCOMPLETE'}",
    )
    assert roundtrip_ok
    assert feasible_ok
    assert oracle_ok
    assert pipeline_ok


def test_08_device_spectrum(capsys):
    operating = labeled_spectrum(DeviceParams())

    w1_err = abs(operating.w01_q1 - 3.3494) / 3.3494
    w2_err = abs(operating.w01_q2 - 3.8310) / 3.8310
    freq_ok = w1_err <= 0.05 and w2_err <= 0.05

    sign_ok = operating.j11 < 0
    magnitude_ok = abs(abs(operating.j11) - 304.3) <= 0.5 * 304.3
    higher_sign_ok = operating.j21 > 0 and operating.j12 > 0

    sweep = flux_sweep(DeviceParams(), np.linspace(0.0, 0.3, 13))
    j11s = [abs(r.j11) for r in sweep]
    k = int(np.argmin(j11s))
    interior_ok = 0 < k < len(sweep) - 1

    values = {}
    for n in (6, 8, 10):
        rep = labeled_spectrum(DeviceParams(n_levels=n))
        values[n] = (rep.w01_q1, rep.j11)
    convergence_ok = True
    conv_detail = []
    for a, b in ((6, 8), (8, 10)):
        dw = abs(values[b][0] - values[a][0]) / abs(values[a][0])
        dj = abs(values[b][1] - values[a][1]) / abs(values[a][1])
        conv_detail.append(f"{a}->{b}: dw {100 * dw:.3f}%, dJ11 {100 * dj:.2f}%")
        convergence_ok &= dw < 1e-3 and dj < 0.05

    ok = freq_ok and sign_ok and magnitude_ok and higher_sign_ok and interior_ok and convergence_ok
    clauses = (
        f"freqs within 5% {'yes' if freq_ok else 'NO'} (dw1 {100 * w1_err:.2f}%, dw2 {100 * w2_err:.2f}%); "
        f"J11<0 {'yes' if sign_ok else 'NO'}; "
        f"|J11| in 304.3+-50% {'yes' if magnitude_ok else 'NO'} (|J11| {abs(operating.j11):.1f} kHz); "
        f"J21,J12>0 {'yes' if higher_sign_ok else 'NO'} ({operating.j21:.1f}, {operating.j12:.1f}); "
        f"interior |J11| min {'yes' if interior_ok else 'NO'} (flux {sweep[k].flux:.3f}); "
        f"convergence {'yes' if convergence_ok else 'NO'} ({'; '.join(conv_detail)})"
    )
    report(capsys, 8, ok, clauses)
    assert freq_ok
    assert sign_ok
    assert interior_ok
    assert magnitude_ok, f"|J11| = {abs(operating.j11):.1f} kHz, outside 304.3 +- 50%"
    assert higher_sign_ok, f"J21 = {operating.j21:.1f} kHz, J12 = {operating.j12:.1f} kHz, not both positive"
    assert convergence_ok, "; ".join(conv_detail)


def test_09_process_fidelities(capsys):
    ideal = chi_of_unitary(logical_gate("H"))

    noiseless = chi_of_unitary(circuit_unitary(single_qutrit_circuit("H", 0, n_qutrits=1)))
    noiseless_fid = process_fidelity(noiseless, ideal)
    noiseless_ok = abs(noiseless_fid - 1.0) <= 1e-8

    noise = ExperimentConfig.default().noise
    noisy_fids = {}
    for qidx in (0, 1):
        pair = merge_streams(2, {qidx: decompose_single("H", qidx)})
        channel = circuit_channel(pair, noise)
        noisy_fids[qidx] = process_fidelity(chi_matrix(reduced_qutrit_channel(channel, qidx)), ideal)
    noisy_ok = all(0.95 <= f <= 0.999 for f in noisy_fids.values())

    ok = noiseless_ok and noisy_ok
    report(
        capsys, 9, ok,
        f"noiseless H fid 1-{abs(noiseless_fid - 1.0):.1e} (tol 1e-8), "
        f"noisy H fid q1 {noisy_fids[0]:.4f}, q2 {noisy_fids[1]:.4f} (bracket [0.95, 0.999])",
    )
    assert noiseless_ok
    assert noisy_ok


def test_10_determinism(capsys):
    config = ExperimentConfig.default().replace(noisy=True, mitigate=True, shots=20000, seed=5)
    first = run_bv(config)
    second = run_bv(config)
    json_ok = first.to_json() == second.to_json()
    csv_ok = first.figure_csv == second.figure_csv
    ok = json_ok and csv_ok
    report(capsys, 10, ok, f"rerun bundle bytes identical: json {json_ok}, csv {csv_ok}")
    assert json_ok
    assert csv_ok
