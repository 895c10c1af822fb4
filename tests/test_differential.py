"""Every public runner against the reference model: every number of its bundle,
byte for byte where the package promises it, otherwise within the tolerance
stated here, set above the floor measured at 1 and 2 OpenBLAS threads."""

import json

import numpy as np
import pytest

from qutritlab import cli_harness
from qutritlab.cli_harness import ExperimentConfig, run_bv, run_device_report, run_dj, run_grover, run_process_tomo
from qutritlab.device_hamiltonian import DeviceParams
from qutritlab.gates_compiler import LOGICAL_GATE_NAMES
from qutritlab.noise_sim import chi_matrix, circuit_channel
from reference_model import (
    assert_documents_close,
    benchmark_tomo_profile,
    json_text,
    reference_algorithm,
    reference_device,
    reference_tomo,
    reference_tomo_csv,
)

pytestmark = pytest.mark.filterwarnings("ignore:negative 12 dephasing rate")

# The textbook walk (dense generator and RK4 propagators, one moment at a
# time) reads every noisy probability, success probability and average of
# the settings below, and every tomography fidelity, within 3.4e-16.
STATE_TOL = 1e-14
# The model's one eigh of the whole Fock H against the runner's parity
# blocks at n_levels 6: J within 9.8e-7 kHz, frequencies, the coupler mode
# and overlaps within 4.5e-13 GHz.
J_TOL_KHZ = 1e-5
GHZ_TOL = 5e-12
# A figure prints each number to 9 significant digits, at most 5e-9 of it
# away; the tomography figure prints parts below 1e-12 as 0.
PRINTED_REL = 5e-9

SETTINGS = {
    "exact": {"shots": None, "seed": None},
    "noisy": {"noisy": True, "shots": None, "seed": None},
    **{f"{name}_seed{seed}": {**setting, "seed": seed} for seed in (0, 5, 11) for name, setting in (
        ("sampled", {"shots": 2000}), ("noisy_sampled", {"noisy": True, "shots": 2000}))},
    **{f"noisy_mitigated_seed{seed}" + ("" if diagonal == 0.85 else f"_diagonal{diagonal}"): {
        "noisy": True, "mitigate": True, "shots": 20000, "seed": seed, "readout_diagonal": diagonal}
       for seed in (0, 5, 11) for diagonal in (0.85, 0.6, 1.0)},
}


def printed_cells(csv: str) -> np.ndarray:
    return np.array([line.split(",") for line in csv.splitlines()[1:]], dtype=float)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("name, runner", [("dj", run_dj), ("bv", run_bv), ("grover", run_grover)],
                         ids=["dj", "bv", "grover"])
def test_algorithm_runner_matches_the_model(name, runner, setting):
    config = ExperimentConfig.default().replace(**SETTINGS[setting])
    bundle = runner(config)
    # the per-moment walk and the per-vector readout give the prefix walk's and the stacked pass's bytes
    doc, csv = reference_algorithm(name, config)
    assert bundle.to_json() == json_text(doc)
    assert bundle.figure_csv == csv
    if config.noisy:
        textbook, _ = reference_algorithm(name, config, walk="textbook")
        assert_documents_close(json.loads(bundle.to_json()), textbook, STATE_TOL)


@pytest.mark.parametrize("profile", [None, 0, 1, 377, 767],
                         ids=["default", *(f"benchmark_profile{i}" for i in (0, 1, 377, 767))])
@pytest.mark.parametrize("qutrit", [1, 2])
@pytest.mark.parametrize("gate", LOGICAL_GATE_NAMES)
def test_process_tomography_matches_the_model(gate, qutrit, profile):
    # qutrit 2 takes the correlated-dephasing branch under the default profile, and not under profile 0
    config = ExperimentConfig.default() if profile is None else ExperimentConfig.from_mapping(
        {"coherence": benchmark_tomo_profile(profile)})
    bundle = run_process_tomo(config, gate, qutrit)
    text = bundle.to_json()
    doc, chi = reference_tomo(config, gate, qutrit)
    assert text == json_text(json.loads(text))
    assert_documents_close(json.loads(text), doc, STATE_TOL)
    # the figure is the per-row formatter's text of the runner's own chi, and the model's chi as printed
    pair = cli_harness._pair_circuit(gate, qutrit - 1)
    own = chi_matrix(circuit_channel(pair, config.noise, qutrit=qutrit - 1)).matrix
    assert bundle.figure_csv == reference_tomo_csv(own)
    want = np.stack([chi.real.ravel(), chi.imag.ravel()], axis=1)
    assert np.all(np.abs(printed_cells(bundle.figure_csv)[:, 2:] - want) <= PRINTED_REL * np.abs(want) + 2e-12)


def test_device_report_matches_the_model():
    config = ExperimentConfig.default().replace(device=DeviceParams(n_levels=6))
    grid = [0.0, 0.185, 0.3]
    bundle = run_device_report(config, grid)
    text = bundle.to_json()
    doc, rows = reference_device(config, grid)
    assert text == json_text(json.loads(text))
    assert_documents_close(json.loads(text), doc, GHZ_TOL,
                           {key: J_TOL_KHZ for key in ("j11_khz", "j21_khz", "j12_khz", "j22_khz",
                                                       "operating_j11_khz")})
    # flux and the four frequencies in GHz, then J11, J21, J12 and J22 in kHz
    slack = np.array([GHZ_TOL] * 5 + [J_TOL_KHZ] * 4)
    assert np.all(np.abs(printed_cells(bundle.figure_csv) - rows) <= PRINTED_REL * np.abs(rows) + slack)
    # each figure row prints its bundle entry's nine numbers to 9 significant digits
    header, *lines = bundle.figure_csv.splitlines()
    assert header == "flux,w01_q1,w12_q1,w01_q2,w12_q2,J11,J21,J12,J22"
    columns = ("flux", "w01_q1", "w12_q1", "w01_q2", "w12_q2", "j11_khz", "j21_khz", "j12_khz", "j22_khz")
    assert lines == [",".join(f"{entry[c]:.9g}" for c in columns) for entry in json.loads(text)["entries"]]
