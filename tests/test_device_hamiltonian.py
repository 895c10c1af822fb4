"""Three-node circuit model: normal form, dressed spectrum, flux sweep
and the closed-form toy coupling rates."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qutritlab
from qutritlab import device_hamiltonian
from qutritlab.device_hamiltonian import (
    K_C,
    DeviceModelError,
    DeviceParams,
    FluxRangeError,
    LabelingError,
    NormalFormError,
    TruncationError,
    build_full_hamiltonian,
    capacitance_matrix,
    flux_sweep,
    labeled_spectrum,
    normal_mode_transform,
    toy_couplings,
)
from qutritlab.cli_harness import ExperimentConfig, main, run_device_report
from reference_model import REQUIRED_LABELS, junction_quadratic, kron_hamiltonian, reference_spectrum

FLOAT_FIELDS = ("c_q1", "c_q2", "c_c", "c_q12", "e_j1", "e_j2", "e_jc", "flux")


class TestParams:
    def test_charge_energy_scale(self):
        assert K_C == pytest.approx(19.370229324659125, rel=1e-12)

    def test_defaults(self):
        p = DeviceParams()
        assert (p.c_q1, p.c_q2, p.c_c, p.c_q12) == (178.0, 131.0, 193.6, 2.0)
        assert (p.e_j1, p.e_j2, p.e_jc) == (13.6, 13.3, 1140.0)
        assert (p.flux, p.n_levels) == (0.185, 8)

    def test_validation(self):
        with pytest.raises(DeviceModelError):
            DeviceParams(c_q1=0.0)
        with pytest.raises(DeviceModelError):
            DeviceParams(c_q12=-1.0)
        with pytest.raises(DeviceModelError):
            DeviceParams(e_j2=-0.1)
        with pytest.raises(TruncationError):
            DeviceParams(n_levels=0)

    # True == 1.0 and hashes alike, so it would share 1.0's cached labeling
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, True, "1"], ids=["nan", "inf", "-inf", "bool", "str"]
    )
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(DeviceModelError, match=f"{name} must be a finite number"):
            DeviceParams(n_levels=6, **{name: value})

    @pytest.mark.parametrize("n_levels", [3, 21])
    def test_truncation_outside_4_to_20_rejected(self, n_levels):
        # below 4 no |3 1 0> exists to label; above 20 one spectrum takes tens of seconds and GBs.
        # Both are refused where the parameters are made, so a profile fails at load
        with pytest.raises(TruncationError, match="between 4 and 20"):
            DeviceParams(n_levels=n_levels)
        with pytest.raises(TruncationError, match="between 4 and 20"):
            ExperimentConfig.from_mapping({"device": {"n_levels": n_levels}})
        assert [DeviceParams(n_levels=n).n_levels for n in (4, 20)] == [4, 20]

    @pytest.mark.parametrize("n_levels", [6.0, True, "6"], ids=["float", "bool", "str"])
    def test_non_integer_truncation_rejected(self, n_levels):
        # 6.0 == 6 would otherwise share the integer truncation's cache entry
        with pytest.raises(TruncationError, match="integer"):
            DeviceParams(n_levels=n_levels)

    def test_numpy_integer_truncation_is_stored_as_int(self):
        # the config loader accepts np.int64(6) as 6; so must the parameters,
        # and both must land in one spectrum-cache slot
        p = DeviceParams(n_levels=np.int64(6), flux=0.1)
        assert type(p.n_levels) is int
        assert p == DeviceParams(n_levels=6, flux=0.1)
        assert hash(p) == hash(DeviceParams(n_levels=6, flux=0.1))
        labeled_spectrum(DeviceParams(n_levels=6, flux=0.1))
        hits = device_hamiltonian._label_eigenstates.cache_info().hits
        labeled_spectrum(p)
        assert device_hamiltonian._label_eigenstates.cache_info().hits == hits + 1

    def test_with_flux_returns_new_instance(self):
        p = DeviceParams()
        q = p.with_flux(0.2)
        assert q.flux == 0.2
        assert p.flux == 0.185
        assert q.c_q1 == p.c_q1

    def test_coupler_energy_flux_dependence(self):
        p = DeviceParams()
        assert p.coupler_energy() == pytest.approx(1140.0 * math.cos(math.pi * 0.185))
        assert p.with_flux(0.0).coupler_energy() == pytest.approx(1140.0)
        with pytest.raises(FluxRangeError):
            p.with_flux(0.6).coupler_energy()

    @pytest.mark.parametrize("flux", [0.5, -0.5, 1.5])
    def test_half_flux_quantum_leaves_no_coupler_energy(self, flux):
        # cos(pi / 2) rounds to 6.1e-17, which must not pass for a positive energy
        p = DeviceParams(n_levels=6, flux=flux)
        junctionless = replace(p, e_j1=0.0)
        for call in (p.coupler_energy, lambda: labeled_spectrum(p), lambda: toy_couplings(junctionless)):
            with pytest.raises(FluxRangeError):
                call()

    def test_coupler_energy_repeats_every_two_flux_quanta(self):
        assert DeviceParams(flux=2.0).coupler_energy() == pytest.approx(1140.0)
        assert DeviceParams(flux=-1.815).coupler_energy() == pytest.approx(DeviceParams().coupler_energy())


class TestCapacitance:
    def test_entries(self):
        c = capacitance_matrix(DeviceParams())
        assert c[0, 0] == 180.0
        assert c[1, 1] == 133.0
        assert c[2, 2] == pytest.approx(502.6)
        assert c[0, 1] == c[1, 0] == -2.0
        assert c[0, 2] == c[1, 2] == 0.0

    def test_symmetric(self):
        c = capacitance_matrix(DeviceParams())
        assert np.array_equal(c, c.T)


class TestNormalForm:
    def test_simultaneous_diagonalization(self):
        p = DeviceParams()
        nf = normal_mode_transform(p)
        charging = 4.0 * K_C * np.linalg.inv(capacitance_matrix(p))
        assert np.allclose(nf.u @ nf.u.T, charging, rtol=1e-10, atol=1e-12)
        inductive = nf.u.T @ junction_quadratic(p) @ nf.u
        assert np.allclose(inductive, np.diag(nf.d_tilde), atol=1e-10)

    def test_frozen_mode_constants(self):
        nf = normal_mode_transform(DeviceParams())
        assert nf.d_tilde == pytest.approx([2.88468694, 3.81865399, 75.6158449], rel=1e-7)
        assert nf.mode_freqs == pytest.approx([3.39687323, 3.90827532, 17.39147434], rel=1e-7)
        assert nf.mode_to_node == (0, 1, 2)

    def test_mode_frequencies_definition(self):
        nf = normal_mode_transform(DeviceParams())
        assert np.allclose(nf.mode_freqs, 2.0 * np.sqrt(nf.d_tilde))

    def test_transmon_junctions_off_has_no_normal_form(self):
        # only the coupler junction left: the inductive form is rank one
        with pytest.raises(NormalFormError):
            normal_mode_transform(DeviceParams(e_j1=0.0, e_j2=0.0))

    def test_all_energies_off_rejected_at_the_flux_check(self):
        with pytest.raises(FluxRangeError):
            normal_mode_transform(DeviceParams(e_j1=0.0, e_j2=0.0, e_jc=0.0))


class TestFullHamiltonian:
    def test_minimum_truncation(self):
        with pytest.raises(TruncationError):
            build_full_hamiltonian(DeviceParams(n_levels=3))

    def test_hermitian(self):
        h = build_full_hamiltonian(DeviceParams(n_levels=5))
        assert np.allclose(h, h.T, atol=1e-12)

    @pytest.mark.parametrize("n_levels", [5, 6, 8, 10])
    @pytest.mark.parametrize("flux", [0.0, 0.185, 0.3])
    def test_linearized_spectrum_is_harmonic(self, n_levels, flux):
        # the reference model's harmonic limit: the junction cosines replaced by their quadratic expansions
        p = DeviceParams(n_levels=n_levels, flux=flux)
        nf = normal_mode_transform(p)
        h = kron_hamiltonian(p, linearize=True)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-9
        # interior ladder spacing of each mode equals its normal frequency;
        # the very top Fock level is a truncation edge and is excluded
        n = p.n_levels
        diag = np.diag(h).reshape(n, n, n)
        for k, stride_axis in enumerate((0, 1, 2)):
            levels = np.moveaxis(diag, stride_axis, 0)[:, 0, 0]
            spacings = np.diff(levels)[: n - 2]
            assert spacings == pytest.approx([nf.mode_freqs[k]] * (n - 2), rel=1e-9)

    def test_cosine_model_lies_below_harmonic_limit(self):
        p = DeviceParams(n_levels=6)
        full = np.linalg.eigvalsh(build_full_hamiltonian(p))
        harmonic = np.linalg.eigvalsh(kron_hamiltonian(p, linearize=True))
        offset = p.e_j1 + p.e_j2 + p.coupler_energy()
        # the cosine wells subtract their depth and compress the ladder
        assert full[0] + offset < harmonic[0]
        assert full[1] - full[0] < harmonic[1] - harmonic[0]


class TestHamiltonianAssembly:
    """build_full_hamiltonian contracts single-mode factors and takes the
    cosines as real parts; the dense Kronecker form is the reference."""

    @pytest.mark.parametrize("n_levels", [5, 8])
    @pytest.mark.parametrize("flux", [0.0, 0.185, 0.3])
    def test_cosines_match_kron_form(self, n_levels, flux):
        p = DeviceParams(n_levels=n_levels, flux=flux)
        # entries reach ~1150 GHz, whose float64 spacing is 2.3e-13
        assert np.max(np.abs(build_full_hamiltonian(p) - kron_hamiltonian(p))) < 1e-11


def parity_of(n: int) -> np.ndarray:
    return np.array([sum(np.unravel_index(i, (n, n, n))) % 2 for i in range(n**3)])


def factors_of(p: DeviceParams):
    return device_hamiltonian._factors(p, normal_mode_transform(p))


class TestParitySectors:
    """labeled_spectrum diagonalizes H one total-Fock-parity block at a time,
    each contracted from the factors of H without the full matrix."""

    @pytest.mark.parametrize("n_levels", [5, 6, 8, 10])
    @pytest.mark.parametrize("flux", [0.0, 0.185, 0.3])
    def test_sector_blocks_match_full_matrix(self, n_levels, flux):
        p = DeviceParams(n_levels=n_levels, flux=flux)
        h = build_full_hamiltonian(p)
        parity = parity_of(n_levels)
        _, sectors = device_hamiltonian._sector_tables(n_levels)
        assert np.array_equal(np.sort(np.concatenate([m for _, m in sectors])), np.arange(n_levels**3))
        for s, (grid, members) in enumerate(sectors):
            assert np.all(parity[members] == s)
            block = device_hamiltonian._contract(factors_of(p), grid)
            assert np.max(np.abs(block - h[np.ix_(members, members)])) <= 1e-12

    def test_labeling_never_builds_the_full_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum path formed the full matrix")

        device_hamiltonian._label_eigenstates.cache_clear()
        monkeypatch.setattr(device_hamiltonian, "build_full_hamiltonian", refuse)
        report = labeled_spectrum(DeviceParams(n_levels=6, flux=0.15))
        assert device_hamiltonian._label_eigenstates.cache_info().misses == 1
        assert report.w12_q1 < report.w01_q1

    @pytest.mark.parametrize("n_levels", [6, 8, 10])
    @pytest.mark.parametrize("flux", [0.0, 0.185, 0.3])
    def test_factor_parities(self, n_levels, flux):
        # charging terms, then per junction (-E Re E01, Re E2) and (E Im E01, Im E2):
        # Re E_k = cos(w_k phi_k) keeps the Fock parity and Im E_k = sin(w_k phi_k) flips it
        p = DeviceParams(n_levels=n_levels, flux=flux)
        factors = factors_of(p)
        odd, _ = device_hamiltonian._sector_tables(n_levels)
        for x, mask in zip(factors, odd):
            assert len(x) == 9
            assert not np.any(x[:3] * mask)
            for t, flips in zip(range(3, 9), [False, True] * 3):
                kept = mask if flips else ~mask
                assert np.max(np.abs(x[t] * ~kept)) <= 1e-13 * np.max(np.abs(x[t]))
        # the guard's bound covers every cross-parity entry of H
        h = build_full_hamiltonian(p)
        parity = parity_of(n_levels)
        cross = np.max(np.abs(h[np.ix_(parity == 0, parity == 1)]))
        assert cross <= device_hamiltonian._parity_leak(factors, odd) <= 1e-9

    @pytest.mark.parametrize(
        "n_levels, fluxes",
        [(8, np.linspace(0.0, 0.3, 13)), (6, [0.185]), (10, [0.185])],
        ids=["sweep-n8", "operating-n6", "operating-n10"],
    )
    def test_matches_the_dense_model(self, n_levels, fluxes):
        # the model's one eigh of the whole kron H: J within J_TOL_KHZ, every GHz quantity and overlap within GHZ_TOL
        for flux in fluxes:
            p = DeviceParams(n_levels=n_levels, flux=float(flux))
            report, model = labeled_spectrum(p), reference_spectrum(p)
            overlap = device_hamiltonian._label_eigenstates(p)[2]
            assert overlap.tolist() == pytest.approx([model["overlaps"][label] for label in REQUIRED_LABELS], abs=GHZ_TOL)
            assert report.energies == pytest.approx(model["energies"], abs=GHZ_TOL)
            assert report.j_values() == pytest.approx([model[j] for j in ("j11", "j21", "j12", "j22")], abs=J_TOL_KHZ)
            for name in ("w01_q1", "w12_q1", "w01_q2", "w12_q2", "coupler_ghz", "min_overlap"):
                assert getattr(report, name) == pytest.approx(model[name], abs=GHZ_TOL), name

    def test_broken_parity_symmetry_raises(self, monkeypatch):
        original = device_hamiltonian._factors

        def mixed(*args, **kwargs):
            a, b = original(*args, **kwargs)
            # factor 2 is (identity, mode-2 charging term); mode-2 levels 0 and
            # 1 have opposite parity, so H mixes |000> and |001> by 1e-6
            b[2, 0, 1] = b[2, 1, 0] = 1e-6
            return a, b

        # a cached labeling of the same params would skip the guard
        device_hamiltonian._label_eigenstates.cache_clear()
        monkeypatch.setattr(device_hamiltonian, "_factors", mixed)
        with pytest.raises(DeviceModelError, match="parity"):
            labeled_spectrum(DeviceParams(n_levels=6))


# Cross-Kerr values at the operating point, in kHz: exact eigenvalues of
# the float64 H that build_full_hamiltonian returns, taken as longdouble
# (80-bit) Rayleigh quotients of its labelled eigenvectors. They agree
# between 1 and 2 BLAS threads to 3e-10 kHz.
REFERENCE_J = (-31.418496063181922, -30.372515516755016, -6.913569575786593, 35.784229260552025)
REFERENCE_ZZ = -32.920351895171507
# eigh reads J at most 6.4e-7 kHz from the reference (threads 1 and 2,
# n_levels 6/8/10 and a 13-point flux sweep); pins sit at ~15x that floor.
# The reference model's dense eigh reads J within 1.4e-6 kHz of the parity
# blocks, and energies, frequencies and overlaps within 4.7e-13 GHz (the
# sweep and operating points below, 1 and 2 threads): GHZ_TOL is ~10x that.
J_TOL_KHZ = 1e-5
GHZ_TOL = 5e-12
# n_levels 12 -> 14 moves J11, J21, J12, J22 by 0.103, 0.006, 0.099 and
# 0.002 kHz (1 and 2 BLAS threads agree to 1e-6 kHz); the bound sits ~1.5x
# above the largest
CONVERGED_J_TOL_KHZ = 0.15
# README floor between 1 and 2 OpenBLAS threads over n_levels 6/8/10 and a
# 13-point flux sweep: J at most 8.5e-7 kHz and frequencies 1.7e-13 GHz
# apart as measured (x86-64, OpenBLAS 0.3.31), held to about twice that
THREADS_J_KHZ = 2e-6
THREADS_GHZ = 4e-13


@pytest.fixture(scope="module")
def report():
    return labeled_spectrum(DeviceParams())


@pytest.fixture(scope="module")
def sweep():
    return flux_sweep(DeviceParams(), np.linspace(0.0, 0.3, 13))


class TestOperatingPoint:
    def test_transition_frequencies(self, report):
        assert report.w01_q1 == pytest.approx(3.282021027832343, abs=1e-9)
        assert report.w12_q1 == pytest.approx(3.170261449514328, abs=1e-9)
        assert report.w01_q2 == pytest.approx(3.753189494229332, abs=1e-9)
        assert report.w12_q2 == pytest.approx(3.599498572353241, abs=1e-9)

    def test_cross_kerr_coefficients(self, report):
        assert report.j11 == pytest.approx(REFERENCE_J[0], abs=J_TOL_KHZ)
        assert report.j21 == pytest.approx(REFERENCE_J[1], abs=J_TOL_KHZ)
        assert report.j12 == pytest.approx(REFERENCE_J[2], abs=J_TOL_KHZ)
        assert report.j22 == pytest.approx(REFERENCE_J[3], abs=J_TOL_KHZ)

    def test_cross_kerr_independent_of_blas_threads(self):
        # the thread count must be set before numpy is imported, so each
        # setting gets its own interpreter; it prints the operating point's J,
        # then J and the frequencies of a flux sweep at n_levels 6, 8 and 10
        script = (
            "import json; import numpy as np; "
            "from qutritlab.device_hamiltonian import DeviceParams, flux_sweep, labeled_spectrum; "
            "sweep = [r for n in (6, 8, 10) for r in flux_sweep(DeviceParams(n_levels=n), np.linspace(0, 0.3, 13))]; "
            "print(json.dumps([labeled_spectrum(DeviceParams()).j_values(), "
            "[r.j_values() for r in sweep], [(r.w01_q1, r.w12_q1, r.w01_q2, r.w12_q2) for r in sweep]]))"
        )
        src = str(Path(qutritlab.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            runs.append(json.loads(done.stdout))
        (point_1, j_1, w_1), (point_2, j_2, w_2) = runs
        assert point_1 == pytest.approx(point_2, abs=J_TOL_KHZ)
        for values in (point_1, point_2):
            assert values == pytest.approx(REFERENCE_J, abs=J_TOL_KHZ)
        assert np.max(np.abs(np.subtract(j_1, j_2))) <= THREADS_J_KHZ
        assert np.max(np.abs(np.subtract(w_1, w_2))) <= THREADS_GHZ

    def test_zz_shift_consistent_with_fit(self, report):
        assert report.zz["zz"] == pytest.approx(REFERENCE_ZZ, abs=J_TOL_KHZ)
        assert report.zz["zz"] == pytest.approx(report.chi_from_j(1, 1), abs=1e-6)

    def test_higher_zz_combinations_present(self, report):
        assert set(report.zz) == {"zz", "zz_2110", "zz_1021", "zz_2120", "zz_2021", "zz_1020", "zz_2010"}

    def test_coupler_mode(self, report):
        assert report.coupler_ghz == pytest.approx(17.391474336662803, abs=1e-6)

    def test_cross_kerr_converged_between_12_and_14_levels(self):
        j12 = labeled_spectrum(DeviceParams(n_levels=12)).j_values()
        j14 = labeled_spectrum(DeviceParams(n_levels=14)).j_values()
        assert j14 == pytest.approx(j12, abs=CONVERGED_J_TOL_KHZ)

    def test_labeling_quality(self, report):
        assert report.min_overlap == pytest.approx(0.6488219840962697, abs=1e-6)
        assert report.min_overlap > 0.5

    def test_energy_table_covers_required_labels(self, report):
        expected = {(m, n) for m in range(3) for n in range(3)} | {(3, 0), (3, 1)}
        assert expected <= set(report.energies)
        assert report.energies[(0, 0)] == 0.0
        assert report.energies[(1, 1)] == pytest.approx(7.035177601709506, abs=1e-6)

    def test_energy_ladder_monotone(self, report):
        for n in range(2):
            assert report.energies[(0, n)] < report.energies[(1, n)] < report.energies[(2, n)] < report.energies[(3, n)]
        for m in range(2):
            assert report.energies[(m, 0)] < report.energies[(m, 1)] < report.energies[(m, 2)]

    def test_row_format(self, report):
        # cli_harness writes the device figure: one %.9g row per flux point
        header, row = run_device_report(ExperimentConfig.from_mapping({}), [0.185]).figure_csv.strip().split("\n")
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        assert float(fields[0]) == 0.185
        assert float(fields[1]) == pytest.approx(report.w01_q1, rel=1e-8)
        assert float(fields[5]) == pytest.approx(report.j11, rel=1e-8)


class TestLabeling:
    def test_inverted_transition_order_rejected(self):
        # a harmonic ladder has w12 == w01, which must not pass as a transmon
        from qutritlab.device_hamiltonian import SpectrumReport

        energies = {(m, n): float(3 * m + 4 * n) for m in range(4) for n in range(3)}
        with pytest.raises(LabelingError):
            SpectrumReport(
                flux=0.1, n_levels=8, energies=energies,
                w01_q1=3.0, w12_q1=3.0, w01_q2=4.0, w12_q2=4.0,
                j11=0.0, j21=0.0, j12=0.0, j22=0.0,
                zz={"zz": 0.0}, coupler_ghz=17.0, min_overlap=0.9, sweet_spot=False,
            )

    def test_strong_mixing_rejected(self):
        # near half a flux quantum the coupler mode crosses the qutrits: two
        # normal modes peak on one node, and nothing is cached
        p = DeviceParams(flux=0.49)
        assert normal_mode_transform(p).mode_to_node == (0, 1, 1)
        device_hamiltonian._label_eigenstates.cache_clear()
        for _ in range(2):
            with pytest.raises(LabelingError, match=r"\(0, 1, 1\)"):
                labeled_spectrum(p)
        assert device_hamiltonian._label_eigenstates.cache_info().currsize == 0

    def test_label_no_eigenstate_carries_is_reported_missing(self):
        # four levels per mode at flux 0.3 leave |010> and |300> dominant in
        # no eigenstate; the 4-level eigenvectors are degenerate, so only the
        # kind of failure is pinned, not the full message
        with pytest.raises(LabelingError, match="missing"):
            labeled_spectrum(DeviceParams(n_levels=4, flux=0.3))

    def test_strong_mixing_exits_one_with_json(self, capsys):
        assert main(["device", "sweep", "--from", "0.49", "--to", "0.49", "--steps", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "LabelingError"


class TestSpectrumCache:
    """_label_eigenstates diagonalizes each parameter set once per process;
    labeled_spectrum still builds a fresh report on every call."""

    cache = staticmethod(device_hamiltonian._label_eigenstates)

    def test_repeat_is_a_hit_with_an_equal_report(self):
        p = DeviceParams(n_levels=6, flux=0.1)
        first = labeled_spectrum(p)
        hits = self.cache.cache_info().hits
        second = labeled_spectrum(p)
        assert self.cache.cache_info().hits == hits + 1
        assert second == first
        assert second is not first

    def test_reports_share_no_mutable_state(self):
        p = DeviceParams(n_levels=6, flux=0.1)
        first = labeled_spectrum(p)
        energies, zz = dict(first.energies), dict(first.zz)
        first.energies[(1, 1)] = 0.0
        first.zz["zz"] = 0.0
        second = labeled_spectrum(p)
        assert second.energies == energies
        assert second.zz == zz

    def test_cached_labeling_is_read_only(self):
        nf, energy, overlap = self.cache(DeviceParams(n_levels=6, flux=0.1))
        assert energy.shape == overlap.shape == (len(device_hamiltonian._REQUIRED_LABELS),)
        for array in (energy, overlap, nf.u):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_sweep_stays_within_the_bound(self):
        self.cache.cache_clear()
        flux_sweep(DeviceParams(n_levels=6), np.linspace(0.0, 0.3, 13))
        info = self.cache.cache_info()
        assert info.misses == 13
        assert info.maxsize == device_hamiltonian._SPECTRUM_CACHE_SIZE
        assert info.currsize <= info.maxsize

    def test_errors_raise_on_every_call(self):
        # FluxRangeError comes from inside the cached call and is not stored;
        # with four levels per mode the labeling is stored and labeled_spectrum
        # rejects its overlaps each time
        self.cache.cache_clear()
        for _ in range(2):
            with pytest.raises(FluxRangeError):
                labeled_spectrum(DeviceParams(n_levels=6, flux=0.6))
        assert self.cache.cache_info().currsize == 0
        for _ in range(2):
            with pytest.raises(LabelingError, match="overlap"):
                labeled_spectrum(DeviceParams(n_levels=4))
        assert self.cache.cache_info().currsize == 1

    def test_forced_failure_is_not_remembered(self, monkeypatch):
        p = DeviceParams(n_levels=6, flux=0.2)
        self.cache.cache_clear()
        reference = labeled_spectrum(p)
        self.cache.cache_clear()
        with monkeypatch.context() as patch:
            def broken(*args, **kwargs):
                raise LabelingError("forced")

            patch.setattr(device_hamiltonian, "_factors", broken)
            with pytest.raises(LabelingError, match="forced"):
                labeled_spectrum(p)
        assert labeled_spectrum(p) == reference

    def test_device_sweep_stdout_cold_and_warm_agree(self, capsys):
        argv = ["device", "sweep", "--from", "0", "--to", "0.3", "--steps", "2"]
        self.cache.cache_clear()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        misses = self.cache.cache_info().misses
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert self.cache.cache_info().misses == misses
        assert cold == warm


class TestFluxSweep:
    def test_row_count_and_order(self, sweep):
        assert len(sweep) == 13
        assert [r.flux for r in sweep] == pytest.approx(list(np.linspace(0.0, 0.3, 13)))

    def test_sweet_spot_flag_only_at_zero(self, sweep):
        assert sweep[0].sweet_spot is True
        assert all(not r.sweet_spot for r in sweep[1:])

    @pytest.mark.parametrize("flux", [2.0, -2.0])
    def test_sweet_spot_follows_the_flux_period(self, flux):
        shifted = labeled_spectrum(DeviceParams().with_flux(flux))
        assert shifted.sweet_spot is True
        assert shifted.w01_q1 == labeled_spectrum(DeviceParams().with_flux(0.0)).w01_q1

    def test_single_point_matches_direct_call(self):
        direct = labeled_spectrum(DeviceParams())
        swept = flux_sweep(DeviceParams(), [0.185])[0]
        assert swept.w01_q1 == direct.w01_q1
        assert swept.j11 == direct.j11

    def test_smallest_coupling_in_the_interior(self, sweep):
        j11s = [abs(r.j11) for r in sweep]
        k = int(np.argmin(j11s))
        assert 0 < k < len(sweep) - 1

    def test_csv_shape(self):
        text = run_device_report(ExperimentConfig.from_mapping({}), np.linspace(0.0, 0.3, 13)).figure_csv
        lines = text.strip().split("\n")
        assert lines[0] == "flux,w01_q1,w12_q1,w01_q2,w12_q2,J11,J21,J12,J22"
        assert len(lines) == 14
        for line in lines[1:]:
            assert len(line.split(",")) == 9


class TestToyCouplings:
    def test_operating_point_values(self):
        g1, g2 = toy_couplings(DeviceParams())
        assert g1 == pytest.approx(24.76995179577442, rel=1e-9)
        assert g2 == pytest.approx(133985.12423262224, rel=1e-9)

    def test_junction_rate_grows_away_from_zero_bias(self):
        p = DeviceParams()
        g1s = [toy_couplings(p, flux=f)[0] for f in np.linspace(0.0, 0.25, 6)]
        assert all(b > a for a, b in zip(g1s, g1s[1:]))

    def test_missing_junction_kills_both_rates(self):
        assert toy_couplings(DeviceParams(e_j1=0.0)) == (0.0, 0.0)

    def test_zero_bridge_capacitance_rejected_before_diagonalizing(self):
        misses = device_hamiltonian._label_eigenstates.cache_info().misses
        with pytest.raises(DeviceModelError, match="bridge capacitance"):
            toy_couplings(DeviceParams(c_q12=0.0))
        assert device_hamiltonian._label_eigenstates.cache_info().misses == misses

    def test_negative_coupler_energy_rejected(self):
        with pytest.raises(FluxRangeError):
            toy_couplings(DeviceParams(), flux=0.6)


class TestKnownModelLimitations:
    """The three-node lumped model reproduces the transition frequencies
    and the sign of the leading cross-Kerr coefficient, but not the
    magnitude of the higher coefficients the acceptance suite targets.
    These are kept as strict expected failures so any model change that
    fixes them is flagged."""

    @pytest.mark.xfail(
        strict=True,
        reason="model gives |J11| near 31 kHz, far below the 304.3 kHz target window",
    )
    def test_leading_cross_kerr_magnitude(self):
        report = labeled_spectrum(DeviceParams())
        assert abs(abs(report.j11) - 304.3) <= 0.5 * 304.3

    @pytest.mark.xfail(
        strict=True,
        reason="model gives negative J21 and J12 at the operating point",
    )
    def test_higher_cross_kerr_signs(self):
        report = labeled_spectrum(DeviceParams())
        assert report.j21 > 0
        assert report.j12 > 0

    @pytest.mark.xfail(
        strict=True,
        reason="J11 still moves by more than 5% between 8 and 10 levels",
    )
    def test_truncation_convergence(self):
        values = {}
        for n in (6, 8, 10):
            rep = labeled_spectrum(DeviceParams(n_levels=n))
            values[n] = (rep.w01_q1, rep.j11)
        for a, b in ((6, 8), (8, 10)):
            dw = abs(values[b][0] - values[a][0]) / abs(values[a][0])
            dj = abs(values[b][1] - values[a][1]) / abs(values[a][1])
            assert dw < 1e-3
            assert dj < 0.05
