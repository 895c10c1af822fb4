"""Circuit quantization of two fixed-frequency transmons bridged by a
flux-tunable coupler junction.

The lumped model has three nodes (transmon 1, transmon 2, coupler).
Charging energy comes from the node capacitance matrix, inductive energy
from the two transmon junctions (each connecting its node to the coupler
node) and from the coupler junction to ground, whose effective Josephson
energy is tuned by the external flux as E_Jc cos(pi Phi_ext / Phi0).

Quantization proceeds in normal modes: the quadratic form is brought to
Sum_k (n_k**2 + D_k phi_k**2), each mode is truncated to a Fock ladder,
and the full junction cosines are reinserted via spectral decomposition
of the dressed flux operators. Dressed eigenstates are labeled by their
dominant bare-product component, which gives transition frequencies and
the dispersive (cross-Kerr) shifts between the two qutrits.

Units: capacitances in fF, energies and frequencies in GHz (h = 1),
cross-Kerr coefficients in kHz, flux in units of the flux quantum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from .qutrit_core import QutritLabError

# e**2 / 2h in GHz * fF:
K_C = 1.602176634e-19**2 / (2.0 * 6.62607015e-34) * 1e15 * 1e-9

_REQUIRED_LABELS = [(m, n) for m in range(3) for n in range(3)] + [(3, 0), (3, 1)]
# H's cross-parity block measures at most 9.1e-13 GHz (n_levels 6 to 10,
# flux 0 to 0.3, max|H| up to 1154 GHz); a thousand times that means the
# model lost the symmetry
_PARITY_TOL_GHZ = 1e-9
# labelings _label_eigenstates keeps: each truncation's operating point stays warm
_SPECTRUM_CACHE_SIZE = 8


class DeviceModelError(QutritLabError, RuntimeError):
    """Base for device-model failures."""


class NormalFormError(DeviceModelError):
    """The quadratic Hamiltonian has no positive-definite normal form."""


class TruncationError(DeviceModelError, ValueError):
    """The Fock truncation is too small to be meaningful."""


class FluxRangeError(DeviceModelError, ValueError):
    """The flux bias drives the coupler junction energy nonpositive."""


class LabelingError(DeviceModelError):
    """Dressed states cannot be assigned bare labels unambiguously."""


@dataclass(frozen=True)
class DeviceParams:
    """Lumped circuit parameters and flux bias."""

    c_q1: float = 178.0
    c_q2: float = 131.0
    c_c: float = 193.6
    c_q12: float = 2.0
    e_j1: float = 13.6
    e_j2: float = 13.3
    e_jc: float = 1140.0
    flux: float = 0.185
    n_levels: int = 8

    def __post_init__(self):
        # equal parameter sets share one cached labeling, so 6.0 must not
        # pass for 6 and nan (equal to nothing) must not reach eigh
        if isinstance(self.n_levels, bool) or not isinstance(self.n_levels, int):
            raise TruncationError(f"n_levels must be an integer, got {self.n_levels!r}")
        for f in fields(self):
            if f.name != "n_levels" and not math.isfinite(getattr(self, f.name)):
                raise DeviceModelError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("c_q1", "c_q2", "c_c"):
            if getattr(self, name) <= 0:
                raise DeviceModelError(f"{name} must be positive")
        if self.c_q12 < 0:
            raise DeviceModelError("c_q12 cannot be negative")
        if min(self.e_j1, self.e_j2, self.e_jc) < 0:
            raise DeviceModelError("Josephson energies cannot be negative")
        if self.n_levels < 1:
            raise TruncationError("n_levels must be at least 1")

    def with_flux(self, flux: float) -> "DeviceParams":
        return replace(self, flux=float(flux))

    def squid_cos(self) -> float:
        """Flux factor of the coupler junction energy."""
        return math.cos(math.pi * self.flux)

    def coupler_energy(self) -> float:
        """Effective coupler Josephson energy at the current bias."""
        value = self.e_jc * self.squid_cos()
        # cos(pi / 2) rounds to 6.1e-17 > 0, so the sign at and beyond half a
        # flux quantum (mod 2) is read from the flux itself
        if abs(math.remainder(self.flux, 2.0)) >= 0.5:
            value = min(value, 0.0)
        if value <= 0.0:
            raise FluxRangeError(
                f"coupler junction energy {value:.3g} GHz at flux {self.flux}; must stay positive"
            )
        return value


def capacitance_matrix(params: DeviceParams) -> np.ndarray:
    """Node capacitance matrix (transmon 1, transmon 2, coupler)."""
    c1, c2, cc, c12 = params.c_q1, params.c_q2, params.c_c, params.c_q12
    m = np.array(
        [
            [c1 + c12, -c12, 0.0],
            [-c12, c2 + c12, 0.0],
            [0.0, 0.0, c1 + c2 + cc],
        ]
    )
    if np.any(np.diag(m) <= 0):
        raise DeviceModelError("capacitance matrix has non-positive diagonal entries")
    return m


def _charging_form(params: DeviceParams) -> np.ndarray:
    return 4.0 * K_C * np.linalg.inv(capacitance_matrix(params))


def _inductive_form(params: DeviceParams, decoupled: bool = False) -> np.ndarray:
    ej1, ej2 = params.e_j1, params.e_j2
    ejc_eff = params.coupler_energy()
    if decoupled:
        # diagnostic limit: every junction to ground, no coupling structure
        return 0.5 * np.diag([ej1, ej2, ej1 + ej2 + ejc_eff])
    return 0.5 * np.array(
        [
            [ej1, 0.0, -ej1],
            [0.0, ej2, -ej2],
            [-ej1, -ej2, ej1 + ej2 + ejc_eff],
        ]
    )


@dataclass(frozen=True)
class NormalForm:
    """Simultaneous normal form of the charging and inductive quadratics.

    phi = u @ phi_tilde and n = inv(u).T @ n_tilde turn the quadratic
    Hamiltonian into sum_k (c_tilde_k n_k**2 + d_tilde_k phi_k**2) with
    every c_tilde_k equal to 1.
    """

    u: np.ndarray
    c_tilde: np.ndarray
    d_tilde: np.ndarray
    orthogonal: np.ndarray
    mode_to_node: tuple[int, ...]

    @property
    def mode_freqs(self) -> np.ndarray:
        """2 sqrt(c d) per mode, in GHz."""
        return 2.0 * np.sqrt(self.c_tilde * self.d_tilde)


def normal_mode_transform(params: DeviceParams, decoupled: bool = False) -> NormalForm:
    """Diagonalize the charging and quadratic inductive forms together.

    Charges and fluxes are rescaled so the charging part becomes the
    identity, then the inductive part is orthogonally diagonalized.
    """
    a = _charging_form(params)
    b = _inductive_form(params, decoupled)
    wa, va = np.linalg.eigh(a)
    if wa.min() <= 0:
        raise NormalFormError("charging form is not positive definite")
    a_half = (va * np.sqrt(wa)) @ va.T
    lam, orth = np.linalg.eigh(a_half @ b @ a_half)
    if lam.min() <= 0:
        raise NormalFormError(
            f"inductive form is not positive definite at flux {params.flux} (min eigenvalue {lam.min():.3g})"
        )
    u = a_half @ orth
    mode_to_node = tuple(int(np.argmax(np.abs(u[:, k]))) for k in range(3))
    return NormalForm(u=u, c_tilde=np.ones(3), d_tilde=lam, orthogonal=orth, mode_to_node=mode_to_node)


def _add_on_mode(h: np.ndarray, k: int, op: np.ndarray) -> None:
    """h += op on mode k, identity on the other two modes, in place."""
    n = op.shape[0]
    j, l = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    others = [j, l]
    index = tuple(others[:k] + [slice(None)] + others[k:])
    h.reshape((n,) * 6)[index + index] += op


def _mode_operators(nf: NormalForm, n_levels: int):
    """Per-mode flux operators and the summed charging term."""
    n = n_levels
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    phis = []
    charging = np.zeros((n**3, n**3))
    for k in range(3):
        lam = nf.d_tilde[k]
        phis.append(lam**-0.25 / math.sqrt(2.0) * (ladder + ladder.T))
        # n_tilde = i lam^(1/4) (a_dag - a)/sqrt(2), so n**2 is real:
        _add_on_mode(charging, k, -math.sqrt(lam) / 2.0 * (ladder.T - ladder) @ (ladder.T - ladder))
    return phis, charging


def _cosine_of(weights: np.ndarray, phis: list[np.ndarray], energy: float) -> np.ndarray:
    """energy * cos(sum_k w_k phi_k) via single-mode spectral exponentials.

    Each E_k = exp(i w_k phi_k) is complex symmetric because phi_k is real
    symmetric, so the Hermitian part of E0 (x) E1 (x) E2 is its real part,
    Re E01 (x) Re E2 - Im E01 (x) Im E2 with E01 = E0 (x) E1. That is one
    real two-term contraction instead of a complex Kronecker product; its
    axes come out as (E01 row, E01 column, E2 row, E2 column).
    """
    exps = []
    for k in range(3):
        ev, evec = np.linalg.eigh(weights[k] * phis[k])
        exps.append((evec * np.exp(1j * ev)) @ evec.conj().T)
    e01 = np.kron(exps[0], exps[1])
    cos = np.tensordot([e01.real, -e01.imag], [exps[2].real, exps[2].imag], axes=(0, 0))
    cos *= energy
    return cos


def _hamiltonian(params: DeviceParams, nf: NormalForm, linearize: bool = False) -> np.ndarray:
    """build_full_hamiltonian on a normal form the caller already has."""
    if params.n_levels < 4:
        raise TruncationError(f"n_levels = {params.n_levels} is too small (need at least 4)")
    n = params.n_levels
    phis, h = _mode_operators(nf, n)
    if linearize:
        for k in range(3):
            _add_on_mode(h, k, nf.d_tilde[k] * (phis[k] @ phis[k]))
        return _symmetrized(h)
    u = nf.u
    junctions = [
        (params.e_j1, u[0, :] - u[2, :]),
        (params.e_j2, u[1, :] - u[2, :]),
        (params.coupler_energy(), u[2, :]),
    ]
    # (E01 row, E2 row, E01 column, E2 column) view of h
    h4 = h.reshape(n * n, n, n * n, n)
    for energy, weights in junctions:
        h4 -= _cosine_of(weights, phis, energy).transpose(0, 2, 1, 3)
    return _symmetrized(h)


def _symmetrized(h: np.ndarray) -> np.ndarray:
    """(h + h.T) / 2, in place."""
    h += h.T
    h *= 0.5
    return h


def build_full_hamiltonian(params: DeviceParams, linearize: bool = False) -> np.ndarray:
    """Full Hamiltonian on the truncated three-mode Fock space, in GHz.

    With linearize=True the junction cosines are replaced by their
    quadratic expansions, leaving an exactly harmonic spectrum; this is
    the reference limit for the nonlinearity. Literally zero Josephson
    energies leave free modes with no normal form and raise instead.
    """
    return _hamiltonian(params, normal_mode_transform(params), linearize)


_ZZ_DEFS = {
    "zz": (((1, 1), (0, 1)), ((1, 0), (0, 0))),
    "zz_2110": (((2, 1), (1, 1)), ((2, 0), (1, 0))),
    "zz_1021": (((1, 2), (1, 1)), ((0, 2), (0, 1))),
    "zz_2120": (((2, 2), (1, 2)), ((2, 0), (1, 0))),
    "zz_2021": (((2, 2), (2, 1)), ((0, 2), (0, 1))),
    "zz_1020": (((1, 2), (0, 2)), ((1, 0), (0, 0))),
    "zz_2010": (((2, 1), (2, 0)), ((0, 1), (0, 0))),
}


@dataclass(frozen=True)
class SpectrumReport:
    """Labeled spectrum and dispersive shifts at one flux point."""

    flux: float
    n_levels: int
    energies: dict = field(repr=False)
    w01_q1: float = 0.0
    w12_q1: float = 0.0
    w01_q2: float = 0.0
    w12_q2: float = 0.0
    j11: float = 0.0
    j21: float = 0.0
    j12: float = 0.0
    j22: float = 0.0
    zz: dict = field(default_factory=dict)
    coupler_ghz: float = 0.0
    min_overlap: float = 0.0
    sweet_spot: bool = False

    def __post_init__(self):
        if not (self.w12_q1 < self.w01_q1 and self.w12_q2 < self.w01_q2):
            raise LabelingError("anharmonicity sign violated: expected w12 < w01 on both qutrits")

    def j_values(self) -> tuple[float, float, float, float]:
        return (self.j11, self.j21, self.j12, self.j22)

    def chi_from_j(self, m: int, n: int) -> float:
        """Dispersive shift of |mn> reconstructed from the J polynomial, kHz."""
        return (
            self.j11 * m * n
            + self.j21 * m * m * n
            + self.j12 * m * n * n
            + self.j22 * m * m * n * n
        )

    def to_row(self) -> str:
        cells = [
            self.flux,
            self.w01_q1, self.w12_q1, self.w01_q2, self.w12_q2,
            self.j11, self.j21, self.j12, self.j22,
        ]
        return ",".join(f"{x:.9g}" for x in cells)


def _parity_sectors(n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the even and odd total Fock parity (-1)**(n1 + n2 + n3)."""
    parity = np.indices((n_levels,) * 3).sum(axis=0).ravel() % 2
    return np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _label_eigenstates(params: DeviceParams):
    """Diagonalize H and map each bare label to (energy above ground, overlap).

    The result depends on the frozen params alone, so each parameter set
    is diagonalized once per process: a bounded LRU keeps the last
    _SPECTRUM_CACHE_SIZE = 8 labelings. One measures ~200 KB at n_levels
    10, so the cache stays near 1.6 MB, and a caller that alternates a few
    truncations, each with its own operating point and a new flux point
    between them, needs about 6 entries to keep those operating points
    warm. The label map is a read-only MappingProxyType and the normal
    form's arrays are read-only, so every labeled_spectrum call builds a
    fresh report from the shared result. Failures raise and are not cached.

    H is first shifted by the mean of its diagonal, in place. The shift
    is exact for every energy difference, but it cuts the norm that
    eigh's rounding scales with from ~967 GHz to ~72 GHz at the default
    operating point. Cross-Kerr coefficients then agree between BLAS
    thread counts to about 6e-7 kHz instead of 4e-6 kHz.

    The charging term and every junction cosine are even under
    phi -> -phi, so H commutes with the total Fock parity and is
    diagonalized one parity block at a time (two eigh of half the size,
    as in symmetry-reduced bases of scqubits). A cross-parity entry above
    _PARITY_TOL_GHZ means the model lost that symmetry and raises.
    """
    nf = normal_mode_transform(params)
    # from flux ~0.4875 toward 0.5 two modes peak on one node, leaving a node with no mode to label
    if sorted(nf.mode_to_node) != [0, 1, 2]:
        raise LabelingError(f"normal modes map onto nodes {nf.mode_to_node}; each node needs its own mode")
    h = _hamiltonian(params, nf)
    h[np.diag_indices_from(h)] -= np.diag(h).mean()
    n = params.n_levels
    even, odd = _parity_sectors(n)
    mixing = float(np.max(np.abs(h[np.ix_(even, odd)])))
    if mixing > _PARITY_TOL_GHZ:
        raise DeviceModelError(f"H couples the Fock parity sectors by {mixing:.3g} GHz")
    parts = []
    for sector in (even, odd):
        vals, vecs = np.linalg.eigh(h[np.ix_(sector, sector)])
        weights = vecs**2
        rows = np.argmax(weights, axis=0)
        parts.append((vals, sector[rows], weights[rows, np.arange(rows.size)]))
    evals, dominant, overlaps = (np.concatenate(x) for x in zip(*parts))
    modes = np.unravel_index(dominant, (n, n, n))
    occ = np.zeros((3, evals.size), dtype=int)
    for k in range(3):
        occ[nf.mode_to_node[k]] = modes[k]
    # a label has one parity, so all eigenstates that compete for it come
    # from one sector, in ascending energy as one eigh of H lists them
    found: dict[tuple[int, int, int], tuple[float, float]] = {}
    for key, energy, overlap in zip(zip(*occ.tolist()), (evals - evals.min()).tolist(), overlaps.tolist()):
        if key not in found or found[key][1] < overlap:
            found[key] = (energy, overlap)
    for array in (nf.u, nf.c_tilde, nf.d_tilde, nf.orthogonal):
        array.flags.writeable = False
    return nf, MappingProxyType(found)


def labeled_spectrum(params: DeviceParams) -> SpectrumReport:
    """Transition frequencies, cross-Kerr coefficients and dispersive
    shift combinations from the labeled dressed spectrum.

    States are labeled by their dominant bare product component; any
    required |m n 0> label with dominant weight under 0.5 is reported as
    an error.

    H is shifted by the mean of its diagonal before eigh (see
    _label_eigenstates), so the energies are exact differences of the
    eigenvalues of build_full_hamiltonian. Their numerical floor: the
    cross-Kerr values lie within 4e-7 kHz of extended-precision
    eigenvalues of the same H, and the frequencies within 2e-13 GHz,
    for 1 or 2 BLAS threads and n_levels 6 to 10. Rounding in the
    assembly of H itself moves J by up to ~2e-6 kHz.
    """
    nf, found = _label_eigenstates(params)
    energies: dict[tuple[int, int], float] = {}
    bad = []
    min_overlap = 1.0
    for m, n in _REQUIRED_LABELS:
        got = found.get((m, n, 0))
        if got is None:
            bad.append(f"|{m}{n}0> missing")
            continue
        energy, overlap = got
        if overlap < 0.5:
            bad.append(f"|{m}{n}0> overlap {overlap:.3f}")
            continue
        energies[(m, n)] = energy
        min_overlap = min(min_overlap, overlap)
    if bad:
        raise LabelingError("ambiguous dressed-state labels: " + ", ".join(bad))

    def e(m, n):
        return energies[(m, n)]

    chi = {
        (m, n): e(m, n) - e(m, 0) - e(0, n) + e(0, 0)
        for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]
    }
    # invert the monomial table m**j n**k over the four shifts:
    coeffs = np.array(
        [[1, 1, 1, 1], [2, 4, 2, 4], [2, 2, 4, 4], [4, 8, 8, 16]], dtype=float
    )
    rhs = np.array([chi[(1, 1)], chi[(2, 1)], chi[(1, 2)], chi[(2, 2)]])
    j11, j21, j12, j22 = np.linalg.solve(coeffs, rhs) * 1e6

    zz = {}
    for name, (pair_a, pair_b) in _ZZ_DEFS.items():
        (a1, a2), (b1, b2) = pair_a, pair_b
        zz[name] = (e(*a1) - e(*a2)) * 1e6 - (e(*b1) - e(*b2)) * 1e6

    coupler_mode = nf.mode_to_node.index(2)
    return SpectrumReport(
        flux=params.flux,
        n_levels=params.n_levels,
        energies=energies,
        w01_q1=e(1, 0) - e(0, 0),
        w12_q1=e(2, 0) - e(1, 0),
        w01_q2=e(0, 1) - e(0, 0),
        w12_q2=e(0, 2) - e(0, 1),
        j11=float(j11),
        j21=float(j21),
        j12=float(j12),
        j22=float(j22),
        zz=zz,
        coupler_ghz=float(nf.mode_freqs[coupler_mode]),
        min_overlap=min_overlap,
        sweet_spot=(params.flux == 0.0),
    )


def flux_sweep(params: DeviceParams, flux_grid) -> list[SpectrumReport]:
    """labeled_spectrum at each grid point, in grid order."""
    return [labeled_spectrum(params.with_flux(f)) for f in np.asarray(flux_grid, dtype=float)]


SWEEP_CSV_HEADER = "flux,w01_q1,w12_q1,w01_q2,w12_q2,J11,J21,J12,J22"


def sweep_to_csv(reports: list[SpectrumReport]) -> str:
    lines = [SWEEP_CSV_HEADER]
    lines.extend(r.to_row() for r in reports)
    return "\n".join(lines) + "\n"


def toy_couplings(params: DeviceParams, flux: float | None = None) -> tuple[float, float]:
    """Closed-form coupling rates of the adiabatic toy model, in MHz.

    g1 is the junction-mediated rate, suppressed by the coupler energy;
    g2 is the capacitive rate. Frequencies come from the labeled
    spectrum at the same bias.
    """
    p = params if flux is None else params.with_flux(flux)
    denominator = p.coupler_energy()
    if p.e_j1 == 0.0 or p.e_j2 == 0.0:
        # a junctionless transmon is a free mode at zero frequency, so
        # the sqrt(w1 w2) factor kills both rates
        return (0.0, 0.0)
    report = labeled_spectrum(p)
    w_product = math.sqrt(report.w01_q1 * report.w01_q2)
    g1_ghz = math.sqrt(p.e_j1 * p.e_j2) / (2.0 * denominator) * w_product
    if p.c_q12 <= 0.0:
        raise DeviceModelError("capacitive rate needs a positive bridge capacitance")
    g2_ghz = math.sqrt(p.c_q1 * p.c_q2) / (2.0 * p.c_q12) * w_product
    return (g1_ghz * 1e3, g2_ghz * 1e3)
