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
of the dressed flux operators. H is a sum of single-mode factor products,
contracted one total-Fock-parity block at a time. Dressed eigenstates are
labeled by their dominant bare-product component, which gives transition
frequencies and the dispersive (cross-Kerr) shifts between the two qutrits.

Units: capacitances in fF, energies and frequencies in GHz (h = 1),
cross-Kerr coefficients in kHz, flux in units of the flux quantum.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .qutrit_core import QutritLabError

# e**2 / 2h in GHz * fF:
K_C = 1.602176634e-19**2 / (2.0 * 6.62607015e-34) * 1e15 * 1e-9

_REQUIRED_LABELS = [(m, n) for m in range(3) for n in range(3)] + [(3, 0), (3, 1)]
# the factors bound H's cross-parity entries by 1.7e-12 GHz at most (n_levels 6 to 10,
# flux 0 to 0.3, max|H| up to 1154 GHz); ~600 times that means the model lost the symmetry
_PARITY_TOL_GHZ = 1e-9
# labelings _label_eigenstates keeps: each truncation's operating point stays warm
_SPECTRUM_CACHE_SIZE = 8
# Fock levels per mode: below 4 no |3 1 0> to label; at 20 one spectrum takes ~27 s and 0.9 GB on one core
_MIN_LEVELS, _MAX_LEVELS = 4, 20


class DeviceModelError(QutritLabError, RuntimeError):
    """Base for device-model failures."""


class NormalFormError(DeviceModelError):
    """The quadratic Hamiltonian has no positive-definite normal form."""


class TruncationError(DeviceModelError, ValueError):
    """The Fock truncation lies outside 4 to 20 levels per mode."""


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
        # pass for 6, True not for 1.0, and nan (equal to nothing) must not reach eigh;
        # any other integer type (np.int64) is stored as the plain int it equals
        if isinstance(self.n_levels, bool) or not isinstance(self.n_levels, numbers.Integral):
            raise TruncationError(f"n_levels must be an integer, got {self.n_levels!r}")
        object.__setattr__(self, "n_levels", operator.index(self.n_levels))
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "n_levels" and (
                isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v)
            ):
                raise DeviceModelError(f"{f.name} must be a finite number, got {v!r}")
        for name in ("c_q1", "c_q2", "c_c"):
            if getattr(self, name) <= 0:
                raise DeviceModelError(f"{name} must be positive")
        if self.c_q12 < 0:
            raise DeviceModelError("c_q12 cannot be negative")
        if min(self.e_j1, self.e_j2, self.e_jc) < 0:
            raise DeviceModelError("Josephson energies cannot be negative")
        if not _MIN_LEVELS <= self.n_levels <= _MAX_LEVELS:
            raise TruncationError(f"n_levels must be between {_MIN_LEVELS} and {_MAX_LEVELS}, got {self.n_levels}")

    def with_flux(self, flux: float) -> "DeviceParams":
        return replace(self, flux=float(flux))

    def coupler_energy(self) -> float:
        """Effective coupler Josephson energy at the current bias."""
        value = self.e_jc * math.cos(math.pi * self.flux)
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


def _inductive_form(params: DeviceParams) -> np.ndarray:
    ej1, ej2 = params.e_j1, params.e_j2
    ejc_eff = params.coupler_energy()
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
    Hamiltonian into sum_k (n_k**2 + d_tilde_k phi_k**2).
    """

    u: np.ndarray
    d_tilde: np.ndarray
    mode_to_node: tuple[int, ...]

    @property
    def mode_freqs(self) -> np.ndarray:
        """2 sqrt(d) per mode, in GHz."""
        return 2.0 * np.sqrt(self.d_tilde)


def normal_mode_transform(params: DeviceParams) -> NormalForm:
    """Diagonalize the charging and quadratic inductive forms together.

    Charges and fluxes are rescaled so the charging part becomes the
    identity, then the rescaled inductive part is diagonalized by eigh.
    """
    a = 4.0 * K_C * np.linalg.inv(capacitance_matrix(params))
    b = _inductive_form(params)
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
    return NormalForm(u=u, d_tilde=lam, mode_to_node=mode_to_node)


def _factors(params: DeviceParams, nf: NormalForm):
    """H as Sum_t A_t (x) B_t, A_t on modes (0, 1) and B_t on mode 2, stacked.

    In term order: each mode's charging term, then per junction
    E cos(sum_k w_k phi_k) as the real part E (Re E01 (x) Re E2 - Im E01
    (x) Im E2) with E01 = E0 (x) E1 of the complex symmetric
    E_k = exp(i w_k phi_k). Every factor is symmetric.
    """
    n = params.n_levels
    eye = np.eye(n)
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    phis = [lam**-0.25 / math.sqrt(2.0) * (ladder + ladder.T) for lam in nf.d_tilde]
    # n_tilde = i lam^(1/4) (a_dag - a)/sqrt(2), so n**2 is real:
    c0, c1, c2 = [-math.sqrt(lam) / 2.0 * (ladder.T - ladder) @ (ladder.T - ladder) for lam in nf.d_tilde]
    pairs = [(np.kron(c0, eye), eye), (np.kron(eye, c1), eye), (np.eye(n * n), c2)]
    u = nf.u
    for energy, weights in ((params.e_j1, u[0] - u[2]), (params.e_j2, u[1] - u[2]), (params.coupler_energy(), u[2])):
        exps = []
        for w, phi in zip(weights, phis):
            ev, evec = np.linalg.eigh(w * phi)
            e = (evec * np.exp(1j * ev)) @ evec.T
            exps.append((e + e.T) / 2.0)  # exactly symmetric, whatever the rounding of the product
        e01 = np.kron(exps[0], exps[1])
        pairs += [(-energy * e01.real, exps[2].real), (energy * e01.imag, exps[2].imag)]
    a, b = zip(*pairs)
    return np.array(a), np.array(b)


def _contract(factors, grid) -> np.ndarray:
    """Sum_t A_t (x) B_t on the product sets (modes-01 indices, mode-2
    indices) of grid, rows and columns in grid order: one real contraction
    over t per pair of sets, written through a (01, 2, 01, 2) view."""
    a, b = factors
    edges = np.cumsum([0] + [i01.size * i2.size for i01, i2 in grid])
    h = np.empty((edges[-1], edges[-1]))
    for (r01, r2), r0, r1 in zip(grid, edges, edges[1:]):
        for (c01, c2), c0, c1 in zip(grid, edges, edges[1:]):
            block = np.tensordot(a[:, r01][:, :, c01], b[:, r2][:, :, c2], axes=(0, 0))
            h[r0:r1, c0:c1].reshape(r01.size, r2.size, c01.size, c2.size)[...] = block.transpose(0, 2, 1, 3)
    return h


def build_full_hamiltonian(params: DeviceParams) -> np.ndarray:
    """Full Hamiltonian on the truncated three-mode Fock space, in GHz.

    Literally zero Josephson energies leave free modes with no normal form
    and raise instead.
    """
    n = params.n_levels
    return _contract(_factors(params, normal_mode_transform(params)), [(np.arange(n * n), np.arange(n))])


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


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _sector_tables(n_levels: int):
    """Total Fock parity tables, read-only: the masks of opposite-parity
    index pairs on modes (0, 1) and on mode 2, and per total parity s the
    grid [(01 indices of parity a, mode-2 indices of parity s ^ a) for
    a = 0, 1] with each member's full-space index, in grid order."""
    n = n_levels
    p01, p2 = np.add.outer(np.arange(n), np.arange(n)).ravel() % 2, np.arange(n) % 2
    odd = (p01[:, None] != p01, p2[:, None] != p2)
    grids = [[(np.flatnonzero(p01 == a), np.flatnonzero(p2 == s ^ a)) for a in (0, 1)] for s in (0, 1)]
    sectors = [(grid, np.concatenate([np.add.outer(i01 * n, i2).ravel() for i01, i2 in grid])) for grid in grids]
    for array in [*odd, *(x for grid, members in sectors for x in (members, *grid[0], *grid[1]))]:
        array.flags.writeable = False
    return odd, sectors


def _parity_leak(factors, odd) -> float:
    """Sum_t max|A_t odd| max|B_t even| + max|A_t even| max|B_t odd| >= |H|
    between the parity sectors; a factor's odd part joins opposite parities."""
    (a_odd, a_even), (b_odd, b_even) = (
        [(np.abs(x) * part).max(axis=(1, 2)) for part in (mask, ~mask)] for x, mask in zip(factors, odd)
    )
    return float(a_odd @ b_even + a_even @ b_odd)


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _label_eigenstates(params: DeviceParams):
    """Diagonalize H and return (normal form, energy above ground, overlap),
    the last two over _REQUIRED_LABELS; overlap -1 marks a missing label.

    The result depends on the frozen params alone, so each parameter set
    is diagonalized once per process: a bounded LRU keeps the last
    _SPECTRUM_CACHE_SIZE = 8 labelings. One retains about 2.5 KB at any
    n_levels, and a caller that alternates a few truncations, each with
    its own operating point and a new flux point between them, needs about
    6 entries to keep those operating points warm. All the arrays returned
    are read-only, so every labeled_spectrum call builds a fresh report
    from the shared result. Failures raise and are not cached.

    The charging term and every junction cosine are even under
    phi -> -phi, so H commutes with the total Fock parity and is
    diagonalized one parity block at a time (two eigh of half the size,
    as in symmetry-reduced bases of scqubits), each block contracted from
    the factors of H, never from the full matrix. A factor bound on the
    cross-parity entries above _PARITY_TOL_GHZ means the model lost that
    symmetry and raises.

    Each block is shifted by the mean of H's diagonal (from the factors'
    traces). The shift is exact for every energy difference, but it cuts
    the norm that eigh's rounding scales with from ~967 GHz to ~72 GHz at
    the default operating point, so cross-Kerr coefficients agree between
    BLAS thread counts to below 1e-6 kHz instead of 4e-6 kHz.
    """
    nf = normal_mode_transform(params)
    # from flux ~0.4875 toward 0.5 two modes peak on one node, leaving a node with no mode to label
    if sorted(nf.mode_to_node) != [0, 1, 2]:
        raise LabelingError(f"normal modes map onto nodes {nf.mode_to_node}; each node needs its own mode")
    factors = _factors(params, nf)
    n = params.n_levels
    odd, sectors = _sector_tables(n)
    leak = _parity_leak(factors, odd)
    if leak > _PARITY_TOL_GHZ:
        raise DeviceModelError(f"H couples the Fock parity sectors by up to {leak:.3g} GHz")
    shift = np.einsum("tii,tjj->", *factors) / n**3
    parts = []
    for grid, members in sectors:
        h = _contract(factors, grid)
        h[np.diag_indices_from(h)] -= shift
        vals, vecs = np.linalg.eigh(h)
        weights = vecs**2
        rows = np.argmax(weights, axis=0)
        parts.append((vals, members[rows], weights[rows, np.arange(rows.size)]))
    evals, dominant, overlaps = (np.concatenate(x) for x in zip(*parts))
    # a label has one parity, so all eigenstates that compete for it come
    # from one sector, in ascending energy as one eigh of H lists them: the
    # first with the largest overlap wins, and -1 marks a label none carries
    nodes = np.array([(a, b, 0) for a, b in _REQUIRED_LABELS]).T  # |a b 0> occupations, one row per node
    wanted = np.ravel_multi_index(nodes[list(nf.mode_to_node)], (n, n, n))
    scores = np.where(dominant == wanted[:, None], overlaps, -1.0)
    energy, overlap = evals[scores.argmax(axis=1)] - evals.min(), scores.max(axis=1)
    for array in (nf.u, nf.d_tilde, energy, overlap):
        array.flags.writeable = False
    return nf, energy, overlap


def labeled_spectrum(params: DeviceParams) -> SpectrumReport:
    """Transition frequencies, cross-Kerr coefficients and dispersive
    shift combinations from the labeled dressed spectrum.

    States are labeled by their dominant bare product component; any
    required |m n 0> label with dominant weight under 0.5 is reported as
    an error.

    The parity blocks of H are shifted by the mean of its diagonal before
    eigh (see _label_eigenstates), so the energies are exact differences
    of the eigenvalues of build_full_hamiltonian. Their numerical floor:
    the cross-Kerr values lie within 7e-7 kHz of extended-precision
    eigenvalues of the same H, and the frequencies within 1.5e-13 GHz,
    for 1 or 2 BLAS threads and n_levels 6 to 10. Rounding in the
    assembly of H itself moves J by up to ~2e-6 kHz.
    """
    nf, energy, overlap = _label_eigenstates(params)
    labels = zip(_REQUIRED_LABELS, overlap.tolist())
    bad = [f"|{m}{n}0> " + ("missing" if x < 0 else f"overlap {x:.3f}") for (m, n), x in labels if x < 0.5]
    if bad:
        raise LabelingError("ambiguous dressed-state labels: " + ", ".join(bad))
    energies = dict(zip(_REQUIRED_LABELS, energy.tolist()))

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
        min_overlap=float(overlap.min()),
        sweet_spot=(math.remainder(params.flux, 2.0) == 0.0),
    )


def flux_sweep(params: DeviceParams, flux_grid) -> list[SpectrumReport]:
    """labeled_spectrum at each grid point, in grid order."""
    return [labeled_spectrum(params.with_flux(f)) for f in np.asarray(flux_grid, dtype=float)]


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
    if p.c_q12 <= 0.0:
        raise DeviceModelError("capacitive rate needs a positive bridge capacitance")
    report = labeled_spectrum(p)
    w_product = math.sqrt(report.w01_q1 * report.w01_q2)
    g1_ghz = math.sqrt(p.e_j1 * p.e_j2) / (2.0 * denominator) * w_product
    g2_ghz = math.sqrt(p.c_q1 * p.c_q2) / (2.0 * p.c_q12) * w_product
    return (g1_ghz * 1e3, g2_ghz * 1e3)
