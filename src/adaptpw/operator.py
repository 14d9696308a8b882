"""Galerkin assembly and solves for L = -Laplace + V on the torus.

In the orthonormal planewave basis the stiffness matrix of the energy
form is H[G, G'] = |G|^2 delta_{GG'} + (2*pi)^(-d/2) V_{G-G'} and the mass
matrix is the identity, so the discrete eigenvalue problem is a standard
Hermitian eigenproblem. The adaptive loop and the source solves assemble
H densely and solve it directly (`eigh`, Cholesky): at desk scale
correctness and reproducibility come first, and interior eigenvalue
clusters come for free. Verification needs only the lowest k0+n_eigs+1
pairs of each ball it solves, the reference ball and every ball of the
uniform sweep; above a measured size (`BLOCK_DENSE_MAX`) it uses a block
iteration whose result is certified (`solve_eigen_block`,
`certify_count`), so it never returns a window that misses an eigenvalue.

The potential is real, so H[-G, -G'] = conj(H[G, G']), and on a basis
closed under negation the matrix is real symmetric in cos/sin coordinates
(`CosSinCoordinates`). `ReferenceOperator` is that real operator and the
only one verification multiplies by: it multiplies by H with real FFTs,
gathers the entries the certificate reads straight from the potential, and
forms the whole matrix (`dense`) only for small balls and the
certificate's last step. The complex `assemble` serves the adaptive loop
and the source solves, source mode's reference (`solve_source` on
ball(M_ref)) included.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .frequency import IndexSet, ball, pair_sum_box, union, validate_symmetric
from .spectral import SpectralField, evaluate_on_grid, norm_factor

#: relative gap below which adjacent eigenvalues are treated as one
#: degenerate group for basis post-processing and the block solver's cut
DEGENERACY_RTOL = 1e-9

#: relative cluster-boundary gap below which a warning is emitted
CLUSTER_GAP_RTOL = 1e-8

#: residual tolerance of `solve_eigen_block`, relative to max(1, max diag H)
BLOCK_RTOL = 1e-14

#: vectors the block eigensolver carries beyond the k0+n_eigs+1 it converges
BLOCK_GUARD = 4

#: guard doublings before the block eigensolver gives up with SolverError
BLOCK_GUARD_GROWS = 3

#: block iterations per attempt before the guard grows
BLOCK_MAX_STEPS = 200

#: largest matrix `solve_eigen_block` solves by a full `eigh`, whatever its
#: block size: below it `eigh` is faster than LOBPCG and its certificate
BLOCK_DENSE_MAX = 256

#: smallest first Schur block of `certify_count`: the coordinates of lowest
#: diagonal entry whose k x k block it factors densely
CERT_BLOCK = 64

#: grid cells `ReferenceOperator.apply` transforms at a time (columns times
#: cells per column), which bounds its FFT buffers to about 40 bytes a cell;
#: smaller batches cost memory instead of saving it (2^14 cells raised the
#: source2d benchmark's peak RSS from 34.30 to 35.18 MB)
_FFT_CELLS = 1 << 20

#: bytes per coordinate and block vector of a block solve: X and H X, the
#: residuals, W and H W, the search basis [X, W, P] and its products, P and
#: H P, the next X and H X
BLOCK_BYTES = 8 * 16

#: bytes per n^2 of an assembled matrix on n coordinates and its Cholesky
#: factorisation (the count certificate's last step): the matrix, LAPACK's
#: copy and the factor; ru_maxrss grew by 25.2 n^2 at n = 1961
DENSE_CERT_BYTES = 32

#: peak bytes per n^2 of source mode's reference on n frequencies, measured
#: with ru_maxrss (numpy 2.4, OpenBLAS): the complex `solve_source` holds its
#: matrix, the Cholesky factor and the LU copy of the solve.
SOURCE_REFERENCE_BYTES = 51

#: peak bytes per n^2 of the adaptive loop's first solve on ball(M0), its complex
#: `assemble` and `eigh`, measured the same way: 80.9-81.4 at n = 2453-3209, 1D-3D
LOOP_SOLVE_BYTES = 82

#: bytes per k n of a count certificate's Schur block of k on n coordinates
#: (`schur_bytes`): the gathered rows (8) and, while they are gathered, the
#: sum-box tables they are read from and one block of each temporary
#: (`_ROW_BYTES`); 10,980 KiB traced at k = 64 on the 17,077-frequency 3D
#: ball(16), where the rows alone are 8,538 KiB
SCHUR_BYTES = 16

#: bytes per k^2 of the same block: T, one k-column block of M_PD, its scaled
#: copy and their product, which T is updated by (`schur_bytes`)
SCHUR_SQUARE_BYTES = 32

#: peak bytes per cell of `evaluate_on_grid` on a verification grid, by
#: tracemalloc: the folded complex grid, one bincount and the complex inverse
#: FFT; 40-48 measured in 1D-3D
GRID_CELL_BYTES = 48

#: bytes of one temporary of a row gather: `ReferenceOperator.rows`,
#: `row_sums` and the shift rows of the certificate's last step each take as
#: many rows at a time as fit (`_row_step`)
_ROW_BYTES = 1 << 16

_SQRT_HALF = math.sqrt(0.5)


class PotentialError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


class RitzGapError(SolverError):
    """No Ritz gap of a block qualifies for the count certificate."""


class PositivityWarning(UserWarning):
    """The verified lower bound of the potential is not strictly positive."""


class ClusterBoundaryWarning(UserWarning):
    """The gap separating the eigenvalue cluster from the rest is tiny."""


def _ceil_radius(s: IndexSet) -> int:
    """Smallest integer M with every entry of `s` in the ball of radius M, by integer sqrt."""
    q = int(s.norms_sq.max(initial=0))
    return 1 + math.isqrt(q - 1) if q else 0


class Potential(NamedTuple):
    """A real, finite-support potential with verified pointwise bounds.

    nu_lower/nu_upper bound V on the verification grid (minus/plus a
    round-off margin), and `certified_lower` bounds it below everywhere;
    alpha_lower = min(nu_lower, 1) and alpha_upper = max(nu_upper, 1) are
    the energy-norm equivalence constants; l1_total = sum |V_K| feeds
    truncation certificates.
    """

    field: SpectralField
    nu_lower: float
    nu_upper: float
    alpha_lower: float
    alpha_upper: float
    l1_total: float

    @property
    def dim(self) -> int:
        return self.field.support.dim

    def support_radius(self) -> int:
        """Smallest integer M with support(V) inside the ball of radius M."""
        return _ceil_radius(self.field.support)

    def tail_l1(self, radius: int) -> float:
        """sum of |V_K| over frequencies with |K| > radius."""
        mask = self.field.support.norms_sq > radius * radius
        return float(np.sum(np.abs(self.field.coeffs[mask])))

    def certified_lower(self) -> float:
        """A lower bound of V everywhere; nu_lower bounds it on the grid points only.

        At a minimiser x* of V the gradient vanishes, and the nearest point x
        of the verification grid (N points an axis, h = 2 pi / N) has
        |x - x*|^2 <= d h^2 / 4. The Hessian's norm is at most
        (2 pi)^(-d/2) sum |K|^2 |V_K|, so by Taylor's theorem V(x) - V(x*)
        is at most d h^2 / 8 times that: the margin subtracted from
        nu_lower. A sum beyond the double range gives -inf.
        """
        dim = self.dim
        h = 2.0 * math.pi / verification_grid(self.support_radius(), dim)
        with np.errstate(over="ignore"):
            curvature = float(np.sum(self.field.support.norms_sq * np.abs(self.field.coeffs)))
        return self.nu_lower - dim * h * h / 8.0 * norm_factor(dim) * curvature

    def truncated_field(self, radius: int) -> SpectralField:
        """V restricted to |K| <= radius: the entries `tail_l1(radius)` does not sum."""
        keep = self.field.support.norms_sq <= radius * radius
        entries = self.field.support.entries[keep]
        return SpectralField(IndexSet(self.dim, entries), self.field.coeffs[keep])


def verify_potential(field: SpectralField) -> Potential:
    """Verify positivity bounds of a potential by exact grid sampling.

    The grid has at least 4*(ceil(max |K|) + 1) points per axis, rounded up
    to a 2,3,5-smooth size (`verification_grid`); a trigonometric
    polynomial is evaluated exactly at grid points (folded inverse FFT),
    and the reported bounds carry a 1e-12 relative round-off margin. The
    FFT's own round-off stays below 1e-13 * max(1, (2*pi)^(-d/2) sum |V_K|)
    (measured: 2e-15 in 3D), far inside that margin. A potential with a
    non-finite coefficient, one that is not real (support not closed
    under negation, or `hermitian_defect` above 1e-12 * max(1, max |V_K|)),
    one whose grid (`verification_grid`) exceeds physical memory, one whose
    grid samples or sum |V_K| overflow to a non-finite value, or one whose
    grid minimum is negative (beyond the margin) is rejected;
    a grid minimum of exactly zero is allowed but flagged, since the
    energy-norm constants then degenerate. This is the one test that V is
    real: an accepted V is replaced by its exactly Hermitian part
    (V_K + conj V_-K) / 2 (V itself when V is Hermitian and has no
    subnormal coefficient), so no matrix assembled from it needs a check.
    The returned field always stores V_0, as 0 when V has none, so
    supp(V u) contains supp u for every field u (`estimator._residual`).
    """
    if not np.all(np.isfinite(field.coeffs)):
        raise PotentialError("potential coefficients must be finite")
    if not validate_symmetric(field.support):
        raise PotentialError("potential support must be closed under negation")
    scale0 = max(1.0, float(np.max(np.abs(field.coeffs))) if len(field.support) else 0.0)
    if field.hermitian_defect() > 1e-12 * scale0:
        raise PotentialError("potential coefficients are not Hermitian-symmetric")
    support = union(field.support, ball(0, field.support.dim))
    c, neg = field.coefficients_on(support), support.negation_permutation()
    field = SpectralField(support, 0.5 * c + 0.5 * np.conj(c[neg]))  # halves: no overflow
    radius = _ceil_radius(field.support)
    values = evaluate_on_grid(field, verification_grid(radius, field.support.dim))
    vmin = float(values.min())
    vmax = float(values.max())
    l1_total = float(np.sum(np.abs(field.coeffs)))
    if not all(map(math.isfinite, (vmin, vmax, l1_total))):
        raise PotentialError(
            f"potential overflows: grid min {vmin}, grid max {vmax}, sum |V_K| {l1_total}"
        )
    margin = 1e-12 * max(1.0, abs(vmin), abs(vmax))
    if vmin < -margin:
        raise PotentialError(
            f"potential is negative on the verification grid (min {vmin:.6e})"
        )
    nu_lower = vmin - margin
    nu_upper = vmax + margin
    if nu_lower <= 0.0:
        warnings.warn(
            f"potential lower bound {nu_lower:.3e} is not strictly positive; "
            "energy-norm equivalence constants degenerate",
            PositivityWarning,
            stacklevel=2,
        )
    return Potential(
        field=field,
        nu_lower=nu_lower,
        nu_upper=nu_upper,
        alpha_lower=min(nu_lower, 1.0),
        alpha_upper=max(nu_upper, 1.0),
        l1_total=l1_total,
    )


def verification_grid(radius: int, dim: int, held: int = 0) -> int:
    """Points per axis of the grid that samples a potential of radius `radius`.

    That is the least 2,3,5-smooth size >= 4 (radius + 1) (`smooth_size`;
    an FFT of a size with a large prime factor is up to ten times slower).
    A PotentialError is raised, before anything is allocated, when sampling
    on it (`GRID_CELL_BYTES` a cell) beside `held` bytes the caller needs at
    the same time would take more than physical memory.
    """
    npts = smooth_size(4 * (radius + 1))
    need, limit = GRID_CELL_BYTES * npts**dim + held, physical_memory()
    if need > limit:
        raise PotentialError(
            f"a potential of radius {radius} and its verification grid of {npts}^{dim} points "
            f"need {need} bytes, more than the {limit} bytes of physical memory"
        )
    return npts


class Hamiltonian(NamedTuple):
    """Dense Hermitian Galerkin matrix of the energy form on a basis."""

    basis: IndexSet
    matrix: np.ndarray


def _potential_rows(
    potential: Potential, a: np.ndarray, b: np.ndarray
) -> Callable[[int, int], np.ndarray]:
    """rows(i, j)[k, l] = (2*pi)^(-d/2) V_{a_(i+k) + b_l}: rows i..j-1 of the gather."""
    vf = potential.field
    return _table_rows(vf.support, norm_factor(potential.dim) * vf.coeffs, a, b)


def _table_rows(
    support: IndexSet, values: np.ndarray, a: np.ndarray, b: np.ndarray
) -> Callable[[int, int], np.ndarray]:
    """rows(i, j)[k, l] = the value at a_(i+k) + b_l of `values` over `support`, 0 off it.

    The values are read from a dense table over the `SumBox` of a and b, which
    holds the support entries inside the box and 0 elsewhere; the table index
    of a sum is an outer add of two int vectors. When the box has more cells
    than the gather has entries (far-apart frequencies), the sums are looked
    up by lattice key in the support instead (`IndexSet.sum_positions`), and
    position -1 reads an appended 0. Both read the same values, so the
    result is the same bit for bit.
    """
    box = pair_sum_box(a, b)
    if box is None:
        v = np.append(values, 0)
        return lambda i, j: v[support.sum_positions(a[i:j], b)]
    table = np.zeros(box.cells, dtype=values.dtype)
    index, inside = box.index(support.entries)
    table[index] = values[inside]
    return lambda i, j: table[box.a_index[i:j, None] + box.b_index]


def assemble(s: IndexSet, potential: Potential) -> Hamiltonian:
    """Assemble H[G, G'] = |G|^2 delta + (2*pi)^(-d/2) V_{G-G'} on `s`, Hermitian bit for bit."""
    if s.dim != potential.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {potential.dim}")
    if not validate_symmetric(s):
        raise ValueError("basis index set must be closed under negation")
    h = _potential_rows(potential, s.entries, -s.entries)(0, len(s))
    h[np.diag_indices(len(s))] += s.norms_sq
    return Hamiltonian(basis=s, matrix=h)


class CosSinCoordinates(NamedTuple):
    """Real cos/sin coordinates of coefficient vectors on a symmetric basis.

    The coordinate functions are e_0 (when 0 is in the basis), then
    (e_G + e_-G)/sqrt(2) for each +-pair representative G, then
    i(e_G - e_-G)/sqrt(2) in the same order. This change of basis U is
    unitary, and real coordinate vectors are exactly the real functions
    (u_-G = conj(u_G)). `zero` holds the position of 0 in `basis` (empty
    without it), `reps` the positions of the representatives in canonical
    order and `negs` those of their negations.
    """

    basis: IndexSet
    zero: np.ndarray
    reps: np.ndarray
    negs: np.ndarray

    @classmethod
    def of(cls, basis: IndexSet) -> CosSinCoordinates:
        neg = basis.negation_permutation()
        reps = np.flatnonzero(basis.keys > basis.keys[neg])
        return cls(basis, np.flatnonzero(neg == np.arange(len(basis))), reps, neg[reps])

    def from_coefficients(self, vectors: np.ndarray) -> np.ndarray:
        """U^H x for coefficient columns x over `basis`."""
        plus, minus = vectors[self.reps], vectors[self.negs]
        return np.concatenate(
            [vectors[self.zero], (plus + minus) * _SQRT_HALF, (plus - minus) * (-1j * _SQRT_HALF)]
        )

    def to_coefficients(self, x: np.ndarray) -> np.ndarray:
        """U x: coefficient columns over `basis` of coordinate columns x."""
        z, p = len(self.zero), len(self.reps)
        cos, sin = x[z : z + p] * _SQRT_HALF, x[z + p :] * (1j * _SQRT_HALF)
        u = np.empty((len(self.basis), x.shape[1]), dtype=np.complex128)
        u[self.zero] = x[:z]
        u[self.reps] = cos + sin
        u[self.negs] = cos - sin
        return u


def grid_points(radius: int, reach: int) -> int:
    """Smallest 2,3,5-smooth N >= 2 radius + reach + 1 (see `ReferenceOperator`)."""
    return smooth_size(2 * radius + reach + 1)


def smooth_size(n: int) -> int:
    """Smallest 2,3,5-smooth size >= n >= 1, an FFT length pocketfft is fast on.

    Each 2^i 3^j below the power of two that bounds it is completed by the
    least power of 5 reaching n, O(log^3) work for any n.
    """
    best = 1 << (n - 1).bit_length()
    p2 = 1
    while p2 < best:
        p23 = p2
        while p23 < best:
            p235 = p23
            while p235 < n:
                p235 *= 5
            best = min(best, p235)
            p23 *= 3
        p2 *= 2
    return best


def physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _row_step(row_bytes: int) -> int:
    """Rows of `row_bytes` bytes each that fit one `_ROW_BYTES` temporary, at least 1."""
    return max(1, _ROW_BYTES // max(row_bytes, 1))


def schur_bytes(k: int, n: int) -> int:
    """Modelled peak bytes of a count certificate's Schur block of k on n coordinates."""
    return SCHUR_BYTES * k * n + SCHUR_SQUARE_BYTES * k * k


def solve_bytes(n: int, points: int, dim: int, block: int) -> int:
    """Modelled peak bytes of a matrix-free `solve_eigen_block` on n coordinates.

    `block` vectors of n coordinates (`BLOCK_BYTES` each), the FFT buffers
    of one batch of columns on a grid of `points`^dim cells (40 bytes a
    cell) beside V's values and their complex evaluation (24 bytes a cell),
    and the certificate's first Schur block of k = max(`CERT_BLOCK`,
    4 block) rows (`schur_bytes`). Larger Schur blocks and the dense
    last step are checked by `certify_count` when it reaches them.
    """
    cells = points**dim
    batch = min(block * cells, max(_FFT_CELLS, cells))
    cert = min(max(CERT_BLOCK, 4 * block), n)
    return BLOCK_BYTES * n * block + 40 * batch + 24 * cells + schur_bytes(cert, n)


def eigen_reference_bytes(n: int, dim: int, m_ref: int, k0: int, n_eigs: int) -> int:
    """Modelled peak of the matrix-free eigen reference on the n frequencies of ball(m_ref).

    That is `solve_bytes` for the largest block the guard grows to, on the
    grid for a potential reaching 2 m_ref, the farthest that couples the
    ball. A compare or uniform sweep solves smaller balls after the
    reference solve has freed its block vectors, beside the reference's few
    columns.
    """
    block = k0 + n_eigs + 1 + BLOCK_GUARD * 2**BLOCK_GUARD_GROWS
    return solve_bytes(n, grid_points(m_ref, 2 * m_ref), dim, block)


class ReferenceOperator:
    """H on a symmetric basis in cos/sin coordinates, with no stored matrix.

    `apply` forms H X = |G|^2 X + (2*pi)^(-d/2) (V * X) with real FFTs: the
    coordinate columns become coefficients on the half spectrum G_0 >= 0
    (every cos/sin representative lies there) of a grid of N points per
    axis, `irfftn` gives their grid values, which are multiplied by V's
    (`evaluate_on_grid`, the same folding), and `rfftn` returns the
    product's coefficients. Let a = max |G_k| over the basis and b = max
    |K_k| over the part of supp V that couples it (|K_k| <= 2a; the rest
    never enters H and is dropped). A product term u_G' V_K lands on a
    basis frequency G mod N; |G_k| <= a and |(G' + K)_k| <= a + b, so for
    N >= 2a + b + 1 it lands there only when G' + K = G: no aliasing, only
    FFT round-off (a few ulp of max |V|). `grid_points` rounds N up to a
    2,3,5-smooth size. Columns are transformed about `_FFT_CELLS` grid cells
    at a time, and `products` counts them.

    The certificate reads entries, not products: `rows` gathers them from
    the potential, and `diagonal` is their closed form, bit for bit;
    `row_sums` and `frobenius` bound row sums and norm from supp V.
    `dense` assembles the whole matrix, when memory admits it (SolverError
    otherwise), for whole-space solves and the certificate's last step.
    """

    def __init__(self, basis: IndexSet, potential: Potential) -> None:
        if basis.dim != potential.dim:
            raise ValueError(f"dimension mismatch: {basis.dim} vs {potential.dim}")
        if not validate_symmetric(basis):
            raise ValueError("basis index set must be closed under negation")
        self.potential, self.coords, self.products = potential, CosSinCoordinates.of(basis), 0
        reach = int(np.abs(basis.entries).max(initial=0))
        support = np.abs(potential.field.support.entries)
        self._couples = np.all(support <= 2 * reach, axis=1)
        vreach = int(support[self._couples].max(initial=0))
        self.points = grid_points(reach, vreach)
        cos_pos = np.concatenate([self.coords.zero, self.coords.reps])
        self._cos = basis.entries[cos_pos]  # cos frequencies: 0 (when present), then reps
        self._kinetic = basis.norms_sq[np.concatenate([cos_pos, self.coords.reps])].astype(float)
        self._diagonal = self._bounds = self._spectrum = None

    @property
    def basis(self) -> IndexSet:
        return self.coords.basis

    @property
    def n(self) -> int:
        return len(self.coords.basis)

    @property
    def grid(self) -> tuple[int, ...]:
        return (self.points,) * self.basis.dim

    def _v(self, entries: np.ndarray) -> np.ndarray:
        """(2*pi)^(-d/2) V at each row of `entries` (0 off the support)."""
        vf = self.potential.field
        v = np.append(norm_factor(self.potential.dim) * vf.coeffs, 0)
        return v[vf.support.positions(entries)]

    def diagonal(self) -> np.ndarray:
        """diag H: v_0 +- Re v_2G + |G|^2 for the cos/sin of G, (v_0 + v_0) / 2 for e_0."""
        if self._diagonal is None:
            z, m, kin = len(self.coords.zero), len(self._cos), self._kinetic
            v0 = self._v(np.zeros((1, self.basis.dim), dtype=np.int64)).real
            v2 = self._v(2 * self._cos[z:]).real
            zero = (v0 + v0 + 0.0) * _SQRT_HALF * _SQRT_HALF
            self._diagonal = np.concatenate([zero[:z], v0 + v2 + kin[z:m], v0 - v2 + kin[m:]])
        return self._diagonal

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x for coordinate columns x, by one irfftn and one rfftn per real column.

        Complex columns are multiplied as their real and imaginary parts side
        by side, so each counts as two products.
        """
        if np.iscomplexobj(x):
            both = self.apply(np.hstack([x.real, x.imag]))
            return both[:, : x.shape[1]] + 1j * both[:, x.shape[1] :]
        if self._spectrum is None:
            self._spectrum = self._spectral_setup()
        shape, bins, neg_sel, values = self._spectrum
        z, p = len(self.coords.zero), len(self.coords.reps)
        axes = tuple(range(1, self.basis.dim + 1))
        out = x * self._kinetic[:, None]
        step = max(1, _FFT_CELLS // values.size)
        for c0 in range(0, x.shape[1], step):
            xc, cols = x[:, c0 : c0 + step], slice(c0, c0 + step)
            cos, sin = xc[z : z + p] * _SQRT_HALF, xc[z + p :] * _SQRT_HALF
            spec = np.zeros((xc.shape[1], math.prod(shape)), dtype=np.complex128)
            spec[:, bins[:z]] = xc[:z].T
            spec[:, bins[z : z + p]] = (cos + 1j * sin).T
            spec[:, bins[z + p :]] = (cos[neg_sel] - 1j * sin[neg_sel]).T
            f = np.fft.irfftn(spec.reshape((-1, *shape)), s=self.grid, axes=axes, norm="forward")
            f *= values
            w = np.fft.rfftn(f, axes=axes, norm="forward").reshape(xc.shape[1], -1)
            rep = w[:, bins[z : z + p]].T
            out[:z, cols] += w[:, bins[:z]].real.T
            out[z : z + p, cols] += math.sqrt(2.0) * rep.real
            out[z + p :, cols] += math.sqrt(2.0) * rep.imag
        self.products += x.shape[1]
        return out

    def _spectral_setup(self) -> tuple:
        """Half-spectrum shape; bins of 0, the reps and the negations with G_0 = 0; V's values.

        Array axis j of the grid holds component d-1-j, so the halved last
        axis is component 0, and V's values are transposed to match.
        """
        n, dim, coords, entries = self.points, self.basis.dim, self.coords, self.basis.entries
        shape = (n,) * (dim - 1) + (n // 2 + 1,)
        neg_sel = np.flatnonzero(entries[coords.reps, 0] == 0)
        g = entries[np.concatenate([coords.zero, coords.reps, coords.negs[neg_sel]])]
        bins = np.ravel_multi_index(tuple((g[:, ::-1] % n).T), shape)
        vf = self.potential.field
        keep = self._couples
        coupled = SpectralField(IndexSet(dim, vf.support.entries[keep]), vf.coeffs[keep])
        values = np.ascontiguousarray(evaluate_on_grid(coupled, n).transpose())
        return shape, bins, neg_sel, values

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows `idx` of H, gathered from the potential a block of rows at a time.

        A block holds as many rows as fit `_ROW_BYTES` of complex A (and as
        much of B), about 10 of the 797-frequency 2D ball's 399 cos rows; each
        entry is formed by itself, so the result does not depend on the block.

        For representatives G, G' let A = H[G, G'] and B = H[G, -G'] =
        (2*pi)^(-d/2) V_{G+G'}. The cos/cos block is Re(A + B), sin/sin
        Re(A - B), cos/sin Im(B - A) and sin/cos Im(A + B). Taking
        e_0 = (e_0 + e_-0)/2 as the first cos function gives its row and
        column the same formulas scaled by 1/sqrt(2). A and B are gathered
        at G - G' and G + G' over the cos frequencies only.
        """
        idx = np.asarray(idx)
        z, m, g = len(self.coords.zero), len(self._cos), self._cos
        sin = idx >= m
        freq = np.where(sin, idx - m + z, idx)  # cos frequency of each row
        a_rows = _potential_rows(self.potential, g[freq], -g)  # G - G'
        b_rows = _potential_rows(self.potential, g[freq], g)  # G + G'
        out = np.empty((len(idx), self.n))
        step = _row_step(16 * m)  # complex A and B, m entries a row
        for i in range(0, len(idx), step):
            a, b, s = a_rows(i, i + step), b_rows(i, i + step), sin[i : i + step, None]
            out[i : i + step, :m] = np.where(s, a.imag + b.imag, a.real + b.real)
            a, b = a[:, z:], b[:, z:]
            out[i : i + step, m:] = np.where(s, a.real - b.real, b.imag - a.imag)
        out[np.arange(len(idx)), idx] += self._kinetic[idx]
        out[idx < z] *= _SQRT_HALF
        out[:, :z] *= _SQRT_HALF
        return out

    def row_sums(self, d: np.ndarray) -> np.ndarray:
        """Upper bounds on the sum over j != i of |h_ij|, all j, for each i in d.

        With w_K = |Re v_K| + |Im v_K| and S(G) the sum of w_K over K != 0 in
        supp V with G - K in the basis, the cos and sin rows of G sum to at
        most S(G) + (sqrt(2) - 1) w_G + |Im v_0|: the entries of a column
        pair G' come from A = v_(G-G') and B = v_(G+G') and are at most w_A +
        w_B, the e_0 column holds sqrt(2) Re or Im v_G, and the diagonal
        pair leaves Im(v_2G -+ v_0). The e_0 row sums to S(0) / sqrt(2). S
        is one gather of the basis indicator at G - K, O(n |supp V|), and
        rounds like a sum of at most n terms.
        """
        if self._bounds is None:
            dim, m = self.basis.dim, len(self._cos)
            zero = np.zeros((1, dim), dtype=np.int64)
            k = self.potential.field.support.entries[self._couples]
            v = self._v(k)
            w = np.abs(v.real) + np.abs(v.imag)
            ind = _table_rows(self.basis, np.ones(self.n), self._cos, -k)
            off = np.where(np.any(k, axis=1), w, 0.0)  # K = 0 is the diagonal pair
            total = np.empty(m)
            step = _row_step(8 * len(k))
            for i in range(0, m, step):
                total[i : i + step] = ind(i, i + step) @ off
            v_g = self._v(self._cos)
            w_g = np.abs(v_g.real) + np.abs(v_g.imag)
            bound = total + (math.sqrt(2.0) - 1.0) * w_g + abs(self._v(zero).imag[0])
            self._bounds = np.concatenate([bound, bound[len(self.coords.zero) :]])
        return self._bounds[d]

    def frobenius(self) -> float:
        """sqrt(sum_i h_ii^2 + r_i^2) >= ||H||_F, with r_i the `row_sums` bounds."""
        r = self.row_sums(np.arange(self.n))
        return math.sqrt(float(np.sum(self.diagonal() ** 2) + np.sum(r * r)))

    def dense(self) -> np.ndarray:
        """The whole matrix, `rows` of every coordinate; SolverError beyond physical memory.

        Neither U nor the complex H is formed, so the matrix is the only
        n x n array held. It is symmetric bit for bit: `rows` forms each
        entry and its transpose by the same operations from conjugate V_K.
        """
        n = self.n
        need = DENSE_CERT_BYTES * n * n
        if need > physical_memory():
            raise SolverError(
                f"the matrix of {n} coordinates needs {need} bytes, more than physical memory"
            )
        return self.rows(np.arange(n))


class EigenCluster(NamedTuple):
    """N consecutive discrete eigenpairs at offset k0, L^2-orthonormal.

    `eigenvalues[l]` is the (k0+l+1)-th discrete eigenvalue. `vectors`
    holds one coefficient column per eigenpair over `basis`. lambda_below
    is the (k0)-th eigenvalue (0 by convention when k0 = 0) and
    lambda_above the (k0+N+1)-th, or None at the top of the spectrum.
    """

    basis: IndexSet
    k0: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    lambda_below: float
    lambda_above: float | None

    @property
    def n_eigs(self) -> int:
        return len(self.eigenvalues)

    def field(self, l: int) -> SpectralField:
        return SpectralField(self.basis, self.vectors[:, l])

    def fields(self) -> list[SpectralField]:
        return [self.field(l) for l in range(self.n_eigs)]


def solve_eigen(h: Hamiltonian, k0: int, n_eigs: int) -> EigenCluster:
    """Dense solve returning the (k0+1)..(k0+n_eigs)-th eigenpairs.

    Within numerically degenerate groups the eigenvectors are
    re-orthonormalized and unitarily rotated onto real-valued functions
    (the operator commutes with conjugation composed with frequency
    negation, so such a basis exists); a deterministic sign convention
    makes repeated solves bit-reproducible.
    """
    w, vectors = _eigen_window(h.matrix, k0, n_eigs)
    neg = h.basis.negation_permutation()
    for sl in group_slices(w[k0 : k0 + n_eigs], DEGENERACY_RTOL):
        vectors[:, sl] = _rotate_to_real(vectors[:, sl], neg)
    for j in range(n_eigs):
        vectors[:, j] = _fix_sign(vectors[:, j])
    return _checked_cluster(h.basis, k0, w, vectors)


class BlockSolveStats(NamedTuple):
    """Counters of one `solve_eigen_block` call.

    `steps` block iterations with `block_size` vectors after `guard_grows`
    guard enlargements; `max_residual` is the largest residual norm of the
    certified pairs, `rho` the certified bound and `cert_size` the size of
    the block whose Cholesky factorisation certified it (n when the whole
    matrix was factored). `products` counts the matrix-vector products and
    `grid` is the FFT grid (points per axis) they ran on, None for a stored
    matrix or when no product was taken. A Rayleigh-Ritz solve on the whole
    space reports n vectors, 0 steps, the window's residuals, no `rho`, no
    `cert_size` and no products: it needs no certificate.
    """

    steps: int
    block_size: int
    guard_grows: int
    max_residual: float
    rho: float | None
    cert_size: int | None
    grid: tuple[int, ...] | None
    products: int


def solve_eigen_block(
    h: ReferenceOperator, k0: int, n_eigs: int
) -> tuple[EigenCluster, np.ndarray, BlockSolveStats]:
    """Eigenpairs (k0+1)..(k0+n_eigs) of H on a ball in cos/sin coordinates.

    The solver reads `h` through products, its diagonal and gathered rows,
    and holds no n x n array. Returns the cluster, its real coordinate
    columns and the solver's counters. LOBPCG (Knyazev 2001) iterates the
    lowest p = m + guard pairs, m = k0 + n_eigs + 1, with the kinetic
    preconditioner 1/(diag(H) + 1), starting from the p coordinate vectors
    of lowest diagonal entry. It
    stops when the first m pairs (more when the m-th Ritz value opens a
    multiplet) have residual norms at most `BLOCK_RTOL * max(1, max diag
    H)`. `certify_count` then proves that no eigenvalue was missed; when it
    cannot, or the iteration stalls, the guard doubles, at most
    `BLOCK_GUARD_GROWS` times, before SolverError. A block whose only fault
    is that no Ritz gap qualifies (`RitzGapError`) seeds the larger one
    with its Ritz vectors plus the coordinate vectors of the next-lowest
    diagonal entries; after a failed count or a stalled iteration the
    larger block starts cold. When the search block [X, W, P] of 3p vectors
    would span all n coordinates, or n is at most `BLOCK_DENSE_MAX`,
    Rayleigh-Ritz on the whole space (a full `eigh` of `h.dense()`) is the
    exact answer and is returned instead, with no certificate to pay for.
    The eigenvectors are real in these coordinates, so the cluster's
    coefficient columns are real functions without any rotation; window
    checks, the sign convention and the boundary-gap warning are those of
    `solve_eigen`.
    """
    n = h.n
    _check_window(n, k0, n_eigs)
    m = k0 + n_eigs + 1
    tol = BLOCK_RTOL * max(1.0, float(h.diagonal().max()))
    products = h.products
    guard, grows, start = BLOCK_GUARD, 0, None
    while True:
        p = m + guard
        if 3 * p >= n or n <= BLOCK_DENSE_MAX:
            a = h.dense()
            theta, window = _eigen_window(a, k0, n_eigs)
            p, steps, rho, cert = n, 0, None, None
            res = np.linalg.norm(a @ window - window * theta[k0 : k0 + n_eigs], axis=0)
            break
        try:
            theta, x, res, steps = _block_iterate(h, p, m, tol, start)
            rho, cut, cert = certify_count(h, theta, x, res, m)
        except SolverError as exc:
            if grows == BLOCK_GUARD_GROWS:
                raise
            # a converged block too short to show a Ritz gap is right as far
            # as it goes and seeds the larger one; a block that missed an
            # eigenvalue, or did not converge, restarts cold
            start = x if isinstance(exc, RitzGapError) else None
            guard, grows = 2 * guard, grows + 1
            continue
        window, res = x[:, k0 : k0 + n_eigs].copy(), res[:cut]
        break
    for j in range(n_eigs):
        window[:, j] = _fix_sign(window[:, j])
    cluster = _checked_cluster(h.basis, k0, theta, h.coords.to_coefficients(window))
    products = h.products - products
    stats = BlockSolveStats(
        steps, p, grows, float(res.max()), rho, cert, h.grid if products else None, products
    )
    return cluster, window, stats


def _block_iterate(
    h: ReferenceOperator,
    p: int,
    m: int,
    tol: float,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """LOBPCG for the lowest p eigenpairs of the real symmetric operator `h`.

    It starts from the p coordinate vectors of lowest diagonal entry,
    widened to whole ties of the diagonal order (their block of H is
    gathered, not multiplied), or from the orthonormal columns `start`
    (q < p of them) and the coordinate vectors of diagonal ranks q..p-1, by
    Rayleigh-Ritz. A cold block that cut a shell of equal
    diagonal entries could miss a multiplet member that symmetry keeps out
    of every residual, so the ties are taken whole. The search basis
    [X, W, P] is kept orthonormal: W (preconditioned residuals of the
    unconverged columns) is orthonormalised off [X, P]
    (`_orthonormal_complement`), and P is the part of the new Ritz vectors'
    update that is orthogonal to them, taken in the small coefficient space
    (Hetmaniuk & Lehoucq 2006), so one product `h.apply(W)` per step
    suffices. Convergence is decided on a fresh product `h.apply(X)` after
    re-orthonormalisation, since the recurrences for H X drift by rounding.
    `eigh` of the small projected matrices reads their lower triangles,
    which is all the symmetry they need. Returns the Ritz values and vectors
    (p of them, or more after the widening), their residual norms and the
    step count.
    """
    n = h.n
    diag = h.diagonal()
    prec = 1.0 / (diag + 1.0)
    order = np.argsort(diag, kind="stable")
    if start is None:
        p = int(np.searchsorted(diag[order], diag[order[p - 1]], side="right"))
        lowest = order[:p]
        rows = h.rows(lowest)
        theta, c = np.linalg.eigh(rows[:, lowest])
        x = np.zeros((n, p))
        x[lowest] = c
        ax = rows.T @ c
        del rows
    else:
        q = start.shape[1]
        p = max(p, q + 1)  # a widened cold block can outgrow the next guard
        x = np.hstack([start, np.zeros((n, p - q))])
        x[order[q:p], np.arange(q, p)] = 1.0
        x, _ = np.linalg.qr(x)
        ax = h.apply(x)
        theta, c = np.linalg.eigh(x.T @ ax)
        x, ax = x @ c, ax @ c
    pb = apb = np.empty((n, 0))
    for step in range(1, BLOCK_MAX_STEPS + 1):
        r = ax - x * theta
        res = np.linalg.norm(r, axis=0)
        if res[: _cut(theta, m)].max() <= tol:
            x, _ = np.linalg.qr(x)
            ax = h.apply(x)
            theta, c = np.linalg.eigh(x.T @ ax)
            x, ax = x @ c, ax @ c
            r = ax - x * theta
            res = np.linalg.norm(r, axis=0)
            if res[: _cut(theta, m)].max() <= tol:
                return theta, x, res, step
        w = _orthonormal_complement(r[:, res > tol] * prec[:, None], np.hstack([x, pb]))
        s = np.hstack([x, w, pb])
        as_ = np.hstack([ax, h.apply(w), apb])
        vals, c = np.linalg.eigh(s.T @ as_)
        theta, c1, c2 = vals[:p], c[:, :p], c[:, p:]
        update = c1.copy()
        update[:p] = 0.0
        q, _ = np.linalg.qr(c2.T @ update)
        x, ax = s @ c1, as_ @ c1
        pb, apb = s @ (c2 @ q), as_ @ (c2 @ q)
    raise SolverError(
        f"block eigensolver did not converge in {BLOCK_MAX_STEPS} steps "
        f"(residual {float(res.max()):.3e}, tolerance {tol:.3e})"
    )


def _orthonormal_complement(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of span(w) orthogonal to `basis`.

    `basis` has orthonormal columns. Each of two passes projects w off it
    and orthonormalises the unit-scaled columns through their Gram matrix,
    dropping directions whose Gram eigenvalue is below 1e-12 of the largest
    (numerically in the span of `basis` or of the other columns).
    """
    for _ in range(2):
        w = w - basis @ (basis.T @ w)
        norms = np.linalg.norm(w, axis=0)
        w = w[:, norms > 0.0] / norms[norms > 0.0]
        s, v = np.linalg.eigh(w.T @ w)
        keep = s > 1e-12 * s.max(initial=0.0)
        w = w @ (v[:, keep] / np.sqrt(s[keep]))
    return w


def certify_count(
    h: ReferenceOperator,
    theta: np.ndarray,
    x: np.ndarray,
    residuals: np.ndarray,
    m: int,
) -> tuple[float, int, int]:
    """Prove that H has exactly `cut` eigenvalues below rho; return (rho, cut, k).

    `theta` are ascending Ritz values of the orthonormal columns `x` and
    `residuals` their residual norms. The cut is the first relative Ritz
    gap above DEGENERACY_RTOL at or after position m (a multiplet cut by m
    moves it up) and rho = theta_cut + ||R_cut||_F, so every residual
    interval of the first `cut` pairs lies below rho; a gap too narrow for
    rho + delta (below) is skipped like a multiplet. With X the first `cut`
    columns and c = 2 (rho - theta_1) + 1 > rho - theta_1, a proof that
    M = H + c X X^T - rho I is positive definite shows lambda_(cut+1)(H) >
    rho: a rank-`cut` PSD update raises lambda_1 no higher than
    lambda_(cut+1), since some unit vector in the span of the lowest cut+1
    eigenvectors is orthogonal to X. Courant-Fischer bounds lambda_i <=
    theta_i, and Kahan's residual theorem then pairs them to within
    ||R_cut||_F.

    The proof (`_certify_shift`) splits the coordinates into the k of
    lowest diagonal entry, P, and the rest, D (Haynsworth's inertia
    additivity): M is positive definite when M_DD and the Schur complement
    M_PP - M_PD M_DD^-1 M_DP are. Diagonal dominance gives M_DD >= Gamma =
    diag(h_ii - r_i - rho), r_i bounds on the off-diagonal row sums of |H|
    (`h.row_sums`, over all columns and so over D; c X_D X_D^T is PSD), so
    when Gamma > 0 the Schur complement is at least T =
    M_PP - M_PD Gamma^-1 M_DP, and one k x k Cholesky of T - delta_T I
    certifies the count. Only the k rows of P are gathered (`h.rows`), so
    a block costs O(k n) memory. k starts at max(`CERT_BLOCK`, 4 cut), so
    that the lowest cut+1 eigenvectors live mostly on P and bounding M_DD
    by Gamma loses only on their tails, and doubles after each failure; the
    last step, k = n, factors M - delta I itself, formed in the lower
    triangle of the assembled matrix (`h.dense()`). A block whose arrays
    would not fit in physical memory (`schur_bytes(k, n)`, `DENSE_CERT_BYTES`
    n^2 for the last step) is not tried: SolverError. On the 797-frequency
    2D ball of the compare benchmark, tracemalloc's peak of a Schur block is
    762, 1,353, 3,682 and 9,598 KiB at k = 64, 128, 256 and 512, against a
    model of 925, 2,106, 5,236 and 14,568 KiB.

    Rounding, with unit roundoff u and n below 1/(4u): the computed factor
    R of a k x k matrix B satisfies R^T R = B + E, ||E||_2 <= gamma_(k+1)
    ||R||_F^2 <= gamma_(k+1) trace(B) / (1 - k gamma_(k+1)) (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3, and
    || |R^T||R| ||_2 <= ||R||_F^2). For k = n, forming M errs by at most
    gamma_(cut+3) (||H||_F + c ||X||_F^2 + sqrt(n) |rho|) in the 2-norm
    (||H||_F or its bound `h.frobenius()`), so
    delta = 2u ((n + 1) trace(M) + (cut + 3) (||H||_F + c ||X||_F^2 +
    sqrt(n) |rho|)) covers both. For k < n, each Gamma entry is lowered by
    4 (n + 2) u (|h_ii| + r_i + |rho|), which covers the rounding of the
    row-sum bounds and of the subtractions. With F = |H_PD| + c |X_P|
    |X_D|^T >= |M_PD|, s = (||H_PD Gamma^-1/2||_F + c ||X_P||_F
    ||Gamma^-1/2 X_D||_F)^2 bounds ||F Gamma^-1/2||_F^2, and forming T (the
    products and the division by Gamma, whose terms are bounded by F
    entrywise, then the GEMM of n - k terms, in any order) errs by at most 2u ((n + 2 cut + 6) s + (cut + 4) (||H_PP||_F +
    c ||X_P||_F^2 + sqrt(k) |rho|)); delta_T adds 2u (k + 2) trace(T) for
    the factorisation and the diagonal shift.

    Raises RitzGapError when no gap qualifies and SolverError when no k
    certifies.
    """
    n = h.n
    u = np.finfo(float).eps / 2.0
    frob_a = h.frobenius()
    trace_a = float(np.sum(h.diagonal()))
    for group in group_slices(theta, DEGENERACY_RTOL)[:-1]:
        cut = group.stop
        if cut < m:
            continue
        rho = float(theta[cut - 1] + np.linalg.norm(residuals[:cut]))
        xc = x[:, :cut]
        c = 2.0 * (rho - float(theta[0])) + 1.0
        xf2 = float(np.sum(xc * xc))
        trace = max(trace_a + c * xf2 - n * rho, 0.0)
        frob = frob_a + c * xf2 + math.sqrt(n) * abs(rho)
        delta = 2.0 * u * ((n + 1) * trace + (cut + 3) * frob)
        if rho + delta < theta[cut]:
            break
    else:
        raise RitzGapError(
            f"no Ritz gap to certify at or after position {m} among {len(theta)} Ritz values"
        )
    k = max(CERT_BLOCK, 4 * cut)
    while k < n:
        if schur_bytes(k, n) > physical_memory():
            raise SolverError(
                f"count certificate not proved by smaller blocks; its block of {k} "
                f"needs {schur_bytes(k, n)} bytes, more than physical memory"
            )
        if _certify_shift(h, xc, c, rho, delta, k):
            return rho, cut, k
        k *= 2
    if _certify_shift(h, xc, c, rho, delta, n):  # h.dense() refuses beyond physical memory
        return rho, cut, n
    raise SolverError(
        f"count certificate failed: more than {cut} eigenvalues below {rho:.15g}"
    )


def _certify_shift(
    h: ReferenceOperator,
    xc: np.ndarray,
    c: float,
    rho: float,
    delta: float,
    k: int,
) -> bool:
    """Whether M = H + c xc xc^T - rho I is proved positive definite with a k x k block.

    For k < n the Schur split of `certify_count` on the k coordinates of
    lowest diagonal entry, from their gathered rows (k x n) and the row-sum
    bounds of the rest, with M_PD formed k columns at a time, so that T is
    updated by rank-k products and every square block is at most k x k
    (`schur_bytes`); for k >= n a Cholesky factorisation of M - delta I,
    written into the lower triangle of the assembled matrix (which is all
    `np.linalg.cholesky` reads) a block of rows that fits `_ROW_BYTES` at a
    time.
    """
    n = h.n
    if k >= n:
        a = h.dense()
        step = _row_step(8 * n)
        for i in range(0, n, step):
            j = min(i + step, n)
            shift = xc[i:j] @ xc[:j].T
            shift *= c
            shift[np.arange(j - i), np.arange(i, j)] -= rho + delta
            a[i:j, :j] += shift
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    u = np.finfo(float).eps / 2.0
    cut = xc.shape[1]
    diag = h.diagonal()
    order = np.argsort(diag, kind="stable")
    p, d = order[:k], order[k:]
    hd, rd = diag[d], h.row_sums(d)
    gamma = hd - rd - rho - 4.0 * (n + 2) * u * (np.abs(hd) + rd + abs(rho))
    if not gamma.min() > 0.0:
        return False
    xp, xd = xc[p], xc[d]
    hp = h.rows(p)
    xp_f2 = float(np.sum(xp * xp))
    f_pp = float(np.linalg.norm(hp[:, p])) + c * xp_f2 + math.sqrt(k) * abs(rho)
    x_d = math.sqrt(float(np.einsum("ij,ij,i->", xd, xd, 1.0 / gamma)))
    t = xp @ xp.T
    t *= c
    t += hp[:, p]
    t[np.diag_indices(k)] -= rho
    h_pd = 0.0
    for i in range(0, n - k, k):
        di, g = d[i : i + k], gamma[i : i + k]
        m_pd = hp[:, di]
        h_pd += float(np.einsum("ij,ij,j->", m_pd, m_pd, 1.0 / g))
        m_pd += c * (xp @ xd[i : i + k].T)
        t -= (m_pd / g) @ m_pd.T
    s = (math.sqrt(h_pd) + c * math.sqrt(xp_f2) * x_d) ** 2
    delta_t = 2.0 * u * (
        (n + 2 * cut + 6) * s + (cut + 4) * f_pp + (k + 2) * max(float(np.trace(t)), 0.0)
    )
    t[np.diag_indices(k)] -= delta_t
    try:
        np.linalg.cholesky(t)
    except np.linalg.LinAlgError:
        return False
    return True


def _cut(theta: np.ndarray, m: int) -> int:
    """Leading Ritz values to converge: m, extended to the end of the m-th's multiplet."""
    return next(
        (sl.stop for sl in group_slices(theta, DEGENERACY_RTOL) if sl.stop >= m), len(theta)
    )


def _check_window(n: int, k0: int, n_eigs: int) -> None:
    if k0 < 0 or n_eigs < 1:
        raise ValueError(f"need k0 >= 0 and n_eigs >= 1, got k0={k0}, n_eigs={n_eigs}")
    if k0 + n_eigs > n:
        raise ValueError(
            f"cluster k0={k0}, n_eigs={n_eigs} out of range for basis of size {n}"
        )


def _eigen_window(matrix: np.ndarray, k0: int, n_eigs: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues and a copy of the window's eigenvectors (the rest are freed)."""
    _check_window(matrix.shape[0], k0, n_eigs)
    w, v = np.linalg.eigh(matrix)
    return w, v[:, k0 : k0 + n_eigs].copy()


def _checked_cluster(
    basis: IndexSet, k0: int, w: np.ndarray, vectors: np.ndarray
) -> EigenCluster:
    """Cluster of the window at k0 after an orthonormality check.

    Warns (on behalf of the solver's caller) when the gap to the next
    eigenvalue is tiny, since the window may then cut a multiplet.
    """
    n, n_eigs = len(w), vectors.shape[1]
    lambdas = w[k0 : k0 + n_eigs].copy()
    gram = vectors.conj().T @ vectors
    ortho_defect = float(np.max(np.abs(gram - np.eye(n_eigs))))
    if ortho_defect > 1e-10:
        raise SolverError(f"cluster lost orthonormality (defect {ortho_defect:.3e})")

    lambda_below = float(w[k0 - 1]) if k0 > 0 else 0.0
    lambda_above = float(w[k0 + n_eigs]) if k0 + n_eigs < n else None
    if lambda_above is not None:
        gap = lambda_above - float(lambdas[-1])
        if gap < CLUSTER_GAP_RTOL * max(1.0, abs(float(lambdas[-1]))):
            warnings.warn(
                f"cluster boundary gap {gap:.3e} below threshold; "
                "the selected window may cut a multiplet",
                ClusterBoundaryWarning,
                stacklevel=3,
            )
    return EigenCluster(
        basis=basis,
        k0=k0,
        eigenvalues=lambdas,
        vectors=vectors,
        lambda_below=lambda_below,
        lambda_above=lambda_above,
    )


def solve_source(s: IndexSet, potential: Potential, rhs: list[SpectralField]) -> list[SpectralField]:
    """Galerkin solutions of L u = f on span(s) for each right-hand side.

    The system matrix is Hermitian positive definite for admissible
    potentials; a Cholesky breakdown therefore signals an invalid
    potential and is raised as SolverError. The right-hand sides are then
    solved together by one dense solve.
    """
    if len(s) == 0:
        return [SpectralField.zero(potential.dim) for _ in rhs]
    for f in rhs:
        if f.support.dim != s.dim:
            raise ValueError("right-hand side dimension mismatch")
    h = assemble(s, potential)
    try:
        np.linalg.cholesky(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stiffness matrix not positive definite: {exc}") from exc
    x = np.linalg.solve(h.matrix, np.stack([f.coefficients_on(s) for f in rhs], axis=1))
    return [SpectralField(s, x[:, i].copy()) for i in range(len(rhs))]


def group_slices(eigenvalues: np.ndarray, rtol: float) -> list[slice]:
    """Split a sorted eigenvalue window where a relative gap exceeds `rtol`."""
    slices = []
    start = 0
    for i in range(len(eigenvalues) - 1):
        scale = max(1.0, abs(float(eigenvalues[i])), abs(float(eigenvalues[i + 1])))
        if eigenvalues[i + 1] - eigenvalues[i] > rtol * scale:
            slices.append(slice(start, i + 1))
            start = i + 1
    slices.append(slice(start, len(eigenvalues)))
    return slices


# -- helpers -----------------------------------------------------------------


def _rotate_to_real(q: np.ndarray, neg_perm: np.ndarray) -> np.ndarray:
    """Unitary rotation of a degenerate group onto real-valued functions.

    The antiunitary symmetry C maps coefficients u_G -> conj(u_{-G}) and
    commutes with the operator, so T = Q^H C(Q) is unitary symmetric.
    Writing T = O diag(exp(i phi)) O^T with O real orthogonal (real and
    imaginary parts of T commute) gives W = O diag(exp(i phi / 2)) with
    T = W W^T, and the columns of Q W are fixed by C.
    """
    q, _ = np.linalg.qr(q)
    cq = np.conj(q[neg_perm, :])
    t = q.conj().T @ cq
    t = 0.5 * (t + t.T)
    o = _joint_diagonalize(t.real, t.imag)
    d = o.T @ t @ o
    w = o * np.exp(0.5j * np.angle(np.diag(d)))[None, :]
    return q @ w


def _joint_diagonalize(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real orthogonal O diagonalizing two commuting real symmetric matrices."""
    wx, o = np.linalg.eigh(x)
    scale = max(1.0, float(np.max(np.abs(wx), initial=0.0)))
    start = 0
    for i in range(len(wx)):
        if i + 1 == len(wx) or wx[i + 1] - wx[i] >= 1e-8 * scale:
            if i + 1 - start > 1:
                block = o[:, start : i + 1]
                _, oy = np.linalg.eigh(block.T @ y @ block)
                o[:, start : i + 1] = block @ oy
            start = i + 1
    return o


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: dominant entry real-positive-leaning."""
    i = int(np.argmax(np.abs(vec)))
    pivot = vec[i]
    if abs(pivot.real) >= 1e-8 * abs(pivot):
        return -vec if pivot.real < 0 else vec
    return -vec if pivot.imag < 0 else vec
