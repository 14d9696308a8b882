"""Galerkin assembly and dense solves for L = -Laplace + V on the torus.

In the orthonormal planewave basis the stiffness matrix of the energy
form is H[G, G'] = |G|^2 delta_{GG'} + (2*pi)^(-d/2) V_{G-G'} and the mass
matrix is the identity, so the discrete eigenvalue problem is a standard
dense Hermitian eigenproblem. Everything here is deliberately dense and
direct: at desk scale (a few thousand frequencies) correctness and
reproducibility beat iterative speed, and interior eigenvalue clusters
come for free.

The potential is real, so H[-G, -G'] = conj(H[G, G']), and on a basis
closed under negation the matrix is real symmetric in cos/sin coordinates
(`CosSinCoordinates`). `assemble_real` builds that matrix directly and
`solve_eigen_real` solves it with a real `eigh`, about five times faster
than the complex solve at a few hundred frequencies; the verification
reference and the uniform sweep use them. Only the adaptive loop and the
source solves use the complex `assemble`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .frequency import IndexSet, ball, validate_symmetric
from .spectral import SpectralField, evaluate_on_grid, project

#: relative gap below which adjacent eigenvalues are treated as one
#: degenerate group for basis post-processing
DEGENERACY_RTOL = 1e-9

#: relative cluster-boundary gap below which a warning is emitted
CLUSTER_GAP_RTOL = 1e-8

_SQRT_HALF = math.sqrt(0.5)


class PotentialError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


class PositivityWarning(UserWarning):
    """The verified lower bound of the potential is not strictly positive."""


class ClusterBoundaryWarning(UserWarning):
    """The gap separating the eigenvalue cluster from the rest is tiny."""


@dataclass(frozen=True)
class Potential:
    """A real, finite-support potential with verified pointwise bounds.

    nu_lower/nu_upper bound V on the verification grid (minus/plus a
    round-off margin); alpha_lower = min(nu_lower, 1) and
    alpha_upper = max(nu_upper, 1) are the energy-norm equivalence
    constants; l1_total = sum |V_K| feeds truncation certificates.
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
        return int(math.ceil(self.field.support.max_radius() - 1e-12))

    def mean_value(self) -> float:
        return float(((2.0 * math.pi) ** (-self.dim / 2.0)) * self.field.coefficient(
            (0,) * self.dim
        ).real)

    def tail_l1(self, radius: int) -> float:
        """sum of |V_K| over frequencies with |K| > radius."""
        mask = self.field.support.norms_sq > radius * radius
        return float(np.sum(np.abs(self.field.coeffs[mask])))

    def truncated_field(self, radius: int) -> SpectralField:
        return project(self.field, ball(radius, self.dim))


def verify_potential(field: SpectralField) -> Potential:
    """Verify positivity bounds of a potential by exact grid sampling.

    The grid has 4*(ceil(max |K|) + 1) points per axis; a trigonometric
    polynomial is evaluated exactly at grid points (folded inverse FFT),
    and the reported bounds carry a 1e-12 relative round-off margin. The
    FFT's own round-off stays below 1e-13 * max(1, (2*pi)^(-d/2) sum |V_K|)
    (measured: 2e-15 in 3D), far inside that margin. A potential whose
    grid minimum is negative (beyond the margin) is rejected; a grid
    minimum of exactly zero is allowed but flagged, since the energy-norm
    constants then degenerate.
    """
    if not field.real_flag:
        raise PotentialError("potential must be flagged as a real field")
    if not validate_symmetric(field.support):
        raise PotentialError("potential support must be closed under negation")
    scale0 = max(1.0, float(np.max(np.abs(field.coeffs))) if len(field.support) else 0.0)
    if field.hermitian_defect() > 1e-10 * scale0:
        raise PotentialError("potential coefficients are not Hermitian-symmetric")
    radius = int(math.ceil(field.support.max_radius() - 1e-12))
    npts = 4 * (radius + 1)
    values = evaluate_on_grid(field, npts)
    vmin = float(values.min())
    vmax = float(values.max())
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
        l1_total=float(np.sum(np.abs(field.coeffs))),
    )


@dataclass(frozen=True)
class Hamiltonian:
    """Dense Hermitian Galerkin matrix of the energy form on a basis."""

    basis: IndexSet
    matrix: np.ndarray


def _potential_gather(potential: Potential, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] = (2*pi)^(-d/2) V_{a_i + b_j} for frequency rows a, b; 0 outside supp V."""
    vf = potential.field
    # position -1 (a sum outside the support) reads the appended 0
    v = np.append((2.0 * math.pi) ** (-potential.dim / 2.0) * vf.coeffs, 0.0)
    return v[vf.support.sum_positions(a, b)]


def assemble(s: IndexSet, potential: Potential) -> Hamiltonian:
    """Assemble H[G, G'] = |G|^2 delta + (2*pi)^(-d/2) V_{G-G'} on `s`."""
    if s.dim != potential.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {potential.dim}")
    if not validate_symmetric(s):
        raise ValueError("basis index set must be closed under negation")
    h = _potential_gather(potential, s.entries, -s.entries)
    h[np.diag_indices(len(s))] += s.norms_sq
    defect = float(np.max(np.abs(h - h.conj().T), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(h), initial=0.0)))
    if defect > 1e-13 * scale:
        raise SolverError(f"assembled matrix is not Hermitian (defect {defect:.3e})")
    return Hamiltonian(basis=s, matrix=h)


@dataclass(frozen=True)
class CosSinCoordinates:
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


@dataclass(frozen=True)
class RealHamiltonian:
    """Real symmetric Galerkin matrix U^H H U in cos/sin coordinates."""

    coords: CosSinCoordinates
    matrix: np.ndarray

    @property
    def basis(self) -> IndexSet:
        return self.coords.basis


def assemble_real(s: IndexSet, potential: Potential) -> RealHamiltonian:
    """Assemble H on `s` directly in its cos/sin coordinates.

    For representatives G, G' let A = H[G, G'] and B = H[G, -G'] =
    (2*pi)^(-d/2) V_{G+G'}. The cos/cos block is Re(A + B), sin/sin
    Re(A - B), cos/sin Im(B - A) and sin/cos Im(A + B). Taking
    e_0 = (e_0 + e_-0)/2 as the first cos function gives its row and column
    the same formulas scaled by 1/sqrt(2). A and B are gathered from the
    potential at G - G' and G + G' over the cos frequencies only; neither U
    nor the complex H is formed.
    """
    if s.dim != potential.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {potential.dim}")
    if not validate_symmetric(s):
        raise ValueError("basis index set must be closed under negation")
    coords = CosSinCoordinates.of(s)
    z, m = len(coords.zero), len(coords.zero) + len(coords.reps)
    # cos frequencies: 0 first when z = 1, then the representatives; the sin
    # block uses the representatives only
    cos_pos = np.concatenate([coords.zero, coords.reps])
    g = s.entries[cos_pos]
    a = _potential_gather(potential, g, -g)  # G - G'
    b = _potential_gather(potential, g, g)  # G + G'
    r = np.empty((len(s), len(s)))
    np.add(a.real, b.real, out=r[:m, :m])
    np.subtract(a.real[z:, z:], b.real[z:, z:], out=r[m:, m:])
    np.subtract(b.imag[:, z:], a.imag[:, z:], out=r[:m, m:])
    np.add(a.imag[z:, :], b.imag[z:, :], out=r[m:, :m])
    del a, b
    r[np.diag_indices(len(s))] += s.norms_sq[np.concatenate([cos_pos, coords.reps])]
    r[:z, :] *= _SQRT_HALF
    r[:, :z] *= _SQRT_HALF
    scale = max(1.0, float(np.max(np.abs(r), initial=0.0)))
    asym = r - r.T
    defect = float(np.max(np.abs(asym, out=asym), initial=0.0))
    if defect > 1e-13 * scale:
        raise SolverError(f"assembled matrix is not symmetric (defect {defect:.3e})")
    return RealHamiltonian(coords=coords, matrix=r)


@dataclass(frozen=True)
class EigenCluster:
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


def solve_eigen_real(
    h: RealHamiltonian, k0: int, n_eigs: int
) -> tuple[EigenCluster, np.ndarray]:
    """`solve_eigen` for a real matrix in cos/sin coordinates.

    Returns the cluster and its real coordinate columns. The eigenvectors
    are real in these coordinates, so the cluster's coefficient columns are
    real functions without any rotation; the same sign convention applies
    to the coordinate columns.
    """
    w, x = _eigen_window(h.matrix, k0, n_eigs)
    for j in range(n_eigs):
        x[:, j] = _fix_sign(x[:, j])
    return _checked_cluster(h.basis, k0, w, h.coords.to_coefficients(x)), x


def _eigen_window(matrix: np.ndarray, k0: int, n_eigs: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues and a copy of the window's eigenvectors (the rest are freed)."""
    n = matrix.shape[0]
    if k0 < 0 or n_eigs < 1:
        raise ValueError(f"need k0 >= 0 and n_eigs >= 1, got k0={k0}, n_eigs={n_eigs}")
    if k0 + n_eigs > n:
        raise ValueError(
            f"cluster k0={k0}, n_eigs={n_eigs} out of range for basis of size {n}"
        )
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
    return [
        SpectralField(s, x[:, i].copy(), real_flag=f.real_flag) for i, f in enumerate(rhs)
    ]


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
