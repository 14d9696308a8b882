"""Fourier coefficient fields on the torus [0, 2*pi)^d: norms, products, grid values.

Coefficients are stored in the orthonormal convention: a field is
u = sum_G u_G e_G with e_G(x) = (2*pi)^(-d/2) exp(i G.x), so the L^2 norm
of u equals the Euclidean norm of its coefficient vector and the H^s
norms are plain weighted Euclidean norms with weights (1+|G|^2)^s.

In the adaptive loop, products V*u are realized as exact finite
convolutions, never via FFT: adaptive supports are small and irregular,
and exactness removes aliasing from the list of error sources that
estimator certification has to cover. `multiply` takes the Minkowski sum
of the supports and the position of every product in it from
`minkowski_sum` (a table over the sums' box, or one lattice key per pair
for far-apart supports) and accumulates the products with one
`np.bincount` per real and imaginary part. The (2*pi)^(-d/2) convolution
factor is `norm_factor`.

Grid evaluation is the FFT here: `evaluate_on_grid` folds each
coefficient onto its grid bin G mod n and applies one inverse FFT. Folding
is exact at the grid points for every n, so the samples equal the direct
sum up to round-off (a few ulp of (2*pi)^(-d/2) * sum |u_G|).

The verification reference multiplies by V on such a grid
(`operator.ReferenceOperator`): a ball of largest component a and a
potential of largest component b (those beyond 2a never couple the ball)
need N >= 2a + b + 1 points per axis. A product term of a ball frequency
and a support frequency lies within a + b of 0 per component, a ball
frequency within a, so two of them agree mod N only when they are equal:
on the ball the circular convolution is the exact one, with FFT round-off
and no aliasing.
"""

from __future__ import annotations

import math

import numpy as np

from .frequency import IndexSet, minkowski_sum


class FieldError(ValueError):
    pass


def norm_factor(dim: int) -> float:
    """(2*pi)^(-d/2); for d=1,2 this round-trips exactly against its inverse."""
    return (2.0 * math.pi) ** (-dim / 2.0)


class SpectralField:
    """Complex Fourier coefficients over a finite frequency support.

    The field is real-valued when u_{-G} = conj(u_G); `hermitian_defect`
    measures the deviation from that symmetry.
    """

    __slots__ = ("support", "coeffs")

    def __init__(self, support: IndexSet, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if arr.shape[0] != len(support):
            raise FieldError(
                f"coefficient count {arr.shape[0]} does not match support size {len(support)}"
            )
        arr.setflags(write=False)
        self.support = support
        self.coeffs = arr

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SpectralField":
        return cls(IndexSet(dim), [])

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> "SpectralField":
        """Build from a {frequency tuple: coefficient} mapping."""
        keys = [tuple(int(x) for x in (k if hasattr(k, "__len__") else (k,))) for k in pairs]
        support = IndexSet(dim, keys)
        coeffs = np.zeros(len(support), dtype=np.complex128)
        coeffs[support.positions(keys)] = list(pairs.values())
        return cls(support, coeffs)

    # -- norms and access --------------------------------------------------

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def coefficients_on(self, basis: IndexSet) -> np.ndarray:
        """Coefficient vector aligned with `basis` order (zeros where absent).

        Frequencies outside `basis` are dropped, so this simultaneously
        realizes the L^2 projection onto the span of `basis`.
        """
        out = np.zeros(len(basis), dtype=np.complex128)
        pos = basis.positions(self.support)
        keep = pos >= 0
        out[pos[keep]] = self.coeffs[keep]
        return out

    def hermitian_defect(self) -> float:
        """max |u_{-G} - conj(u_G)|; inf if a needed negation is absent."""
        if len(self.support) == 0:
            return 0.0
        pos = self.support.positions(-self.support.entries)
        if np.any((pos < 0) & (np.abs(self.coeffs) > 0)):
            return math.inf
        ok = pos >= 0
        return float(np.max(np.abs(self.coeffs[pos[ok]] - np.conj(self.coeffs[ok])), initial=0.0))


def hs_norm(f: SpectralField, s: float) -> float:
    """Periodic Sobolev norm: sqrt(sum (1+|G|^2)^s |u_G|^2).

    s = 0 is the L^2 norm (Parseval), s = -1 is the norm in which all
    residual estimators are measured. The estimators sum their weighted
    coefficients themselves; the tests compare them against this norm.
    """
    if len(f.support) == 0:
        return 0.0
    weights = (1.0 + f.support.norms_sq.astype(np.float64)) ** s
    return float(np.sqrt(np.sum(weights * np.abs(f.coeffs) ** 2)))


def multiply(v: SpectralField, u: SpectralField) -> SpectralField:
    """Fourier coefficients of the pointwise product v*u (exact convolution).

    Coefficient at G is (2*pi)^(-d/2) * sum_K v_K u_{G-K}; the support is
    the Minkowski sum of the input supports, so the result is exact (no
    FFT, no aliasing), and `minkowski_sum` gives it with the position of
    every sum K + J. The products v_K u_J are laid out K-major and summed
    by `np.bincount`, which adds in input order, so every coefficient
    accumulates its terms in ascending K, one term per K.
    """
    if v.support.dim != u.support.dim:
        raise ValueError(f"dimension mismatch: {v.support.dim} vs {u.support.dim}")
    dim = v.support.dim
    if len(v.support) == 0 or len(u.support) == 0:
        return SpectralField.zero(dim)
    out_support, pos = minkowski_sum(v.support, u.support)
    # numpy rounds the complex product of two 1-element arrays differently
    # from a broadcast scalar times an array; keep the scalar form for one K
    if len(v.support) == 1:
        terms = v.coeffs[0] * u.coeffs
    else:
        terms = np.multiply.outer(v.coeffs, u.coeffs).reshape(-1)
    out = np.empty(len(out_support), dtype=np.complex128)
    out.real = np.bincount(pos, weights=terms.real, minlength=len(out_support))
    out.imag = np.bincount(pos, weights=terms.imag, minlength=len(out_support))
    out *= norm_factor(dim)
    return SpectralField(out_support, out)


def evaluate_on_grid(f: SpectralField, points_per_axis: int) -> np.ndarray:
    """Values of a real field on the uniform grid x_j = 2*pi*j/n of the torus.

    exp(i G.x_j) depends only on G mod n, so each coefficient is folded
    onto grid bin G mod n (exact for every n, also below the support
    diameter) and one inverse FFT sums the bins. Returns the real parts;
    a FieldError is raised when an imaginary part exceeds round-off, i.e.
    when the field is not real.
    """
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    dim = f.support.dim
    n = points_per_axis
    bins = np.ravel_multi_index(tuple((f.support.entries % n).T), (n,) * dim)
    folded = np.empty(n**dim, dtype=np.complex128)
    folded.real = np.bincount(bins, weights=f.coeffs.real, minlength=n**dim)
    folded.imag = np.bincount(bins, weights=f.coeffs.imag, minlength=n**dim)
    values = np.fft.ifftn(folded.reshape((n,) * dim), norm="forward") * norm_factor(dim)
    scale = max(1.0, float(np.max(np.abs(values))))
    defect = float(np.max(np.abs(values.imag)))
    if defect > 1e-10 * scale:
        raise FieldError(f"field is not real: grid values have imaginary part {defect:.3e}")
    return values.real


def a_norm(u: SpectralField, vu: SpectralField) -> float:
    """Energy norm sqrt(||grad u||^2 + (V u, u)) of u, given the product vu = V*u.

    `vu` is `multiply(V, u)` for a verified potential V, whose stored V_0
    puts supp u inside supp(V u); one lookup of u's frequencies reads (V u)
    on supp u. Both sums run over supp u in canonical order.
    """
    kin = np.sum(np.conj(u.coeffs) * u.coeffs * u.support.norms_sq.astype(np.float64))
    pot = np.sum(np.conj(vu.coeffs[vu.support.positions(u.support)]) * u.coeffs)
    return math.sqrt(max(0.0, float((kin + pot).real)))
