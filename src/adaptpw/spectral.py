"""Fourier coefficient fields on the torus [0, 2*pi)^d and their algebra.

Coefficients are stored in the orthonormal convention: a field is
u = sum_G u_G e_G with e_G(x) = (2*pi)^(-d/2) exp(i G.x), so the L^2 norm
of u equals the Euclidean norm of its coefficient vector and the H^s
norms are plain weighted Euclidean norms with weights (1+|G|^2)^s.

Products V*u are realized as exact finite convolutions, never via FFT:
adaptive supports are small and irregular, and exactness removes aliasing
from the list of error sources that estimator certification has to cover.
`multiply` takes the Minkowski sum of the supports and the position of
every product in it from one lattice-key sum per pair and accumulates the
products with one `np.bincount` per real and imaginary part. The single
(2*pi)^(-d/2) convolution factor lives there too.

Grid evaluation is the one FFT: `evaluate_on_grid` folds each coefficient
onto its grid bin G mod n and applies one inverse FFT. Folding is exact at
the grid points for every n, so the samples equal the direct sum up to
round-off (a few ulp of (2*pi)^(-d/2) * sum |u_G|).
"""

from __future__ import annotations

import math

import numpy as np

from .frequency import IndexSet, minkowski_sum, union


class FieldError(ValueError):
    pass


def _norm_factor(dim: int) -> float:
    # (2*pi)^(-d/2); for d=1,2 this round-trips exactly against its inverse
    return (2.0 * math.pi) ** (-dim / 2.0)


class SpectralField:
    """Complex Fourier coefficients over a finite frequency support.

    `real_flag` declares that the field represents a real-valued function,
    i.e. coefficients satisfy u_{-G} = conj(u_G). The flag is propagated
    soundly by arithmetic; `hermitian_defect` measures the actual deviation.
    """

    __slots__ = ("support", "coeffs", "real_flag")

    def __init__(self, support: IndexSet, coeffs, real_flag: bool = False) -> None:
        arr = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if arr.shape[0] != len(support):
            raise FieldError(
                f"coefficient count {arr.shape[0]} does not match support size {len(support)}"
            )
        arr.setflags(write=False)
        self.support = support
        self.coeffs = arr
        self.real_flag = bool(real_flag)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SpectralField":
        return cls(IndexSet(dim), [], real_flag=True)

    @classmethod
    def unit(cls, dim: int, g) -> "SpectralField":
        """The basis field e_g (coefficient 1 at frequency g)."""
        g = tuple(int(x) for x in (g if hasattr(g, "__len__") else (g,)))
        support = IndexSet(dim, [g])
        return cls(support, [1.0], real_flag=all(x == 0 for x in g))

    @classmethod
    def from_pairs(cls, dim: int, pairs, real_flag: bool | None = None) -> "SpectralField":
        """Build from a {frequency tuple: coefficient} mapping."""
        keys = [tuple(int(x) for x in (k if hasattr(k, "__len__") else (k,))) for k in pairs]
        support = IndexSet(dim, keys)
        coeffs = np.zeros(len(support), dtype=np.complex128)
        coeffs[support.positions(keys)] = list(pairs.values())
        field = cls(support, coeffs, real_flag=False)
        if real_flag is None:
            scale = max(1.0, float(np.max(np.abs(coeffs))) if len(coeffs) else 0.0)
            real_flag = field.hermitian_defect() <= 1e-12 * scale
        return cls(support, coeffs, real_flag=real_flag)

    # -- norms and access --------------------------------------------------

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def hs_norm(self, s: float) -> float:
        return hs_norm(self, s)

    def coefficient(self, g) -> complex:
        pos = self.support.positions([g])[0]
        return complex(self.coeffs[pos]) if pos >= 0 else 0.0 + 0.0j

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

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "SpectralField"):
        support = union(self.support, other.support)
        return support, self.coefficients_on(support), other.coefficients_on(support)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        support, a, b = self._aligned(other)
        return SpectralField(support, a + b, self.real_flag and other.real_flag)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        support, a, b = self._aligned(other)
        return SpectralField(support, a - b, self.real_flag and other.real_flag)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.support, -self.coeffs, self.real_flag)

    def __mul__(self, scalar) -> "SpectralField":
        c = complex(scalar)
        keeps_real = self.real_flag and c.imag == 0.0
        return SpectralField(self.support, self.coeffs * c, keeps_real)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SpectralField(dim={self.support.dim}, size={len(self.support)}, real={self.real_flag})"


def hs_norm(f: SpectralField, s: float) -> float:
    """Periodic Sobolev norm: sqrt(sum (1+|G|^2)^s |u_G|^2).

    s = 0 is the L^2 norm (Parseval), s = -1 is the norm in which all
    residual estimators are measured.
    """
    if len(f.support) == 0:
        return 0.0
    weights = (1.0 + f.support.norms_sq.astype(np.float64)) ** s
    return float(np.sqrt(np.sum(weights * np.abs(f.coeffs) ** 2)))


def project(f: SpectralField, s: IndexSet) -> SpectralField:
    """L^2 projection: restrict coefficients to support(f) intersected with s."""
    if f.support.dim != s.dim:
        raise ValueError(f"dimension mismatch: {f.support.dim} vs {s.dim}")
    keep = s.positions(f.support) >= 0
    return SpectralField(
        IndexSet(f.support.dim, f.support.entries[keep]), f.coeffs[keep], f.real_flag
    )


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
    out *= _norm_factor(dim)
    return SpectralField(out_support, out, v.real_flag and u.real_flag)


def evaluate_on_grid(f: SpectralField, points_per_axis: int) -> np.ndarray:
    """Values of the field on the uniform grid x_j = 2*pi*j/n of the torus.

    exp(i G.x_j) depends only on G mod n, so each coefficient is folded
    onto grid bin G mod n (exact for every n, also below the support
    diameter) and one inverse FFT sums the bins. Returns a real array when
    `real_flag` is set (the imaginary parts are checked to be at round-off
    level) and a complex array otherwise.
    """
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    dim = f.support.dim
    n = points_per_axis
    bins = np.ravel_multi_index(tuple((f.support.entries % n).T), (n,) * dim)
    folded = np.empty(n**dim, dtype=np.complex128)
    folded.real = np.bincount(bins, weights=f.coeffs.real, minlength=n**dim)
    folded.imag = np.bincount(bins, weights=f.coeffs.imag, minlength=n**dim)
    values = np.fft.ifftn(folded.reshape((n,) * dim), norm="forward") * _norm_factor(dim)
    if f.real_flag:
        scale = max(1.0, float(np.max(np.abs(values))))
        defect = float(np.max(np.abs(values.imag)))
        if defect > 1e-10 * scale:
            raise FieldError(
                f"field flagged real but grid values have imaginary part {defect:.3e}"
            )
        return values.real
    return values


def a_inner(u: SpectralField, v: SpectralField, potential) -> complex:
    """Energy inner product (grad u, grad v) + (V u, v), conjugate-linear in u.

    `potential` may be a verified potential object or a bare real
    SpectralField of potential coefficients.
    """
    vfield = getattr(potential, "field", potential)
    w = multiply(vfield, u)
    kin = _l2_pairing(u, v, kinetic=True)
    pot = _l2_pairing(w, v, kinetic=False)
    return kin + pot


def a_norm(u: SpectralField, potential) -> float:
    val = a_inner(u, u, potential)
    return math.sqrt(max(0.0, val.real))


def _l2_pairing(a: SpectralField, b: SpectralField, kinetic: bool) -> complex:
    """sum over common frequencies of w(G) * conj(a_G) * b_G."""
    pos = b.support.positions(a.support)
    keep = pos >= 0
    terms = np.conj(a.coeffs[keep]) * b.coeffs[pos[keep]]
    if kinetic:
        terms = terms * a.support.norms_sq[keep].astype(np.float64)
    return complex(np.sum(terms))
