import math

import pytest

from adaptpw import (
    IndexSet,
    ReferenceOperator,
    SpectralField,
    ball,
    eta_cluster,
    truncated_residual,
    verify_potential,
)
from adaptpw.cli import build_potential


def coefficient(f, g):
    """The coefficient u_g of field f, 0 where g is outside its support."""
    return complex(f.coefficients_on(IndexSet(f.support.dim, [g]))[0])


def trig_field(dim, c, terms):
    """Coefficient field of c + sum a_k cos(k.x) in the orthonormal basis."""
    norm = (2.0 * math.pi) ** (dim / 2.0)
    coeffs = {(0,) * dim: c * norm}
    for k, a in terms.items():
        k = tuple(k)
        neg = tuple(-x for x in k)
        coeffs[k] = coeffs.get(k, 0.0) + 0.5 * a * norm
        coeffs[neg] = coeffs.get(neg, 0.0) + 0.5 * a * norm
    return SpectralField.from_pairs(dim, coeffs)


def trig_potential(dim, c, terms):
    return verify_potential(trig_field(dim, c, terms))


@pytest.fixture(scope="session")
def cosine_potential():
    """V = 1 + cos x on the 1-torus (grid minimum exactly zero)."""
    return trig_potential(1, 1.0, {(1,): 1.0})


@pytest.fixture(scope="session")
def constant_potential():
    return trig_potential(1, 1.0, {})


@pytest.fixture(scope="session")
def compare2d_potential():
    """The 2D random-decay potential of the compare benchmark's seed-7 instance."""
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}
    return build_potential(spec, 2, seed=7)[0]


@pytest.fixture(scope="session")
def compare2d_reference(compare2d_potential):
    """Its reference operator on ball(16, 2), 797 frequencies.

    Shared by the session: its product count and cached diagonal, row sums
    and FFT setup carry over from test to test.
    """
    return ReferenceOperator(ball(16, 2), compare2d_potential)


def exhaustive_truncation(fields, lambdas, potential, zeta, rs_exact):
    """Truncation search without the certified skip, as the oracle of it.

    Computes the truncated residuals at every radius 1, 2, 4, ... below
    the potential's support and tests each; `choose_truncation` must make
    the same decisions and return bit-identical residuals.
    """
    full = potential.support_radius()
    radius = 1
    while True:
        if radius >= full or potential.tail_l1(radius) == 0.0:
            return full, rs_exact
        rs = [
            truncated_residual(u, lam, potential, radius)
            for u, lam in zip(fields, lambdas)
        ]
        bound = math.sqrt(sum(r.truncation_bound**2 for r in rs))
        if bound <= zeta * eta_cluster(rs):
            return radius, rs
        radius *= 2
