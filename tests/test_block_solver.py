"""The certified block eigensolver of the verification reference, against `eigh`.

The solver runs on the matrix-free `ReferenceOperator`; its dense matrix
(`ReferenceOperator.dense`) and a whole-matrix Cholesky stay here as its
oracles.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptpw.operator as operator
from adaptpw import (
    ClusterBoundaryWarning,
    ReferenceOperator,
    SolverError,
    ball,
    certify_count,
    reference_solve,
    solve_eigen_block,
    subspace_distance,
)
from adaptpw.cli import build_potential, main
from adaptpw.operator import group_slices
from conftest import trig_potential
from test_cli import write_config

#: reference radii per dimension: the first ball of each is small enough
#: that the block's search space spans it whole for some windows, 1D
#: ball(32) and 2D ball(8) (up to 197 frequencies) are solved whole by the
#: size rule, and 1D ball(160), 2D ball(10) and 3D ball(5) (321, 317 and 515
#: frequencies) lie above `BLOCK_DENSE_MAX`, so LOBPCG and the count
#: certificate solve them.
RADII = {1: (4, 8, 32, 160), 2: (2, 8, 10), 3: (2, 5)}
R_CUT = {1: 8, 2: 4, 3: 2}

#: window groups are compared by subspace where Ritz values lie closer than
#: this (relative); closer pairs have ill-conditioned individual vectors
COMPARE_GROUP_RTOL = 1e-3


def oracle_atol(h):
    """Eigenvalue tolerance against `eigh`: 1e-12, or about 4.5 ulp of max diag H above it.

    A 1D ball above `BLOCK_DENSE_MAX` has max diag H >= 128^2, where the
    oracle's own rounding (up to about 6e-12) exceeds 1e-12; every other
    ball keeps 1e-12.
    """
    return max(1e-12, 5e-16 * float(h.diagonal().max()))


class MatrixOperator:
    """The certificate's view of a stored symmetric matrix, with exact row sums over D."""

    def __init__(self, a):
        self.a, self.n = a, a.shape[0]

    def diagonal(self):
        return self.a.diagonal()

    def rows(self, idx):
        return self.a[idx]

    def row_sums(self, d):
        inside = np.zeros(self.n)
        inside[d] = 1.0
        b = np.abs(self.a)
        np.fill_diagonal(b, 0.0)
        return (b @ inside)[d]

    def dense(self):
        return self.a.copy()


def potential_for(family, dim, seed):
    if family == "constant":
        return trig_potential(dim, 1.0, {})
    if family == "symmetric-trig":  # the criterion 10 potential, pairs of degenerate eigenvalues
        return trig_potential(2, 1.0, {(1, 0): 0.3, (0, 1): 0.3})
    spec = {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": R_CUT[dim]}
    return build_potential(spec, dim, seed)[0]


@st.composite
def block_case(draw):
    family = draw(st.sampled_from(["random-decay", "random-decay", "constant", "symmetric-trig"]))
    dim = 2 if family == "symmetric-trig" else draw(st.sampled_from([1, 2, 3]))
    m_ref = draw(st.sampled_from(RADII[dim]))
    k0 = draw(st.sampled_from([0, 1, 3]))
    n_eigs = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    return potential_for(family, dim, seed), m_ref, k0, n_eigs


def solve_recording(solve, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = solve(*args)
    return out, any(issubclass(w.category, ClusterBoundaryWarning) for w in caught)


@settings(max_examples=60, deadline=None)
@given(block_case())
def test_block_solver_matches_eigh(case):
    pot, m_ref, k0, n_eigs = case
    h = ReferenceOperator(ball(m_ref, pot.dim), pot)
    n = h.n
    w, v = np.linalg.eigh(h.dense())  # the oracle
    (cluster, x, stats), warned = solve_recording(solve_eigen_block, h, k0, n_eigs)

    top, atol = k0 + n_eigs, oracle_atol(h)
    np.testing.assert_allclose(cluster.eigenvalues, w[k0:top], rtol=0.0, atol=atol)
    assert abs(cluster.lambda_below - (w[k0 - 1] if k0 else 0.0)) <= atol
    if top == n:
        assert cluster.lambda_above is None
    else:
        assert abs(cluster.lambda_above - w[top]) <= atol
        gap = w[top] - w[top - 1]
        assert warned == (gap < operator.CLUSTER_GAP_RTOL * max(1.0, abs(w[top - 1])))
    block = k0 + n_eigs + 1 + operator.BLOCK_GUARD * 2**stats.guard_grows
    dense = 3 * block >= n or n <= operator.BLOCK_DENSE_MAX
    assert stats.block_size == (n if dense else block)
    assert (stats.rho is None) == (stats.block_size == n) == (stats.cert_size is None)
    assert (stats.products == 0) == (stats.grid is None) == (stats.block_size == n)

    # groups of close eigenvalues that lie wholly inside the window
    oracle = h.coords.to_coefficients(v[:, k0:top])
    for sl in group_slices(w, COMPARE_GROUP_RTOL):
        if k0 <= sl.start and sl.stop <= top:
            window = slice(sl.start - k0, sl.stop - k0)
            d = subspace_distance(cluster.vectors[:, window], oracle[:, window], h)
            assert d <= 1e-10

    (again, x_again, stats_again), _ = solve_recording(solve_eigen_block, h, k0, n_eigs)
    assert np.array_equal(again.eigenvalues, cluster.eigenvalues)
    assert np.array_equal(again.vectors, cluster.vectors)
    assert np.array_equal(x_again, x) and stats_again == stats


def skipping_window(h, p, m, tol, start=None):
    """eigh's pairs 2..p+1: a converged block that misses lambda_1."""
    a = h.dense()
    w, v = np.linalg.eigh(a)
    theta, x = w[1 : p + 1], v[:, 1 : p + 1]
    return theta, x, np.linalg.norm(a @ x - x * theta, axis=0), 0


@pytest.fixture(scope="module")
def rd_hamiltonian():
    # 317 frequencies, above BLOCK_DENSE_MAX: every guard the solver tries
    # leaves the block smaller than a third of the ball, so no attempt is
    # whole-space
    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}, 2, seed=7
    )
    return ReferenceOperator(ball(10, 2), pot)


def test_certificate_rejects_window_that_skips_lambda_1(rd_hamiltonian):
    a = rd_hamiltonian.dense()
    m = 3
    w, v = np.linalg.eigh(a)
    theta, x, res, _ = skipping_window(rd_hamiltonian, m + 1, m, 0.0)  # eigh's vectors 2..m+2
    assert theta[m] - theta[m - 1] > 1e-3  # a gap at position m to certify
    with pytest.raises(SolverError, match="count certificate failed"):
        certify_count(rd_hamiltonian, theta, x, res, m)

    x = v[:, : m + 1]
    rho, cut, k = certify_count(
        rd_hamiltonian, w[: m + 1], x, np.linalg.norm(a @ x - x * w[: m + 1], axis=0), m
    )
    assert cut == m and w[m - 1] < rho < w[m] and k == operator.CERT_BLOCK


def test_certificate_moves_cut_past_multiplet():
    # constant potential in 1D: eigenvalues 1, 2, 2, 5, 5; a cut after the
    # second pair would split the multiplet at 2
    h = ReferenceOperator(ball(8, 1), trig_potential(1, 1.0, {}))
    w, v = np.linalg.eigh(h.dense())
    rho, cut, _ = certify_count(h, w[:5], v[:, :5], np.zeros(5), 2)
    assert cut == 3 and rho == pytest.approx(2.0, abs=1e-12)


def test_block_solver_raises_when_every_window_skips_lambda_1(rd_hamiltonian, monkeypatch):
    monkeypatch.setattr(operator, "_block_iterate", skipping_window)
    with pytest.raises(SolverError, match="count certificate failed"):
        solve_eigen_block(rd_hamiltonian, 0, 2)


def run_compare(tmp_path, m_ref):
    raw = {
        "problem": {
            "dim": 1,
            "n_eigs": 1,
            "potential": {"family": "trig", "c": 1.0, "terms": [{"k": [1], "a": 1.0}]},
        },
        "algorithm": {"M0": 1, "tol": 1e-5, "zeta": 0.2},
        "verification": {"M_ref": m_ref},
        "output": {"directory": str(tmp_path / "out")},
    }
    return main(["run", str(write_config(tmp_path, raw)), "--quiet", "--mode", "compare"])


def test_compare_run_exits_3_when_the_certificate_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(operator, "_block_iterate", skipping_window)
    # 321 frequencies, above BLOCK_DENSE_MAX: no attempt solved whole
    assert run_compare(tmp_path, 160) == 3
    assert "count certificate failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_compare_run_exits_3_when_the_certificate_outgrows_memory(tmp_path, monkeypatch, capsys):
    # every Schur block fails on a window that skips lambda_1; the blocks
    # beyond the first need more memory than there is, so the run stops
    # with exit 3 before it tries them
    monkeypatch.setattr(operator, "_block_iterate", skipping_window)
    first = operator.SCHUR_BYTES * operator.CERT_BLOCK * len(ball(160, 1))
    monkeypatch.setattr(operator, "physical_memory", lambda: first)
    assert run_compare(tmp_path, 160) == 3
    assert "more than physical memory" in capsys.readouterr().err


def test_reference_solve_calls_no_full_eigh(monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}, 2, seed=7
    )
    ref = reference_solve(pot, 0, 2, 16)
    n = len(ref.basis)
    assert n == 797
    assert sizes and max(sizes) < n // 3
    assert ref.solver.rho is not None and ref.solver.guard_grows == 0


def test_summary_records_reference_solver(tmp_path):
    assert run_compare(tmp_path, 160) == 0  # 321 frequencies, above BLOCK_DENSE_MAX
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    solver = summary["reference_solver"]
    assert set(solver) == {
        "steps", "block_size", "guard_grows", "max_residual", "rho", "cert_size", "grid",
        "products",
    }
    assert solver["steps"] > 0 and solver["block_size"] == 1 + 1 + operator.BLOCK_GUARD
    assert solver["cert_size"] == operator.CERT_BLOCK
    # 2 M_ref + r + 1 = 322 points, rounded up to 2^2 3^4; a product per
    # block column at the start and per W column each step
    assert solver["grid"] == [324]
    assert solver["products"] >= solver["steps"]
    lam = summary["reference_eigenvalues"][-1]
    lambda_above = lam + summary["cluster_gaps"]["above"] * max(1.0, abs(lam))
    assert lambda_above < solver["rho"] < lambda_above + 1e-9
    assert "reference_solver" not in (tmp_path / "out" / "iterations.csv").read_text()


def test_dense_size_rule_boundary(rd_hamiltonian, monkeypatch):
    # 317 frequencies and a block of 7: only the size rule makes it dense
    n = rd_hamiltonian.n
    monkeypatch.setattr(operator, "BLOCK_DENSE_MAX", n)
    dense, _, stats = solve_eigen_block(rd_hamiltonian, 0, 2)
    assert (stats.block_size, stats.steps, stats.rho, stats.cert_size) == (n, 0, None, None)
    assert (stats.grid, stats.products) == (None, 0)
    monkeypatch.setattr(operator, "BLOCK_DENSE_MAX", n - 1)
    block, _, stats = solve_eigen_block(rd_hamiltonian, 0, 2)
    assert stats.block_size == 7 and stats.steps > 0 and stats.rho is not None
    assert stats.grid == rd_hamiltonian.grid and stats.products > 0
    np.testing.assert_allclose(block.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-12)
    assert operator.BLOCK_DENSE_MAX < len(ball(16, 2))  # the compare2d reference stays certified


def test_guard_growth_restarts_from_the_converged_block(monkeypatch):
    # a nearly constant cubic potential: its shells |G|^2 = 0, 1, 2 (positions
    # 0, 1-6, 7-18) split by about 1e-10, inside DEGENERACY_RTOL, so the
    # first block of 16, widened to the whole shell of 2, ends inside the
    # multiplet holding the window's top; no Ritz gap qualifies and the guard
    # grows once, and the retry starts from the converged block plus fresh
    # coordinate vectors
    pot = trig_potential(3, 1.0, {(1, 0, 0): 1e-5, (0, 1, 0): 1e-5, (0, 0, 1): 1e-5})
    h = ReferenceOperator(ball(5, 3), pot)
    w = np.linalg.eigvalsh(h.dense())
    cluster, _, warm = solve_eigen_block(h, 2, 9)
    assert warm.guard_grows == 1 and warm.rho is not None
    np.testing.assert_allclose(cluster.eigenvalues, w[2:11], rtol=0.0, atol=1e-12)
    monkeypatch.setattr(operator, "BLOCK_GUARD", 2 * operator.BLOCK_GUARD)
    again, _, cold = solve_eigen_block(h, 2, 9)
    assert cold.guard_grows == 0 and cold.block_size == warm.block_size
    np.testing.assert_allclose(again.eigenvalues, w[2:11], rtol=0.0, atol=1e-12)
    assert warm.steps < cold.steps


@pytest.mark.parametrize("radius", [4, 5])
def test_cold_start_takes_whole_ties(radius):
    # cubic symmetry: the 6 coordinate vectors of lowest diagonal entry would
    # cut the shell of 0 and the three cos and three sin(x_k) functions, and
    # symmetry keeps the third sin out of every residual, so the triplet at
    # 1.9058 loses a member and the count certificate fails; the widened
    # block holds the whole shell and certifies at once
    pot = trig_potential(3, 1.0, {(1, 0, 0): 0.3, (0, 1, 0): 0.3, (0, 0, 1): 0.3})
    h = ReferenceOperator(ball(radius, 3), pot)
    assert h.n > operator.BLOCK_DENSE_MAX
    cluster, _, stats = solve_eigen_block(h, 0, 1)
    assert stats.guard_grows == 0 and stats.block_size == 1 + 1 + operator.BLOCK_GUARD
    assert stats.cert_size < h.n
    w = np.linalg.eigvalsh(h.dense())
    np.testing.assert_allclose(cluster.eigenvalues, w[:1], rtol=0.0, atol=1e-12)


def whole_matrix_certify_count(a, theta, x, residuals, m):
    """The count certificate by one Cholesky of the whole shifted matrix, as its oracle."""
    n = a.shape[0]
    u = np.finfo(float).eps / 2.0
    frob_a = float(np.linalg.norm(a))
    trace_a = float(np.trace(a))
    for group in group_slices(theta, operator.DEGENERACY_RTOL)[:-1]:
        cut = group.stop
        if cut < m:
            continue
        rho = float(theta[cut - 1] + np.linalg.norm(residuals[:cut]))
        xc = x[:, :cut]
        c = 2.0 * (rho - float(theta[0])) + 1.0
        xf2 = float(np.sum(xc * xc))
        trace = max(trace_a + c * xf2 - n * rho, 0.0)
        frob = frob_a + c * xf2 + np.sqrt(n) * abs(rho)
        delta = 2.0 * u * ((n + 1) * trace + (cut + 3) * frob)
        if rho + delta < theta[cut]:
            break
    else:
        raise operator.RitzGapError("no Ritz gap")
    shifted = a + c * (xc @ xc.T) - (rho + delta) * np.eye(n)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise SolverError("count certificate failed") from exc
    return rho, cut


@settings(max_examples=40, deadline=None)
@given(block_case())
def test_certificate_choice_matches_whole_matrix_cholesky(case):
    # every certificate a solve asks for chooses the oracle's (rho, cut) and
    # fails where it fails, bar a Schur block proving what its Cholesky missed
    pot, m_ref, k0, n_eigs = case
    h = ReferenceOperator(ball(m_ref, pot.dim), pot)
    a, n = h.dense(), h.n
    certified = []  # the block size of every successful certificate

    def compared(op, theta, x, residuals, m):
        try:
            expected = whole_matrix_certify_count(a, theta, x, residuals, m)
        except SolverError as exc:
            expected = exc
        try:
            rho, cut, k = certify_count(op, theta, x, residuals, m)
        except SolverError as exc:
            assert type(exc) is type(expected)
            raise
        assert isinstance(expected, tuple) or (type(expected) is SolverError and k < n)
        if isinstance(expected, tuple):
            assert (rho, cut) == expected
        certified.append(k)
        return rho, cut, k

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operator, "certify_count", compared)
        try:
            _, _, stats = solve_eigen_block(h, k0, n_eigs)
        except SolverError:
            stats = None
    if stats is not None and stats.rho is not None:
        assert certified[-1] == stats.cert_size


def false_claim_cases(a, w, v, cut, spread):
    """(X, rho) pairs for which a + c X X^T - rho I is indefinite.

    A rank-r PSD update leaves lambda_1 at most lambda_(r+1)(a). With the
    first `cut` eigenvectors, rho is placed `spread` (relative) above
    lambda_(cut+1); with one column fewer, inside the gap above lambda_cut,
    when there is one. Both sit far above the oracle's rounding.
    """
    scale = max(1.0, abs(float(w[cut])))
    cases = [(v[:, :cut], float(w[cut]) + spread * scale)]
    gap = float(w[cut] - w[cut - 1])
    if gap > 1e-6 * scale:
        cases.append((v[:, : cut - 1], float(w[cut - 1]) + min(spread, 0.5) * gap))
    return cases


@st.composite
def false_claim(draw):
    family = draw(st.sampled_from(["random-decay", "random-decay", "symmetric-trig", "cubic"]))
    if family == "cubic":
        pot = trig_potential(3, 1.0, {(1, 0, 0): 0.3, (0, 1, 0): 0.3, (0, 0, 1): 0.3})
        m_ref = draw(st.sampled_from([4, 5]))
    else:
        dim = 2 if family == "symmetric-trig" else draw(st.sampled_from([1, 2, 3]))
        pot = potential_for(family, dim, draw(st.integers(0, 2**31 - 1)))
        m_ref = draw(st.sampled_from(RADII[dim][1:]))
    cut = draw(st.integers(1, 8))
    spread = draw(st.floats(1e-9, 0.05))
    return pot, m_ref, cut, spread


@settings(max_examples=40, deadline=None)
@given(false_claim())
def test_false_claims_are_never_certified(claim):
    pot, m_ref, cut, spread = claim
    h = ReferenceOperator(ball(m_ref, pot.dim), pot)
    a, n = h.dense(), h.n
    w, v = np.linalg.eigh(a)
    sizes = [k for k in 2 ** np.arange(12) if k < n] + [n]
    for x, rho in false_claim_cases(a, w, v, cut, spread):
        c = 2.0 * (rho - float(w[0])) + 1.0
        for k in sizes:  # a rounding term of 0 for the whole matrix only helps a false claim
            assert not operator._certify_shift(h, x, c, rho, 0.0, k), (k, rho)
            # the exact row sums over D, the stronger dense form of the same proof
            assert not operator._certify_shift(MatrixOperator(a), x, c, rho, 0.0, k), (k, rho)


def test_certificate_memory_stays_below_the_matrix():
    # the compare2d reference: 797 frequencies, certified by a block of 64;
    # the whole-matrix certificate held about 13 n^2 bytes beside the matrix
    pot, _ = build_potential(
        {"family": "random-decay", "amplitude": 1.0, "p": 2.5, "r_cut": 8}, 2, seed=7
    )
    h = ReferenceOperator(ball(16, 2), pot)
    n = h.n
    theta, x, res, _ = operator._block_iterate(h, 7, 3, operator.BLOCK_RTOL * h.diagonal().max())
    tracemalloc.start()
    try:
        _, _, k = certify_count(h, theta, x, res, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k < n and peak < 6 * n * n


def test_schur_block_shift_covers_rounding():
    # a = L + I on the 12 coordinates of lowest diagonal entry, L an integer
    # graph Laplacian, and 100 I on the rest: lambda_1 = 1 exactly, and
    # a - I is singular. Its Schur bound at any k >= 12 holds L itself, which
    # a plain Cholesky factorisation accepts by rounding for some of these
    # graphs (seeds 0, 1, 2 and 4), so only the shift delta_T refuses them
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = np.triu(rng.integers(0, 4, (12, 12)), 1)
        lap = np.diag((w + w.T).sum(axis=1)) - (w + w.T)
        a = np.diag(np.full(20, 100.0))
        a[:12, :12] = lap + np.eye(12)
        for k in range(1, 20):
            claim = (MatrixOperator(a), np.zeros((20, 0)), 1.0, 1.0, 0.0, k)
            assert not operator._certify_shift(*claim), (seed, k)


def test_schur_block_keeps_the_window_coupling():
    # the lowest eigenvector has half its weight on the two coordinates of
    # largest diagonal entry, outside the block of k = 2; the true claim
    # lambda_2 > rho certifies there only with the c X_P X_D^T coupling in
    # M_PD
    a = np.array(
        [
            [1.25, 0.25, -0.75, -1.0],
            [0.25, 1.25, -0.75, -1.0],
            [-0.75, -0.75, 1.5, 0.0],
            [-1.0, -1.0, 0.0, 1.5],
        ]
    )
    w, v = np.linalg.eigh(a)
    assert np.linalg.norm(v[2:, 0]) > 0.7
    rho = 0.5 * (w[0] + w[1])
    c = 2.0 * (rho - w[0]) + 1.0
    assert operator._certify_shift(MatrixOperator(a), v[:, :1], c, rho, 0.0, 2)
