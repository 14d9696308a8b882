"""The eigenvalue loop stops by tol on its certified bound, not on the worst case.

Each record certifies eta_exact <= (1 + zeta_actual) * eta_tilde, with
zeta_actual <= zeta. A stop by tol must hold that bound, and the recorded
eta_exact, below tol; no earlier row may pass that test, nor the worst-case
rule eta_tilde < tol / (1 + zeta) the loop used before.
"""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from adaptpw import AdaptiveConfig, run_eigen
from adaptpw.cli import build_potential

#: largest r_cut per dimension, so that every example runs in milliseconds
R_CUT_MAX = {1: 40, 2: 8, 3: 3}


def random_decay(dim, p, r_cut, seed):
    spec = {"family": "random-decay", "amplitude": 1.0, "p": p, "r_cut": r_cut}
    return build_potential(spec, dim, seed=seed)[0]


def certified(rec):
    """The record's certified bound on the exact estimator."""
    return max(rec.eta_exact, (1.0 + rec.zeta_actual) * rec.eta_tilde)


def assert_stops_on_certified_bound(run):
    cfg = run.config
    zeta = cfg.zeta if cfg.mode == "eigen-feasible" else 0.0
    stopped = run.termination_reason == "tol"
    for rec in run.records[:-1] if stopped else run.records:
        assert not certified(rec) < cfg.tol
        assert not rec.eta_tilde < cfg.tol / (1.0 + zeta)
    if stopped:
        last = run.records[-1]
        assert last.eta_exact <= cfg.tol
        assert (1.0 + last.zeta_actual) * last.eta_tilde < cfg.tol
        assert last.marked_pairs == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stop_by_tol_is_the_first_certified_row(data):
    dim = data.draw(st.sampled_from([1, 2, 3]), label="dim")
    r_cut = data.draw(st.integers(1, R_CUT_MAX[dim]), label="r_cut")
    p = data.draw(st.floats(1.5, 4.0), label="p")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    theta = data.draw(st.floats(0.3, 0.8), label="theta_tilde")
    zeta = data.draw(st.floats(0.0, 0.95), label="zeta / theta_tilde") * theta
    tol = 10.0 ** data.draw(st.floats(-5.0, -2.0), label="log10 tol")
    mode = data.draw(st.sampled_from(["eigen-feasible", "eigen-exact"]), label="mode")
    cfg = AdaptiveConfig(
        dim=dim, theta_tilde=theta, zeta=zeta, tol=tol, M0=1, mode=mode,
        max_iter=40, max_dof={1: 400, 2: 300, 3: 250}[dim],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        run = run_eigen(cfg, random_decay(dim, p, r_cut, seed))
    assert_stops_on_certified_bound(run)


def test_truncated_run_stops_between_its_bound_and_the_worst_case():
    # the truncation run of test_reachable.py: zeta_actual > 0 on every row
    potential = random_decay(1, 4, 40, 3)

    def run(tol):
        cfg = AdaptiveConfig(dim=1, zeta=0.4, theta_tilde=0.6, tol=tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return run_eigen(cfg, potential)

    base = run(1e-4)
    assert base.termination_reason == "tol"
    assert all(rec.zeta_actual > 0.0 for rec in base.records)
    assert_stops_on_certified_bound(base)
    recs = base.records
    for rec in recs[:-1]:
        bound = (1.0 + rec.zeta_actual) * rec.eta_tilde
        worst = (1.0 + 0.4) * rec.eta_tilde
        # below its bound, only a loop that drops the truncation bound stops
        # here; between the bound and the worst case, the old rule goes on
        for tol in (0.5 * (max(rec.eta_exact, rec.eta_tilde) + bound), 0.5 * (bound + worst)):
            stop = next(n for n, r in enumerate(recs) if certified(r) < tol)
            got = run(tol)
            assert_stops_on_certified_bound(got)
            assert got.termination_reason == "tol"
            assert got.records[:-1] == recs[:stop]
            assert got.records[-1] == recs[stop]._replace(marked_pairs=0)
