import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import riplab as rl
from riplab.errors import CapError, InputError

from util import graph_fixture, l1, near_isometry

SQRT2 = math.sqrt(2.0)


# -- expansion ------------------------------------------------------------------

def test_expansion_perfect_matching():
    g = rl.BipartiteGraph(n=4, m=4, d=1, adj=((1,), (2,), (3,), (4,)))
    report = rl.expansion_check(g, rl.Model("general", 4, 4), eps=0.0)
    assert report.ok
    assert report.worst_ratio == pytest.approx(1.0)


def test_expansion_forced_collision():
    g = rl.BipartiteGraph(n=2, m=1, d=1, adj=((1,), (1,)))
    report = rl.expansion_check(g, rl.Model("general", 2, 2), eps=0.4)
    assert not report.ok
    assert report.worst_support == (1, 2)  # |N| = 1 < 0.6 * 2


def test_expansion_block_plan_within_retries():
    model = rl.Model("block", 64, 8, 4)
    plan = rl.plan_params(model, 0.25)
    for attempt in range(20):
        g = rl.sample_graph(model.n, plan.m, plan.d, seed=100 + attempt)
        report = rl.expansion_check(g, model, 0.25)
        if report.ok:
            break
    assert report.ok, "no verified graph within 20 retries"
    assert attempt <= 19


def test_expansion_cap_suggests_monte_carlo():
    model = rl.Model("tree", 127, 16)
    g = rl.sample_graph(127, 400, 5, seed=0)
    with pytest.raises(CapError, match="monte-carlo"):
        rl.expansion_check(g, model, 0.25)
    report = rl.expansion_check(g, model, 0.25, mode="monte-carlo", samples=300, seed=1)
    assert report.checked == 600


def test_expansion_mc_detects_forced_collision():
    g = rl.BipartiteGraph(n=2, m=1, d=1, adj=((1,), (1,)))
    report = rl.expansion_check(g, rl.Model("general", 2, 2), eps=0.4,
                                mode="monte-carlo", samples=50, seed=0)
    assert not report.ok


def test_expansion_dimension_mismatch():
    g = rl.sample_graph(4, 8, 2, seed=0)
    with pytest.raises(InputError):
        rl.expansion_check(g, rl.Model("general", 5, 2), eps=0.1)


# -- generalized expansion ---------------------------------------------------------

def test_slack_identity():
    report = rl.generalized_expander_slack(np.eye(4), rl.Model("general", 4, 2))
    assert report.min_ratio == pytest.approx(1.0)
    assert report.max_col_norm == pytest.approx(1.0)


def test_slack_identical_columns():
    report = rl.generalized_expander_slack(np.array([[1.0, 1.0]]), rl.Model("general", 2, 2))
    assert report.min_ratio == pytest.approx(0.5)
    assert report.worst_support == (1, 2)


def test_binary_bridge_small():
    # scaled adjacency: row-max sum over S is exactly |N(S)| / d
    for n, m, d, seed in [(6, 8, 3, 0), (8, 6, 2, 1), (5, 5, 1, 2)]:
        g, mat = graph_fixture(n, m, d, seed)
        for size in range(1, 4):
            for support in itertools.combinations(range(1, n + 1), size):
                expected = len(rl.neighbors(g, support)) * (1.0 / d)
                assert rl.row_max_sum(mat, support) == expected


# -- RIP interval -------------------------------------------------------------------

def test_rip_identity():
    report = rl.rip1_interval(np.eye(5), rl.Model("general", 5, 2))
    assert (report.eps_lo, report.eps_hi) == (0.0, 0.0)


def test_rip_complete_cancellation():
    report = rl.rip1_interval(np.array([[1.0, 1.0]]), rl.Model("general", 2, 2))
    assert report.eps_lo == pytest.approx(1.0)
    assert sorted(report.worst_vector) == pytest.approx([-0.5, 0.5])


def test_rip_witness_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((6, 8)) / 4.0
        model = rl.Model("general", 8, 2)
        report = rl.rip1_interval(a, model)
        w = report.worst_vector
        assert l1(w) == pytest.approx(1.0, abs=1e-9)
        assert rl.is_sparse(model, tuple(np.flatnonzero(w) + 1))
        assert abs(l1(a @ w) - 1.0) == pytest.approx(report.eps_lo, abs=1e-9)
        assert report.eps_lo == report.eps_hi >= 0.0


def test_rip_scaled_identity():
    report = rl.rip1_interval(2.0 * np.eye(3), rl.Model("general", 3, 2))
    assert report.eps_lo == pytest.approx(1.0)  # upper side 2: deviation 1


def test_rip_mc_below_exact():
    rng = np.random.default_rng(12)
    for seed in range(5):
        a = np.eye(6) + 0.3 * rng.standard_normal((6, 6)) / 6
        model = rl.Model("general", 6, 3)
        exact = rl.rip1_interval(a, model)
        mc = rl.rip1_interval(a, model, mode="monte-carlo", samples=500, seed=seed)
        assert mc.eps_lo <= exact.eps_hi + 1e-9
        assert mc.eps_hi == math.inf
        w = mc.worst_vector
        assert abs(l1(a @ w) - 1.0) == pytest.approx(mc.eps_lo, abs=1e-9)


def test_rip_cap():
    with pytest.raises(CapError, match="monte-carlo"):
        rl.rip1_interval(np.zeros((4, 40)), rl.Model("general", 40, 10), cap=1000)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rip_rejects_non_finite_raw_matrix(bad):
    a = np.eye(4)
    a[2, 1] = bad
    with pytest.raises(InputError, match="finite"):
        rl.rip1_interval(a, rl.Model("general", 4, 2))


def test_rip_exact_agrees_with_external_lp_backend():
    from scipy.optimize import linprog

    from riplab import lp

    def scipy_backend(c, a_ub, b_ub, a_eq, b_eq):
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        assert res.success, res.message
        return res.x, res.fun

    rng = np.random.default_rng(123)
    for _ in range(5):
        n = int(rng.integers(5, 9))
        k = int(rng.integers(2, 4))
        a = (np.eye(n)[:, rng.permutation(n)] * np.where(rng.random(n) < 0.5, -1, 1)
             + 0.15 * rng.standard_normal((n, n)) / n)
        model = rl.Model("general", n, k)
        ours = rl.rip1_interval(a, model)
        lp.use_solver(scipy_backend)
        try:
            theirs = rl.rip1_interval(a, model)
        finally:
            lp.use_solver(None)
        assert ours.eps_lo == pytest.approx(theirs.eps_lo, abs=1e-8)


def test_rip_lower_side_via_block_model():
    # two identical columns in one block: cancellation only within members
    a = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    block = rl.Model("block", 4, 2, 2)
    report = rl.rip1_interval(a, block)
    assert report.eps_lo == pytest.approx(1.0)
    assert report.worst_support == (1, 2)


def test_slack_follows_measured_rip(cases=3):
    # measured eps-hat implies generalized expansion at (1+sqrt(2)) eps-hat
    for seed in range(cases):
        a, eps_hat = near_isometry(8, 3, seed=seed, target=0.1)
        model = rl.Model("general", 8, 3)
        slack = rl.generalized_expander_slack(a, model)
        assert slack.min_ratio >= 1.0 - (1.0 + SQRT2) * eps_hat - 1e-9
        assert slack.max_col_norm <= 1.0 + eps_hat + 1e-9


def test_row_norm_sum_lower_bounded_by_isometry():
    # full-model isometry: sum of row l2 norms >= (1 - eps) n
    rng = np.random.default_rng(21)
    for n in (4, 6):
        a = np.eye(n) + 0.02 * rng.standard_normal((n, n)) / n
        report = rl.rip1_interval(a, rl.Model("general", n, n))
        rows = float(np.sqrt((a * a).sum(axis=1)).sum())
        assert rows >= (1.0 - report.eps_lo) * n - 1e-9


# -- sign vector -------------------------------------------------------------------

def test_sign_vector_cancellation():
    x = rl.sign_vector(np.array([[1.0, 1.0]]))
    assert sorted(x) == [-1.0, 1.0]
    assert l1(np.array([[1.0, 1.0]]) @ x) == 0.0


def test_sign_vector_identity_tight():
    x = rl.sign_vector(np.eye(2))
    assert l1(np.eye(2) @ x) == pytest.approx(2.0)  # bound met with equality


def test_sign_vector_bound_random():
    rng = np.random.default_rng(33)
    for _ in range(200):
        a = rng.standard_normal((20, 10))
        x = rl.sign_vector(a)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        bound = float(np.sqrt((a * a).sum(axis=1)).sum())
        assert l1(a @ x) <= bound + 1e-9


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(-100, 100, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_sign_vector_bound_hypothesis(a):
    x = rl.sign_vector(a)
    bound = float(np.sqrt((a * a).sum(axis=1)).sum())
    assert l1(a @ x) <= bound + 1e-6 * max(1.0, bound)


# -- norm gap -----------------------------------------------------------------------

def test_norm_gap_examples():
    lhs, rhs = rl.norm_gap_check([0.5, 0.5])
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)  # equality profile
    assert rl.norm_gap_check(np.zeros(4)) == (0.0, 0.0)
    lhs, rhs = rl.norm_gap_check([1.0, 0.0, 0.0])
    assert lhs == 0.0 and rhs == pytest.approx(0.0, abs=1e-12)


@given(arrays(np.float64, st.integers(1, 32),
              elements=st.floats(-1e6, 1e6, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_norm_gap_hypothesis(y):
    lhs, rhs = rl.norm_gap_check(y)
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_norm_gap_ratio_peaks_at_two_equal_coordinates():
    # random search never beats the two-equal-coordinates profile, where the
    # inequality is tight
    rng = np.random.default_rng(71)
    best, best_vec = 0.0, None
    for _ in range(20000):
        dim = int(rng.integers(2, 9))
        y = rng.standard_normal(dim) * (rng.random(dim) < 0.7)
        lhs, rhs = rl.norm_gap_check(y)
        if rhs > 1e-12 and lhs / rhs > best:
            best, best_vec = lhs / rhs, np.sort(np.abs(y))[::-1]
    assert best <= 1.0 + 1e-12
    if best > 0.999:  # the champion looks like (t, t, tiny...)
        assert best_vec[1] == pytest.approx(best_vec[0], rel=0.05)
        assert best_vec[2:].sum() <= 0.05 * best_vec[0]
