import math

import numpy as np
import pytest

import riplab as rl
from riplab.errors import CapError, InputError

from util import brute_recover, graph_fixture, l1


def test_l1_regress_identity_full_support():
    y = np.array([1.0, -2.0, 3.0])
    x = rl.l1_regress(np.eye(3), y, (1, 2, 3))
    assert x == pytest.approx(y, abs=1e-9)


def test_l1_regress_partial_support():
    x = rl.l1_regress(np.eye(2), np.array([1.0, 2.0]), (1,))
    assert x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert l1(np.array([1.0, 2.0]) - np.eye(2) @ x) == pytest.approx(2.0, abs=1e-9)


def test_l1_regress_full_rank_in_range():
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    target = np.array([0.3, -1.7])
    y = a @ target
    x = rl.l1_regress(a, y, (1, 2))
    assert l1(y - a @ x) == pytest.approx(0.0, abs=1e-9)
    assert x == pytest.approx(target, abs=1e-9)


def test_l1_regress_empty_support():
    x = rl.l1_regress(np.eye(2), np.array([1.0, 1.0]), ())
    assert np.array_equal(x, np.zeros(2))


def test_recover_zero_measurements():
    res = rl.recover(np.eye(3), np.zeros(3), rl.Model("general", 3, 1))
    assert np.array_equal(res.x_star, np.zeros(3))
    assert res.support == ()
    assert res.residual == 0.0


def test_recover_exact_model_sparse():
    g, mat = graph_fixture(8, 64, 4, seed=2)
    model = rl.Model("block", 8, 4, 2)
    report = rl.rip_for_recovery(mat, model)
    assert report.eps_lo < 1.0
    rng = np.random.default_rng(0)
    for _ in range(10):
        member = rl.random_member(model, rng)
        x = np.zeros(8)
        x[np.asarray(member) - 1] = rng.standard_normal(4) + 2.0
        res = rl.recover(mat, mat.a @ x, model, x_true=x)
        assert res.exact
        assert l1(x - res.x_star) <= 1e-6 * l1(x)


def test_recover_ratio_markers():
    # truth is model-sparse but the 1-row matrix confuses the supports:
    # opt_error = 0 with nonzero recovery error marks the ratio as inf
    a = np.array([[1.0, 0.5]])
    model = rl.Model("general", 2, 1)
    x_true = np.array([0.0, 1.0])
    res = rl.recover(a, a @ x_true, model, x_true=x_true)
    assert res.ratio == math.inf and not res.exact


def test_recover_residual_monotone_in_model():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 10)) / 3.0
    y = rng.standard_normal(6)
    res2 = rl.recover(a, y, rl.Model("general", 10, 2))
    res3 = rl.recover(a, y, rl.Model("general", 10, 3))
    assert res3.residual <= res2.residual + 1e-9


def test_recover_cap():
    with pytest.raises(CapError):
        rl.recover(np.zeros((2, 30)), np.zeros(2), rl.Model("general", 30, 10), cap=100)


def test_recover_dimension_mismatch():
    with pytest.raises(InputError):
        rl.recover(np.eye(3), np.zeros(2), rl.Model("general", 3, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_recover_and_l1_regress_reject_non_finite_y(bad):
    y = np.array([1.0, bad, 0.5])
    with pytest.raises(InputError, match="finite"):
        rl.recover(np.eye(3), y, rl.Model("general", 3, 1))
    with pytest.raises(InputError, match="finite"):
        rl.l1_regress(np.eye(3), y, (2,))


def _noisy_model_signal(model, rng, noise=0.2):
    x = np.zeros(model.n)
    x[np.asarray(rl.random_member(model, rng)) - 1] = rng.standard_normal(model.k) + 2.0
    bump = rng.standard_normal(model.n)
    return x + noise * l1(x) * bump / l1(bump)


def test_recover_work_counters():
    g, mat = graph_fixture(32, 320, 6, seed=4)
    model = rl.Model("block", 32, 8, 4)
    x = _noisy_model_signal(model, np.random.default_rng(2))
    res = rl.recover(mat, mat.a @ x, model)
    assert res.members_tried + res.members_pruned == rl.model_size(model)
    assert res.members_pruned > 0
    # a dense matrix touches every row with every column: all bounds are 0
    a = np.random.default_rng(3).standard_normal((6, 8))
    dense = rl.recover(a, a @ np.arange(8.0), rl.Model("general", 8, 2))
    assert (dense.members_tried, dense.members_pruned) == (28, 0)


def _duplicate_columns():
    # columns 9..16 repeat columns 1..8, so pairs of block members share a
    # submatrix and tie on residual; enumeration order must pick the winner
    g, mat = graph_fixture(8, 48, 3, seed=6)
    a = np.hstack([mat.a, mat.a])
    model = rl.Model("block", 16, 4, 2)
    x = np.zeros(16)
    x[[10, 11, 12, 13]] = [1.0, -2.0, 1.5, 0.5]
    return a, a @ x, model


def _cross_bound_tie():
    # member (2,) has the smaller bound and is solved first; member (1,) ties it
    return np.array([[0.0, 4.0], [1.0, 5.0]]), np.array([2.0, 5.0]), rl.Model("general", 2, 1)


def _oracle_cases():
    rng = np.random.default_rng(11)
    for seed in range(3):
        g, mat = graph_fixture(16, 96, 4, seed=seed)
        model = rl.Model("block", 16, 4, 2)
        yield pytest.param(mat.a, mat.a @ _noisy_model_signal(model, rng), model,
                           id=f"block-{seed}")
        g, mat = graph_fixture(31, 120, 4, seed=seed)
        model = rl.Model("tree", 31, 5)
        yield pytest.param(mat.a, mat.a @ _noisy_model_signal(model, rng), model,
                           id=f"tree-{seed}")
        a = rng.standard_normal((7, 9))
        yield pytest.param(a, rng.standard_normal(7), rl.Model("general", 9, 2),
                           id=f"dense-{seed}")
    g, mat = graph_fixture(16, 96, 4, seed=1)
    yield pytest.param(mat.a, np.zeros(96), rl.Model("block", 16, 4, 2), id="zero-y")
    yield pytest.param(*_duplicate_columns(), id="duplicate-columns")
    yield pytest.param(*_cross_bound_tie(), id="cross-bound-tie")


@pytest.mark.parametrize("a,y,model", list(_oracle_cases()))
def test_recover_matches_unpruned_scan(a, y, model):
    x_star, support, residual = brute_recover(a, y, model)
    res = rl.recover(a, y, model)
    assert res.support == support
    assert res.residual == residual
    assert res.x_star.tobytes() == x_star.tobytes()


def test_recover_tie_rule_keeps_enumeration_order():
    a, y, model = _duplicate_columns()
    res = rl.recover(a, y, model)
    assert res.residual <= 1e-9
    # blocks 6,7 (the truth) and blocks 2,3 share a submatrix; 2,3 comes first
    assert res.support == (3, 4, 5, 6)
    cross = rl.recover(*_cross_bound_tie())
    assert (cross.support, cross.residual, cross.members_tried) == ((1,), 2.0, 2)


def test_rip_for_recovery_identity():
    report = rl.rip_for_recovery(np.eye(6), rl.Model("general", 6, 2))
    assert (report.eps_lo, report.eps_hi) == (0.0, 0.0)
    assert report.op_norm_1 == pytest.approx(1.0)


def test_rip_for_recovery_block_inclusion():
    # a B_{2k,b} certificate upper-bounds the doubled B_{k,b} constant;
    # here the two support families coincide exactly
    rng = np.random.default_rng(8)
    a = np.eye(8) + 0.1 * rng.standard_normal((8, 8)) / 8
    single = rl.rip1_interval(a, rl.Model("block", 8, 4, 2))
    doubled = rl.rip_for_recovery(a, rl.Model("block", 8, 2, 2))
    assert doubled.eps_lo == pytest.approx(single.eps_lo, abs=1e-9)


def test_rip_for_recovery_tree_inclusion():
    rng = np.random.default_rng(9)
    a = np.eye(15) + 0.1 * rng.standard_normal((15, 15)) / 15
    wide = rl.rip1_interval(a, rl.Model("tree", 15, 6))
    doubled = rl.rip_for_recovery(a, rl.Model("tree", 15, 3))
    assert doubled.eps_lo <= wide.eps_lo + 1e-9


def test_rip_for_recovery_mc():
    g, mat = graph_fixture(8, 64, 4, seed=2)
    model = rl.Model("block", 8, 4, 2)
    exact = rl.rip_for_recovery(mat, model)
    mc = rl.rip_for_recovery(mat, model, mode="monte-carlo", samples=400, seed=3)
    assert mc.eps_lo <= exact.eps_hi + 1e-9
    assert mc.op_norm_1 == exact.op_norm_1


def test_chain_inequalities_hold_on_certified_fixture():
    g, mat = graph_fixture(8, 96, 4, seed=7)
    model = rl.Model("block", 8, 2, 2)
    report = rl.rip_for_recovery(mat, model)
    assert report.eps_lo <= 0.6
    rng = np.random.default_rng(1)
    for _ in range(10):
        member = rl.random_member(model, rng)
        x = np.zeros(8)
        x[np.asarray(member) - 1] = rng.standard_normal(2) + 1.5
        noise = rng.standard_normal(8)
        x += 0.25 * l1(x) * noise / l1(noise)
        res = rl.recover(mat, mat.a @ x, model, x_true=x)
        rows = rl.chain_inequalities(mat, model, x, res, report.eps_lo, report.op_norm_1)
        for label, lhs, rhs in rows:
            assert lhs <= rhs + 1e-9, f"{label}: {lhs} > {rhs}"
        assert res.ratio <= 3.0 + 10.0 * report.eps_lo
