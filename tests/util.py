"""Shared brute-force oracles and fixture generators.

The oracles reimplement the definitions directly (membership from scratch,
exhaustive maxima) so the library is always checked against an independent
computation.
"""

import itertools

import numpy as np

import riplab as rl


def l1(x) -> float:
    return float(np.abs(np.asarray(x, dtype=float)).sum())


# -- independent model oracles ---------------------------------------------------

_MEMBER_CACHE: dict = {}


def brute_members(model: rl.Model):
    """Every member support, straight from the definitions."""
    if model in _MEMBER_CACHE:
        return _MEMBER_CACHE[model]
    out = _brute_members(model)
    _MEMBER_CACHE[model] = out
    return out


def _brute_members(model: rl.Model):
    n, k = model.n, model.k
    if model.kind == "general":
        return [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]
    if model.kind == "block":
        b = model.b
        out = []
        for blocks in itertools.combinations(range(n // b), k // b):
            out.append(tuple(j for i in blocks for j in range(i * b + 1, i * b + b + 1)))
        return out
    out = []
    for cand in itertools.combinations(range(1, n + 1), k):
        members = set(cand)
        if 1 in members and all(j == 1 or j // 2 in members for j in cand):
            out.append(cand)
    return out


def brute_is_sparse(model: rl.Model, support) -> bool:
    s = set(support)
    if not s:
        return True
    return any(s.issubset(member) for member in brute_members(model))


def brute_sparse_sets(model: rl.Model, t: int):
    return [c for c in itertools.combinations(range(1, model.n + 1), t)
            if brute_is_sparse(model, c)]


def brute_project_mass(model: rl.Model, x) -> float:
    x = np.asarray(x, dtype=float)
    return max(float(np.abs(x[np.asarray(m, dtype=int) - 1]).sum())
               for m in brute_members(model))


# -- independent decoder oracle ------------------------------------------------------

def brute_recover(a, y, model: rl.Model):
    """The unpruned exhaustive decoder: every member in enumeration order,
    first strict improvement over the zero vector wins.

    Returns ``(x_star, support, residual)``.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    best = (np.zeros(a.shape[1]), (), float(np.abs(y).sum()))
    for member in rl.enumerate_members(model, cap=None):
        x = rl.l1_regress(a, y, member)
        res = float(np.abs(y - a @ x).sum())
        if res < best[2]:
            best = (x, member, res)
    return best


# -- matrix fixtures ----------------------------------------------------------------

def near_isometry(n: int, k: int, seed: int, target: float, delta: float = 0.08):
    """A random square matrix with exact RIP-1 constant <= target over the
    general model of order k; halves the noise until the oracle agrees.

    Returns ``(matrix, eps_hat)``.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n))
    flips = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    while True:
        a = np.eye(n) * flips + delta * noise / n
        report = rl.rip1_interval(a, rl.Model("general", n, k))
        if report.eps_lo <= target:
            return a, report.eps_lo
        delta *= 0.5


def graph_fixture(n: int, m: int, d: int, seed: int):
    graph = rl.sample_graph(n, m, d, seed=seed)
    return graph, rl.to_matrix(graph)
