"""Machine-speed calibration for the timed ops.

The benchmark runs on shared hosts whose speed drifts: on the 2-vCPU VM the
baseline was measured on, a fixed call moved between two levels about 1.6x
apart, in stretches of a few seconds to a minute.  A 30 s run can sit wholly
in one level, so raw op times of identical work differ between runs by far
more than any change worth detecting.

Each timed op is therefore bracketed by two short bursts of a fixed
calibration kernel, and its time is rescaled to the reference speed,

    ref_seconds = seconds * REF_SECONDS[kernel] / mean(burst before, burst after)

which cancels the host's level as far as the kernel slows down like the op.
So each workload picks the kernel closest to what its ops spend their time
on.  ``lp`` and ``fit`` run a frozen copy of the dense two-phase simplex that
``riplab.lp`` had when this benchmark was defined, on fixed problems shaped
like the exact RIP-1 oracle's merged face LPs and like ``l1_fit`` on a graph
matrix; ``sets`` runs the Python set unions of the expansion and slack scans.
None of them calls riplab, so no change to riplab moves them.

``REF_SECONDS`` holds each burst's time at that VM's fast level, so reference
seconds read close to its wall seconds there.  The constants and the kernels
are fixed: changing either shifts every time metric.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_TOL = 1e-9


# -- frozen dense simplex (Bland's rule), as riplab.lp had it ------------------

def _solve_min(c, a_ub, b_ub, a_eq=None, b_eq=None):
    nvar = c.size
    n_ub = a_ub.shape[0]
    rows = [np.hstack([a_ub, np.eye(n_ub)])]
    rhs = [b_ub]
    if a_eq is not None:
        rows.append(np.hstack([a_eq, np.zeros((a_eq.shape[0], n_ub))]))
        rhs.append(b_eq)
    mat = np.vstack(rows)
    b = np.concatenate(rhs)
    nstruct = nvar + n_ub
    nrows = mat.shape[0]
    flip = b < 0
    mat[flip] *= -1.0
    b = np.where(flip, -b, b)
    basis = np.full(nrows, -1, dtype=int)
    need_art = []
    for i in range(nrows):
        if i < n_ub and not flip[i]:
            basis[i] = nvar + i
        else:
            need_art.append(i)
    nart = len(need_art)
    tab = np.zeros((nrows + 1, nstruct + nart + 1))
    tab[:nrows, :nstruct] = mat
    tab[:nrows, -1] = b
    for j, i in enumerate(need_art):
        tab[i, nstruct + j] = 1.0
        basis[i] = nstruct + j
    if nart:
        for i in need_art:
            tab[-1, :] -= tab[i, :]
        tab[-1, nstruct:nstruct + nart] += 1.0
        _iterate(tab, basis, nstruct + nart)
        tab, basis = _drop_artificials(tab, basis, nstruct)
    tab[-1, :] = 0.0
    tab[-1, :nvar] = c
    for i in range(len(basis)):
        cb = tab[-1, basis[i]]
        if cb != 0.0:
            tab[-1, :] -= cb * tab[i, :]
    _iterate(tab, basis, nstruct)
    z = np.zeros(nstruct)
    for i in range(len(basis)):
        z[basis[i]] = tab[i, -1]
    return z[:nvar]


def _iterate(tab, basis, ncols):
    body = tab[:len(basis)]
    while True:
        negs = np.flatnonzero(tab[-1, :ncols] < -_TOL)
        if negs.size == 0:
            return
        enter = int(negs[0])
        col = body[:, enter]
        pos = np.flatnonzero(col > _TOL)
        ratios = body[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + _TOL * (1.0 + abs(best))]
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(tab, leave, enter)
        basis[leave] = enter


def _pivot(tab, row, col):
    tab[row, :] /= tab[row, col]
    column = tab[:, col].copy()
    column[row] = 0.0
    tab -= np.outer(column, tab[row, :])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _drop_artificials(tab, basis, nstruct):
    keep = []
    for i in range(len(basis)):
        if basis[i] < nstruct:
            keep.append(i)
            continue
        cand = np.flatnonzero(np.abs(tab[i, :nstruct]) > _TOL)
        if cand.size:
            _pivot(tab, i, int(cand[0]))
            basis[i] = int(cand[0])
            keep.append(i)
    rows = keep + [tab.shape[0] - 1]
    return tab[rows, :][:, list(range(nstruct)) + [tab.shape[1] - 1]], basis[keep]


def _min_l1_on_simplex(mat, w):
    m, p = mat.shape
    c = np.concatenate([w @ mat, 2.0 * w])
    a_eq = np.concatenate([np.ones(p), np.zeros(m)])[None, :]
    u = _solve_min(c, np.hstack([-mat, -np.eye(m)]), np.zeros(m), a_eq, np.ones(1))[:p]
    return float(w @ np.abs(mat @ u))


def _l1_fit(sub, y):
    m, p = sub.shape
    col = sub.sum(axis=0)
    c = np.concatenate([-col, col, 2.0 * np.ones(m)])
    z = _solve_min(c, np.hstack([sub, -sub, -np.eye(m)]), y)
    return float(np.abs(y - sub @ (z[:p] - z[p:2 * p])).sum())


# -- fixed problems --------------------------------------------------------------

def _graph_columns(rng, m: int, d: int, p: int) -> np.ndarray:
    """p columns of a graph matrix: d ones per column among m rows, over d."""
    cols = np.zeros((m, p))
    for j in range(p):
        cols[rng.choice(m, size=d, replace=False), j] = 1.0 / d
    return cols


def _faces(count: int) -> list:
    """Merged face LPs of the exact oracle on 8 columns of a d=11, m=704
    graph matrix, each with a sign pattern."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(count):
        sub = _graph_columns(rng, 704, 11, 8)
        sub = sub[np.abs(sub).sum(axis=1) > 0]
        body, mult = np.unique(sub, axis=0, return_counts=True)
        sigma = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=7)])
        out.append((body * sigma, mult.astype(float)))
    return out


def _fits(count: int) -> list:
    """l1_fit problems on the live rows of 8 columns of a d=13, m=832 graph
    matrix, with a noisy right-hand side."""
    rng = np.random.default_rng(13)
    out = []
    for _ in range(count):
        sub = _graph_columns(rng, 832, 13, 8)
        sub = sub[np.abs(sub).sum(axis=1) > 0]
        y = sub @ rng.standard_normal(8) + 0.2 * rng.standard_normal(sub.shape[0]) / sub.shape[0]
        out.append((sub, y))
    return out


_FACES = _faces(24)
_FITS = _fits(1)
_rng = np.random.default_rng(7)
_ADJ = [frozenset(_rng.choice(300, size=8, replace=False).tolist()) for _ in range(127)]


def _lp() -> float:
    return sum(_min_l1_on_simplex(body, mult) for body, mult in _FACES)


def _fit() -> float:
    return sum(_l1_fit(sub, y) for sub, y in _FITS)


def _sets() -> int:
    total = 0
    for i in range(1600):
        cover = set()
        for j in range(7):
            cover |= _ADJ[(i * 7 + j) % len(_ADJ)]
        total += len(cover)
    return total


KERNELS = {"lp": _lp, "fit": _fit, "sets": _sets}

#: burst time, in seconds, of each kernel at the fast level of the reference
#: VM (see ``meta.json``); fixed constants, never re-measured
REF_SECONDS = {"lp": 0.006, "fit": 0.009, "sets": 0.0055}


def burst(kernel: str) -> float:
    """Wall time of one burst of ``kernel``."""
    fn = KERNELS[kernel]
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def to_reference(seconds: float, kernel: str, before: float, after: float) -> float:
    """``seconds`` measured between bursts that took ``before`` and
    ``after``, rescaled to the reference speed."""
    return seconds * REF_SECONDS[kernel] * 2.0 / (before + after)
