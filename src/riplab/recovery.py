"""Exhaustive model-based l1 recovery and the doubled-support RIP oracle it
needs for its approximation guarantee.

The decoder solves one l1 regression per member support, but not for every
member.  Each row that a member's columns leave untouched adds the fixed
``|y_i|`` to that member's residual, so the sum of those ``|y_i|`` is a free
lower bound on it.  Members are visited best-first, by increasing
(bound, enumeration index), and the scan stops at the first member whose
bound exceeds the incumbent residual by more than float rounding can explain:
no member skipped that way could have won.  The winner is the smallest
(residual, enumeration index), the zero vector counting as index -1, which is
the same member as "the first strict improvement in enumeration order wins",
so the output is deterministic for a fixed enumeration order.  Running time
is still exponential in the family size in the worst case (every bound is 0
on a dense matrix); sizes are capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp, models, verify
from .errors import CapError, InputError
from .sketch import as_array

#: cap on |M_k| inside the decoder loop
DEFAULT_MEMBER_CAP = 20_000

#: relative l1 threshold below which a recovery counts as exact
EXACT_REL_TOL = 1e-6


@dataclass
class RecoveryResult:
    x_star: np.ndarray
    support: tuple
    residual: float
    opt_error: float | None = None
    ratio: float | None = None  # math.inf when opt_error ~ 0 but error is not
    exact: bool = False
    members_tried: int = 0  # l1 regressions solved
    members_pruned: int = 0  # members ruled out by their lower bound alone


def _measurements(y, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise InputError(f"y has shape {y.shape}, expected ({m},)")
    if not np.all(np.isfinite(y)):
        raise InputError("measurements y must be finite")
    return y


def l1_regress(mat, y, support) -> np.ndarray:
    """argmin over supp(x) inside the support of ||y - A x||_1 (zeros elsewhere).

    The residual value is the contract; among minimizers the simplex returns
    a deterministic basic solution.
    """
    arr = as_array(mat)
    y = _measurements(y, arr.shape[0])
    n = arr.shape[1]
    sup = models.normalize_support(n, support)
    x = np.zeros(n)
    if not sup:
        return x
    idx = np.asarray(sup, dtype=int) - 1
    coeffs, _ = lp.l1_fit(arr[:, idx], y)
    x[idx] = coeffs
    return x


def recover(mat, y, model: models.Model, cap: int = DEFAULT_MEMBER_CAP,
            x_true=None, rel_tol: float = EXACT_REL_TOL) -> RecoveryResult:
    """The member support whose l1 regression leaves the smallest residual.

    A member's lower bound is the sum of ``|y_i|`` over the rows where all of
    its columns are zero.  Members are visited by increasing (bound,
    enumeration index); the scan stops at the first bound above the incumbent
    residual times ``1 + 4 m 2^-53``.  The incumbent starts at the zero vector
    (empty support, index -1) and the winner is the smallest (residual,
    enumeration index): the first strict improvement in enumeration order.
    When ``x_true`` is supplied the result is scored against the model
    projection of the truth.
    """
    arr = as_array(mat)
    m = arr.shape[0]
    y = _measurements(y, m)
    size = models.model_size(model)
    if size > cap:
        raise CapError(f"family has {size} members, over the cap {cap}; restrict the model")
    members = list(models.enumerate_members(model, cap=None))
    abs_y = np.abs(y)
    zero = arr == 0.0
    bounds = np.array([abs_y[zero[:, np.asarray(t) - 1].all(axis=1)].sum() for t in members])
    # a float sum of m nonnegative terms is within a factor 1 +- m 2^-53 of the
    # exact sum, so a bound above the incumbent by more than this factor proves
    # that the member's computed residual is above it too
    slack = 1.0 + 4.0 * m * 2.0 ** -53
    best_x = np.zeros(arr.shape[1])
    best_support: tuple = ()
    best_res = float(abs_y.sum())
    best_index = -1
    tried = 0
    for i in np.argsort(bounds, kind="stable").tolist():
        if bounds[i] > best_res * slack:
            break
        x = l1_regress(arr, y, members[i])
        res = float(np.abs(y - arr @ x).sum())
        tried += 1
        if (res, i) < (best_res, best_index):
            best_x, best_support, best_res, best_index = x, members[i], res, i
    result = RecoveryResult(x_star=best_x, support=best_support, residual=best_res,
                            members_tried=tried, members_pruned=size - tried)
    if x_true is not None:
        _score(result, model, np.asarray(x_true, dtype=float), rel_tol)
    return result


def _score(result: RecoveryResult, model: models.Model, x_true: np.ndarray,
           rel_tol: float) -> None:
    _, projected = models.project(model, x_true)
    opt = float(np.abs(x_true - projected).sum())
    err = float(np.abs(x_true - result.x_star).sum())
    scale = float(np.abs(x_true).sum())
    result.opt_error = opt
    if opt <= 1e-12 * max(1.0, scale):
        if err <= rel_tol * max(scale, 1e-300):
            result.exact = True
            result.ratio = 0.0
        else:
            result.ratio = math.inf
    else:
        result.ratio = err / opt


def rip_for_recovery(mat, model: models.Model, mode: str = "exact",
                     cap: int = verify.DEFAULT_LP_CAP, samples: int = 4000,
                     seed: int = 0) -> verify.RipReport:
    """RIP-1 report over unions of two members (the doubled family), plus the
    operator norm ||A||_1 (max column l1 norm over all of [n])."""
    arr = as_array(mat)
    if arr.shape[1] != model.n:
        raise InputError(f"matrix has {arr.shape[1]} columns, model has n={model.n}")
    op_norm = float(np.abs(arr).sum(axis=0).max()) if arr.size else 0.0
    if mode in ("monte-carlo", "mc"):
        report = verify._rip_mc(arr, model, samples, seed, doubled=True)
        report.op_norm_1 = op_norm
        return report
    if mode != "exact":
        raise InputError(f"unknown mode {mode!r}")
    size = models.model_size(model)
    if size > 4000:
        raise CapError(f"family has {size} members; doubled-support scan too large")
    members = [frozenset(t) for t in models.enumerate_members(model, cap=None)]
    unions = set()
    for i, first in enumerate(members):
        for second in members[i:]:
            unions.add(first | second)
    # keep only maximal unions: smaller ones are covered by their supersets
    ordered = sorted(unions, key=lambda u: (-len(u), tuple(sorted(u))))
    maximal: list = []
    for u in ordered:
        if not any(u < kept for kept in maximal):
            maximal.append(u)
    supports = [tuple(sorted(u)) for u in maximal]
    lps = sum(2 ** (len(s) - 1) for s in supports)
    if lps > cap:
        raise CapError(f"doubled-support oracle needs {lps} LPs, over the cap {cap}; "
                       "use mode='monte-carlo'")
    report = verify.rip_exact_over_supports(arr, supports)
    report.op_norm_1 = op_norm
    return report


def chain_inequalities(mat, model: models.Model, x_true, result: RecoveryResult,
                       eps: float, op_norm: float) -> list:
    """Per-trial inequality chain behind the (3 + O(eps)) guarantee.

    Returns ``[(label, lhs, rhs), ...]``; every lhs must be <= rhs (up to
    float noise) when the matrix is certified eps over the doubled family
    with operator norm ``op_norm``.
    """
    arr = as_array(mat)
    x = np.asarray(x_true, dtype=float)
    xs = result.x_star
    _, xm = models.project(model, x)

    def l1(v):
        return float(np.abs(v).sum())

    opt = l1(x - xm)
    err = l1(x - xs)
    a_err = l1(arr @ (x - xs))
    a_opt = l1(arr @ (x - xm))
    rows = [
        ("triangle", err, opt + l1(xm - xs)),
        ("doubled-rip-lower", l1(xm - xs), l1(arr @ (xm - xs)) / (1.0 - eps)),
        ("triangle-image", l1(arr @ (xm - xs)), a_opt + a_err),
        ("operator-norm", a_opt, op_norm * opt),
        ("residual-compare", a_err, a_opt),
        ("combined", err, (2.0 + 10.0 * eps) * opt + (1.0 + 10.0 * eps) * a_err),
        ("final", err, (3.0 + 10.0 * eps) * opt),
    ]
    return rows
