"""The three benchmark workloads: inputs, the timed op, its checks and its
canonical output.

Every input comes from the workload seed.  ``op`` holds only calls into
riplab's public functions, made through module attributes so that a traced
run can route them through spans; ``check`` runs outside the timed region,
recomputes what it can from the definitions (``scipy.optimize.linprog`` is
the LP oracle) and returns the problems it found, so no stored answers are
needed for any seed.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from functools import reduce
from operator import or_
from pathlib import Path

import numpy as np

from riplab import fileio, models, recovery, sketch, verify

#: tolerance for values the benchmark recomputes with the same arithmetic
EXACT_TOL = 1e-9
#: tolerance against the scipy LP oracle (HiGHS feasibility tolerance is 1e-7)
ORACLE_TOL = 1e-6
#: relative tolerance for ratios recomputed in another summation order
RATIO_TOL = 1e-12


def no_span(_name):
    return nullcontext()


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def l1(v) -> float:
    return float(np.abs(v).sum())


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def nonzeros(x) -> tuple:
    return tuple(int(j) + 1 for j in np.flatnonzero(x))


def _linprog():
    from scipy.optimize import linprog
    return linprog


def scipy_face_min(sub: np.ndarray, sigma: np.ndarray) -> float:
    """min ||sub @ (sigma * u)||_1 over the probability simplex, by HiGHS."""
    mat = sub[np.abs(sub).sum(axis=1) > 0] * sigma
    m, p = mat.shape
    eye = np.eye(m)
    res = _linprog()(
        np.concatenate([np.zeros(p), np.ones(m)]),
        A_ub=np.vstack([np.hstack([mat, -eye]), np.hstack([-mat, -eye])]),
        b_ub=np.zeros(2 * m),
        A_eq=np.concatenate([np.ones(p), np.zeros(m)])[None, :], b_eq=[1.0],
        bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def scipy_l1_fit(sub: np.ndarray, y: np.ndarray) -> float:
    """min over free z of ||y - sub @ z||_1, by HiGHS."""
    m, p = sub.shape
    eye = np.eye(m)
    res = _linprog()(
        np.concatenate([np.zeros(p), np.ones(m)]),
        A_ub=np.vstack([np.hstack([-sub, -eye]), np.hstack([sub, -eye])]),
        b_ub=np.concatenate([-y, y]),
        bounds=[(None, None)] * p + [(0, None)] * m, method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


class Workload:
    """One closed-loop workload; op ``i`` runs on input ``i mod pool``."""

    name = ""
    #: the ``calibrate.py`` kernel closest to what this workload's ops do
    calibration = "lp"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items: list = []
        self._memo: dict = {}

    def memo(self, key, compute):
        """Check-side values computed once per process, outside set-up."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def members(self) -> list:
        return self.memo("members", lambda: list(models.enumerate_members(self.model)))

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, i: int):
        return self.items[i % len(self.items)]

    def op(self, inp, span=no_span):
        raise NotImplementedError

    def check(self, i: int, inp, result) -> list:
        raise NotImplementedError

    def canonical(self, i: int, result) -> str:
        raise NotImplementedError

    def check_rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i, 1])

    def distinct_sets(self) -> dict:
        """Scan half -> number of distinct sparse sets (scan only)."""
        return {}


class Certify(Workload):
    """Monte Carlo screen, then the exact RIP-1 oracle, on a fresh sampled
    graph matrix per op: many tiny face LPs, nothing shared between ops."""

    name = "certify"
    calibration = "lp"
    model = models.parse_model("block:n=16,k=8,b=4")
    eps = 0.25
    pool = 64
    mc_samples = 1000
    faces_checked = 12

    def setup(self) -> None:
        plan = sketch.plan_params(self.model, self.eps)  # (d, m) = (11, 704)
        rng = np.random.default_rng([self.seed, 1])
        for _ in range(self.pool):
            graph = sketch.sample_graph(self.model.n, plan.m, plan.d,
                                        seed=int(rng.integers(2 ** 31)))
            self.items.append((sketch.to_matrix(graph), int(rng.integers(2 ** 31))))

    def op(self, inp, span=no_span):
        mat, mc_seed = inp
        with span("bench.certify.mc"):
            mc = verify.rip1_interval(mat, self.model, mode="mc",
                                      samples=self.mc_samples, seed=mc_seed)
        with span("bench.certify.exact"):
            exact = verify.rip1_interval(mat, self.model, mode="exact")
        return mc, exact

    def check(self, i, inp, result) -> list:
        mat, _ = inp
        a = mat.a
        mc, ex = result
        bad = []
        w = np.asarray(ex.worst_vector, dtype=float)
        eps = float(ex.eps_lo)
        if not eps <= ex.eps_hi:
            bad.append(f"exact interval [{eps}, {ex.eps_hi}] is empty")
        if not close(l1(w), 1.0, EXACT_TOL):
            bad.append(f"witness l1 norm {l1(w)} != 1")
        supp = nonzeros(w)
        if not models.is_sparse(self.model, supp) or not set(supp) <= set(ex.worst_support):
            bad.append(f"witness support {supp} is not sparse inside {ex.worst_support}")
        image = l1(a @ w)
        if not close(abs(image - 1.0), eps, EXACT_TOL):
            bad.append(f"| ||Aw||_1 - 1 | = {abs(image - 1.0)} != eps {eps}")
        if not eps >= mc.eps_lo - EXACT_TOL:
            bad.append(f"exact eps {eps} below the Monte Carlo lower bound {mc.eps_lo}")
        mc_dev = abs(l1(a @ np.asarray(mc.worst_vector)) - 1.0)
        if not close(mc_dev, mc.eps_lo, EXACT_TOL):
            bad.append(f"Monte Carlo witness deviates {mc_dev}, reported {mc.eps_lo}")
        # no face minimum below 1 - eps, and the witness is optimal on its face
        members = self.members()
        rng = self.check_rng(i)
        for _ in range(self.faces_checked):
            member = members[int(rng.integers(len(members)))]
            sigma = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=len(member) - 1)])
            low = scipy_face_min(a[:, np.asarray(member) - 1], sigma)
            if low < 1.0 - eps - ORACLE_TOL:
                bad.append(f"face {member} sign {sigma.tolist()} reaches {low} < 1 - eps")
        if len(supp) > 1:
            cols = np.asarray(ex.worst_support) - 1
            low = scipy_face_min(a[:, cols], np.where(w[cols] < 0, -1.0, 1.0))
            if low < image - ORACLE_TOL:
                bad.append(f"witness face minimum {low} is below ||Aw||_1 = {image}")
        return bad

    def canonical(self, i, result) -> str:
        mc, ex = result
        return fileio.rip_certificate_text(mc) + fileio.rip_certificate_text(ex)


class Decode(Workload):
    """Exhaustive l1 decoding of noisy block-sparse signals with one
    ``riplab build`` matrix: larger LPs, one matrix shared by every op."""

    name = "decode"
    calibration = "fit"
    model = models.parse_model("block:n=32,k=8,b=4")
    eps = 0.25
    graph_seed = 1
    noise = 0.2
    pool = 64
    members_checked = 3

    def setup(self) -> None:
        plan = sketch.plan_params(self.model, self.eps)  # (d, m) = (13, 832)
        graph = sketch.sample_graph(self.model.n, plan.m, plan.d, seed=self.graph_seed)
        # the CLI reads its matrix from a file; make the same round trip
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"decode-{os.getpid()}.matrix.txt"
        try:
            fileio.write_matrix(path, sketch.to_matrix(graph))
            self.mat = fileio.read_matrix(path)
        finally:
            path.unlink(missing_ok=True)
        rng = np.random.default_rng(self.seed)
        for _ in range(self.pool):
            x = self.signal(rng)
            self.items.append((x, self.mat.a @ x))

    def signal(self, rng: np.random.Generator) -> np.ndarray:
        """The signal recipe of ``riplab bench --noise``: a random member with
        +-[1, 2) entries plus l1-scaled Gaussian noise."""
        member = models.random_member(self.model, rng)
        idx = np.asarray(member, dtype=int) - 1
        x = np.zeros(self.model.n)
        x[idx] = (rng.integers(0, 2, size=idx.size) * 2.0 - 1.0) * (1.0 + rng.random(idx.size))
        bump = rng.standard_normal(self.model.n)
        x += self.noise * l1(x) * bump / l1(bump)
        return x

    def op(self, inp, span=no_span):
        x, y = inp
        return recovery.recover(self.mat, y, self.model, x_true=x)

    def check(self, i, inp, result) -> list:
        x, y = inp
        a = self.mat.a
        bad = []
        xs = np.asarray(result.x_star, dtype=float)
        res = float(result.residual)
        scale = max(1.0, res)
        if not close(res, l1(y - a @ xs), EXACT_TOL):
            bad.append(f"residual {res} != ||y - Ax*||_1 = {l1(y - a @ xs)}")
        support = tuple(result.support)
        if support and not models.is_member(self.model, support):
            bad.append(f"winner {support} is not a member")
        if not set(nonzeros(xs)) <= set(support):
            bad.append(f"x* support {nonzeros(xs)} leaves the winner {support}")
        _, projected = models.project(self.model, x)
        if res > l1(y - a @ projected) + EXACT_TOL * scale:
            bad.append(f"residual {res} above that of project(x), {l1(y - a @ projected)}")
        if support:
            best = scipy_l1_fit(a[:, np.asarray(support) - 1], y)
            if abs(best - res) > ORACLE_TOL * scale:
                bad.append(f"oracle residual on the winner {best} != {res}")
        members = self.members()
        rng = self.check_rng(i)
        for j in rng.choice(len(members), size=self.members_checked, replace=False):
            member = members[int(j)]
            low = scipy_l1_fit(a[:, np.asarray(member) - 1], y)
            if low < res - ORACLE_TOL * scale:
                bad.append(f"member {member} reaches residual {low} < {res}")
        return bad

    def canonical(self, i, result) -> str:
        """The row ``riplab bench`` prints for this trial."""
        if result.ratio is None:
            ratio = ""
        elif result.exact:
            ratio = "exact"
        elif result.ratio == math.inf:
            ratio = "inf"
        else:
            ratio = fmt(result.ratio)
        opt = "" if result.opt_error is None else fmt(result.opt_error)
        support = models.format_support(result.support) if result.support else ""
        return f"{i},{fmt(result.residual)},{opt},{ratio},\"{support}\"\n"


class Scan(Workload):
    """Exact expansion and slack scans of a tree graph, where members share
    most sparse sets, and of a block graph, where they share few."""

    name = "scan"
    calibration = "sets"
    # kind -> (model, m, d, eps); m and d of the tree graph are fixed by hand
    # because the planner needs k > 2 log2(n) for trees; the block graph has
    # the planned (d, m) for eps 0.25
    halves = {
        "tree": (models.parse_model("tree:n=63,k=6"), 200, 8, 0.5),
        "block": (models.parse_model("block:n=32,k=8,b=4"), 832, 13, 0.25),
    }
    pool = 64

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        for _ in range(self.pool):
            pair = {}
            for kind, (model, m, d, _eps) in self.halves.items():
                graph = sketch.sample_graph(model.n, m, d, seed=int(rng.integers(2 ** 31)))
                pair[kind] = (graph, sketch.to_matrix(graph))
            self.items.append(pair)

    def op(self, inp, span=no_span):
        out = {}
        for kind, (model, _m, _d, eps) in self.halves.items():
            graph, mat = inp[kind]
            with span(f"bench.scan.{kind}"):
                out[kind] = (verify.expansion_check(graph, model, eps),
                             verify.generalized_expander_slack(mat, model))
        return out

    def distinct_sets(self) -> dict:
        return {kind: sum(models.count_sparse_sets(model, t, cap=None)
                          for t in range(1, model.k + 1))
                for kind, (model, *_rest) in self.halves.items()}

    def sparse_sets(self, kind: str) -> list:
        model = self.halves[kind][0]
        return self.memo(("sets", kind), lambda: [
            s for t in range(1, model.k + 1)
            for s in models.enumerate_sparse_sets(model, t, cap=None)])

    def oracle_min_ratio(self, kind: str, graph) -> float:
        """min |N(S)| / (d |S|) over every sparse set, with neighborhoods as
        bit masks, independent of the scan kernels."""
        def compute():
            masks = [sum(1 << v for v in row) for row in graph.adj]
            return min(reduce(or_, (masks[u - 1] for u in s)).bit_count() / (graph.d * len(s))
                       for s in self.sparse_sets(kind))
        return self.memo(("oracle", kind, graph.adj), compute)

    def check(self, i, inp, result) -> list:
        bad = []
        for kind, (model, _m, d, eps) in self.halves.items():
            graph, _mat = inp[kind]
            exp, slack = result[kind]

            def ratio(support):
                return len(set().union(*(graph.adj[u - 1] for u in support))) / (d * len(support))

            for label, support, value in (("expansion", exp.worst_support, exp.worst_ratio),
                                          ("slack", slack.worst_support, slack.min_ratio)):
                if not support or not models.is_sparse(model, support):
                    bad.append(f"{kind} {label} worst support {support} is not sparse")
                elif not close(ratio(support), value, RATIO_TOL):
                    bad.append(f"{kind} {label} ratio {value} != {ratio(support)} on {support}")
            if exp.ok != (exp.worst_ratio >= 1.0 - eps - EXACT_TOL):
                bad.append(f"{kind} expansion ok={exp.ok} with worst ratio {exp.worst_ratio}")
            if not close(slack.max_col_norm, 1.0, RATIO_TOL):
                bad.append(f"{kind} graph matrix column norm {slack.max_col_norm} != 1")
            if exp.ok:
                if not close(slack.min_ratio, exp.worst_ratio, RATIO_TOL):
                    bad.append(f"{kind} slack {slack.min_ratio} != expansion {exp.worst_ratio}")
                truth = self.oracle_min_ratio(kind, graph)
                if not close(truth, exp.worst_ratio, RATIO_TOL):
                    bad.append(f"{kind} minimum over sparse sets {truth} != {exp.worst_ratio}")
        return bad

    def canonical(self, i, result) -> str:
        lines = []
        for kind, (exp, slack) in result.items():
            lines.append(f"expansion {kind} {exp.ok} {fmt(exp.worst_ratio)} "
                         f"{models.format_support(exp.worst_support)} {exp.checked}\n")
            lines.append(f"slack {kind} {fmt(slack.min_ratio)} "
                         f"{models.format_support(slack.worst_support)} "
                         f"{fmt(slack.max_col_norm)} {slack.checked}\n")
        return "".join(lines)


WORKLOADS = {w.name: w for w in (Certify, Decode, Scan)}
