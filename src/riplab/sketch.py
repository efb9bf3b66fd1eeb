"""Random left-regular bipartite graphs, their column-normalized measurement
matrices, and (d, m) parameter planning for a target distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import InputError, PlanInfeasibleError


@dataclass(frozen=True)
class BipartiteGraph:
    """Left-regular bipartite graph: n left vertices, m right, left degree d.

    ``adj[u-1]`` is the sorted tuple of the d distinct right neighbors
    (1-based) of left vertex u.
    """

    n: int
    m: int
    d: int
    adj: tuple

    def __post_init__(self):
        if self.d < 1 or self.d > self.m:
            raise InputError(f"need 1 <= d <= m, got d={self.d}, m={self.m}")
        if len(self.adj) != self.n:
            raise InputError(f"adjacency has {len(self.adj)} rows, expected n={self.n}")
        for u, row in enumerate(self.adj, start=1):
            if len(row) != self.d or len(set(row)) != self.d:
                raise InputError(f"left vertex {u} must have exactly d={self.d} distinct neighbors")
            if row[0] < 1 or row[-1] > self.m:
                raise InputError(f"left vertex {u} has neighbors outside [1, {self.m}]")
            if tuple(sorted(row)) != tuple(row):
                raise InputError(f"adjacency row for left vertex {u} must be sorted")


def sample_graph(n: int, m: int, d: int, seed: int) -> BipartiteGraph:
    """Each left vertex gets an independent uniform d-subset of [m];
    deterministic for a fixed seed."""
    if d > m:
        raise InputError(f"degree d={d} cannot exceed m={m}")
    if n < 1 or m < 1 or d < 1:
        raise InputError("n, m, d must be positive")
    rng = np.random.default_rng(seed)
    adj = tuple(
        tuple(sorted(int(v) + 1 for v in rng.choice(m, size=d, replace=False)))
        for _ in range(n))
    return BipartiteGraph(n=n, m=m, d=d, adj=adj)


def neighbors(graph: BipartiteGraph, support) -> set:
    """Right-side neighborhood N(S) of a set of left vertices."""
    out: set = set()
    for u in support:
        if not 1 <= u <= graph.n:
            raise InputError(f"left vertex {u} outside [1, {graph.n}]")
        out.update(graph.adj[u - 1])
    return out


@dataclass
class MeasurementMatrix:
    """Dense m x n matrix with a provenance tag."""

    a: np.ndarray
    provenance: str = "loaded"

    def __post_init__(self):
        self.a = as_array(self.a)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


def as_array(mat) -> np.ndarray:
    """Accept a MeasurementMatrix or anything array-like; return the ndarray.

    Anything but a MeasurementMatrix, which was checked when it was made, must
    be 2-d with finite entries.
    """
    if isinstance(mat, MeasurementMatrix):
        return mat.a
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return arr


def to_matrix(graph: BipartiteGraph) -> MeasurementMatrix:
    """Adjacency matrix scaled by 1/d: every column has l1 norm exactly 1."""
    a = np.zeros((graph.m, graph.n))
    w = 1.0 / graph.d
    for u, row in enumerate(graph.adj):
        for v in row:
            a[v - 1, u] = w
    return MeasurementMatrix(a, provenance="normalized-adjacency")


@dataclass(frozen=True)
class PlanParams:
    """Planned degree and row count, with the constants that produced them."""

    d: int
    m: int
    l: float
    c_d: float
    c_m: float


def plan_params(model: models.Model, eps: float,
                c_d: float = 2.0, c_m: float = 2.0,
                c_part: float = models.DEFAULT_C_PART) -> PlanParams:
    """Degree d = ceil(c_d * ln(e n/l) / (eps ln(e k/l))) and rows
    m = ceil(c_m * d k / eps), with l = max(1, ln|M_k| / ln(n/k))
    (block kind shortcuts to l = k/b).

    The e-offsets inside the logs keep the endpoints l = k and l = 1 regular.
    """
    n, k = model.n, model.k
    if not 0 < eps <= 0.5:
        raise PlanInfeasibleError(f"need 0 < eps <= 1/2, got eps={eps}")
    if k >= n:
        raise PlanInfeasibleError(f"planning needs k < n, got k={k}, n={n}")
    if model.kind == "tree" and k <= c_part * math.log2(n):
        raise PlanInfeasibleError(
            f"tree planning needs k > {c_part}*log2(n) = {c_part * math.log2(n):.2f}, got k={k}")
    size = models.model_size(model)
    if size * k < n:
        raise PlanInfeasibleError(
            f"family too small: |M_k| = {size} < n/k = {n}/{k}")
    if model.kind == "block":
        l = model.k / model.b
    else:
        l = max(1.0, math.log(size) / math.log(n / k))
    d = math.ceil(c_d * math.log(math.e * n / l) / (eps * math.log(math.e * k / l)))
    m = max(d, math.ceil(c_m * d * k / eps))
    return PlanParams(d=d, m=m, l=l, c_d=c_d, c_m=c_m)
