"""Plain-text file formats: graphs, matrices, vectors and certificates.

Floats are written with 17 significant digits, so matrix and vector files
round-trip exactly.  All writers emit LF newlines and nothing
machine-dependent, which keeps command outputs byte-reproducible.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import InputError
from .sketch import BipartiteGraph, MeasurementMatrix
from .verify import RipReport


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse(path, kind, tokens) -> list:
    """Tokens converted by ``kind`` (int or float); a bad token is an
    InputError that names the file."""
    try:
        return [kind(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


# -- graphs --------------------------------------------------------------------

def graph_text(graph: BipartiteGraph) -> str:
    lines = [f"{graph.n} {graph.m} {graph.d}"]
    lines.extend(" ".join(str(v) for v in row) for row in graph.adj)
    return "\n".join(lines) + "\n"


def write_graph(path, graph: BipartiteGraph) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(graph_text(graph))


def read_graph(path) -> BipartiteGraph:
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 3:
            raise InputError(f"graph file {path}: header must be 'n m d'")
        n, m, d = _parse(path, int, head)
        adj = []
        for _ in range(n):
            row = fh.readline().split()
            if len(row) != d:
                raise InputError(f"graph file {path}: expected {d} neighbors per line")
            adj.append(tuple(_parse(path, int, row)))
    return BipartiteGraph(n=n, m=m, d=d, adj=tuple(adj))


# -- matrices ------------------------------------------------------------------

def matrix_text(mat: MeasurementMatrix) -> str:
    a = mat.a
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(" ".join(_fmt(v) for v in row) for row in a)
    return "\n".join(lines) + "\n"


def write_matrix(path, mat: MeasurementMatrix) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(matrix_text(mat))


def read_matrix(path) -> MeasurementMatrix:
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise InputError(f"matrix file {path}: header must be 'm n'")
        m, n = _parse(path, int, head)
        rows = []
        for _ in range(m):
            row = fh.readline().split()
            if len(row) != n:
                raise InputError(f"matrix file {path}: expected {n} entries per row")
            rows.append(_parse(path, float, row))
    return MeasurementMatrix(np.asarray(rows, dtype=float).reshape(m, n), provenance="loaded")


# -- vectors ---------------------------------------------------------------------

def vector_text(x) -> str:
    arr = np.asarray(x, dtype=float).ravel()
    return "\n".join(_fmt(v) for v in arr) + "\n"


def write_vector(path, x) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(vector_text(x))


def read_vector(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            values.extend(_parse(path, float, line.replace(",", " ").split()))
    out = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise InputError(f"vector file {path}: entries must be finite")
    return out


# -- certificates -----------------------------------------------------------------

def rip_certificate_text(report: RipReport) -> str:
    """One line: ``eps_lo eps_hi mode support witness-vector``."""
    support = ",".join(str(j) for j in report.worst_support) if report.worst_support else "-"
    witness = (",".join(_fmt(v) for v in np.asarray(report.worst_vector).ravel())
               if report.worst_vector is not None else "-")
    hi = "inf" if report.eps_hi == float("inf") else _fmt(report.eps_hi)
    return f"{_fmt(report.eps_lo)} {hi} {report.mode} {support} {witness}\n"


def rip_certificate_csv(report: RipReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["eps_lo", "eps_hi", "mode", "support", "witness"])
    support = ";".join(str(j) for j in report.worst_support) if report.worst_support else ""
    witness = (";".join(_fmt(v) for v in np.asarray(report.worst_vector).ravel())
               if report.worst_vector is not None else "")
    hi = "inf" if report.eps_hi == float("inf") else _fmt(report.eps_hi)
    writer.writerow([_fmt(report.eps_lo), hi, report.mode, support, witness])
    return out.getvalue()
