import math

import numpy as np
import pytest

import riplab as rl
from riplab import fileio
from riplab.errors import InputError


def test_graph_roundtrip(tmp_path):
    g = rl.sample_graph(6, 11, 3, seed=4)
    path = tmp_path / "g.txt"
    fileio.write_graph(path, g)
    back = fileio.read_graph(path)
    assert back == g


def test_graph_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 4\n")
    with pytest.raises(InputError):
        fileio.read_graph(path)


@pytest.mark.parametrize("reader,text", [
    (fileio.read_graph, "2 4 1\n1\nx\n"),
    (fileio.read_matrix, "1 2\n0.5 abc\n"),
    (fileio.read_matrix, "1 2.5\n0.5 1\n"),
    (fileio.read_vector, "1.0\nabc\n"),
    (fileio.read_vector, "1.0\nnan\n"),
])
def test_readers_reject_bad_tokens_naming_the_file(tmp_path, reader, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InputError, match="bad.txt"):
        reader(path)


def test_matrix_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    mat = rl.MeasurementMatrix(rng.standard_normal((5, 7)) * np.pi, provenance="sampled")
    path = tmp_path / "m.txt"
    fileio.write_matrix(path, mat)
    back = fileio.read_matrix(path)
    assert back.provenance == "loaded"
    assert np.array_equal(back.a, mat.a)  # 17 significant digits round-trip


def test_vector_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(9) / 3.0
    path = tmp_path / "x.txt"
    fileio.write_vector(path, x)
    assert np.array_equal(fileio.read_vector(path), x)


def test_vector_reads_comma_form(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1.5,2.5\n-3\n")
    assert np.array_equal(fileio.read_vector(path), [1.5, 2.5, -3.0])


def test_rip_certificate_formats():
    report = rl.RipReport(eps_lo=0.125, eps_hi=0.125, worst_support=(1, 3),
                          worst_vector=np.array([0.5, 0.0, -0.5]), mode="exact")
    line = fileio.rip_certificate_text(report)
    eps, hi, mode, support, witness = line.split()
    assert float(eps) == 0.125 and float(hi) == 0.125
    assert mode == "exact" and support == "1,3"
    assert [float(v) for v in witness.split(",")] == [0.5, 0.0, -0.5]
    csv_text = fileio.rip_certificate_csv(report)
    assert csv_text.splitlines()[0] == "eps_lo,eps_hi,mode,support,witness"

    mc = rl.RipReport(eps_lo=0.1, eps_hi=math.inf, worst_support=(2,),
                      worst_vector=np.array([0.0, 1.0]), mode="monte-carlo",
                      samples=10, seed=3)
    assert " inf " in fileio.rip_certificate_text(mc)
