import json
import math
import subprocess
import sys

import numpy as np

import riplab as rl
from riplab import fileio


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "riplab.cli", *argv],
                          capture_output=True, text=True)
    return proc


def test_plan_output():
    proc = run_cli("plan", "--model", "block:n=4096,k=64,b=64", "--eps", "0.5")
    assert proc.returncode == 0
    header, row, comment = proc.stdout.strip().splitlines()
    assert header.startswith("kind,n,k,b,eps,l,d,m")
    fields = row.split(",")
    d = math.ceil(2 * math.log(4096 * math.e) / (0.5 * math.log(64 * math.e)))
    assert fields[0] == "block" and int(fields[6]) == d
    assert int(fields[7]) == math.ceil(2 * d * 64 / 0.5)
    assert comment.startswith("#")


def test_plan_flags_override_model_text():
    base = run_cli("plan", "--model", "block:n=64,k=8,b=4", "--eps", "0.25")
    override = run_cli("plan", "--model", "block:n=64,k=8,b=2", "--eps", "0.25",
                       "--b", "4")
    assert override.stdout == base.stdout


def test_plan_infeasible_exit_2():
    proc = run_cli("plan", "--model", "tree:n=127,k=8", "--eps", "0.25")
    assert proc.returncode == 2
    assert "log2" in proc.stderr


def test_bounds_command():
    proc = run_cli("bounds", "--kind", "volume", "--param", "d=3")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == 'volume,"d=3",64'
    bad = run_cli("bounds", "--kind", "general-lower", "--param", "n=64",
                  "--param", "k=4", "--param", "l=4")
    assert bad.returncode == 2


def test_build_verify_recover_flow(tmp_path):
    prefix = str(tmp_path / "run")
    proc = run_cli("build", "--model", "block:n=16,k=4,b=2", "--eps", "0.25",
                   "--seed", "3", "--out", prefix)
    assert proc.returncode == 0, proc.stderr
    assert "expander: true" in proc.stdout

    check = run_cli("verify", "--graph", prefix + ".graph.txt",
                    "--model", "block:n=16,k=4,b=2", "--eps", "0.25")
    assert check.returncode == 0
    assert check.stdout.splitlines()[1].startswith("true,")

    rip = run_cli("verify", "--matrix", prefix + ".matrix.txt",
                  "--model", "block:n=16,k=4,b=2")
    assert rip.returncode == 0
    eps_lo = float(rip.stdout.split()[0])
    assert eps_lo <= 0.5

    tight = run_cli("verify", "--matrix", prefix + ".matrix.txt",
                    "--model", "block:n=16,k=4,b=2", "--eps", "0.0001")
    assert tight.returncode == 4

    x = np.zeros(16)
    x[[0, 1, 4, 5]] = [1.5, -2.0, 1.0, 0.5]
    fileio.write_vector(tmp_path / "x.txt", x)
    rec = run_cli("recover", "--matrix", prefix + ".matrix.txt",
                  "--model", "block:n=16,k=4,b=2", "--signal", str(tmp_path / "x.txt"))
    assert rec.returncode == 0
    row = rec.stdout.splitlines()[1]
    assert ",exact," in row and row.endswith('"1,2,5,6"')


def test_build_certification_failure_exit_4(tmp_path):
    # strangled row budget: m = d makes every neighborhood collide
    proc = run_cli("build", "--model", "block:n=16,k=4,b=2", "--eps", "0.25",
                   "--seed", "0", "--retries", "3", "--c-m", "0.001",
                   "--out", str(tmp_path / "fail"))
    assert proc.returncode == 4
    assert "no verified graph" in proc.stderr


def test_cap_exit_3(tmp_path):
    mat = rl.MeasurementMatrix(np.zeros((2, 30)))
    fileio.write_matrix(tmp_path / "m.txt", mat)
    proc = run_cli("verify", "--matrix", str(tmp_path / "m.txt"),
                   "--model", "general:n=30,k=10", "--mode", "exact", "--cap", "50")
    assert proc.returncode == 3


def test_sparsify_command(tmp_path):
    prefix = str(tmp_path / "run")
    run_cli("build", "--model", "block:n=16,k=4,b=2", "--eps", "0.25",
            "--seed", "3", "--out", prefix)
    proc = run_cli("sparsify", "--matrix", prefix + ".matrix.txt",
                   "--model", "block:n=16,k=4,b=2", "--eps-in", "0.2",
                   "--out", str(tmp_path / "sp"))
    assert proc.returncode == 0
    lines = (tmp_path / "sp.columns.csv").read_text().splitlines()
    assert lines[0] == "column,perturbation,nnz,kept"
    assert len(lines) == 17
    back = fileio.read_matrix(tmp_path / "sp.matrix.txt")
    assert back.a.shape[0] == 480


def test_bench_command(tmp_path):
    prefix = str(tmp_path / "run")
    run_cli("build", "--model", "block:n=16,k=4,b=2", "--eps", "0.25",
            "--seed", "3", "--out", prefix)
    proc = run_cli("bench", "--matrix", prefix + ".matrix.txt",
                   "--model", "block:n=16,k=4,b=2", "--trials", "4",
                   "--seed", "9", "--noise", "0.1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "trial,residual,opt_error,ratio,support"
    assert len(lines) == 6 and lines[-1].startswith("max_ratio,")
    empty = run_cli("bench", "--matrix", prefix + ".matrix.txt",
                    "--model", "block:n=16,k=4,b=2", "--trials", "0")
    assert empty.stdout.splitlines() == ["trial,residual,opt_error,ratio,support"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "block:n=64,k=8,b=4", "eps": 0.25}))
    via_cfg = run_cli("plan", "--config", str(cfg))
    assert via_cfg.returncode == 0
    direct = run_cli("plan", "--model", "block:n=64,k=8,b=4", "--eps", "0.25")
    assert via_cfg.stdout == direct.stdout
    # explicit flag beats the config value
    overridden = run_cli("plan", "--config", str(cfg), "--eps", "0.125")
    assert overridden.stdout == run_cli("plan", "--model", "block:n=64,k=8,b=4",
                                        "--eps", "0.125").stdout


def test_missing_model_exit_2():
    proc = run_cli("plan", "--eps", "0.25")
    assert proc.returncode == 2


def test_build_zero_retries_exit_2(tmp_path):
    proc = run_cli("build", "--model", "block:n=16,k=4,b=2", "--eps", "0.25",
                   "--retries", "0", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2


def _assert_input_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_recover_bad_files_exit_2(tmp_path):
    model = ("--model", "general:n=2,k=1")
    good = tmp_path / "m.txt"
    good.write_text("2 2\n1 0\n0 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 0\n0 oops\n")
    y = tmp_path / "y.txt"
    y.write_text("1.0\nnan\n")
    non_numeric = run_cli("recover", "--matrix", str(bad), *model,
                          "--measurements", str(y))
    _assert_input_error(non_numeric)
    assert "bad.txt" in non_numeric.stderr
    missing = run_cli("recover", "--matrix", str(tmp_path / "absent.txt"), *model,
                      "--measurements", str(y))
    _assert_input_error(missing)
    assert "absent.txt" in missing.stderr
    nan = run_cli("recover", "--matrix", str(good), *model, "--measurements", str(y))
    _assert_input_error(nan)
    assert "finite" in nan.stderr


def test_bad_config_json_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\"model\": ")
    _assert_input_error(run_cli("plan", "--config", str(cfg)))
    cfg.write_text("[1, 2]")
    _assert_input_error(run_cli("plan", "--config", str(cfg)))
