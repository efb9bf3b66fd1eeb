"""Tests of the benchmark itself: every check accepts a true result, rejects a
corrupted one, and a corrupted or raising op is counted as failed.

    python3 -m pytest -q perfbench

The workloads run on smaller models here so the tests take seconds.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from riplab import cli, fileio, models, recovery, verify  # noqa: E402


class SmallCertify(workloads.Certify):
    model = models.parse_model("block:n=16,k=4,b=2")
    pool = 2
    mc_samples = 200
    faces_checked = 4


class SmallDecode(workloads.Decode):
    model = models.parse_model("block:n=16,k=4,b=2")
    pool = 2
    members_checked = 2


class SmallScan(workloads.Scan):
    halves = {
        "tree": (models.parse_model("tree:n=15,k=3"), 40, 4, 0.5),
        "block": (models.parse_model("block:n=16,k=4,b=2"), 64, 6, 0.5),
    }
    pool = 2


def ready(cls, tmp_path, seed=5):
    wl = cls(seed, tmp_path)
    wl.setup()
    return wl


def result_of(wl, i=0):
    inp = wl.inputs(i)
    return inp, wl.op(inp)


@pytest.mark.parametrize("cls", [SmallCertify, SmallDecode, SmallScan])
@pytest.mark.parametrize("seed", [1, 5])
def test_true_results_pass(cls, seed, tmp_path):
    wl = ready(cls, tmp_path, seed)
    for i in range(2):
        inp, res = result_of(wl, i)
        assert wl.check(i, inp, res) == []


def test_certify_rejects_perturbed_eps(tmp_path):
    wl = ready(SmallCertify, tmp_path)
    inp, (mc, ex) = result_of(wl)
    for delta in (1e-6, -1e-6):
        bad = dataclasses.replace(ex, eps_lo=ex.eps_lo + delta, eps_hi=ex.eps_hi + delta)
        assert wl.check(0, inp, (mc, bad))
    # a smaller exact eps than the Monte Carlo bound
    assert wl.check(0, inp, (dataclasses.replace(mc, eps_lo=ex.eps_lo + 0.01), ex))


def test_certify_rejects_witness_off_its_face_minimum(tmp_path):
    wl = ready(SmallCertify, tmp_path)
    inp, (mc, ex) = result_of(wl)
    mat = inp[0].a
    support = ex.worst_support
    # a unit vector inside the worst support that is not the face minimizer:
    # the certificate understates eps, as an early-stopped simplex would
    w = np.zeros(mat.shape[1])
    w[np.asarray(support) - 1] = np.sign(ex.worst_vector[np.asarray(support) - 1]) + (
        ex.worst_vector[np.asarray(support) - 1] == 0)
    w /= np.abs(w).sum()
    eps = abs(np.abs(mat @ w).sum() - 1.0)
    assert eps < ex.eps_lo
    weak = dataclasses.replace(ex, eps_lo=eps, eps_hi=eps, worst_vector=w)
    assert any("face" in p for p in wl.check(0, inp, (mc, weak)))


def test_decode_rejects_perturbed_residual(tmp_path):
    wl = ready(SmallDecode, tmp_path)
    inp, res = result_of(wl)
    for delta in (1e-6, -1e-3):
        assert wl.check(0, inp, dataclasses.replace(res, residual=res.residual + delta))


def test_decode_rejects_a_worse_member(tmp_path):
    wl = ready(SmallDecode, tmp_path)
    (x, y), res = result_of(wl)
    fits = [(float(np.abs(y - wl.mat.a @ xo).sum()), m, xo)
            for m in models.enumerate_members(wl.model)
            for xo in [recovery.l1_regress(wl.mat, y, m)]]
    residual, member, xo = max(fits, key=lambda f: f[0])
    assert residual > res.residual + 1e-3
    worse = dataclasses.replace(res, x_star=xo, support=member, residual=residual)
    assert wl.check(0, (x, y), worse)


def test_scan_rejects_perturbed_worst_ratio(tmp_path):
    wl = ready(SmallScan, tmp_path)
    inp, res = result_of(wl)
    for kind in ("tree", "block"):
        exp, slack = res[kind]
        for bad in ((dataclasses.replace(exp, worst_ratio=exp.worst_ratio + 1e-6), slack),
                    (exp, dataclasses.replace(slack, min_ratio=slack.min_ratio - 1e-6)),
                    (dataclasses.replace(exp, worst_support=None), slack)):
            assert wl.check(0, inp, {**res, kind: bad})


def test_scan_oracle_catches_a_missed_set(tmp_path):
    wl = ready(SmallScan, tmp_path)
    inp, res = result_of(wl)
    exp, slack = res["tree"]
    # a report whose worst set is genuine but not the worst one
    graph = inp["tree"][0]
    support = (1,)
    ratio = len(graph.adj[0]) / (graph.d * 1)
    assert ratio > exp.worst_ratio
    fake_exp = dataclasses.replace(exp, worst_support=support, worst_ratio=ratio)
    fake_slack = dataclasses.replace(slack, worst_support=support, min_ratio=ratio)
    problems = wl.check(0, inp, {**res, "tree": (fake_exp, fake_slack)})
    assert any("minimum over sparse sets" in p for p in problems)


def corrupt(monkeypatch, module, name, edit):
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        return edit(original(*args, **kwargs))
    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("cls, module, name, edit", [
    (SmallCertify, verify, "rip1_interval",
     lambda r: dataclasses.replace(r, eps_lo=r.eps_lo + 1e-6) if r.mode == "exact" else r),
    (SmallDecode, recovery, "recover",
     lambda r: dataclasses.replace(r, residual=r.residual * (1 + 1e-6))),
    (SmallScan, verify, "expansion_check",
     lambda r: dataclasses.replace(r, worst_ratio=r.worst_ratio - 1e-6)),
])
def test_corrupted_op_counts_as_failed(cls, module, name, edit, tmp_path, monkeypatch):
    wl = ready(cls, tmp_path)
    corrupt(monkeypatch, module, name, edit)
    records, _ = run.measure(wl, 0.0)
    run.check_records(wl, records)
    assert len(records) == 1 and records[0].problems


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    wl = ready(SmallDecode, tmp_path)

    def boom(*args, **kwargs):
        raise ValueError("injected")
    monkeypatch.setattr(recovery, "recover", boom)
    records, _ = run.measure(wl, 0.0)
    run.check_records(wl, records)
    assert records[0].problems == ["ValueError: injected"]


@pytest.mark.parametrize("cls", [SmallCertify, SmallDecode, SmallScan])
def test_traced_op_matches_and_spans_account_for_it(cls, tmp_path):
    wl = ready(cls, tmp_path)
    tracer = spans.Tracer()
    before = verify.rip1_interval, recovery.recover, models.enumerate_members
    plain, traced = run.measure(wl, 0.0, tracer)
    assert (verify.rip1_interval, recovery.recover, models.enumerate_members) == before
    selfs = spans.self_times(tracer.spans)
    assert all(s >= -1e-9 for s in selfs)
    root = next(i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "bench.op")
    whole = tracer.spans[root][spans.END] - tracer.spans[root][spans.START]
    assert sum(selfs) == pytest.approx(whole, rel=1e-9)
    assert whole <= traced[0].seconds
    fracs = layers.accounted(tracer.spans, selfs, traced)
    assert fracs[0] > run.MIN_ACCOUNTED
    run.check_records(wl, plain)
    run.check_traced(wl, plain, traced, fracs)
    assert not plain[0].problems and not traced[0].problems


def test_generator_spans_count_yields(tmp_path):
    tracer = spans.Tracer()
    model = models.parse_model("block:n=16,k=4,b=2")
    with tracer.installed():
        got = list(models.enumerate_members(model))
    gen = [s for s in tracer.spans if s[spans.NAME] == "models.enumerate_members"]
    # one span per next(), the last one ending in StopIteration
    assert len(gen) == 29 and sum(1 for s in gen if s[spans.INFO]) == len(got) == 28
    # the cap check inside the generator nests under its first next()
    inner = [s for s in tracer.spans if s[spans.NAME] == "models.model_size"]
    assert [tracer.spans[s[spans.PARENT]] for s in inner] == [gen[0]]


def test_solve_min_tableau_shape():
    # 3 variables, 2 inequality rows (one with negative rhs), 1 equality row
    rows, kb = spans._solve_min_info(np.ones(3), np.ones((2, 3)), [1.0, -1.0],
                                     np.ones((1, 3)), [1.0])
    # columns: 3 structural + 2 slack + 2 artificial + rhs; rows: 3 + objective
    assert rows == 3 and kb == 4 * 8 * 8 / 1024


def test_decode_inputs_follow_riplab_bench(tmp_path):
    """The signals and canonical rows are those of ``riplab bench``."""
    wl = ready(SmallDecode, tmp_path, seed=7)
    path = tmp_path / "m.txt"
    fileio.write_matrix(path, wl.mat)
    out = tmp_path / "bench.csv"
    spec = models.format_model(wl.model)
    assert cli.main(["bench", "--matrix", str(path), "--model", spec, "--trials", "2",
                     "--noise", "0.2", "--seed", "7", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:3]
    mine = [wl.canonical(i, wl.op(wl.inputs(i))).strip() for i in range(2)]
    assert rows == mine


def test_decode_matrix_is_a_riplab_build(tmp_path):
    wl = ready(workloads.Decode, tmp_path)
    prefix = tmp_path / "run"
    assert cli.main(["build", "--model", "block:n=32,k=8,b=4", "--eps", "0.25", "--seed", "1",
                     "--out", str(prefix)]) == 0
    assert (tmp_path / "run.matrix.txt").read_text() == fileio.matrix_text(wl.mat)
    assert not list(tmp_path.glob("decode-*"))


def test_tail_needs_ten_ops_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and sum(1 for t in range(20) if t > value) == 10
    assert pct == 50.0


def test_calibrated_op_is_rescaled_by_its_bursts(tmp_path, monkeypatch):
    wl = ready(SmallCertify, tmp_path)
    bursts = iter([0.02, 0.04])
    monkeypatch.setattr(calibrate, "burst", lambda kernel: next(bursts))
    rec = run.calibrated_op(wl, 0)
    ref = calibrate.REF_SECONDS[wl.calibration]
    assert rec.ref_seconds == pytest.approx(rec.seconds * ref / 0.03, rel=1e-12)


@pytest.mark.parametrize("kernel", sorted(calibrate.KERNELS))
def test_calibration_kernels_are_fixed_work(kernel):
    fn = calibrate.KERNELS[kernel]
    assert fn() == fn() and calibrate.burst(kernel) > 0.0
    # the kernels must not depend on riplab, or a riplab change would move them
    assert "riplab" not in calibrate.__dict__
    assert {w.calibration for w in workloads.WORKLOADS.values()} <= set(calibrate.KERNELS)


def test_repeated_input_must_repeat_its_output(tmp_path):
    wl = ready(SmallScan, tmp_path)
    records, _ = run.measure(wl, 0.0)
    records += [run.calibrated_op(wl, i) for i in (1, 2)]
    assert records[-1].index % len(wl.items) == records[0].index
    exp, slack = records[-1].result["tree"]
    records[-1].result = {**records[-1].result,
                          "tree": (dataclasses.replace(exp, checked=exp.checked + 1), slack)}
    run.check_records(wl, records)
    assert [bool(r.problems) for r in records] == [False, False, True]
    assert "same input" in records[-1].problems[0]
