#!/usr/bin/env python3
"""riplab benchmark: closed-loop ``certify``, ``decode`` and ``scan`` workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere; riplab is imported from ``src/`` next to this directory.
One process runs one workload with one client: ops are issued back to back
until ``--seconds`` of op time has been measured, every result is checked
afterwards, outside the timed region, and the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Every
time in them is in reference seconds: each op, and each set-up probe, is
bracketed by bursts of a fixed calibration kernel and rescaled to the
reference speed (see ``calibrate.py``), because the shared host's own speed
drifts by more than the bounds.  Set-up time is the median over several
fresh processes, started between ops at even steps of the run and each timed
from its start until its inputs are ready.  BLAS runs one thread, so each
process puts one thread of load on the host.  ``--trace 1`` alternates
untraced and traced ops
on the same inputs, reports the per-layer metrics (spans around every public
function of the layer modules, see ``spans.py``) and the tracing overhead,
and writes the spans to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    # one thread of load: set before numpy is first imported, inherited by probes
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 5
#: ops whose canonical outputs go into the printed digest
DIGEST_OPS = 4
#: op_tail_s is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10
#: a traced op fails if its spans cover less of its wall time than this
MIN_ACCOUNTED = 0.99


@dataclass
class Record:
    index: int
    seconds: float = 0.0
    ref_seconds: float = 0.0
    result: object = None
    error: str | None = None
    problems: list = field(default_factory=list)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_riplab() -> None:
    """Put this checkout's ``src`` first on the path and make sure that is
    the riplab that gets imported."""
    if not (SRC / "riplab" / "__init__.py").is_file():
        sys.exit(f"riplab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import riplab
    if Path(riplab.__file__).resolve().parent != SRC / "riplab":
        sys.exit(f"imported riplab from {riplab.__file__}, not from {SRC}")


def timed_op(wl, i: int, tracer=None) -> Record:
    rec = Record(i)
    inp = wl.inputs(i)
    if tracer is not None:
        tracer.op = i
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        root = tracer.begin("bench.op") if tracer else None
        try:
            rec.result = wl.op(inp, tracer.span) if tracer else wl.op(inp)
        except Exception:
            rec.error = traceback.format_exc()
        finally:
            if tracer:
                tracer.end(root)
        rec.seconds = perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    return rec


def calibrated_op(wl, i: int) -> Record:
    """``timed_op`` between two calibration bursts, with its time also
    rescaled to the reference speed."""
    before = calibrate.burst(wl.calibration)
    rec = timed_op(wl, i)
    after = calibrate.burst(wl.calibration)
    rec.ref_seconds = calibrate.to_reference(rec.seconds, wl.calibration, before, after)
    return rec


def measure(wl, seconds: float, tracer=None, between=None) -> tuple:
    """Closed loop until ``seconds`` of op time.  Without a tracer every op
    is calibrated; with one, every input runs twice, untraced then traced,
    uncalibrated.  Returns (untraced, traced).  ``between(busy)`` runs before
    each op, outside the timed region."""
    plain, traced = [], []
    busy = 0.0
    i = 0
    while busy < seconds or not plain:
        if between is not None:
            between(busy)
        plain.append(timed_op(wl, i) if tracer else calibrated_op(wl, i))
        busy += plain[-1].seconds
        if tracer is not None:
            traced.append(timed_op(wl, i, tracer))
            busy += traced[-1].seconds
        i += 1
    return plain, traced


def check_records(wl, records: list) -> None:
    """Check every op.  An op that repeats the input of an op which passed
    must give that op's canonical output byte for byte; riplab is
    deterministic, so this is the same check at a fraction of the cost."""
    passed: dict = {}
    for rec in records:
        if rec.error is not None:
            rec.problems.append(rec.error.strip().splitlines()[-1])
            continue
        key = rec.index % len(wl.items)
        if key in passed:
            if wl.canonical(key, rec.result) != passed[key]:
                rec.problems.append(f"output differs from that of the same input in op {key}")
            continue
        try:
            rec.problems.extend(wl.check(rec.index, wl.inputs(rec.index), rec.result))
        except Exception:
            rec.problems.append("check raised: " + traceback.format_exc().strip().splitlines()[-1])
        if not rec.problems:
            passed[key] = wl.canonical(key, rec.result)


def check_traced(wl, plain: list, traced: list, accounted: list) -> None:
    """A traced op must give the untraced op's output byte for byte, and its
    spans must nest and cover its wall time."""
    for base, rec, frac in zip(plain, traced, accounted):
        if rec.error is not None:
            rec.problems.append(rec.error.strip().splitlines()[-1])
        elif base.error is None and wl.canonical(rec.index, rec.result) != wl.canonical(
                base.index, base.result):
            rec.problems.append("traced output differs from the untraced output")
        if frac < MIN_ACCOUNTED:
            rec.problems.append(f"spans account for {frac:.4f} of the op wall time")


def digest(wl, records: list) -> str:
    h = hashlib.sha256()
    for rec in records[:DIGEST_OPS]:
        h.update((wl.canonical(rec.index, rec.result) if rec.error is None else "error\n").encode())
    return h.hexdigest()


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND ops beyond it, or None when there are too few ops."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return sorted(times)[k], 100.0 * (k + 1) / n


def setup_probe(args, kernel: str) -> tuple:
    """(wall, reference) seconds from spawning a fresh process until its
    set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    before = calibrate.burst(kernel)
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return dt, calibrate.to_reference(dt, kernel, before, calibrate.burst(kernel))


def emit(spec_metrics: list, values: dict, records: list) -> None:
    names = [m["name"] for m in spec_metrics]
    if set(names) != set(values):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from declared {names}")
    failed = sum(1 for r in records if r.problems)
    for m in spec_metrics:
        print(f"  {m['name']:<44} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }))


def report_problems(records: list) -> None:
    bad = [r for r in records if r.problems]
    for rec in bad[:3]:
        print(f"op {rec.index} failed: " + "; ".join(rec.problems), file=sys.stderr)
    if len(bad) > 3:
        print(f"... and {len(bad) - 3} more failed ops", file=sys.stderr)


def run_one(args, spec: dict) -> int:
    load_riplab()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0
    head = f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    if args.trace:
        return run_traced(args, spec, wl, head)

    wl.setup()
    setups: list = []

    def between(busy):
        # spread the probes over the run, so they see the same machine as the ops
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_probe(args, wl.calibration))
    records, _ = measure(wl, args.seconds, between=between)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(args, wl.calibration))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_records(wl, records)
    report_problems(records)
    times = [r.ref_seconds for r in records]
    wall = [r.seconds for r in records]
    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "ops_per_s": len(records) / sum(times),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = sum(1 for r in records if r.problems)
    top = tail(times)
    print(f"riplab perfbench: {head}")
    print(f"  ops {len(records)}, fail_frac {failed}/{len(records)} = {failed / len(records)!r}")
    print("  op_tail_s " + (f"{top[0]!r} s (p{top[1]:.1f} of {len(times)} ops)" if top else
                            f"n/a ({len(times)} ops; needs more than {TAIL_BEYOND})"))
    print(f"  calibration kernel {wl.calibration}: wall ops_per_s {len(wall) / sum(wall)!r}, "
          f"wall op_p50_s {statistics.median(wall)!r}, "
          f"median burst over REF {statistics.median(r.seconds / r.ref_seconds for r in records):.3f}")

    print(f"  setup samples (wall, reference) {[(round(w, 4), round(r, 4)) for w, r in setups]} s")
    print(f"  digest sha256:{digest(wl, records)} (canonical outputs of ops 0-{DIGEST_OPS - 1})")
    emit(spec["end_to_end"], values, records)
    return 0


def run_traced(args, spec: dict, wl, head: str) -> int:
    from layers import accounted, layer_metrics
    from spans import Tracer, self_times
    tracer = Tracer()
    with tracer.installed():
        root = tracer.begin("bench.setup")
        wl.setup()
        tracer.end(root)
    plain, traced = measure(wl, args.seconds, tracer)
    check_records(wl, plain)
    check_traced(wl, plain, traced, accounted(tracer.spans, self_times(tracer.spans), traced))
    records = plain + traced
    report_problems(records)
    values = layer_metrics(tracer.spans, traced, plain, wl.distinct_sets())
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = WORKDIR / f"spans-{args.workload}.jsonl"
    tracer.dump(out)
    print(f"riplab perfbench: {head}")
    print(f"  pairs {len(plain)}, {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    print(f"  digest sha256:{digest(wl, plain)} (canonical outputs of ops 0-{DIGEST_OPS - 1})")
    emit(spec["per_layer"], values, records)
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; prints each one's output and a
    combined last line with metrics keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {w['name']} exited {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
