"""Command line harness: plan, build, verify, sparsify, recover, bench, bounds.

Every command is deterministic for a fixed seed and writes plain text/CSV,
so reruns are byte-identical.  Exit codes: 0 ok, 2 input error (including
unreadable or malformed files), 3 cap or resource exceeded, 4 certification
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, fileio, models, recovery, sketch, verify
from .errors import (CapError, CertificationError, InputError, RiplabError)
from .sparsify import model_sparsify


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_from_args(args) -> models.Model:
    if args.model and ":" in args.model:
        base = models.parse_model(args.model)
        n = args.n if args.n is not None else base.n
        k = args.k if args.k is not None else base.k
        b = args.b if args.b is not None else base.b
        return models.Model(base.kind, n, k, b)
    if not args.model:
        raise InputError("--model is required (kind or kind:n=..,k=..[,b=..])")
    if args.n is None or args.k is None:
        raise InputError("--n and --k are required when --model only names a kind")
    return models.Model(args.model, args.n, args.k, args.b)


def _apply_config(args) -> None:
    """Fill unset args from a JSON config file; explicit flags win."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"config file {args.config}: expected a JSON object")
    for key, value in data.items():
        key = key.replace("-", "_")
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _expansion_mode(model: models.Model, cap: int) -> str:
    work = models.model_size(model) * (2 ** model.k)
    return "exact" if work <= cap else "monte-carlo"


# -- commands -------------------------------------------------------------------

def cmd_plan(args) -> int:
    model = _model_from_args(args)
    if args.eps is None:
        raise InputError("--eps is required")
    plan = sketch.plan_params(model, args.eps, c_d=args.c_d, c_m=args.c_m)
    lines = ["kind,n,k,b,eps,l,d,m,c_d,c_m"]
    lines.append(",".join([
        model.kind, str(model.n), str(model.k),
        str(model.b) if model.b is not None else "",
        _fmt(args.eps), _fmt(plan.l), str(plan.d), str(plan.m),
        _fmt(plan.c_d), _fmt(plan.c_m)]))
    lines.append(_bound_comparison(model, plan))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _bound_comparison(model: models.Model, plan: sketch.PlanParams) -> str:
    try:
        if model.kind == "block" and model.b >= 2:
            value = bounds.evaluate("block-lower", n=model.n, k=model.k, b=model.b)
            kind = "block-lower"
        elif model.kind == "tree":
            value = bounds.evaluate("tree-lower", n=model.n, k=model.k)
            kind = "tree-lower"
        else:
            # classic unstructured shape: general-lower at l = 1
            value = bounds.evaluate("general-lower", n=model.n, k=model.k, l=1)
            kind = "general-lower"
    except InputError:
        return "# no lower-bound evaluator applies at these parameters"
    return f"# planned m={plan.m} vs {kind}(constant=1)={_fmt(value)}"


def cmd_build(args) -> int:
    model = _model_from_args(args)
    if args.eps is None:
        raise InputError("--eps is required")
    if args.out is None:
        raise InputError("--out PREFIX is required for build")
    if args.retries < 1:
        raise InputError("--retries must be at least 1")
    plan = sketch.plan_params(model, args.eps, c_d=args.c_d, c_m=args.c_m)
    if plan.m < plan.d:
        raise InputError(f"planned m={plan.m} below d={plan.d}")
    mode = _expansion_mode(model, args.cap)
    report = None
    attempt = -1
    for attempt in range(args.retries):
        seed = args.seed + attempt
        graph = sketch.sample_graph(model.n, plan.m, plan.d, seed=seed)
        report = verify.expansion_check(graph, model, args.eps, mode=mode,
                                        cap=args.cap, samples=args.samples,
                                        seed=args.seed)
        if report.ok:
            fileio.write_graph(args.out + ".graph.txt", graph)
            fileio.write_matrix(args.out + ".matrix.txt", sketch.to_matrix(graph))
            cert = _build_certificate(model, args.eps, plan, seed, attempt, report)
            with open(args.out + ".cert.txt", "w", newline="\n") as fh:
                fh.write(cert)
            sys.stdout.write(cert)
            return 0
    worst = models.format_support(report.worst_support) if report.worst_support else "-"
    raise CertificationError(
        f"no verified graph within {args.retries} attempts "
        f"(last worst ratio {report.worst_ratio:.6f} on set {worst})")


def _build_certificate(model, eps, plan, seed, attempt, report) -> str:
    worst = (models.format_support(report.worst_support)
             if report.worst_support else "-")
    return "".join([
        f"model: {models.format_model(model)}\n",
        f"eps: {_fmt(eps)}\n",
        f"l: {_fmt(plan.l)}\n",
        f"d: {plan.d}\n",
        f"m: {plan.m}\n",
        f"seed: {seed}\n",
        f"attempt: {attempt}\n",
        f"mode: {report.mode}\n",
        "expander: true\n",
        f"worst_ratio: {_fmt(report.worst_ratio)}\n",
        f"worst_set: {worst}\n",
    ])


def cmd_verify(args) -> int:
    model = _model_from_args(args)
    if args.graph and args.matrix:
        raise InputError("pass either --graph or --matrix, not both")
    if args.graph:
        graph = fileio.read_graph(args.graph)
        if args.eps is None:
            raise InputError("--eps is required for expansion checks")
        mode = args.mode or _expansion_mode(model, args.cap)
        report = verify.expansion_check(graph, model, args.eps, mode=mode,
                                        cap=args.cap, samples=args.samples,
                                        seed=args.seed)
        worst = models.format_support(report.worst_support) if report.worst_support else "-"
        text = ("ok,worst_ratio,worst_set,mode,checked\n"
                f"{str(report.ok).lower()},{_fmt(report.worst_ratio)},"
                f"\"{worst}\",{report.mode},{report.checked}\n")
        _emit(text, args.out)
        return 0 if report.ok else 4
    if not args.matrix:
        raise InputError("verify needs --graph or --matrix")
    mat = fileio.read_matrix(args.matrix)
    if args.mode in (None, "auto"):
        lps = models.model_size(model) * (2 ** (model.k - 1))
        mode = "exact" if lps <= args.cap else "monte-carlo"
    else:
        mode = args.mode
    if args.doubled:
        report = recovery.rip_for_recovery(mat, model, mode=mode, cap=args.cap,
                                           samples=args.samples, seed=args.seed)
    else:
        report = verify.rip1_interval(mat, model, mode=mode, cap=args.cap,
                                      samples=args.samples, seed=args.seed)
    _emit(fileio.rip_certificate_text(report), args.out)
    if args.eps is not None:
        certified = report.eps_hi if report.eps_hi != math.inf else report.eps_lo
        if certified > args.eps:
            return 4
    return 0


def cmd_sparsify(args) -> int:
    model = _model_from_args(args)
    if args.eps_in is None:
        raise InputError("--eps-in (the certified RIP constant) is required")
    if args.out is None:
        raise InputError("--out PREFIX is required for sparsify")
    mat = fileio.read_matrix(args.matrix)
    outcome, l = model_sparsify(mat, model, args.eps_in)
    fileio.write_matrix(args.out + ".matrix.txt", outcome.b)
    rows = ["column,perturbation,nnz,kept"]
    for i, col in enumerate(outcome.covered_columns):
        rows.append(f"{col},{_fmt(outcome.covered_perturbation[i])},"
                    f"{outcome.covered_nnz[i]},{str(bool(outcome.kept_mask[i])).lower()}")
    with open(args.out + ".columns.csv", "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    summary = ("kept,covered,l,perturbation_limit,nnz_limit\n"
               f"{len(outcome.kept_columns)},{len(outcome.covered_columns)},{l},"
               f"{_fmt(outcome.perturbation_limit)},{outcome.nnz_limit}\n")
    sys.stdout.write(summary)
    return 0


def _result_row(trial, result) -> str:
    if result.ratio is None:
        ratio = ""
    elif result.exact:
        ratio = "exact"
    elif result.ratio == math.inf:
        ratio = "inf"
    else:
        ratio = _fmt(result.ratio)
    opt = "" if result.opt_error is None else _fmt(result.opt_error)
    support = models.format_support(result.support) if result.support else ""
    return f"{trial},{_fmt(result.residual)},{opt},{ratio},\"{support}\""


def cmd_recover(args) -> int:
    model = _model_from_args(args)
    mat = fileio.read_matrix(args.matrix)
    if args.signal:
        x = fileio.read_vector(args.signal)
        if x.size != model.n:
            raise InputError(f"signal has {x.size} entries, model has n={model.n}")
        y = mat.a @ x
        result = recovery.recover(mat, y, model, cap=args.cap, x_true=x)
    elif args.measurements:
        y = fileio.read_vector(args.measurements)
        result = recovery.recover(mat, y, model, cap=args.cap)
    else:
        raise InputError("recover needs --signal (truth vector) or --measurements")
    text = "trial,residual,opt_error,ratio,support\n" + _result_row(0, result) + "\n"
    _emit(text, args.out)
    return 0


def _gen_signal(model: models.Model, rng: np.random.Generator, noise: float) -> np.ndarray:
    member = models.random_member(model, rng)
    idx = np.asarray(member, dtype=int) - 1
    x = np.zeros(model.n)
    x[idx] = (rng.integers(0, 2, size=idx.size) * 2.0 - 1.0) * (1.0 + rng.random(idx.size))
    if noise > 0.0:
        bump = rng.standard_normal(model.n)
        x += noise * float(np.abs(x).sum()) * bump / float(np.abs(bump).sum())
    return x


def cmd_bench(args) -> int:
    model = _model_from_args(args)
    mat = fileio.read_matrix(args.matrix)
    trials = args.trials if args.trials is not None else 10
    rng = np.random.default_rng(args.seed)
    rows = ["trial,residual,opt_error,ratio,support"]
    worst = None
    all_exact = True
    for trial in range(trials):
        x = _gen_signal(model, rng, args.noise)
        y = mat.a @ x
        result = recovery.recover(mat, y, model, cap=args.cap, x_true=x)
        rows.append(_result_row(trial, result))
        if not result.exact:
            all_exact = False
            if result.ratio is not None and result.ratio != math.inf:
                worst = result.ratio if worst is None else max(worst, result.ratio)
    if trials > 0:
        if all_exact:
            rows.append("max_ratio,,,exact,")
        elif worst is None:
            rows.append("max_ratio,,,inf,")
        else:
            rows.append(f"max_ratio,,,{_fmt(worst)},")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_bounds(args) -> int:
    params = {}
    for item in args.param or []:
        key, _, val = item.partition("=")
        if not _:
            raise InputError(f"--param needs key=value, got {item!r}")
        params[key.strip()] = float(val)
    value = bounds.evaluate(args.kind, constant=args.constant, **params)
    blob = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))
    _emit(f"kind,params,value\n{args.kind},\"{blob}\",{_fmt(value)}\n", args.out)
    return 0


# -- argument plumbing -----------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="kind or kind:n=..,k=..[,b=..]")
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--b", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out")
    parser.add_argument("--cap", type=int, default=verify.DEFAULT_WORK_CAP)
    parser.add_argument("--retries", type=int, default=20)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--config", help="JSON file with defaults; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riplab",
        description="model-based RIP-1 matrices: plan, build, verify, sparsify, recover")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="degree/row planning for a model")
    _add_common(p)
    p.add_argument("--c-d", type=float, default=2.0)
    p.add_argument("--c-m", type=float, default=2.0)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("build", help="sample, verify and write a measurement matrix")
    _add_common(p)
    p.add_argument("--c-d", type=float, default=2.0)
    p.add_argument("--c-m", type=float, default=2.0)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="expansion or RIP certificates for files")
    _add_common(p)
    p.add_argument("--graph")
    p.add_argument("--matrix")
    p.add_argument("--mode", choices=["auto", "exact", "monte-carlo", "mc"])
    p.add_argument("--doubled", action="store_true",
                   help="verify over unions of two members (recovery precondition)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sparsify", help="column-sparsify a certified matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--eps-in", type=float)
    p.set_defaults(fn=cmd_sparsify)

    p = sub.add_parser("recover", help="exhaustive model-based l1 recovery")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--signal", help="truth vector file; measurements are A@x")
    p.add_argument("--measurements", help="measurement vector file")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("bench", help="recovery trials with generated signals")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--noise", type=float, default=0.0,
                   help="l1 noise fraction added to model-sparse signals")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("bounds", help="evaluate one closed-form bound")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=list(bounds.KINDS))
    p.add_argument("--param", action="append", help="key=value; repeatable")
    p.add_argument("--constant", type=float, default=1.0)
    p.set_defaults(fn=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        code = args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RiplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
