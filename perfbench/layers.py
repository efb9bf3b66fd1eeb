"""Per-layer metrics of a traced run, computed from its spans.

Every ``.s`` metric and every count is per traced op unless its name says
otherwise; ``.ms`` is per call.  The set-up layers (``sketch.sample_graph``,
``sketch.to_matrix``, ``fileio.*``) are totals over the traced set-up, since
that is where the workloads call them.  ``lp.tableau_rows`` and
``lp.tableau_kb`` are computed from the argument shapes of ``lp.solve_min``,
not measured inside it.
"""

from __future__ import annotations

from spans import END, INFO, NAME, OP, PARENT, START, layer_of, self_times

#: layers whose self time is reported (the ops never enter fileio)
SELF_LAYERS = ("bench", "lp", "verify", "recovery", "models", "sketch")


def _regions(spans: list) -> list:
    """Label every span inside the exact certificate's ``rip1_interval`` with
    "exact" and every span inside ``recovery.recover`` with "recover"."""
    out = [None] * len(spans)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if s[NAME] == "recovery.recover":
            out[i] = "recover"
        elif (s[NAME] == "verify.rip1_interval" and parent >= 0
              and spans[parent][NAME] == "bench.certify.exact"):
            out[i] = "exact"
        elif parent >= 0:
            out[i] = out[parent]
    return out


def layer_metrics(spans: list, traced: list, untraced: list, distinct_sets: dict) -> dict:
    """``traced``/``untraced`` are the op records of the paired run;
    ``distinct_sets`` maps a scan half to its number of sparse sets."""
    selfs = self_times(spans)
    region = _regions(spans)
    in_ops = [i for i, s in enumerate(spans) if s[OP] is not None]
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault((s[NAME], s[OP] is None), []).append(i)
    n = len(traced)
    op_time = sum(s[END] - s[START] for s in spans if s[NAME] == "bench.op")

    def dur(i):
        return spans[i][END] - spans[i][START]

    def pick(name, setup=False, parent=None):
        return [i for i in by_name.get((name, setup), [])
                if parent is None or spans[spans[i][PARENT]][NAME] == parent]

    def total(idx):
        return sum((dur(i) for i in idx), 0.0)

    def per_call_ms(idx):
        return 1000.0 * total(idx) / len(idx) if idx else 0.0

    def mean_info(idx, k=None):
        vals = [spans[i][INFO] if k is None else spans[i][INFO][k] for i in idx]
        return sum(vals) / len(vals) if vals else 0.0

    def region_self(reg, layer):
        return sum(selfs[i] for i in in_ops if region[i] == reg and layer_of(spans[i][NAME]) == layer)

    solve = pick("lp.solve_min")
    simplex = pick("lp.min_l1_on_simplex")
    fit = pick("lp.l1_fit")
    exact = pick("verify.rip1_interval", parent="bench.certify.exact")
    recover = pick("recovery.recover")
    enum = pick("models.enumerate_members")
    out = {
        "lp.solve_min.calls": len(solve) / n,
        "lp.solve_min.ms": per_call_ms(solve),
        "lp.solve_min.share": total(solve) / op_time,
        "lp.tableau_rows": mean_info(solve, 0),
        "lp.tableau_kb": mean_info(solve, 1),
        "lp.min_l1_on_simplex.calls": len(simplex) / n,
        "lp.min_l1_on_simplex.ms": per_call_ms(simplex),
        "lp.l1_fit.calls": len(fit) / n,
        "lp.l1_fit.ms": per_call_ms(fit),
        "lp.l1_fit.live_rows": mean_info(fit),
        "verify.rip1_interval.exact.s": total(exact) / n,
        "verify.rip1_interval.exact.self_s": region_self("exact", "verify") / n,
        "verify.faces_per_cert": (sum(1 for i in simplex if region[i] == "exact") / len(exact)
                                  if exact else 0.0),
        "verify.rip1_interval.mc.s":
            total(pick("verify.rip1_interval", parent="bench.certify.mc")) / n,
    }
    for kind in ("tree", "block"):
        half = f"bench.scan.{kind}"
        reports = [r.result[kind] for r in traced if isinstance(r.result, dict)]
        for slot, fn in enumerate(("expansion_check", "generalized_expander_slack")):
            out[f"verify.{fn}.s.{kind}"] = total(pick(f"verify.{fn}", parent=half)) / n
            out[f"verify.{fn}.checked.{kind}"] = sum(r[slot].checked for r in reports) / n
        checked = sum(r[0].checked for r in reports)
        out[f"verify.scan.useful_ratio.{kind}"] = (
            distinct_sets[kind] * len(reports) / checked if checked else 0.0)
    out.update({
        "recovery.recover.s": total(recover) / n,
        "recovery.recover.self_s": region_self("recover", "recovery") / n,
        "recovery.members_tried": (sum(1 for i in fit if region[i] == "recover") / len(recover)
                                   if recover else 0.0),
        "models.enumerate_members.s": total(enum) / n,
        "models.enumerate_members.yielded": sum(1 for i in enum if spans[i][INFO]) / n,
        "models.project.s": total(pick("models.project")) / n,
        "models.random_member.s": total(pick("models.random_member")) / n,
    })
    for name in ("sketch.sample_graph", "sketch.to_matrix", "fileio.write_matrix",
                 "fileio.read_matrix"):
        out[f"{name}.s"] = total(pick(name, setup=True))
    for layer in SELF_LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            selfs[i] for i in in_ops if layer_of(spans[i][NAME]) == layer) / n
    t_traced = sum(r.seconds for r in traced)
    t_plain = sum(r.seconds for r in untraced)
    out["trace.ops_per_s.traced"] = n / t_traced
    out["trace.ops_per_s.untraced"] = len(untraced) / t_plain
    out["trace.overhead"] = t_traced / t_plain - 1.0
    out["trace.accounted_frac"] = min(accounted(spans, selfs, traced))
    return out


def accounted(spans: list, selfs: list, traced: list) -> list:
    """Per traced op: the self times of its spans, summed, over its wall time
    measured outside the spans.  A value near 1 means the spans nest and
    cover the op; nesting errors show as negative self times."""
    by_op: dict = {}
    for i, s in enumerate(spans):
        if s[OP] is not None:
            by_op.setdefault(s[OP], []).append(i)
    out = []
    for r in traced:
        idx = by_op.get(r.index, [])
        if any(selfs[i] < -1e-9 for i in idx):
            out.append(-1.0)
        else:
            out.append(sum(selfs[i] for i in idx) / r.seconds)
    return out
