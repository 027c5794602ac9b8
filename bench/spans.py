"""In-memory span tracer for confhess, installed from outside the package.

``install`` replaces the public functions of each confhess module, and the
evaluation methods of the operator and cone classes, with wrappers that
record one span per call: name, start, end, parent span and op id.  Calls
made inside the package go through the module globals, so nested calls are
traced too.  Nothing under ``src/`` changes; ``uninstall`` restores the
originals.

``layer_metrics`` turns the spans of the timed rounds into the per-layer
metrics listed in ``BENCHMARK.json``.  A span's self time is its duration
minus the durations of its direct children (the code is single-threaded,
so children never overlap).  Every metric is reported per round, so counts
repeat exactly whatever the number of rounds a run fits into its time.
"""

import inspect
import json
import time

# Module name -> span prefix.  Every public function defined in the module
# is wrapped.
MODULES = {
    "_poly": "poly",
    "cones": "cones",
    "symfun": "symfun",
    "radial_solver": "solver",
    "conformal": "conformal",
    "diagnostics": "diagnostics",
}
OPERATOR_METHODS = ("value", "gradient", "hessian_quadform", "admissible")
CONE_METHODS = ("contains",)
UNTIMED = -1


def _rows(arr):
    """Number of tuples in a batch whose trailing axis holds the tuple."""
    shape = getattr(arr, "shape", None)
    if not shape:
        return 1
    rows = 1
    for d in shape[:-1]:
        rows *= d
    return rows


class Tracer:
    """Span store.  A span is ``[name, start_ns, end_ns, parent, op, attr]``."""

    UNTIMED = UNTIMED

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = UNTIMED
        self.rounds = []          # summed op time of every timed round, in s
        self._patched = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, attr_of=None, result_attr=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.op,
                    attr_of(args) if attr_of else None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if result_attr is not None:
                span[5] = result_attr(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        import confhess

        for modname, prefix in MODULES.items():
            mod = getattr(confhess, modname)
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                attr_of = result_attr = None
                if modname == "cones" and fname == "boundary_shift":
                    attr_of = lambda a: _rows(a[1])
                if modname == "radial_solver" and fname == "newton_solve":
                    # accepted line-search trials = accepted Newton steps
                    result_attr = lambda out: len(out.history) - 1
                self._patch(mod, fname, self.wrap(f"{prefix}.{fname}", fn,
                                                  attr_of, result_attr))
        # The banded solve is scipy's, bound as a radial_solver global.
        solver = confhess.radial_solver
        self._patch(solver, "solve_banded",
                    self.wrap("solver.solve_banded", solver.solve_banded))

        for cls in vars(confhess.symfun).values():
            if inspect.isclass(cls) and issubclass(cls, confhess.symfun.CurvatureOperator):
                for meth in OPERATOR_METHODS:
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self.wrap(
                            f"symfun.{meth}", cls.__dict__[meth],
                            lambda a: a[0].descriptor().partition(":")[0]))
        for cls in vars(confhess.cones).values():
            if inspect.isclass(cls) and cls.__module__ == confhess.cones.__name__:
                for meth in CONE_METHODS:
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self.wrap(
                            f"cones.{meth}", cls.__dict__[meth], lambda a: _rows(a[1])))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                            "op", "attr"],
                                 "rounds": self.rounds}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _aggregate(spans):
    """Per-name totals over the spans of timed ops."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p]
            p = spans[p][3]

    calls, incl, self_ns = {}, {}, {}
    shift_rows = contains_rows = contains_under_shift = 0
    heads = {}
    steps = margin_calls = solves = accepted = 0
    shift_outer_ns = 0
    for i, s in enumerate(spans):
        if s[4] == UNTIMED:
            continue
        name, dur = s[0], s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child[i]
        names_above = [a[0] for a in ancestors(i)]
        if name == "cones.boundary_shift":
            shift_rows += s[5]
            if "cones.boundary_shift" not in names_above:
                shift_outer_ns += dur
        elif name == "cones.contains":
            contains_rows += s[5]
            if "cones.boundary_shift" in names_above:
                contains_under_shift += s[5]
        elif name.startswith("symfun.") and name[7:] in OPERATOR_METHODS:
            if not any(a.startswith("symfun.") and a[7:] in OPERATOR_METHODS
                       for a in names_above):
                heads[s[5]] = heads.get(s[5], 0) + dur
        elif name == "solver.newton_solve":
            solves += 1
            accepted += s[5] or 0     # None if the solve raised
        if "solver.newton_solve" in names_above:
            if name == "solver.jacobian":
                steps += 1
            elif name == "solver.admissibility_margins" \
                    and names_above[0] == "solver.newton_solve":
                margin_calls += 1
    return {
        "calls": calls, "incl": incl, "self": self_ns, "heads": heads,
        "shift_rows": shift_rows, "contains_rows": contains_rows,
        "contains_under_shift": contains_under_shift,
        "shift_outer_ns": shift_outer_ns,
        "steps": steps, "trials": margin_calls - solves, "accepted": accepted,
    }


def layer_metrics(tracer, import_ms, inputs_ms):
    """The per-layer metrics of one traced run, each per timed round."""
    agg = _aggregate(tracer.spans)
    rounds = max(len(tracer.rounds), 1)
    round_ns = 1e9 * sum(tracer.rounds)

    def count(value):
        return {"value": value / rounds, "unit": "count"}

    def ms(ns):
        return {"value": ns / rounds / 1e6, "unit": "ms"}

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    def self_ms(name):
        return ms(agg["self"].get(name, 0))

    def incl_ms(name):
        return ms(agg["incl"].get(name, 0))

    def calls(name):
        return count(agg["calls"].get(name, 0))

    out = {
        "setup.import_ms": {"value": import_ms, "unit": "ms"},
        "setup.inputs_ms": {"value": inputs_ms, "unit": "ms"},
        "poly.elementary_all.calls": calls("poly.elementary_all"),
        "poly.elementary_all.self_ms": self_ms("poly.elementary_all"),
        "poly.elementary_excluding.self_ms": self_ms("poly.elementary_excluding"),
        "poly.elementary_excluding_pair.self_ms": self_ms("poly.elementary_excluding_pair"),
        "poly.complete_homogeneous_all.self_ms": self_ms("poly.complete_homogeneous_all"),
        "cones.boundary_shift.calls": calls("cones.boundary_shift"),
        "cones.boundary_shift.rows": count(agg["shift_rows"]),
        "cones.boundary_shift.self_ms": self_ms("cones.boundary_shift"),
        "cones.boundary_shift.wall_share": ratio(agg["shift_outer_ns"], round_ns),
        "cones.contains.rows": count(agg["contains_rows"]),
        "cones.contains.self_ms": self_ms("cones.contains"),
        "cones.contains_per_shift_row": ratio(agg["contains_under_shift"],
                                              agg["shift_rows"]),
        "cones.sample_cone.ms": incl_ms("cones.sample_cone"),
        "cones.gamma_sigma_inclusion_test.ms": incl_ms("cones.gamma_sigma_inclusion_test"),
    }
    for meth in OPERATOR_METHODS:
        out[f"symfun.{meth}.self_ms"] = self_ms(f"symfun.{meth}")
    out["symfun.verify_axioms.self_ms"] = self_ms("symfun.verify_axioms")
    for head in ("sigma-root", "quotient", "pucci", "inv-power", "inv-monomial", "ricci"):
        out[f"symfun.op.{head}.ms"] = ms(agg["heads"].get(head, 0))
    out.update({
        "solver.newton_steps": count(agg["steps"]),
        "solver.line_search.trials": count(agg["trials"]),
        "solver.line_search.accept_ratio": ratio(agg["accepted"], agg["trials"]),
        "solver.residual.self_ms": self_ms("solver.residual"),
        "solver.jacobian.self_ms": self_ms("solver.jacobian"),
        "solver.admissibility_margins.self_ms": self_ms("solver.admissibility_margins"),
        "solver.node_eigentuples.self_ms": self_ms("solver.node_eigentuples"),
        "solver.solve_banded.ms": incl_ms("solver.solve_banded"),
        "conformal.schouten_eigs.calls": calls("conformal.schouten_eigs"),
        "conformal.schouten_eigs.self_ms": self_ms("conformal.schouten_eigs"),
        "conformal.gauge_convert.calls": calls("conformal.gauge_convert"),
        "conformal.conformal_hessian_matrix.self_ms":
            self_ms("conformal.conformal_hessian_matrix"),
        "diagnostics.bishop_gromov_curve.self_ms": self_ms("diagnostics.bishop_gromov_curve"),
        "diagnostics.adaptive_simpson.calls": calls("diagnostics.adaptive_simpson"),
        "diagnostics.adaptive_simpson.self_ms": self_ms("diagnostics.adaptive_simpson"),
        "diagnostics.gradient_monitor.ms": incl_ms("diagnostics.gradient_monitor"),
        "diagnostics.hessian_monitor.ms": incl_ms("diagnostics.hessian_monitor"),
        "diagnostics.oscillation_on_ball.ms": incl_ms("diagnostics.oscillation_on_ball"),
    })
    return out
