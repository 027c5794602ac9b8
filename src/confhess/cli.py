"""Command-line front end.

Every library operation is exposed as a subcommand, declared by one row of
``_COMMANDS``: its name, help, handler and argument groups.

Outputs are deterministic: the sampling seed defaults to the documented
constant ``DEFAULT_SEED`` (overridden by the ``CHL_SEED`` environment
variable or ``--seed``), and floating-point values are serialized with 17
significant digits so reruns are byte-identical.

Exit codes: 0 success, 1 domain/admissibility error, 2 numeric failure
(running out of memory included), 3 usage error.
"""

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from . import cones, conformal, diagnostics, radial_solver, symfun
from .errors import _QUIET, DomainError, NumericError, UsageError, parse_descriptor

#: Default sampling seed used when neither --seed nor CHL_SEED is given.
DEFAULT_SEED = 12345

_FLOAT_FMT = ".17g"


def _fmt(x):
    return format(float(x), _FLOAT_FMT)


def _json_dumps(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _csv_lines(header, rows):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt(x) if isinstance(x, (float, np.floating)) else str(x)
                            for x in row))
    return "\n".join(out)


def _write(args, text):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:      # a missing directory, or no permission
            raise UsageError(f"cannot write --out '{args.out}': {exc}") from exc
    else:
        print(text)


def _emit(args, payload, text_lines=None, csv_data=None):
    if args.format == "json":
        _write(args, _json_dumps(payload))
    elif args.format == "csv":
        if csv_data is None:
            raise UsageError("this subcommand has no CSV form")
        _write(args, _csv_lines(*csv_data))
    else:
        lines = text_lines if text_lines is not None else [_json_dumps(payload)]
        _write(args, "\n".join(lines))


def _parse_floats(text, what="list"):
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise UsageError(f"could not parse {what} '{text}': {exc}") from exc


def _seed(args):
    seed, source, env = args.seed, "--seed", os.environ.get("CHL_SEED")
    if seed is None and env is not None:
        try:
            seed, source = int(env), "CHL_SEED"
        except ValueError as exc:
            raise UsageError(f"CHL_SEED must be an integer, got '{env}'") from exc
    if seed is not None and seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return DEFAULT_SEED if seed is None else seed


def _background(args, n):
    return parse_descriptor(args.background, "background", {
        "flat": ((), lambda f: conformal.FlatBackground(n)),
        "sphere": (("a",), lambda f: conformal.SphereBackground(
            n, radius=float(f.get("a", 1.0)))),
    })


def _profile(args, n):
    background = _background(args, n)
    if args.profile_file:
        return conformal.load_radial_profile(args.profile_file, n, gauge=args.gauge,
                                             background=background)
    if not args.profile:
        raise UsageError("one of --profile or --profile-file is required")
    return conformal.parse_profile(args.profile, n, gauge=args.gauge, background=background)


#: The config field that each solver flag overrides, by the flag's dest.
_OVERRIDES = {"grid": "grid", "p": "exponent_p", "rhs": "rhs"}


def _solver_config(args):
    given = {field: getattr(args, flag) for flag, field in _OVERRIDES.items()
             if getattr(args, flag) is not None}
    return dataclasses.replace(radial_solver.SolverConfig.from_json(args.config), **given)


def _point(args):
    x = _parse_floats(args.x, "--x")
    if x.size != args.n or not np.all(np.isfinite(x)):
        raise UsageError(f"--x must be {args.n} finite numbers, got '{args.x}'")
    return x


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    spec = symfun.parse_operator(args.op, args.n)
    lam = _parse_floats(args.lam, "--lambda")
    value = float(symfun.eval_op(spec, lam))
    _emit(args, {"operator": spec.descriptor(), "n": args.n,
                 "lambda": [float(t) for t in lam], "value": value},
          text_lines=[_fmt(value)])
    return 0


def _cmd_grad(args):
    spec = symfun.parse_operator(args.op, args.n)
    lam = _parse_floats(args.lam, "--lambda")
    grad, smooth = symfun.grad_op(spec, lam, return_smooth=True)
    _emit(args, {"operator": spec.descriptor(), "n": args.n,
                 "lambda": [float(t) for t in lam],
                 "gradient": [float(t) for t in grad], "smooth": bool(smooth)},
          text_lines=[",".join(_fmt(t) for t in grad)])
    return 0


def _cmd_axioms(args):
    spec = symfun.parse_operator(args.op, args.n)
    report = symfun.verify_axioms(spec, args.samples, _seed(args))
    lines = [f"operator {report.operator}  n={report.n}  samples={report.samples}"]
    for key, count in report.violations.items():
        lines.append(f"  {key}: {count} violations (worst {_fmt(report.worst[key])})")
    lines.append(f"total violations: {report.total_violations}")
    _emit(args, report.to_dict(), text_lines=lines)
    return 0


def _cmd_cone(args):
    cone = cones.parse_cone(args.cone, args.n)
    lam = _parse_floats(args.lam, "--lambda")
    shift = float(cones.boundary_shift(cone, lam))
    violation = cones.cone_violation(cone, lam)
    inside = violation is None
    payload = {"cone": cone.descriptor(), "lambda": [float(t) for t in lam],
               "inside": inside, "violation": violation, "boundary_shift": shift}
    text = (f"inside (margin {_fmt(-shift)})" if inside else f"outside ({violation})")
    _emit(args, payload, text_lines=[text])
    return 0 if inside else 1


def _cmd_inclusion(args):
    report = cones.gamma_sigma_inclusion_test(args.k, args.n, args.samples, _seed(args))
    text = (f"gamma k={report.k} n={report.n} -> sigma delta={_fmt(report.delta)}: "
            f"{report.violations} violations in {report.samples} samples "
            f"(worst margin {_fmt(report.worst_margin)})")
    _emit(args, report.to_dict(), text_lines=[text])
    return 0


def _cmd_schouten(args):
    prof = _profile(args, args.n)
    x = _point(args)
    eigs = conformal.schouten_eigs(prof, x)
    _emit(args, {"n": args.n, "gauge": prof.gauge, "x": [float(t) for t in x],
                 "eigenvalues": [float(t) for t in eigs]},
          text_lines=[",".join(_fmt(t) for t in eigs)])
    return 0


def _cmd_kelvin(args):
    prof = _profile(args, args.n)
    transform = conformal.kelvin(prof)
    x = _point(args)
    with np.errstate(**_QUIET):
        val, y = float(transform.value(x)), x / float(x @ x)
    eigs = conformal.schouten_eigs(transform, x)
    src = conformal.schouten_eigs(prof, y)
    if not np.isfinite(val):
        raise NumericError("Kelvin transform value leaves the float range")
    _emit(args, {"n": args.n, "x": [float(t) for t in x], "value": val,
                 "eigenvalues": [float(t) for t in eigs],
                 "source_eigenvalues": [float(t) for t in src]},
          text_lines=[_fmt(val), ",".join(_fmt(t) for t in eigs)])
    return 0


def _cmd_solve(args):
    cfg = _solver_config(args)
    result = radial_solver.newton_solve(cfg)
    payload = {"config": cfg.to_dict(), "result": result.to_dict()}
    lines = [f"converged: {result.converged} after {result.newton_steps} Newton steps",
             f"status: {result.message}",
             f"residual max-norm: {_fmt(result.residual_norm)}",
             f"worst admissibility margin: {_fmt(float(np.min(-result.margins)))}"]
    if args.profile_out:
        result.save_profile(args.profile_out)
        lines.append(f"profile written to {args.profile_out}")
    _emit(args, payload, text_lines=lines,
          csv_data=(["r", "v"], list(zip(result.r, result.v))))
    return 0 if result.converged else 2


def _cmd_continue_p(args):
    cfg = _solver_config(args)
    schedule = [float(t) for t in _parse_floats(args.p_schedule, "--p-schedule")]
    results = radial_solver.continuation_p(cfg, schedule)
    dists = [float(np.max(np.abs(a.v - b.v))) for a, b in zip(results, results[1:])]
    payload = {"config": cfg.to_dict(), "schedule": schedule[:len(results)],
               "converged": [r.converged for r in results],
               "sup_distances": dists,
               "results": [r.to_dict() for r in results]}
    lines = [f"p={_fmt(p)}: converged={r.converged} steps={r.newton_steps}"
             for p, r in zip(schedule, results)]
    _emit(args, payload, text_lines=lines)
    return 0 if all(r.converged for r in results) else 2


def _cmd_converge(args):
    cfg = _solver_config(args)
    exact = conformal.parse_profile(args.exact, cfg.n)
    study = radial_solver.convergence_study(cfg, args.refinements, exact)
    lines = [f"N={g}: sup-error {_fmt(e)}" for g, e in study.levels]
    lines += [f"orders: {', '.join(_fmt(o) for o in study.orders)}"]
    _emit(args, {"config": cfg.to_dict(), **study.to_dict()}, text_lines=lines,
          csv_data=(["grid", "sup_error"], study.levels))
    return 0


def _cmd_monitor(args):
    prof = _profile(args, args.n)
    fn = diagnostics.gradient_monitor if args.kind == "grad" else diagnostics.hessian_monitor
    mon = fn(prof, args.radius, num_samples=args.samples)
    text = (f"{mon.kind} monitor on ball r={_fmt(mon.radius)}: sup {_fmt(mon.supremum)} "
            f"at |x|={_fmt(mon.location)} ({mon.direction})")
    _emit(args, mon.to_dict(), text_lines=[text])
    return 0


def _cmd_bishop_gromov(args):
    prof = _profile(args, args.n)
    radii = _parse_floats(args.radii, "--radii")
    curve = diagnostics.bishop_gromov_curve(prof, radii)
    _emit(args, curve.to_dict(),
          text_lines=[f"r={_fmt(r)}  Q={_fmt(q)}" for r, q in curve.rows()],
          csv_data=(["r", "Q"], curve.rows()))
    return 0


def _cmd_harnack(args):
    beta = diagnostics.harnack_beta(args.delta, args.n)     # checked before the file is read
    payload = {"delta": args.delta, "n": args.n, "beta": beta}
    lines = [f"beta = {_fmt(beta)}"]
    if args.samples_file:
        data = conformal.load_table(args.samples_file, "samples file")
        payload = diagnostics.harnack_report(args.delta, args.n, data[:, :-1],
                                             data[:, -1]).to_dict()
        lines.append(f"sampled Holder seminorm = {_fmt(payload['seminorm'])}")
    _emit(args, payload, text_lines=lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -0.5,1,1 is a value: no option of this parser starts with -<number>
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


#: Argument groups, as (flag, add_argument keywords) pairs.
_N = ("--n", {"type": int, "required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "required": True})
_OPERATOR = (("--op", {"required": True}), _N)
_POINT = (("--x", {"required": True}),)
_PROFILE = (("--profile", {"help": "catalog descriptor, e.g. bubble:scale=1"}),
            ("--profile-file", {"help": "two-column (r, v) text file"}),
            ("--gauge", {"choices": conformal.GAUGES, "default": "v"}),
            ("--background", {"default": "flat", "help": "flat or sphere:a=R"}), _N)
_SOLVER = (("--config", {"required": True, "help": "SolverConfig JSON document"}),
           ("--grid", {"type": int, "help": "override the grid size"}),
           ("--p", {"type": float, "help": "override the exponent p"}),
           ("--rhs", {"type": float, "help": "override the constant rhs"}))
_OUTPUT = (("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
           ("--out", {"help": "write output to this path instead of stdout"}))
_SAMPLED = _OUTPUT + (("--seed", {"type": int, "default": None,
                                  "help": f"sampling seed (default CHL_SEED or {DEFAULT_SEED})"}),)

#: One row per subcommand: name, help, handler and its arguments in help order.
_COMMANDS = (
    ("eval", "evaluate an operator at an eigenvalue tuple", _cmd_eval,
     (*_OPERATOR, _LAMBDA, *_OUTPUT)),
    ("grad", "analytic gradient of an operator", _cmd_grad, (*_OPERATOR, _LAMBDA, *_OUTPUT)),
    ("axioms", "sampled verification of the operator axioms", _cmd_axioms,
     (*_OPERATOR, ("--samples", {"type": int, "default": 10000}), *_SAMPLED)),
    ("cone", "cone membership and boundary shift", _cmd_cone,
     (("--cone", {"required": True}), _N, _LAMBDA, *_OUTPUT)),
    ("inclusion", "sampled Garding-cone inclusion test", _cmd_inclusion,
     (("--k", {"type": int, "required": True}), _N,
      ("--samples", {"type": int, "default": 100000}), *_SAMPLED)),
    ("schouten", "Schouten eigenvalues of a profile at a point", _cmd_schouten,
     (*_PROFILE, *_POINT, *_OUTPUT)),
    ("kelvin", "Kelvin transform evaluation and eigenvalues", _cmd_kelvin,
     (*_PROFILE, *_POINT, *_OUTPUT)),
    ("solve", "damped Newton solve of the radial BVP", _cmd_solve,
     (*_SOLVER, ("--profile-out", {"help": "write the solved (r, v) profile here"}), *_OUTPUT)),
    ("continue-p", "warm-started sweep over the exponent p", _cmd_continue_p,
     (*_SOLVER, ("--p-schedule", {"required": True, "help": "comma-separated exponents"}),
      *_OUTPUT)),
    ("converge", "grid-refinement study against an exact profile", _cmd_converge,
     (*_SOLVER, ("--refinements", {"type": int, "default": 3}),
      ("--exact", {"required": True, "help": "exact-solution profile descriptor"}), *_OUTPUT)),
    ("monitor", "gradient or Hessian estimate monitor", _cmd_monitor,
     (*_PROFILE, ("--kind", {"choices": ("grad", "hess"), "default": "grad"}),
      ("--radius", {"type": float, "required": True}),
      ("--samples", {"type": int, "default": diagnostics.RADIAL_SCAN}), *_OUTPUT)),
    ("bishop-gromov", "geodesic/Euclidean ball volume ratios", _cmd_bishop_gromov,
     (*_PROFILE, ("--radii", {"required": True, "help": "comma-separated radii"}), *_OUTPUT)),
    ("harnack", "Harnack exponent and sampled Holder seminorm", _cmd_harnack,
     (("--delta", {"type": float, "required": True}), _N,
      ("--samples-file", {"help": "text table: point columns plus value column"}), *_OUTPUT)),
)


def build_parser():
    parser = _Parser(prog="confhess",
                     description="Conformally invariant curvature operators: "
                                 "evaluation, cones, Schouten algebra, radial solver, "
                                 "diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, MemoryError) as exc:     # also an input too large for memory
        print(f"numeric failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
