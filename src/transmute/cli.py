"""Command-line driver.

Subcommands:
  catalog list / catalog show NAME   browse the built-in cases
  verify                             run the existence conditions
  apply                              evaluate T f0 and compare with f1
  solve                              march the characteristic lattice

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/config
error, 3 numerical failure.

Reports are deterministic; JSON carries a timestamp unless
--no-timestamp is given, and floats are rendered with 17 significant
digits (the stock serializer cannot be pinned down that way, so the
emitter here is hand-rolled).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__, conditions, goursat, kernels, quadrature
from .errors import (
    AdmissibilityError,
    ExpressionError,
    TransmuteError,
    UsageError,
)
from .expr import Num, evaluate, parse as parse_expr
from .kernels import COEFFICIENT_NAMES
from .operators import DifferentialOperator

_SECTIONS = ("case", "operatora", "operatorb", "solver")


def _json_dump(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_json_dump(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{pad}  {_json_dump(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, int):
        return str(value)
    return json.dumps(str(value))


def _parse_params(text):
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise UsageError(f"--params entries must look like name=value, got {chunk!r}")
        try:
            number = float(value)
        except ValueError:
            raise UsageError(f"parameter {key.strip()!r} has non-numeric value {value!r}") from None
        if not math.isfinite(number):
            raise UsageError(f"parameter {key.strip()!r} must be finite, got {value!r}")
        out[key.strip()] = number
    return out


def _positive_float(text):
    """argparse type for tolerances: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _parse_grid(text):
    left, sep, right = text.lower().partition("x")
    try:
        nx, nt = int(left), int(right)
    except ValueError:
        nx = nt = 0
    if not sep or nx < 1 or nt < 1:
        raise UsageError(f"--grid must look like 20x20, got {text!r}")
    return nx, nt


def _parse_corrupt(text):
    name, sep, delta = text.partition(":")
    if not sep:
        raise UsageError(f"--corrupt must look like c1:+0.1, got {text!r}")
    name = name.strip()
    if name not in COEFFICIENT_NAMES:
        raise UsageError(
            f"--corrupt coefficient must be one of {', '.join(COEFFICIENT_NAMES)},"
            f" got {name!r}"
        )
    try:
        return name, float(delta)
    except ValueError:
        raise UsageError(f"--corrupt delta {delta!r} is not a number") from None


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise UsageError(f"{path}:{lineno}: unterminated section header")
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise UsageError(f"{path}:{lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise UsageError(f"{path}:{lineno}: entry before any [section]")
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip().lower()
        if key in current:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = (value.strip(), lineno)
    return sections


def _cfg_expr(section, key, path, default=None):
    if key not in section:
        if default is not None:
            return default
        raise UsageError(f"{path}: missing required expression {key!r}")
    raw, lineno = section[key]
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        raw = raw[1:-1]
    try:
        return parse_expr(raw)
    except ExpressionError as exc:
        raise UsageError(f"{path}:{lineno}: {exc}") from exc


def _cfg_float(section, key, path, default=None):
    if key not in section:
        if default is None:
            raise UsageError(f"{path}: missing required number {key!r}")
        return default
    raw, lineno = section[key]
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{path}:{lineno}: {key!r} must be a finite number, got {raw!r}")
    return value


def _cfg_word(section, key, default):
    if key not in section:
        return default
    return section[key][0].strip().strip('"').lower()


def _operator_from_config(sections, which, path, default_form, var):
    name = "operatora" if which == "A" else "operatorb"
    sec = sections.get(name)
    if sec is None:
        raise UsageError(f"{path}: missing [{'operatorA' if which == 'A' else 'operatorB'}] section")
    return DifferentialOperator(
        form=_cfg_word(sec, "form", default_form),
        var=var,
        a=_cfg_expr(sec, "a", path, default=Num(1.0)),
        b=_cfg_expr(sec, "b", path, default=Num(0.0)),
        c=_cfg_expr(sec, "c", path, default=Num(0.0)),
        h=_cfg_float(sec, "h", path, default=0.0),
    )


def _case_from_config(path, params):
    sections = _read_config(path)
    case_sec = sections.get("case")
    if case_sec is None:
        raise UsageError(f"{path}: missing [case] section")
    kernel = _cfg_expr(case_sec, "kernel", path)
    f0 = _cfg_expr(case_sec, "f0", path)
    kernel_t = _cfg_float(case_sec, "kernel_t_exponent", path, default=0.0)
    f0_t = _cfg_float(case_sec, "f0_t_exponent", path, default=0.0)
    name_raw = case_sec.get("name", ("custom", 0))[0].strip().strip('"')
    return kernels.TransmutationCase(
        name=name_raw or "custom",
        params=dict(params),
        kernel=kernel,
        f0=f0,
        f1=_cfg_expr(case_sec, "f1", path),
        opA=_operator_from_config(sections, "A", path, "divergence", "t"),
        opB=_operator_from_config(sections, "B", path, "nondivergence", "x"),
        lam=_cfg_float(case_sec, "lambda", path, default=0.0),
        eigen_shift=None,
        p_diag=_cfg_float(case_sec, "p_diag", path, default=0.0),
        kernel_t_exponent=kernel_t,
        f0_t_exponent=f0_t,
        kernel_smooth=_cfg_expr(case_sec, "kernel_smooth", path, default=kernel),
        f0_smooth=_cfg_expr(case_sec, "f0_smooth", path, default=f0),
        x_range=(
            _cfg_float(case_sec, "x_min", path, default=0.2),
            _cfg_float(case_sec, "x_max", path, default=3.0),
        ),
        refs=(),
        notes="user-supplied case",
    )


def _problem_from_config(path, params, args):
    sections = _read_config(path)
    solver = sections.get("solver")
    if solver is None:
        raise UsageError(f"{path}: missing [solver] section")
    op_a = _operator_from_config(sections, "A", path, "divergence", "t")
    op_b = _operator_from_config(sections, "B", path, "nondivergence", "x")
    big_x = args.solver_X if args.solver_X is not None else _cfg_float(solver, "x", path, default=1.0)
    h = args.solver_h if args.solver_h is not None else _cfg_float(solver, "h", path, default=1.0 / 64.0)
    problem = goursat.GoursatProblem(
        sigma=_cfg_float(solver, "sigma", path, default=1.0),
        b0=op_a.b,
        b1=op_b.b,
        c0=op_a.c,
        c1=op_b.c,
        h0=op_a.h,
        kappa=_cfg_float(solver, "kappa", path, default=1.0),
        X=big_x,
        h=h,
        rho=_cfg_float(solver, "rho", path, default=0.0),
        params=dict(params),
        boundary=_cfg_word(solver, "boundary", "auto"),
    )
    reference = None
    if "reference" in solver:
        reference = _cfg_expr(solver, "reference", path)
    return problem, reference


def _resolve_case(args):
    params = _parse_params(getattr(args, "params", None))
    if getattr(args, "custom", None):
        case = _case_from_config(args.custom, params)
    elif getattr(args, "case", None):
        case = kernels.get_case(args.case, params)
    else:
        raise UsageError("pick a case with --case NAME or --custom FILE")
    if getattr(args, "corrupt", None):
        coef, delta = _parse_corrupt(args.corrupt)
        case = kernels.corrupt_case(case, coef, delta)
    x_min = getattr(args, "x_min", None)
    x_max = getattr(args, "x_max", None)
    if x_min is not None or x_max is not None:
        lo = x_min if x_min is not None else case.x_range[0]
        hi = x_max if x_max is not None else case.x_range[1]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"--x-min and --x-max must be finite, got {lo!r} and {hi!r}")
        if lo <= 0.0:
            raise UsageError(f"--x-min must be positive, got {lo!r}")
        if hi > 3.0 and not getattr(args, "unsafe_range", False):
            raise UsageError(
                f"--x-max {hi!r} exceeds the validated range 3; pass --unsafe-range to override"
            )
        if hi <= lo:
            raise UsageError("--x-max must exceed --x-min")
        case = dataclasses.replace(case, x_range=(lo, hi))
    return case


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stamp(args, payload):
    payload["tool_version"] = __version__
    if not getattr(args, "no_timestamp", False):
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return payload


def cmd_catalog(args):
    if args.action == "list":
        names = kernels.list_cases()
        if args.format == "json":
            _emit(args, _json_dump(_stamp(args, {"cases": names})) + "\n")
        else:
            _emit(args, "\n".join(names) + "\n")
        return 0
    case = kernels.get_case(args.name)
    if args.format == "json":
        payload = {
            "name": case.name,
            "tags": list(case.refs),
            "parameters": dict(case.params),
            "kernel": str(case.kernel),
            "f0": str(case.f0),
            "f1": str(case.f1),
            "lambda": case.lam,
            "p_diag": case.p_diag,
            "p_zero": case.p_zero,
            "notes": case.notes,
        }
        _emit(args, _json_dump(_stamp(args, payload)) + "\n")
    else:
        _emit(args, kernels.describe(case) + "\n")
    return 0


def _report_payload(report):
    rows = []
    for rec in report.records:
        rows.append(
            {
                "id": rec.id,
                "grid": rec.grid,
                "max_residual": rec.max_residual,
                "mean_residual": rec.mean_residual,
                "decay_slope": rec.decay_slope,
                "tolerance": rec.tolerance,
                "pass": rec.passed,
                "informational": rec.informational,
                "limit": rec.limit,
                "detail": rec.detail,
            }
        )
    return {
        "case": report.case,
        "params": dict(report.params),
        "conditions": rows,
        "overall_pass": report.overall_pass,
    }


def _report_text(report):
    lines = [f"case {report.case}"]
    for rec in report.records:
        mark = "PASS" if rec.passed else "FAIL"
        extra = ""
        if rec.decay_slope is not None:
            extra += f" slope={rec.decay_slope:.3g}"
        if rec.informational:
            extra += f" informational (limit {rec.limit:.7g})"
        if rec.detail and not rec.passed:
            extra += f" [{rec.detail}]"
        lines.append(
            f"[{mark}] {rec.id:6s} max {rec.max_residual:.3e}"
            f" (tol {rec.tolerance:.1e}){extra}"
        )
    lines.append(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _report_csv(report):
    out = ["id,max_residual,mean_residual,decay_slope,tolerance,pass,informational"]
    for rec in report.records:
        slope = "" if rec.decay_slope is None else "%.17g" % rec.decay_slope
        out.append(
            f"{rec.id},{rec.max_residual:.17g},{rec.mean_residual:.17g},"
            f"{slope},{rec.tolerance:.17g},{rec.passed},{rec.informational}"
        )
    return "\n".join(out) + "\n"


def cmd_verify(args):
    case = _resolve_case(args)
    nx, nt = _parse_grid(args.grid)
    config = conditions.VerifyConfig(
        nx=nx, nt=nt, n_samples=args.x_count, tol_4a=args.tol_residual
    )
    report = conditions.verify_all(case, config)
    if args.format == "json":
        _emit(args, _json_dump(_stamp(args, _report_payload(report))) + "\n")
    elif args.format == "csv":
        _emit(args, _report_csv(report))
    else:
        _emit(args, _report_text(report))
    return 0 if report.overall_pass else 1


def cmd_apply(args):
    case = _resolve_case(args)
    if args.x is not None:
        if args.x <= 0.0:
            raise UsageError(f"--x must be positive, got {args.x!r}")
        if args.x > 3.0 and not args.unsafe_range:
            raise UsageError("--x exceeds the validated range 3; pass --unsafe-range")
        xs = [args.x]
    else:
        xs = conditions.sample_points(case, args.x_count)
    xs = np.array(xs, dtype=float)
    lhs = quadrature.apply_transmutation(case, xs, args.quad_order)
    f1 = evaluate(case.f1, {**case.params, "x": xs})
    rel = np.abs(lhs - f1) / (1.0 + np.abs(f1))
    rows = list(zip(xs.tolist(), lhs.tolist(), f1.tolist(), rel.tolist()))
    worst = max(rel.tolist(), default=0.0)
    passed = worst <= args.tol_identity
    if args.format == "json":
        payload = {
            "case": case.name,
            "params": dict(case.params),
            "quad_order": args.quad_order,
            "rows": [
                {"x": x, "transform": lhs, "f1": f1, "rel_error": rel}
                for x, lhs, f1, rel in rows
            ],
            "max_rel_error": worst,
            "tolerance": args.tol_identity,
            "overall_pass": passed,
        }
        _emit(args, _json_dump(_stamp(args, payload)) + "\n")
    elif args.format == "csv":
        lines = ["x,transform,f1,rel_error"]
        lines += [f"{x:.17g},{l:.17g},{f:.17g},{r:.17g}" for x, l, f, r in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"case {case.name}", f"{'x':>10s} {'T f0(x)':>16s} {'f1(x)':>16s} {'rel error':>12s}"]
        for x, lhs, f1, rel in rows:
            lines.append(f"{x:10.4f} {lhs:16.7f} {f1:16.7f} {rel:12.3e}")
        lines.append(
            f"max rel error {worst:.3e} (tol {args.tol_identity:.1e}):"
            f" {'PASS' if passed else 'FAIL'}"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if passed else 1


def cmd_solve(args):
    params = _parse_params(args.params)
    if args.custom:
        problem, reference = _problem_from_config(args.custom, params, args)
        label = args.custom
    elif args.case:
        case = kernels.get_case(args.case, params)
        big_x = args.solver_X if args.solver_X is not None else 2.0
        h = args.solver_h if args.solver_h is not None else 1.0 / 128.0
        problem = goursat.problem_from_case(case, X=big_x, h=h)
        reference = case.kernel
        label = case.name
    else:
        raise UsageError("pick a problem with --case NAME or --custom FILE")
    grid = goursat.solve(problem)
    stats = None
    if reference is not None:
        stats = goursat.compare(grid, reference, problem.params)
    passed = stats is None or stats["max"] <= args.tol_solver

    if args.format == "csv":
        buf = io.StringIO()
        grid.export_csv(buf)
        _emit(args, buf.getvalue())
        return 0 if passed else 1
    payload = {
        "problem": label,
        "X": problem.X,
        "h": problem.h,
        "boundary": grid.boundary,
        "sigma": problem.sigma,
        "rho": problem.rho,
        "levels": grid.top + 1,
        "max_error": None if stats is None else stats["max"],
        "l2_error": None if stats is None else stats["l2"],
        "tolerance": args.tol_solver,
        "overall_pass": passed,
    }
    if args.format == "json":
        _emit(args, _json_dump(_stamp(args, payload)) + "\n")
    else:
        lines = [
            f"problem {label}: X={problem.X:g} h={problem.h:g}"
            f" boundary={grid.boundary} sigma={problem.sigma:g} rho={problem.rho:g}"
        ]
        if stats is not None:
            lines.append(
                f"max |K - reference| = {stats['max']:.6e},"
                f" rms = {stats['l2']:.6e} over {stats['count']} points"
            )
        lines.append(
            f"[{'PASS' if passed else 'FAIL'}] tolerance {args.tol_solver:.1e}"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if passed else 1


def _add_case_flags(sub, with_corrupt=False):
    sub.add_argument("--case", help="catalog case name")
    sub.add_argument("--custom", metavar="FILE", help="case/problem config file")
    sub.add_argument("--params", help="parameter overrides, e.g. nu=1,omega=2")
    if with_corrupt:
        sub.add_argument(
            "--corrupt",
            metavar="SPEC",
            help="test hook: shift one coefficient, e.g. c1:+0.1",
        )


def _add_output_flags(sub, formats=("text", "json", "csv")):
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--no-timestamp", action="store_true", help="omit generated_at")


def build_parser():
    top = argparse.ArgumentParser(
        prog="transmute",
        description="verify, apply, and solve transmutation-kernel problems",
    )
    subs = top.add_subparsers(dest="command", required=True)

    cat = subs.add_parser("catalog", help="browse built-in cases")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_list = cat_sub.add_parser("list", help="list case names")
    _add_output_flags(cat_list, formats=("text", "json"))
    cat_list.set_defaults(func=cmd_catalog, action="list")
    cat_show = cat_sub.add_parser("show", help="describe one case")
    cat_show.add_argument("name")
    _add_output_flags(cat_show, formats=("text", "json"))
    cat_show.set_defaults(func=cmd_catalog, action="show")

    ver = subs.add_parser("verify", help="run the existence conditions")
    _add_case_flags(ver, with_corrupt=True)
    ver.add_argument("--grid", default="20x20", help="hyperbolic grid, NXxNT")
    ver.add_argument("--x-min", type=float)
    ver.add_argument("--x-max", type=float)
    ver.add_argument("--x-count", type=int, default=20)
    ver.add_argument("--tol-residual", type=_positive_float, default=1e-8)
    ver.add_argument("--unsafe-range", action="store_true")
    _add_output_flags(ver)
    ver.set_defaults(func=cmd_verify)

    app = subs.add_parser("apply", help="evaluate T f0 against f1")
    _add_case_flags(app)
    app.add_argument("--x", type=float, help="single abscissa")
    app.add_argument("--x-min", type=float)
    app.add_argument("--x-max", type=float)
    app.add_argument("--x-count", type=int, default=20)
    app.add_argument("--quad-order", type=int, default=64)
    app.add_argument("--tol-identity", type=_positive_float, default=1e-8)
    app.add_argument("--unsafe-range", action="store_true")
    _add_output_flags(app)
    app.set_defaults(func=cmd_apply)

    sol = subs.add_parser("solve", help="characteristic-lattice solve")
    _add_case_flags(sol)
    sol.add_argument("--solver-X", type=float, help="triangle size X")
    sol.add_argument("--solver-h", type=float, help="lattice step")
    sol.add_argument("--tol-solver", type=_positive_float, default=1e-3)
    _add_output_flags(sol)
    sol.set_defaults(func=cmd_solve)
    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, AdmissibilityError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TransmuteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
