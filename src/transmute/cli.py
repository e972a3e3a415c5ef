"""Command-line driver.

Subcommands:
  catalog list / catalog show NAME   browse the built-in cases
  verify                             run the existence conditions
  apply                              evaluate T f0 and compare with f1
  solve                              march the characteristic lattice

Exit codes: 0 all checks passed (or none ran: a solve with no reference
reports overall_pass null), 1 a check failed, 2 usage/config error, 3
numerical failure.

Reports are deterministic; JSON carries a timestamp unless
--no-timestamp is given, and floats are rendered with 17 significant
digits (the stock serializer cannot be pinned down that way, so the
emitter here is hand-rolled).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from . import __version__, conditions, goursat, kernels, quadrature
from .errors import (
    AdmissibilityError,
    ExpressionError,
    TransmuteError,
    UsageError,
)
from .expr import parse as parse_expr
from .kernels import COEFFICIENT_NAMES
from .operators import DifferentialOperator

# The keys of each config section, by lower-cased section name, with the kind of
# value each takes. A key sets the field of its name, or the one _FIELDS gives;
# a key the file leaves out is not passed, so its field keeps its own default.
_KEYS = {
    "case": {
        "name": "name", "kernel": "expression", "f0": "expression", "f1": "expression",
        "lambda": "number", "p_diag": "number", "kernel_t_exponent": "number",
        "f0_t_exponent": "number", "kernel_smooth": "expression", "f0_smooth": "expression",
        "x_min": "number", "x_max": "number",
    },
    "operatora": {"a": "expression", "b": "expression", "c": "expression", "h": "number"},
    "operatorb": {"a": "expression", "b": "expression", "c": "expression"},
    "solver": {"x": "number", "h": "number", "kappa": "number", "reference": "expression"},
}
_FIELDS = {
    ("case", "kernel"): "kernel_smooth", ("case", "f0"): "f0_smooth", ("case", "lambda"): "lam",
    ("operatora", "h"): "h0", ("solver", "x"): "X",
}
# A [case] key that states a factored function whole, and the keys that state it by
# its factors: ``kernel`` is the smooth factor with every exponent 0, so it takes none.
_WHOLE = {"kernel": ("kernel_smooth", "p_diag", "kernel_t_exponent"), "f0": ("f0_smooth", "f0_t_exponent")}


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
        key = key.strip()
        if not sep:
            raise UsageError(f"--params entries must look like name=value, got {chunk!r}")
        if not key:
            raise UsageError(f"--params entry {chunk!r} has no name")
        if key in ("x", "t", "pi"):
            what = "the reserved constant" if key == "pi" else "a kernel variable"
            raise UsageError(f"--params cannot set {key!r}: it is {what}")
        try:
            number = float(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} has non-numeric value {value!r}") from None
        if not math.isfinite(number):
            raise UsageError(f"parameter {key!r} must be finite, got {value!r}")
        if key in out:
            raise UsageError(f"duplicate parameter {key!r} in --params")
        out[key] = number
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
        value = float(delta)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"--corrupt delta must be a finite number, got {delta!r}")
    return name, value


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
            if name not in _KEYS:
                raise UsageError(f"{path}:{lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise UsageError(f"{path}:{lineno}: entry before any [section]")
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip().lower()
        if key not in _KEYS[name]:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} in [{name}]"
                f" (expected one of {', '.join(_KEYS[name])})"
            )
        if key in current:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = (value.strip(), lineno)
    return sections


def _config_value(kind, key, raw, where):
    """One config value read by its kind; ``where`` is the path:line it came from."""
    if kind == "name":
        return raw.strip('"')
    if kind == "expression":
        if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
            raw = raw[1:-1]
        try:
            return parse_expr(raw)
        except ExpressionError as exc:
            raise UsageError(f"{where}: {exc}") from exc
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{where}: {key!r} must be a finite number, got {raw!r}")
    return value


def _config_fields(sections, label, path, required=()):
    """The fields that the keys of section [label] set, by field name; each
    ``required`` field must be set by one of the keys that map to it."""
    name = label.lower()
    if name not in sections:
        raise UsageError(f"{path}: missing [{label}] section")
    fields = {
        _FIELDS.get((name, key), key): _config_value(_KEYS[name][key], key, raw, f"{path}:{lineno}")
        for key, (raw, lineno) in sections[name].items()
    }
    for field in required:
        if field not in fields:
            keys = [key for key in _KEYS[name] if _FIELDS.get((name, key), key) == field]
            kind = _KEYS[name][keys[0]]
            raise UsageError(f"{path}: missing required {kind} {' or '.join(map(repr, keys))}")
    return fields


def _operators_from_config(sections, path):
    """(A, B, h0): the operator pair, and {"h0": h} if [operatorA] sets ``h``, else {}."""
    fields_a = _config_fields(sections, "operatorA", path)
    fields_b = _config_fields(sections, "operatorB", path)
    h0 = {"h0": fields_a.pop("h0")} if "h0" in fields_a else {}
    return DifferentialOperator("t", **fields_a), DifferentialOperator("x", **fields_b), h0


def _case_from_config(path, params):
    """The file's case, and the x_min and x_max it sets, which the flags override."""
    sections = _read_config(path)
    keys = sections.get("case", {})
    for whole, factors in _WHOLE.items():
        restated = sorted((keys[k][1], k) for k in factors if k in keys)
        if whole in keys and restated:
            lineno, key = restated[0]
            raise UsageError(f"{path}:{lineno}: state the {whole} once: {whole!r} is its smooth factor"
                             f" with every exponent 0, so {key!r} states it again")
    fields = _config_fields(sections, "case", path, required=("kernel_smooth", "f0_smooth", "f1"))
    op_a, op_b, h0 = _operators_from_config(sections, path)
    bounds = {key: fields.pop(key) for key in ("x_min", "x_max") if key in fields}
    case = kernels.TransmutationCase(
        name=fields.pop("name", "") or "custom", params=dict(params), opA=op_a, opB=op_b, **h0, **fields
    )
    return case, bounds


def _problem_from_config(path, params, flags):
    """The file's problem, its lattice ``flags`` overriding [solver], and its reference."""
    sections = _read_config(path)
    fields = _config_fields(sections, "solver", path)
    op_a, op_b, h0 = _operators_from_config(sections, path)
    reference = fields.pop("reference", None)
    return goursat.GoursatProblem(op_a, op_b, params=params, **h0, **{**fields, **flags}), reference


def _check_x(name, value, unsafe):
    """The range rule of --x, x_min and x_max, set by a flag, a file or the catalog."""
    if not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    if value <= 0.0:
        raise UsageError(f"{name} must be positive, got {value!r}")
    if value > 3.0 and not unsafe:
        raise UsageError(
            f"{name} {value!r} exceeds the validated range 3; pass --unsafe-range to override"
        )
    return value


def _resolve_case(args):
    params = _parse_params(args.params)
    bounds = {}
    if args.custom:
        case, bounds = _case_from_config(args.custom, params)
    elif args.case:
        case = kernels.get_case(args.case, params)
    else:
        raise UsageError("pick a case with --case NAME or --custom FILE")
    if getattr(args, "corrupt", None):
        coef, delta = _parse_corrupt(args.corrupt)
        case = kernels.corrupt_case(case, coef, delta)
    # each end of the range from its flag, else from the file, else from the case
    ends = dict(zip(("x_min", "x_max"), case.x_range), **bounds)
    ends.update({key: getattr(args, key) for key in ends if getattr(args, key) is not None})
    lo, hi = (_check_x(key, value, args.unsafe_range) for key, value in ends.items())
    if hi <= lo:
        raise UsageError(f"x_max must exceed x_min, got {lo!r} and {hi!r}")
    return dataclasses.replace(case, x_range=(lo, hi))


def _report(args, payload, text, csv=None):
    """Write a command's output to --out, or else to stdout: ``payload`` as
    JSON with the tool version and time stamp, or what ``text(stream)`` or
    ``csv(stream)`` writes."""
    render = csv if args.format == "csv" else text
    if args.format == "json":
        payload["tool_version"] = __version__
        if not args.no_timestamp:
            payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        render = lambda stream: stream.write(_json_dump(payload) + "\n")
    if not args.out:
        render(sys.stdout)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            render(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None


def _csv_rows(rows, keys):
    """The CSV of the dicts ``rows``, one column per key of ``keys``: a number
    with 17 significant digits, None empty, a name or a boolean as it prints."""
    def cell(v):
        if v is None:
            return ""
        return str(v) if type(v) in (str, bool) else "%.17g" % v

    lines = [",".join(keys)] + [",".join(cell(row[k]) for k in keys) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_catalog(args):
    if args.action == "list":
        names = kernels.list_cases()
        _report(args, {"cases": names}, lambda out: out.write("\n".join(names) + "\n"))
        return 0
    case = kernels.get_case(args.name)
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
    _report(args, payload, lambda out: out.write(kernels.describe(case) + "\n"))
    return 0


_ROW_KEYS = ("id", "grid", "max_residual", "mean_residual", "decay_slope", "tolerance",
             "passed", "informational", "limit", "detail")


def cmd_verify(args):
    case = _resolve_case(args)
    nx, nt = _parse_grid(args.grid)
    config = conditions.VerifyConfig(
        nx=nx, nt=nt, n_samples=args.x_count, tol_4a=args.tol_residual
    )
    report = conditions.verify_all(case, config)
    payload = {
        "case": report.case,
        "params": dict(report.params),
        # a record's fields in order, "passed" printed as "pass"
        "conditions": [
            {"pass" if k == "passed" else k: getattr(rec, k) for k in _ROW_KEYS} for rec in report.records
        ],
        "overall_pass": report.overall_pass,
    }

    def text(out):
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
        out.write("\n".join(lines) + "\n")

    keys = ("id", "max_residual", "mean_residual", "decay_slope", "tolerance", "pass", "informational")
    _report(args, payload, text, lambda out: out.write(_csv_rows(payload["conditions"], keys)))
    return 0 if report.overall_pass else 1


def cmd_apply(args):
    case = _resolve_case(args)
    if args.x is not None:
        xs = [_check_x("--x", args.x, args.unsafe_range)]
    else:
        xs = conditions.sample_points(case, args.x_count)
        if not xs:
            raise UsageError("--x-count must be at least 1")
    lhs, f1, rel = quadrature.identity_rows(case, xs, args.quad_order)
    rows = list(zip(xs, lhs.tolist(), f1.tolist(), rel.tolist()))
    keys = ("x", "transform", "f1", "rel_error")  # a JSON row's keys and the CSV's columns
    worst = max(rel.tolist(), default=0.0)
    passed = worst <= args.tol_identity
    payload = {
        "case": case.name,
        "params": dict(case.params),
        "quad_order": args.quad_order,
        "rows": [dict(zip(keys, row)) for row in rows],
        "max_rel_error": worst,
        "tolerance": args.tol_identity,
        "overall_pass": passed,
    }

    def text(out):
        lines = [f"case {case.name}", f"{'x':>10s} {'T f0(x)':>16s} {'f1(x)':>16s} {'rel error':>12s}"]
        for x, lhs, f1, rel in rows:
            lines.append(f"{x:10.4f} {lhs:16.7f} {f1:16.7f} {rel:12.3e}")
        lines.append(
            f"max rel error {worst:.3e} (tol {args.tol_identity:.1e}):"
            f" {'PASS' if passed else 'FAIL'}"
        )
        out.write("\n".join(lines) + "\n")

    _report(args, payload, text, lambda out: out.write(_csv_rows(payload["rows"], keys)))
    return 0 if passed else 1


def cmd_solve(args):
    params = _parse_params(args.params)
    flags = {key: v for key, v in (("X", args.solver_X), ("h", args.solver_h)) if v is not None}
    if args.custom:
        problem, reference = _problem_from_config(args.custom, params, flags)
        label = args.custom
    elif args.case:
        case = kernels.get_case(args.case, params)
        problem = goursat.problem_from_case(case, **{"X": 2.0, "h": 1.0 / 128.0, **flags})
        reference = case.kernel
        label = case.name
    else:
        raise UsageError("pick a problem with --case NAME or --custom FILE")
    grid = goursat.solve(problem)
    stats = None
    if reference is not None:
        stats = goursat.compare(grid, reference, problem.params)
    passed = None if stats is None else stats["max"] <= args.tol_solver
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

    def text(out):
        lines = [
            f"problem {label}: X={problem.X:g} h={problem.h:g}"
            f" boundary={grid.boundary} sigma={problem.sigma:g} rho={problem.rho:g}"
        ]
        if stats is not None:
            lines.append(
                f"max |K - reference| = {stats['max']:.6e},"
                f" rms = {stats['l2']:.6e} over {stats['count']} points"
            )
        lines.append("[UNCHECKED] no reference to compare against" if passed is None
                     else f"[{'PASS' if passed else 'FAIL'}] tolerance {args.tol_solver:.1e}")
        out.write("\n".join(lines) + "\n")

    _report(args, payload, text, grid.export_csv)
    return 1 if passed is False else 0


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
    defaults = conditions.VerifyConfig()
    ver.add_argument("--grid", default=f"{defaults.nx}x{defaults.nt}", help="hyperbolic grid, NXxNT")
    ver.add_argument("--x-min", type=float)
    ver.add_argument("--x-max", type=float)
    ver.add_argument("--x-count", type=int, default=defaults.n_samples)
    ver.add_argument("--tol-residual", type=_positive_float, default=defaults.tol_4a)
    ver.add_argument("--unsafe-range", action="store_true")
    _add_output_flags(ver)
    ver.set_defaults(func=cmd_verify)

    app = subs.add_parser("apply", help="evaluate T f0 against f1")
    _add_case_flags(app)
    app.add_argument("--x", type=float, help="single abscissa")
    app.add_argument("--x-min", type=float)
    app.add_argument("--x-max", type=float)
    app.add_argument("--x-count", type=int, default=defaults.n_samples)
    app.add_argument("--quad-order", type=int, default=quadrature.RULE_ORDER)
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
