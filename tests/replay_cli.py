"""Replay a fixed list of CLI commands in one process and print one sha256 per command.

Each command runs through ``cli.main`` twice, once to stdout and once with
``--out``; the digest covers both outputs, both runs' stderr and both exit
codes, with the temporary directory read as "tmp", so two trees hash alike
only if they print, write and refuse alike.  Every command takes
``--no-timestamp``.  Besides the catalog at its defaults, the list verifies
cases whose records fail: two catalog cases with each coefficient shifted,
and custom case files, written to a temporary directory: one whose kernel
cannot be evaluated at x = 1, a power chain whose exponents vary over the
points, a gegenbauer degree read from ``--params``, and an f0 and an f1
whose jets overflow where their values do not.  It verifies ``sinh_cosh``
on more points than one evaluation may take, solves ``lowndes`` at a wall
the solver refuses and three custom singular t = 0 walls (b0 = -+1/t^1.01,
and b0 = -1/t with c0 = 5/t^2), verifies and applies at abscissae near
the float range's end (one of them the midpoint of [1e308, 1.7e308]), gives
a parameter, a tolerance, a lattice size and a file's x_max that are no finite
number, and a tolerance and lattice sizes that are not positive.  Not a test
module: run it as

    PYTHONPATH=src python tests/replay_cli.py > replay.txt

on two source trees and diff the files.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from test_cli import CASE_FILE
from transmute import cli
from transmute.kernels import COEFFICIENT_NAMES, list_cases

FORMATS = ("text", "json", "csv")
# CASE_FILE with its kernel divided by (x - 1): 4a fails at every point with x = 1
POLE_CASE = CASE_FILE.replace('sqrt(x^2-t^2))"', 'sqrt(x^2-t^2))/(x-1)"')
# CASE_FILE with f0 = 1e300/sqrt(t), whose jet overflows near t = 0, and with
# f1 = 1e307/sqrt(x), whose jet overflows at x = 0.2
JET_CASES = {
    "f0_jet.cfg": CASE_FILE.replace('f0 = "cos(omega*t)"', 'f0 = "1e300/sqrt(t)"'),
    "f1_jet.cfg": CASE_FILE.replace('f1 = "sin(sqrt(omega^2+mu^2)*x)/sqrt(omega^2+mu^2)"', 'f1 = "1e307/sqrt(x)"'),
}
# the kernel x^x^...^x^t of 20 names, and gegenbauer(p, 1, x - t)
CASES = {
    name: f'[case]\nkernel = "{kernel}"\nf0 = "cos(t)"\nf1 = "sin(x)"\nx_max = 0.9\n\n'
          '[operatorA]\nc = "1"\n\n[operatorB]\nc = "1"\n'
    for name, kernel in (("chain.cfg", "x^" * 19 + "t"), ("gegenbauer.cfg", "gegenbauer(p, 1, x - t)"))
}

# singular t = 0 walls at X = 2, h = 1/64: two with b0 not -r/t + smooth, one with a c0 pole
WALLS = {
    name: f'[operatorA]\nb = "{b0}"\nc = "{c0}"\n\n[operatorB]\nb = "{b1}"\nc = "{c1}"\n\n'
          '[solver]\nx = 2\nh = 0.015625\n'
    for name, b0, c0, b1, c1 in (("wall_power.cfg", "1/t^1.01", "1", "1/x^1.01", "1 - x"),
                                 ("wall_negative_power.cfg", "-1/t^1.01", "1", "-1/x^1.01", "1 - x"),
                                 ("wall_c0_pole.cfg", "-1/t", "5/t^2", "-1/x", "5/x^2"))
}


def commands(tmp):
    case_path = os.path.join(tmp, "pole.cfg")
    yield ["catalog", "list"]
    for name in list_cases():
        yield ["catalog", "show", name]
    for name in list_cases():
        for command in ("verify", "apply"):
            for fmt in FORMATS:
                yield [command, "--case", name, "--format", fmt]
    for source in (["--case", "vekua_telegraph"], ["--case", "lowndes", "--params", "mu=0"]):
        for fmt in FORMATS:
            yield ["solve", *source, "--format", fmt]
    for name in ("sonin", "vekua_telegraph"):
        for coefficient in COEFFICIENT_NAMES:
            yield ["verify", "--case", name, "--corrupt", f"{coefficient}:+0.1", "--format", "json"]
    for fmt in ("text", "json"):
        yield ["verify", "--custom", case_path, "--params", "mu=1,omega=2", "--format", fmt]
    for name in JET_CASES:
        yield ["verify", "--custom", os.path.join(tmp, name), "--params", "mu=1,omega=2"]
    # 256 x 200 grid points and 18 x 1000 limit points exceed MAX_POINTS
    yield ["verify", "--case", "sinh_cosh", "--grid", "256x200", "--x-count", "1000"]
    yield ["solve", "--case", "lowndes", "--params", "mu=0,nu=2"]
    yield ["verify", "--custom", os.path.join(tmp, "chain.cfg"), "--x-min", "0.5"]
    for command in ("verify", "apply"):
        yield [command, "--custom", os.path.join(tmp, "gegenbauer.cfg"), "--params", "p=2.5"]
    for name in WALLS:
        yield ["solve", "--custom", os.path.join(tmp, name), "--format", "csv"]
    yield ["verify", "--case", "vekua_telegraph", "--x-max", "1e308", "--unsafe-range"]
    yield ["apply", "--case", "sonin", "--x", "1e308", "--unsafe-range"]
    yield ["verify", "--case", "sonin", "--params", "mu=abc"]
    yield ["verify", "--case", "sonin", "--tol-residual", "abc"]
    yield ["solve", "--case", "vekua_telegraph", "--solver-X", "nan"]
    yield ["verify", "--custom", os.path.join(tmp, "x_max_text.cfg"), "--params", "mu=1,omega=2"]
    yield ["verify", "--case", "sonin", "--tol-residual", "0"]
    yield ["solve", "--case", "vekua_telegraph", "--solver-X", "0"]
    yield ["solve", "--case", "vekua_telegraph", "--solver-h", "-0.1"]
    yield ["apply", "--case", "sonin", "--x-min", "1e308", "--x-max", "1.7e308", "--x-count", "1", "--unsafe-range"]


def digest(argv, tmp):
    """sha256 over stdout, stderr and exit code of ``argv``, run to stdout and then
    with ``--out`` (whose file, if any, is hashed too), ``tmp`` read as "tmp"."""
    sha = hashlib.sha256()
    out_path = os.path.join(tmp, "out")
    for extra in ([], ["--out", out_path]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--no-timestamp", *extra])
        text = f"{stdout.getvalue()}\0{stderr.getvalue()}\0{code}\0"
        if os.path.exists(out_path):  # a command that fails before its output writes none
            with open(out_path) as fh:
                text += fh.read()
            os.remove(out_path)
        sha.update(text.replace(tmp, "tmp").encode())
    return sha.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = {"pole.cfg": POLE_CASE, "x_max_text.cfg": CASE_FILE.replace("x_max = 2.0", "x_max = abc")}
        for name, text in {**files, **CASES, **JET_CASES, **WALLS}.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        for argv in commands(tmp):
            print(digest(argv, tmp), " ".join(argv).replace(tmp + os.sep, ""))


if __name__ == "__main__":
    main()
