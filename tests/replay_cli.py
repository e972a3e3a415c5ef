"""Replay a fixed list of CLI commands in one process and print one sha256 per command.

Each command runs through ``cli.main`` twice, once to stdout and once with
``--out``; the digest covers both outputs and both exit codes, so two trees
whose printed lines match write the same bytes.  Every command takes
``--no-timestamp``.  Besides the catalog at its defaults, the list verifies
cases whose records fail: two catalog cases with each coefficient shifted,
and custom case files, written to a temporary directory: one whose kernel
cannot be evaluated at x = 1, a power chain whose exponents vary over the
points, and a gegenbauer degree read from ``--params``.  It also solves
``lowndes`` at a wall the solver refuses.  Not a test module: run it as

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
# the kernel x^x^...^x^t of 20 names, and gegenbauer(p, 1, x - t)
CASES = {
    name: f'[case]\nkernel = "{kernel}"\nf0 = "cos(t)"\nf1 = "sin(x)"\nx_max = 0.9\n\n'
          '[operatorA]\nc = "1"\n\n[operatorB]\nc = "1"\n'
    for name, kernel in (("chain.cfg", "x^" * 19 + "t"), ("gegenbauer.cfg", "gegenbauer(p, 1, x - t)"))
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
    yield ["solve", "--case", "lowndes", "--params", "mu=0,nu=2"]
    yield ["verify", "--custom", os.path.join(tmp, "chain.cfg"), "--x-min", "0.5"]
    for command in ("verify", "apply"):
        yield [command, "--custom", os.path.join(tmp, "gegenbauer.cfg"), "--params", "p=2.5"]


def digest(argv, out_path):
    """sha256 over stdout and exit code of ``argv``, then over the --out file, if any, and exit code."""
    sha = hashlib.sha256()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--no-timestamp"])
    sha.update(f"{stdout.getvalue()}\0{code}\0".encode())
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--no-timestamp", "--out", out_path])
    if os.path.exists(out_path):  # a command that fails before its output writes none
        with open(out_path, "rb") as fh:
            sha.update(fh.read())
        os.remove(out_path)
    sha.update(f"\0{code}".encode())
    return sha.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        for name, text in {"pole.cfg": POLE_CASE, **CASES}.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        for argv in commands(tmp):
            print(digest(argv, out_path), " ".join(argv).replace(tmp + os.sep, ""))


if __name__ == "__main__":
    main()
