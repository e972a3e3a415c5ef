"""Replay a fixed list of CLI commands in one process and print one sha256 per command.

Each command runs through ``cli.main`` twice, once to stdout and once with
``--out``; the digest covers both outputs and both exit codes, so two trees
whose printed lines match write the same bytes.  Every command takes
``--no-timestamp``.  Besides the catalog at its defaults, the list verifies
cases whose records fail: two catalog cases with each coefficient shifted,
and a custom case file, written to a temporary directory, whose kernel
cannot be evaluated at x = 1.  Not a test module: run it as

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


def commands(case_path):
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


def digest(argv, out_path):
    """sha256 over stdout and exit code of ``argv``, then over the --out file and exit code."""
    sha = hashlib.sha256()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--no-timestamp"])
    sha.update(f"{stdout.getvalue()}\0{code}\0".encode())
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--no-timestamp", "--out", out_path])
    with open(out_path, "rb") as fh:
        sha.update(fh.read() + f"\0{code}".encode())
    os.remove(out_path)
    return sha.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out_path, case_path = os.path.join(tmp, "out"), os.path.join(tmp, "pole.cfg")
        with open(case_path, "w") as fh:
            fh.write(POLE_CASE)
        for argv in commands(case_path):
            print(digest(argv, out_path), " ".join(argv).replace(case_path, "pole.cfg"))


if __name__ == "__main__":
    main()
