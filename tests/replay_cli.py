"""Replay a fixed list of CLI commands in one process and print one sha256 per command.

Each command runs through ``cli.main`` twice, once to stdout and once with
``--out``; the digest covers both outputs and both exit codes, so two trees
whose printed lines match write the same bytes.  Every command takes
``--no-timestamp``.  Not a test module: run it as

    PYTHONPATH=src python tests/replay_cli.py > replay.txt

on two source trees and diff the files.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from transmute import cli
from transmute.kernels import list_cases

FORMATS = ("text", "json", "csv")


def commands():
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
        out_path = os.path.join(tmp, "out")
        for argv in commands():
            print(digest(argv, out_path), " ".join(argv))


if __name__ == "__main__":
    main()
