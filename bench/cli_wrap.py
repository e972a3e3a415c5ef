"""Run one ``transmute`` CLI command and report where its process time went.

Used by the traced ``cli_cold`` run in place of ``python -m transmute.cli``:
stdout and the exit code are the command's own; the last line of stderr
is a JSON object of host-monotonic stamps for the script start (the end
of interpreter start-up), the end of ``import transmute.cli`` and the end
of ``main``.

    python3 bench/cli_wrap.py catalog list --format json --no-timestamp
"""

import json
import sys
import time

start = time.clock_gettime(time.CLOCK_MONOTONIC)
from transmute import cli  # noqa: E402  (timed import)

import_end = time.clock_gettime(time.CLOCK_MONOTONIC)
code = cli.main(sys.argv[1:])
sys.stdout.flush()
main_end = time.clock_gettime(time.CLOCK_MONOTONIC)
print(json.dumps({"start": start, "import_end": import_end, "main_end": main_end}), file=sys.stderr)
sys.exit(code)
