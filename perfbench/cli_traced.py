"""``python -m exactcond`` with the span recorder installed.

The traced cli run starts this script in place of ``-m exactcond``.  It
runs the same ``main`` on the same arguments, so stdout and the exit code
are unchanged, and prints its spans as one JSON line at the end of stderr.
"""

import json
import sys

import tracing
from exactcond import cli


def main() -> int:
    rec = tracing.Recorder()
    rec.install()
    run = rec.span("cli.main", "cli", cli.main)
    try:
        return run(sys.argv[1:])
    finally:
        sys.stdout.flush()
        payload = {"summary": tracing.summarize(rec.spans),
                   "spans": [s.row() for s in rec.spans]}
        print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
