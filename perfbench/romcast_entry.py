"""Run the romcast CLI from this checkout's ``src/``, optionally traced.

    python3 perfbench/romcast_entry.py [--trace-out FILE] <romcast args>

Does what the ``romcast`` console script does. With ``--trace-out`` the
spans of ``spans.Tracer`` are recorded around ``cli.main`` and written to
FILE as JSON when the command returns.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from romcast import cli

    if trace_out is None:
        return cli.main(argv)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
