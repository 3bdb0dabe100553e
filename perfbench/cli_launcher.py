"""Run one ``schmidt-norms`` command under the benchmark's tracer.

Usage: ``python3 perfbench/cli_launcher.py SPANS_JSON ARG...``

Installs the tracer, calls ``schmidt_norms.cli.main(ARG...)`` and writes the
recorded spans and counters to SPANS_JSON before exiting with the command's exit code.
The traced ``cli`` workload starts commands through this file; the untraced
one runs ``python3 -m schmidt_norms.cli`` directly.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import schmidt_norms.cli as cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
