"""Run the umebkit command line the way its console script does, optionally traced.

    python3 perfbench/cli_main.py [--spans FILE] <umebkit arguments>

With `--spans FILE` every umebkit function call is recorded (see spans.py)
and the spans are written to FILE when the command ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from umebkit import cli

    if argv[:1] != ["--spans"]:
        return cli.main(argv)
    spans_path, argv = argv[1], argv[2:]
    from perfbench.spans import Tracer

    tracer = Tracer()
    try:
        with tracer.active():
            return cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
