"""Run one harvnet CLI call with the layers traced.

Usage: python3 perfbench/cli_child.py SUMMARY.json ARGV...

Behaves like `python3 -m harvnet.cli ARGV...` (same stdout and exit code)
and writes the span summary to SUMMARY.json and the spans beside it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harvnet.cli  # noqa: E402  (the tracer wraps modules already imported)
from tracing import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    with tracer:
        code = harvnet.cli.main(sys.argv[2:])
    sys.stdout.flush()
    tracer.write(out.with_suffix(".npz"))
    out.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
