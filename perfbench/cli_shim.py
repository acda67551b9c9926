"""`python -m dpone` with the layer wrappers installed (traced cli_cold children).

Usage: PERFBENCH_SPANS=<file> python3 -X importtime perfbench/cli_shim.py <dpone args>
Writes the child's spans to <file> when main returns; stdout and the
exit code are those of `python -m dpone <dpone args>`.
"""

import os
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (the script's own directory is sys.path[0])


def main() -> int:
    rec = spans.Recorder()
    spans.install(rec)
    import dpone.cli

    rec.begin_op(0)
    try:
        return dpone.cli.main(sys.argv[1:])
    finally:
        rec.end_op()
        spans.dump(rec, os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
