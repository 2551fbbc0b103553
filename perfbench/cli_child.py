"""Traced stand-in for ``python -m cubewalk.cli``.

Usage: cli_child.py SPANS_PATH CLI_ARGS...

Times ``import cubewalk.cli`` as one span, installs the tracer from
spans.py and calls ``cubewalk.cli.main`` inside a ``cli.main`` span, then
writes the spans and counters as JSON to SPANS_PATH and exits with the
command's exit code.  The untraced benchmark runs the real module instead.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, installed  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import cubewalk.cli
    try:
        with installed(tracer), tracer.span("cli.main"):
            code = cubewalk.cli.main(argv)
        sys.stdout.flush()
    finally:
        spans_path.write_text(json.dumps({"spans": tracer.as_list(),
                                          "counters": tracer.counters}))
    return code


if __name__ == "__main__":
    sys.exit(main())
