"""Write refs.json: pinned output digests for every pooled request.

    python3 perfbench/pin.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It runs every request each workload can send, at full and
quick size, refuses to pin an output that breaks an invariant, and
rewrites the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
sys.path.insert(0, str(HERE))

from workloads import SRC, WORKLOADS  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(SRC))
    refs = {}
    for name in WORKLOADS:
        for quick in (True, False):
            wl = WORKLOADS[name](seed=0, quick=quick)
            wl.setup()
            for req in wl.pool():
                out = wl.execute(req)
                bad = wl.invariants(req, out)
                if bad:
                    raise SystemExit(f"{req.key}: {bad}")
                refs.update(wl.digests(req, out))
            print(f"pinned {name} (quick={quick})", file=sys.stderr)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
