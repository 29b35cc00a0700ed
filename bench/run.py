"""kcomm2 benchmark: one command prints every metric of one workload.

    python3 bench/run.py --workload {kernel,verdicts,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it needs ``src/kcomm2`` and
``BENCHMARK.json`` there.  The second-to-last line of standard output is a
JSON report (provenance, sample counts, failures by kind); the last line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("kernel", "verdicts", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kcomm2" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: {ROOT} has no src/kcomm2 package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    out = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
