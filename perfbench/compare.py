#!/usr/bin/env python3
"""Compare two perfbench result files (written under ``.perfbench_out/``).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and NEW/BASE.  Results are comparable only
when they ran the same workload, in the same mode, on the same compute
backend and precision with the same CPU count and BLAS threads; otherwise it
refuses (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("workload", "trace", "backend", "precision", "nproc", "blas_threads")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    mismatched = [
        f"{key}: {base['envelope'].get(key)!r} vs {new['envelope'].get(key)!r}"
        for key in MUST_MATCH
        if base["envelope"].get(key) != new["envelope"].get(key)
    ]
    if mismatched:
        print("refusing to compare: " + "; ".join(mismatched), file=sys.stderr)
        return 1
    host = [run["envelope"]["host_calibration_s"] for run in (base, new)]
    print("host calibration loop (s, before/after): "
          f"base {host[0]['before']:.4f}/{host[0]['after']:.4f}, "
          f"new {host[1]['before']:.4f}/{host[1]['after']:.4f}")
    print(f"{'metric':<40} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, entry in base["metrics"].items():
        before = entry["value"]
        after = new["metrics"].get(name, {}).get("value")
        shown = f"{after:14.6g}" if after is not None else f"{'-':>14}"
        ratio = f"{after / before:9.3f}" if after is not None and before else f"{'-':>9}"
        print(f"{name:<40} {before:>14.6g} {shown} {ratio} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
