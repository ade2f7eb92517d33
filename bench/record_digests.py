"""Record bench/digests.json: the input and output digest of every item.

Run once, from the root of a checkout, at the commit whose outputs are
the reference:

    python3 bench/record_digests.py

An item whose claims fail, whose depth routes disagree, or which raises
is not recorded, and the script exits 1.  The benchmark then counts every
later output that differs from the recorded one as a failed item.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main():
    engine = workloads.Engine()
    out, bad = {}, []
    for name, workload in workloads.WORKLOADS.items():
        out[name] = {}
        for item in workload.catalog(engine):
            output, ok = item.check(item.call())
            if not ok:
                bad.append(item.key)
                continue
            out[name][item.key] = {"input": item.input_digest, "output": workloads.sha(output)}
        print(f"{name}: {len(out[name])} items recorded")
    if bad:
        print(f"not recorded, failing: {bad}", file=sys.stderr)
        return 1
    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
