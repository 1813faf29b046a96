"""Compare two suite results under the bounds recorded in ``BENCHMARK.json``.

``python -m benchmarks.e2e.compare A.json B.json`` (A = parent, B = change;
both written by ``run.py --out``).  For every pairing of end-to-end metric and
workload it labels B against A:

``ok``          B's median is not worse than A's by more than the metric's bound
``regressed``   it is
``unresolved``  the repetitions of A or of B spread (max - min, as a share of
                their median) wider than the bound, so neither can be claimed

One row per workload.  The deterministic counters and, for equal seeds, the
stream fingerprints must be equal, and B may not fail a larger share of its
requests than A.  Exit status 0 only when every pairing is ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def _label(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    spread = max((side["max"] - side["min"]) / side["median"] for side in (a, b))
    if spread > bound:
        return f"unresolved({spread:.1%} spread)"
    return f"{'regressed' if worse > bound else 'ok'}({worse:+.1%})"


def compare(a: Dict[str, object], b: Dict[str, object], contract: Dict[str, object]) -> int:
    """Print one row per workload; return the exit status."""
    status = 0
    same_seed = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            print(f"{workload}: missing from B")
            status = 1
            continue
        cells: List[str] = []
        for metric in contract["end_to_end"]:
            name = metric["name"]
            label = _label(
                before["metrics"][name], after["metrics"][name], metric["better"], metric["bound"]
            )
            cells.append(f"{name} {label}")
        failed_before = before["failed"] / before["attempted"]
        failed_after = after["failed"] / after["attempted"]
        cells.append(
            f"failed_frac {'regressed' if failed_after > failed_before else 'ok'}"
            f"({failed_before:.3g}->{failed_after:.3g})"
        )
        if same_seed:
            equal = (
                before["counters"] == after["counters"]
                and before["fingerprint"] == after["fingerprint"]
            )
            cells.append(f"counters+fingerprint {'equal' if equal else 'DIFFER'}")
            if not equal:
                status = 1
                for key in before["counters"]:
                    if before["counters"][key] != after["counters"].get(key):
                        print(f"  {key}: {before['counters'][key]} -> {after['counters'].get(key)}")
        row = "  ".join(cells)
        if "regressed" in row or "unresolved" in row:
            status = 1
        print(f"{workload}: {row}")
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if a["trace"] or b["trace"]:
        print("compare needs untraced suites: end-to-end metrics come from them", file=sys.stderr)
        return 2
    return compare(a, b, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
