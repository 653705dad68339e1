"""Compare two sets of benchmark records, for example a parent and a child commit.

  python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files that run.py wrote to .perfbench/results/;
copy them aside after running each commit.  Run from the repository root so
that BENCHMARK.json supplies the bounds.  For every workload and metric the
table gives both medians over the records, their ratio and the bound.
End-to-end metrics come from untraced records and per-layer metrics from
traced ones.  After the table come the output files whose sha256 differs
between the two sides for the same workload and seed: outputs must stay
byte-identical unless a change says why.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> dict[str, list[dict]]:
    records: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], []).append(record)
    return records


def median_of(records: list[dict], section: str, name: str) -> float | None:
    trace = int(section == "per_layer")
    values = [r[section][name] for r in records if r["trace"] == trace and name in r[section]]
    return statistics.median(values) if values else None


def digest_changes(base: list[dict], head: list[dict]) -> list[str]:
    lines = []
    head_by_seed = {r["seed"]: r["digests"] for r in head}
    for seed, digests in sorted({r["seed"]: r["digests"] for r in base}.items()):
        other = head_by_seed.get(seed)
        if other is None:
            continue
        for name in sorted(set(digests) | set(other)):
            if digests.get(name) != other.get(name):
                lines.append(f"    seed {seed}: {name} {str(digests.get(name))[:12]} -> "
                             f"{str(other.get(name))[:12]}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    bench = json.loads(Path("BENCHMARK.json").read_text())
    for wl in sorted(set(base) & set(head)):
        failing = [sum(not r["correct"] for r in side[wl]) for side in (base, head)]
        print(f"{wl}: {len(base[wl])} base and {len(head[wl])} head records; "
              f"failing checks: base {failing[0]}, head {failing[1]}")
        print(f"  {'metric':32s} {'base':>12s} {'head':>12s} {'head/base':>10s}  bound")
        for section in ("end_to_end", "per_layer"):
            for metric in bench[section]:
                b = median_of(base[wl], section, metric["name"])
                h = median_of(head[wl], section, metric["name"])
                if b is None or h is None:
                    continue
                ratio = f"{h / b:10.4f}" if b else f"{'-':>10s}"
                print(f"  {metric['name']:32s} {b:12.6g} {h:12.6g} {ratio}  "
                      f"{metric.get('bound', '')}")
        changes = digest_changes(base[wl], head[wl])
        print("  output digests: " + ("identical" if not changes else "CHANGED"))
        for line in changes:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
