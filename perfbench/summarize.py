"""Median, quartiles and spread of each metric over benchmark result files.

    python3 perfbench/summarize.py perfbench/results/*-trace0.json

Files are grouped by workload and mode. The spread is the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median; for end-to-end metrics it is printed beside the
metric's bound from BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths):
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    groups = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        group = groups.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
    lines = []
    for (workload, trace), metrics in sorted(groups.items()):
        lines.append(f"{workload} ({'traced' if trace else 'untraced'})")
        for name, values in metrics.items():
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = f" bound {bounds[name]:.2f}" if name in bounds and not trace else ""
            lines.append(f"  {name:<44} n={len(values):<3} median {median:<12.6g} "
                         f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}{bound}")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    print(summarize(sys.argv[1:]))
