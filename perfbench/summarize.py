"""Share of each operation's time spent in each layer, from a trace file.

    python3 perfbench/summarize.py perfbench/_traces/<workload>-<seed>.jsonl

A traced run (`run.py --trace 1`) writes the trace; each operation of the
benchmark (setup, ingest, export_prov, export_graph, query) is a root span
and every layer span below it adds its self time to that operation.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def shares(path: str) -> dict:
    """operation -> {layer: self seconds}, the operation's own code as 'bench'."""
    with open(path, encoding="utf-8") as fh:
        names = json.loads(fh.readline())["names"]
        spans = {s[0]: s for s in map(json.loads, fh)}
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans.values():
        child_time[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for span_id, parent, index, start, end in spans.values():
        root = span_id
        while root in spans and spans[root][1]:
            root = spans[root][1]
        if root not in spans:
            continue  # its operation ended after the span cap
        layer = "bench" if root == span_id else names[index]
        out[names[spans[root][2]]][layer] += (end - start - child_time[span_id]) / 1e6
    return out


def main(path: str):
    for op, layers in shares(path).items():
        total = sum(layers.values())
        print(f"{op}: {total:.4f} s in the recorded spans")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:36s} {100 * seconds / total:5.1f}%")


if __name__ == "__main__":
    main(sys.argv[1])
