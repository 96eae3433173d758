"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces each layer's public function or method with a
wrapper that records a span around the call; `uninstall` puts the originals
back. No module of the program is edited. A span's self time is its
duration minus the durations of the spans it directly contains. Spans are
kept in memory, up to `SPAN_CAP`, and written out once, at the end of the
run; the per-layer totals count every span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (layer metric prefix, module, attribute path) for every wrapped callable.
# Both from_record classmethods count as one layer. The scheduler's delivery
# callback scans every receive rule from inside network.send_token; that time
# is the scheduler's, so the callback counts as simulation.run.
LAYERS = (
    ("simulation.load_scenario", "simulation", "load_scenario"),
    ("simulation.run", "simulation", "run"),
    ("simulation.run", "simulation", "_Runner._on_delivered"),
    ("simulation.trace_of", "simulation", "trace_of"),
    ("network.send_token", "network", "NetworkEngine.send_token"),
    ("network.create_local_token", "network", "NetworkEngine.create_local_token"),
    ("model.validate_local_token", "model", "validate_local_token"),
    ("model.validate_routed_token", "model", "validate_routed_token"),
    ("model.from_record", "model", "LocalToken.from_record"),
    ("model.from_record", "model", "RoutedToken.from_record"),
    ("goals.evaluate_event", "goals", "GoalEngine.evaluate_event"),
    ("goals.current_goal", "goals", "GoalEngine.current_goal"),
    ("goals.fold_goal_state", "goals", "fold_goal_state"),
    ("storage.append", "storage", "EventLog.append"),
    ("storage.put", "storage", "DataStore.put"),
    ("storage.content_hash", "storage", "EventLog.content_hash"),
    ("storage.load", "storage", "EventLog.load"),
    ("storage.scan", "storage", "EventLog.scan"),
    ("prov.build_prov", "prov", "build_prov"),
    ("prov.export_prov_json", "prov", "export_prov_json"),
    ("reconstruct.reconstruct_process", "reconstruct", "reconstruct_process"),
    ("reconstruct.query", "reconstruct", "query"),
    ("reconstruct.to_dot", "reconstruct", "to_dot"),
)
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.names: list = []
        self.self_ns: list = []
        self.calls: list = []
        self.spans: list = []  # (span id, parent id, name index, start ns, end ns)
        self.dropped = 0
        self._stack: list = []  # [span id, start ns, child ns] per open span
        self._next_id = 0
        self._patches: list = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self.names.index(name)

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, index: int):
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        self.self_ns[index] += duration - frame[2]
        self.calls[index] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent[0] if parent else 0, index, frame[1], end))
        else:
            self.dropped += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` (the benchmark's own operations)."""
        index = self._index(name)
        frame = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, index)

    def _wrap(self, name: str, fn):
        index = self._index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, index)

        return wrapper

    def install(self):
        """Wrap every layer callable wherever the program's modules hold it."""
        modules = [m for n, m in sys.modules.items() if n == "policyprov" or n.startswith("policyprov.")]
        for name, module_name, path in LAYERS:
            owner = sys.modules[f"policyprov.{module_name}"]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                print(f"perfbench: policyprov.{module_name}.{path} not found, not traced", file=sys.stderr)
            elif isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif classes:
                self._patch(owner, attr, self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Layer name -> (self ns, calls) so far."""
        return {n: (s, c) for n, s, c in zip(self.names, self.self_ns, self.calls)}

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["id", "parent", "name", "start_us", "end_us"],
                                 "dropped": self.dropped}) + "\n")
            for span_id, parent, index, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, index, (start - origin) / 1e3, (end - origin) / 1e3]) + "\n")
