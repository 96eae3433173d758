"""End-to-end and per-layer benchmark of policyprov.

    python3 perfbench/run.py --workload fixtures|long-policy|many-policies|all \
        --seed N --seconds S --trace 0|1

One run generates its workload from the seed, then repeats whole rounds of
the same operations for S seconds, one process and one thread. A round
loads each scenario (`setup`), runs it to quiescence writing the log and
data files to disk (`ingest`), then, for each sampled policy, exports PROV
(`export_prov`) and the process graph (`export_graph`), and runs the query
mix on the loaded log (`query`). These are the library calls behind
`policyprov run`, `export --prov`, `export --graph` and `query`.

The first round is not timed: it checks every output against computations
made apart from the program (see checks.py). Every later round must give
the same log hash, the same log read back from disk and byte-identical
exports and query results. Each metric is the mean over the timed rounds.

With `--trace 1` the rounds alternate between traced and untraced; the
per-layer numbers come from the traced rounds and the tracing overhead is
the difference between the two kinds. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("fixtures", "long-policy", "many-policies")

# Per-layer metrics printed by a traced run; see README.md for the table that
# maps each to the end-to-end metric it should move.
LAYER_METRICS = (
    "simulation.load_scenario.self_s",
    "simulation.run.self_s",
    "simulation.trace_of.self_s",
    "network.send_token.calls",
    "network.send_token.self_s",
    "network.create_local_token.calls",
    "network.create_local_token.self_s",
    "model.validate_local_token.self_s",
    "model.validate_routed_token.self_s",
    "goals.evaluate_event.calls",
    "goals.evaluate_event.self_s",
    "goals.current_goal.calls",
    "goals.current_goal.self_s",
    "goals.fold_goal_state.calls",
    "goals.fold_goal_state.self_s",
    "storage.append.calls",
    "storage.append.self_s",
    "storage.put.self_s",
    "storage.content_hash.self_s",
    "storage.load.self_s",
    "storage.scan.calls",
    "storage.scan.self_s",
    "model.from_record.calls",
    "prov.build_prov.self_s",
    "prov.export_prov_json.self_s",
    "reconstruct.reconstruct_process.calls",
    "reconstruct.reconstruct_process.self_s",
    "reconstruct.query.self_s",
    "reconstruct.to_dot.self_s",
)


def import_program():
    """Import policyprov from this checkout's sources, and from nowhere else."""
    if not (SRC / "policyprov" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no policyprov sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import policyprov

    if Path(policyprov.__file__).resolve().parent != SRC / "policyprov":
        raise SystemExit(f"perfbench: imported policyprov from {policyprov.__file__}, not {SRC}")


def run_keeping_system(simulation, scenario, **kwargs):
    """`simulation.run`, also returning the live system it built."""
    systems = []
    build = simulation.build_system
    simulation.build_system = lambda *a, **k: systems.append(build(*a, **k)) or systems[-1]
    try:
        return simulation.run(scenario, **kwargs), systems[0]
    finally:
        simulation.build_system = build


class Bench:
    """Rounds of one workload's operations, timed and checked."""

    def __init__(self, items, work: Path):
        from policyprov import goals, prov, reconstruct, simulation, storage

        self.goals, self.prov, self.reconstruct = goals, prov, reconstruct
        self.simulation, self.storage = simulation, storage
        self.items, self.work = items, work
        self.tracer = None  # set while a traced round runs
        self.first: dict = {}
        self.problems: list = []
        self.attempted = self.failed = self._done = 0
        self._reported = False

    def _op(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.span(name, fn, *args, **kwargs)
        seconds = (time.perf_counter_ns() - start) / 1e9
        self._done += 1
        return result, seconds

    def export_prov(self, log_path: Path, policy_id: str) -> bytes:
        log = self.storage.EventLog.load(log_path)
        return self.prov.export_prov_json(self.prov.build_prov(log, policy_id))

    def export_graph(self, log_path: Path, policy_id: str):
        log = self.storage.EventLog.load(log_path)
        return log, self.reconstruct.to_dot(self.reconstruct.reconstruct_process(log, policy_id))

    def round(self, check: bool = False, tracer: Tracer = None) -> dict:
        """One round. With a tracer, spans cover the operations and not the
        checks, and times["layers"] holds each layer's (self ns, calls)."""
        times = {"setup": 0.0, "ingest": 0.0, "events": 0, "log_bytes": 0,
                 "export_prov": [], "export_graph": [], "query": []}
        finished = []
        if tracer is not None:
            before = tracer.totals()
            tracer.install()
        self.tracer = tracer
        try:
            for item in self.items:
                n_ops = 2 + 2 * len(item.export_policies) + len(item.queries)
                self.attempted += n_ops
                self._done = 0
                try:
                    finished.append((item, self._item_round(item, times, check)))
                except Exception:  # the failed operation and the rest of the item count as failed
                    self.failed += n_ops - self._done
                    if not self._reported:
                        traceback.print_exc()
                        self._reported = True
        finally:
            if tracer is not None:
                tracer.uninstall()
                times["layers"] = {k: (ns - before.get(k, (0, 0))[0], calls - before.get(k, (0, 0))[1])
                                   for k, (ns, calls) in tracer.totals().items()}
            self.tracer = None
        for item, outputs in finished:
            self._verify(item, check, *outputs)
        return times

    def _item_round(self, item, times: dict, check: bool):
        out = self.work / item.name
        log_path = out / "events.jsonl"
        scenario, seconds = self._op("setup", self.simulation.load_scenario, item.path)
        times["setup"] += seconds
        run_args = dict(seed=item.seed, step_budget=item.step_budget, log_path=log_path, data_root=out / "data")
        system = None
        if check:
            (trace, system), seconds = self._op("ingest", run_keeping_system, self.simulation, scenario, **run_args)
        else:
            trace, seconds = self._op("ingest", self.simulation.run, scenario, **run_args)
        times["ingest"] += seconds
        times["events"] += len(trace.offsets)
        times["log_bytes"] += log_path.stat().st_size
        outputs = [trace.log_hash]
        for policy_id in item.export_policies:
            payload, seconds = self._op("export_prov", self.export_prov, log_path, policy_id)
            times["export_prov"].append(seconds)
            (log, dot), seconds = self._op("export_graph", self.export_graph, log_path, policy_id)
            times["export_graph"].append(seconds)
            outputs += [payload, dot]
        results = []
        for filters in item.queries:
            result, seconds = self._op("query", self.reconstruct.query, log, **filters)
            times["query"].append(seconds)
            results.append(result)
            outputs.append(([e.offset for e in result.events], len(result.subgraph.nodes),
                            len(result.subgraph.edges)))
        return trace, system, log, outputs, results

    def _verify(self, item, check: bool, trace, system, log, outputs, results):
        first = self.first.setdefault(item.name, outputs)
        problems = checks.replay(first[0], trace.log_hash, log.content_hash())
        if outputs != first:
            problems.append("exports or query results differ from the first round's")
        if check:
            problems += self._check(item, trace, system, outputs, results)
        self.problems += [f"{item.name}: {p}" for p in problems]

    def _check(self, item, trace, system, outputs, results) -> list:
        records = checks.read_log(self.work / item.name / "events.jsonl")
        problems = []
        exported = dict(zip(item.export_policies, zip(outputs[1::2], outputs[2::2])))
        for policy_id, (payload, dot) in exported.items():
            problems += checks.prov_json(payload, records, policy_id)
            problems += checks.dot(dot, records, policy_id)
        for filters, result in zip(item.queries, results):
            problems += checks.query(records, filters, result)
        live = {p: [g.to_record() for g in system.goals.goals_for(p)] for p in system.policies}
        folded = {p: [g.to_record() for g in self.goals.fold_goal_state(system.log, p)] for p in system.policies}
        problems += checks.live_matches_fold(live, folded)
        if "fixture" in item.expect:
            log = system.log
            graph = self.reconstruct.reconstruct_process(log, "pol-1")
            looped = self.reconstruct.reconstruct_process(log, "pol-1", phase_order=item.expect["phases"])
            problems += checks.fixture(item.expect["fixture"], records, graph, looped, exported["pol-1"][0])
        else:
            problems += checks.scheduled(records, item.expect)
            problems += checks.goals_satisfied(trace.goal_snapshots)
        return problems


def _op_seconds(times: dict) -> float:
    return times["setup"] + times["ingest"] + sum(times["export_prov"] + times["export_graph"] + times["query"])


def end_to_end(rounds: list) -> dict:
    # The mean over the rounds averages the machine's speed phases, which last
    # tens of seconds; a median would pick whichever phase covers most of the
    # run, and runs would read as fast or slow with little in between.
    mean = statistics.fmean
    return {
        "setup_s": (mean(r["setup"] for r in rounds), "s"),
        "ingest_events_per_s": (sum(r["events"] for r in rounds) / sum(r["ingest"] for r in rounds), "1/s"),
        "export_prov_s": (mean(t for r in rounds for t in r["export_prov"]), "s"),
        "export_graph_s": (mean(t for r in rounds for t in r["export_graph"]), "s"),
        "query_s": (mean(t for r in rounds for t in r["query"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    metrics = {}
    for name in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = (statistics.median_low(t["layers"].get(layer, (0, 0))[1] for t in traced), "count")
        else:
            metrics[name] = (statistics.fmean(t["layers"].get(layer, (0, 0))[0] / 1e9 for t in traced), "s")
    metrics["storage.log_bytes"] = (statistics.median_low(t["log_bytes"] for t in traced), "B")
    on = statistics.fmean(_op_seconds(t) for t in traced)
    off = statistics.fmean(_op_seconds(t) for t in untraced)
    metrics["trace.overhead_pct"] = (100 * (on - off) / off, "%")
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import_program()
    work = HERE / "_runs" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workloads.build(workload, seed, work), work)
        bench.round(check=True)
        tracer = Tracer() if trace else None
        traced, untraced = [], []
        deadline = time.perf_counter() + seconds
        while len(untraced) < 2 or time.perf_counter() < deadline:
            gc.collect()
            if tracer is not None and len(traced) == len(untraced):
                traced.append(bench.round(tracer=tracer))
            else:
                untraced.append(bench.round())
        if tracer is not None:
            tracer.write(HERE / "_traces" / f"{workload}-{seed}.jsonl")
            metrics = per_layer(traced, untraced)
        else:
            metrics = end_to_end(untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":  # each workload in its own process
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print(json.dumps({"workload": workload, **json.loads(done.stdout.splitlines()[-1])})
                  if done.returncode == 0 else json.dumps({"workload": workload, "exit": done.returncode}))
            status = status or done.returncode
        return status
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
