"""Command-line entry point: run scenarios, query the log, export provenance.

Exit codes: 0 success, 2 input/scenario errors (an unreadable or corrupt log,
an output that cannot be written, and any other policyprov error a run
raises), 3 runaway scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import CorruptLogError, PolicyProvError, RunawayScenarioError, ScenarioError, UnknownPolicyError
from .prov import build_prov, export_prov_json
from .reconstruct import reconstruct_process, to_dot
from .simulation import load_scenario, run, trace_report
from .storage import EventLog, policy_ids


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.output or os.environ.get("POLICYPROV_OUT", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = run(
            scenario,
            seed=args.seed,
            step_budget=args.step_budget,
            log_path=out_dir / "events.jsonl",
            data_root=out_dir / "data",
        )
        (out_dir / "trace.txt").write_text(trace_report(trace), encoding="utf-8")
        (out_dir / "goals.json").write_text(
            json.dumps(trace.goal_snapshots, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except RunawayScenarioError as exc:
        print(f"runaway scenario: {exc}", file=sys.stderr)
        return 3
    except PolicyProvError as exc:
        print(f"run failed: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory or a file in it cannot be made or written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"quiescent after {len(trace.offsets)} events; log hash {trace.log_hash}")
    return 0


def _load_log(path) -> Optional[EventLog]:
    """The log at `path`, or None after saying why it cannot be read."""
    try:
        return EventLog.load(path)
    except (OSError, CorruptLogError) as exc:
        print(f"cannot read log: {exc}", file=sys.stderr)
        return None


def cmd_query(args) -> int:
    log = _load_log(args.log)
    if log is None:
        return 2
    offset_range = None
    if args.offsets:
        lo, _, hi = args.offsets.partition(":")
        try:
            offset_range = (int(lo), int(hi))
        except ValueError:
            print(f"bad --offsets {args.offsets!r}: not lo:hi, two integers", file=sys.stderr)
            return 2
    records = log.scan(
        policy_id=args.policy,
        goal_id=args.goal,
        phase_id=args.phase,
        actor=args.actor,
        event_kind=args.kind,
        offset_range=offset_range,
    )
    try:
        for rec in records:
            print(rec.to_json())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`). Point stdout at devnull, so
        # that the flush at exit does not raise again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_export(args) -> int:
    log = _load_log(args.log)
    if log is None:
        return 2
    policies = policy_ids(log)
    policy_id = args.policy or (policies[0] if len(policies) == 1 else None)
    if policy_id is None:
        print("log holds multiple policies; pass --policy" if policies else "log names no policy", file=sys.stderr)
        return 2
    try:
        if args.prov:
            payload = export_prov_json(build_prov(log, policy_id))
        else:
            graph = reconstruct_process(log, policy_id, include_notifications=args.include_notifications)
            payload = to_dot(graph).encode("utf-8")
    except UnknownPolicyError:
        print(f"unknown policy: {policy_id}", file=sys.stderr)
        return 2
    except CorruptLogError as exc:  # a token record that does not decode
        print(f"cannot read log: {exc}", file=sys.stderr)
        return 2
    try:
        Path(args.out).write_bytes(payload)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="policyprov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to quiescence")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("-o", "--output", help="output directory (default $POLICYPROV_OUT or .)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--step-budget", type=int, default=1000)
    p_run.set_defaults(func=cmd_run)

    p_query = sub.add_parser("query", help="filter event-log records")
    p_query.add_argument("log", help="events.jsonl path")
    p_query.add_argument("--goal")
    p_query.add_argument("--phase")
    p_query.add_argument("--actor")
    p_query.add_argument("--policy")
    p_query.add_argument("--kind")
    p_query.add_argument("--offsets", help="inclusive range lo:hi")
    p_query.set_defaults(func=cmd_query)

    p_export = sub.add_parser("export", help="export PROV-JSON or a DOT process graph")
    p_export.add_argument("log", help="events.jsonl path")
    group = p_export.add_mutually_exclusive_group(required=True)
    group.add_argument("--prov", action="store_true")
    group.add_argument("--graph", action="store_true")
    p_export.add_argument("-o", "--out", required=True)
    p_export.add_argument("--policy")
    p_export.add_argument("--include-notifications", action="store_true")
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
