"""Output checks computed apart from the program.

Each check reads the event log as plain JSON lines (not through
`EventLog`) or parses the exported bytes, and returns a list of problems;
an empty list means the output is correct. No stored copy of an earlier
output is used: expectations come from the fixtures' hand-written
`expected` blocks, from what the generator scheduled, and from filters
written here.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

PROV_MEMBERS = {
    "entity", "activity", "agent", "used",
    "wasGeneratedBy", "wasAssociatedWith", "wasInformedBy", "wasDerivedFrom",
}
ADDRESS_KEYS = ("who_carried_out", "source_address", "destination_address", "created_by", "by")
DOT_NODE = re.compile(r'^  "[^"]*" \[label=')
DOT_EDGE = re.compile(r'^  "[^"]*" -> "[^"]*" \[label=')


def read_log(path: Path) -> list:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _of_policy(records, kind, policy_id):
    return [r for r in records if r["event_kind"] == kind and r["body"].get("policy_id") == policy_id]


def _actor_is(value, actor) -> bool:
    return isinstance(value, str) and (value == actor or value.split("/")[-1] == actor)


def replay(first_hash: str, run_hash: str, disk_hash: str) -> list:
    problems = []
    if run_hash != first_hash:
        problems.append(f"replay: log hash {run_hash} differs from the first run's {first_hash}")
    if disk_hash != run_hash:
        problems.append(f"replay: log read back from disk hashes to {disk_hash}, not {run_hash}")
    return problems


def scheduled(records, expect: dict) -> list:
    """The tokens and sends the generator scheduled are exactly those logged,
    and every send is delivered."""
    problems = []
    local = Counter((r["body"]["who_carried_out"], r["body"]["task"])
                    for r in records if r["event_kind"] == "local-token")
    if local != Counter(map(tuple, expect["local_tokens"])):
        problems.append(f"log: {sum(local.values())} local tokens differ from the "
                        f"{len(expect['local_tokens'])} scheduled")
    sends = [r["body"] for r in records if r["event_kind"] == "routed-token-send"]
    got = Counter((b["source_address"], b["destination_address"], b["kind"], b["task_description"])
                  for b in sends)
    if got != Counter(map(tuple, expect["sends"])):
        problems.append(f"log: {len(sends)} sends differ from the {len(expect['sends'])} scheduled")
    received = {r["body"]["token_id"] for r in records if r["event_kind"] == "routed-token-receive"}
    outcomes = Counter(r["body"]["outcome"] for r in records if r["event_kind"] == "receipt")
    undelivered = [b["token_id"] for b in sends if b["token_id"] not in received]
    if undelivered or outcomes != Counter({"delivered": len(sends)}):
        problems.append(f"log: {len(undelivered)} sends not delivered; receipts {dict(outcomes)}")
    return problems


def goals_satisfied(goal_snapshots: dict) -> list:
    return [
        f"goals: {policy_id} {goal['goal_id']} ends {goal['status']}"
        for policy_id, snapshot in goal_snapshots.items()
        for goal in snapshot["goals"]
        if goal["status"] != "satisfied"
    ] + ([] if goal_snapshots else ["goals: no policy in the run summary"])


def live_matches_fold(live: dict, folded: dict) -> list:
    """live/folded: policy id -> goal records, from the engine and the fold."""
    return [
        f"goals: live engine differs from fold_goal_state for {policy_id}"
        for policy_id in sorted(set(live) | set(folded))
        if live.get(policy_id) != folded.get(policy_id)
    ]


def query(records, filters: dict, result) -> list:
    """Events equal a plain filter over the records; the subgraph holds one
    node per matching local token of every policy the events touch."""
    goal_id, phase_id, actor = (filters.get(k) for k in ("goal_id", "phase_id", "actor"))

    def keep(body):
        return ((goal_id is None or body.get("goal_id") == goal_id)
                and (phase_id is None or body.get("phase_id") == phase_id))

    matched = [r for r in records if keep(r["body"])
               and (actor is None or any(_actor_is(r["body"].get(k), actor) for k in ADDRESS_KEYS))]
    problems = []
    got = [rec.offset for rec in result.events]
    want = [r["offset"] for r in matched]
    if got != want:
        problems.append(f"query {filters}: {len(got)} events, expected {len(want)}")
    policies = {r["body"]["policy_id"] for r in matched if "policy_id" in r["body"]}
    nodes = [r for r in records if r["event_kind"] == "local-token"
             and r["body"]["policy_id"] in policies and keep(r["body"])
             and (actor is None or _actor_is(r["body"]["who_carried_out"], actor))]
    if len(result.subgraph.nodes) != len(nodes):
        problems.append(f"query {filters}: {len(result.subgraph.nodes)} nodes, expected {len(nodes)}")
    return problems


def prov_json(payload: bytes, records, policy_id: str) -> list:
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        return [f"prov {policy_id}: not JSON ({exc})"]
    if not isinstance(doc, dict) or set(doc) != PROV_MEMBERS:
        return [f"prov {policy_id}: members are not the eight PROV-JSON members"]
    problems = []
    n_local = len(_of_policy(records, "local-token", policy_id))
    if len(doc["activity"]) != n_local:
        problems.append(f"prov {policy_id}: {len(doc['activity'])} activities for {n_local} local tokens")
    generators = Counter(g["prov:entity"] for g in doc["wasGeneratedBy"].values())
    problems += [f"prov {policy_id}: {e} has {n} generators" for e, n in generators.items() if n > 1]
    for use in doc["used"].values():
        entity = doc["entity"].get(use["prov:entity"])
        activity = doc["activity"].get(use["prov:activity"])
        if entity is None or activity is None:
            problems.append(f"prov {policy_id}: used() names an undeclared node")
            continue
        generated_at = entity.get("generated_at")
        if not entity.get("external_origin") and (generated_at is None or generated_at > activity["start"]):
            problems.append(f"prov {policy_id}: {use['prov:entity']} used by "
                            f"{use['prov:activity']} before it is generated")
    return problems


def dot(text: str, records, policy_id: str) -> list:
    lines = text.splitlines()
    nodes = sum(1 for line in lines if DOT_NODE.match(line))
    edges = sum(1 for line in lines if DOT_EDGE.match(line))
    received = {r["body"]["token_id"] for r in _of_policy(records, "routed-token-receive", policy_id)}
    want_edges = sum(1 for r in _of_policy(records, "routed-token-send", policy_id)
                     if r["body"]["kind"] != "notification" and r["body"]["token_id"] in received)
    want_nodes = len(_of_policy(records, "local-token", policy_id))
    problems = []
    if lines[:1] != ["digraph process {"] or lines[-1:] != ["}"]:
        problems.append(f"dot {policy_id}: not one digraph")
    if nodes != want_nodes:
        problems.append(f"dot {policy_id}: {nodes} nodes for {want_nodes} local tokens")
    if edges != want_edges:
        problems.append(f"dot {policy_id}: {edges} edges for {want_edges} delivered sends")
    return problems


def fixture(expected: dict, records, graph, looped, prov_payload: bytes) -> list:
    """A fixture's hand-written `expected` block against its outputs.

    `graph` is the exported process graph, `looped` the same policy
    reconstructed with the scenario's phase order.
    """
    problems = []

    def short(actor):
        return actor.rpartition("/")[2]

    edges = sorted(graph.edges, key=lambda e: e.time)
    if "goal" in expected:
        want = expected["goal"]
        order = [r["body"]["metric_id"] for r in records if r["event_kind"] == "metric-satisfied"]
        states = {r["body"]["goal_id"] for r in records if r["event_kind"] == "goal-satisfied"}
        status = "satisfied" if want["goal_id"] in states else "active"
        if order != want["metric_order"] or status != want["status"]:
            problems.append(f"fixture goal: metrics {order}, status {status}")
    if "nodes" in expected and [n.task for n in graph.nodes] != expected["nodes"]:
        problems.append("fixture nodes differ")
    rows = [[short(e.src_actor), short(e.dst_actor), e.edge_type, e.pattern.value] for e in edges]
    if "edges" in expected and rows != expected["edges"]:
        problems.append(f"fixture edges differ: {rows}")
    if "probe_edges" in expected and [[a, b, p] for a, b, _, p in rows] != expected["probe_edges"]:
        problems.append(f"fixture patterns differ: {rows}")
    if "actor_chain" in expected and graph.actor_chain() != expected["actor_chain"]:
        problems.append("fixture actor chain differs")
    markers = [[m[0], m[1]] for m in looped.loop_markers]
    if markers != expected.get("loop_markers", markers):
        problems.append(f"fixture loop markers {markers}")
    if "prov" in expected:
        want, doc = expected["prov"], json.loads(prov_payload)
        counts = [len(doc["entity"]), len(doc["activity"]), len(doc["agent"])]
        labels = {e.get("label") for e in doc["entity"].values()}
        if counts != [want["entities"], want["activities"], want["agents"]] or not set(
            want["entity_labels_include"]
        ) <= labels:
            problems.append(f"fixture prov counts {counts}")
    return problems
