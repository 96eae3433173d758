"""Shared test helpers: small systems, random scenarios, invariant checkers.

The checkers here are written against the event-log record format only, so
they stay independent of the engine code paths they verify.
"""

from __future__ import annotations

import random

import pytest

from policyprov import (
    Address,
    Metric,
    MetricKind,
    PolicySystem,
    load_scenario,
)

OWNER = Address("local-council", "policy-owner")
SNT = Address("local-council", "safer-neighbourhood-team")
BCU = Address("local-council", "business-control-unit")
NWT = Address("local-council", "neighbourhood-watch-team")
COMMUNITY = Address("citizens", "community")


def make_system(seed=0, phases=("agenda-setting", "analysis"), log_path=None) -> PolicySystem:
    """Council + citizens networks with the case-study cast of actors."""
    system = PolicySystem(phases=phases, seed=seed, owner=OWNER, log_path=log_path)
    system.register_network("local-council")
    system.register_network("citizens")
    for addr in (OWNER, SNT, BCU, NWT):
        system.register_actor(addr.network_id, addr.actor_id)
    system.register_actor("citizens", "community")
    system.link_networks("local-council", "citizens")
    return system


def open_policy(system: PolicySystem, payload=b"community idea"):
    record = system.put_data(payload, COMMUNITY, "community idea document")
    policy, _, _ = system.notify_new_policy(record, COMMUNITY)
    return policy


def define_default_goal(system: PolicySystem, policy, goal_id="g-problem-identification"):
    return system.define_goal(
        policy.policy_id,
        "agenda-setting",
        "problem identification",
        [
            Metric(f"{goal_id}-m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="problem analysis document"),
            Metric(f"{goal_id}-m2", MetricKind.APPROVAL, approver=BCU),
        ],
        by=OWNER,
        goal_id=goal_id,
    )


# ---------------------------------------------------------------------------
# Brute-force oracles and invariant checkers (log-record level).
# ---------------------------------------------------------------------------

ADDRESS_KEYS = ("who_carried_out", "source_address", "destination_address", "created_by", "by")


def oracle_scan(log, **filters):
    """Independent full-scan-then-filter; mirror of the scan contract."""
    out = []
    for rec in log:
        body = rec.body
        ok = True
        for key in ("policy_id", "goal_id", "phase_id"):
            want = filters.get(key)
            if want is not None and body.get(key) != want:
                ok = False
        want_kind = filters.get("event_kind")
        if want_kind is not None and rec.event_kind != want_kind:
            ok = False
        rng = filters.get("offset_range")
        if rng is not None and not (rng[0] <= rec.offset <= rng[1]):
            ok = False
        actor = filters.get("actor")
        if actor is not None:
            hit = False
            for key in ADDRESS_KEYS:
                value = body.get(key)
                if isinstance(value, str) and (value == actor or value.split("/")[-1] == actor):
                    hit = True
            if not hit:
                ok = False
        if ok:
            out.append(rec)
    return out


def induced_subgraph(log, events, graphs: dict) -> tuple[list, list]:
    """The nodes and edges `query` must return for the matched `events`: each
    policy they name, in id order, its whole `reconstruct_process` graph
    (built once into `graphs`) induced on the activities of the matched local
    tokens, each known by its actor and time."""
    from policyprov import reconstruct_process

    performed = {
        (rec.body["who_carried_out"], rec.body["timestamp"]) for rec in events if rec.event_kind == "local-token"
    }
    nodes, edges = [], []
    for policy_id in sorted({rec.body["policy_id"] for rec in events if "policy_id" in rec.body}):
        if policy_id not in graphs:
            graphs[policy_id] = reconstruct_process(log, policy_id)
        kept = [node for node in graphs[policy_id].nodes if (node.actor, node.time) in performed]
        ids = {node.node_id for node in kept}
        nodes += kept
        edges += [edge for edge in graphs[policy_id].edges if edge.src_node in ids and edge.dst_node in ids]
    return nodes, edges


def conservation_violations(log) -> list[str]:
    """Every send must pair with exactly one receive OR one dead-letter
    receipt; duplicate receipts never accompany a second receive."""
    sends, receives, receipts = {}, {}, {}
    for rec in log:
        tid = rec.body.get("token_id")
        if rec.event_kind == "routed-token-send":
            sends[tid] = sends.get(tid, 0) + 1
        elif rec.event_kind == "routed-token-receive":
            receives[tid] = receives.get(tid, 0) + 1
        elif rec.event_kind == "receipt":
            receipts.setdefault(tid, []).append(rec.body["outcome"])
    bad = []
    for tid in sends:
        n_recv = receives.get(tid, 0)
        outcomes = receipts.get(tid, [])
        dead = outcomes.count("dead-letter")
        dup = outcomes.count("duplicate-ignored")
        delivered = outcomes.count("delivered")
        if not (
            (n_recv == 1 and delivered == 1 and dead == 0)
            or (n_recv == 0 and dead == 1 and delivered == 0)
        ):
            bad.append(f"{tid}: recv={n_recv} outcomes={outcomes}")
        if n_recv > 1 and dup != len(outcomes) - 1:
            bad.append(f"{tid}: duplicate delivery changed state")
    return bad


def seq_violations(log) -> list[str]:
    """Per-(network, policy) sequence numbers must be gap-free 1..n."""
    seen: dict[tuple, list[int]] = {}
    for rec in log:
        body = rec.body
        if rec.event_kind == "local-token":
            network = body["who_carried_out"].split("/")[0]
        elif rec.event_kind == "routed-token-send":
            network = body["source_address"].split("/")[0]
        else:
            continue
        seen.setdefault((network, body["policy_id"]), []).append(body["seq_num"])
    bad = []
    for key, seqs in seen.items():
        if sorted(seqs) != list(range(1, len(seqs) + 1)):
            bad.append(f"{key}: {seqs}")
    return bad


def soundness_violations(doc) -> list[str]:
    """PROV temporal soundness + single-generator, checked structurally."""
    bad = []
    generators: dict[str, list[str]] = {}
    for entity, activity in doc.was_generated_by:
        generators.setdefault(entity, []).append(activity)
    for entity, acts in generators.items():
        if len(acts) > 1:
            bad.append(f"{entity}: {len(acts)} generators")
    for activity, entity in doc.used:
        attrs = doc.entities[entity]
        if attrs.get("external_origin"):
            continue
        generated_at = attrs.get("generated_at")
        start = doc.activities[activity].get("start")
        if generated_at is None or start is None or generated_at > start:
            bad.append(f"used({activity}, {entity}): gen={generated_at} use={start}")
    for relation in (doc.used, doc.was_generated_by, doc.was_derived_from):
        for a, b in relation:
            for node in (a, b):
                if node not in doc.entities and node not in doc.activities:
                    bad.append(f"dangling endpoint {node}")
    return bad


def monotonicity_violations(log) -> list[str]:
    """A satisfied goal may only leave 'satisfied' via a goal-modified event."""
    status: dict[str, str] = {}
    bad = []
    for rec in log:
        body = rec.body
        goal_id = body.get("goal_id")
        if rec.event_kind in ("goal-defined", "goal-modified"):
            new = body["status"]
            if status.get(goal_id) == "satisfied" and new != "satisfied":
                if rec.event_kind != "goal-modified":
                    bad.append(f"{goal_id} reverted at offset {rec.offset}")
            status[goal_id] = new
        elif rec.event_kind == "goal-satisfied":
            status[goal_id] = "satisfied"
    return bad


# ---------------------------------------------------------------------------
# Random scenario generator for the property suites.
# ---------------------------------------------------------------------------

_TASKS = ("review", "analyse", "consult", "draft", "survey", "assess")
_ARTIFACTS = ("report a", "report b", "survey results", "draft note", "minutes")


def random_scenario_dict(seed: int) -> dict:
    rng = random.Random(seed)
    networks = []
    for i in range(rng.randint(1, 3)):
        networks.append({"id": f"n{i}", "actors": [f"a{i}{j}" for j in range(rng.randint(1, 3))]})
    net_ids = [n["id"] for n in networks]
    addresses = [f"{n['id']}/{a}" for n in networks for a in n["actors"]]
    links = []
    for i, a in enumerate(net_ids):
        for b in net_ids[i + 1 :]:
            if rng.random() < 0.6:
                links.append([a, b])
    owner = addresses[0]
    others = [a for a in addresses if a != owner]
    submitter = rng.choice(others) if others else owner
    goals = {}
    for g in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            metric = {"kind": "artifact-delivery", "artifact": rng.choice(_ARTIFACTS)}
        else:
            metric = {"kind": "approval", "approver": rng.choice(addresses)}
        goals[f"goal{g}"] = {
            "goal_id": f"g{g}",
            "phase": "agenda-setting",
            "name": f"goal {g}",
            "metrics": [metric],
        }
    behaviors = [
        {
            "actor": submitter,
            "rules": [
                {
                    "trigger": {"at_time": 0},
                    "actions": [{"do": "submit_policy", "payload": f"idea-{seed}", "media_hint": "idea"}],
                }
            ],
        },
        {
            "actor": owner,
            "rules": [
                # Timed rather than notification-triggered so goals exist even
                # when the submitter's network is not linked to the owner's.
                {
                    "trigger": {"at_time": 1},
                    "actions": [{"do": "define_goal", "goal": ref} for ref in goals],
                }
            ],
        },
    ]
    for step in range(rng.randint(2, 6)):
        actor = rng.choice(addresses)
        actions = [
            {
                "do": "local_token",
                "task": rng.choice(_TASKS),
                "task_input": rng.choice(_ARTIFACTS),
                "task_output": rng.choice(_ARTIFACTS),
                "task_description": f"step {step}",
                "source_of_evidence": "test evidence",
                "data_details": "test data",
            }
        ]
        if rng.random() < 0.8:
            dest = rng.choice([a for a in addresses if a != actor] or [actor])
            if dest != actor:
                actions.append(
                    {
                        "do": "send_token",
                        "to": dest,
                        "kind": rng.choice(["task-handoff", "approval-request", "approval-response"]),
                        "previous_task": rng.choice(_TASKS),
                        "previous_task_output": rng.choice(_ARTIFACTS),
                        "task_description": f"message {step}",
                        "source_of_evidence": "test evidence",
                        "data_details": "test data",
                    }
                )
        behaviors.append(
            {"actor": actor, "rules": [{"trigger": {"at_time": step + 2}, "actions": actions}]}
        )
    return {
        "name": f"random-{seed}",
        "seed": seed,
        "phases": ["agenda-setting", "analysis"],
        "networks": networks,
        "links": links,
        "owner": owner,
        "goals": goals,
        "behaviors": behaviors,
    }


def two_policy_scenario_dict(second_goal: str = "gb") -> dict:
    """alpha and beta each submit a policy; the owner gives each its goal
    (`second_goal` for beta's) and hands the submitter the task that meets it."""

    def owner_rule(submitter: str, goal: str) -> dict:
        return {
            "trigger": {"on_receive": {"kind": "notification", "from": submitter,
                                       "task_description_contains": "submission"}},
            "actions": [
                {"do": "define_goal", "goal": goal},
                {"do": "send_token", "to": submitter, "previous_task": "review",
                 "previous_task_output": "brief", "task_description": "write it up"},
            ],
        }

    def submitter(actor: str, at_time: int, output: str) -> dict:
        return {
            "actor": actor,
            "rules": [
                {"trigger": {"at_time": at_time},
                 "actions": [{"do": "submit_policy", "payload": f"idea {actor}", "media_hint": "idea"}]},
                {"trigger": {"on_receive": {"kind": "task-handoff"}},
                 "actions": [{"do": "local_token", "task": "write", "task_input": "notes",
                              "task_output": output, "task_description": "write it up",
                              "source_of_evidence": "brief"}]},
            ],
        }

    return {
        "name": "two-policies",
        "seed": 5,
        "phases": ["agenda-setting", "analysis"],
        "networks": [{"id": "net", "actors": ["owner", "alpha", "beta"]}],
        "links": [],
        "owner": "net/owner",
        "goals": {
            "ga": {"goal_id": "g-a", "phase": "agenda-setting", "name": "report a",
                   "metrics": [{"kind": "artifact-delivery", "artifact": "report a"}]},
            "gb": {"goal_id": "g-b", "phase": "analysis", "name": "report b",
                   "metrics": [{"kind": "artifact-delivery", "artifact": "report b"}]},
        },
        "behaviors": [
            submitter("net/alpha", 0, "report a"),
            submitter("net/beta", 1, "report b"),
            {"actor": "net/owner",
             "rules": [owner_rule("net/alpha", "ga"), owner_rule("net/beta", second_goal)]},
        ],
    }


def run_random_scenario(seed: int):
    from policyprov import run

    return run(load_scenario(random_scenario_dict(seed)))


@pytest.fixture(scope="session")
def fixture_traces():
    """Every bundled fixture, run once per session."""
    import policyprov as pp

    names = [
        "neighbourhood_safety",
        "change_control_board",
        "pattern_sequential",
        "pattern_parallel",
        "pattern_synchronous",
        "pattern_asynchronous",
        "pattern_async_parallel",
        "loop_phases",
    ]
    out = {}
    for name in names:
        scenario = pp.load_scenario(pp.fixture_path(name))
        out[name] = (scenario, pp.run(scenario))
    return out


@pytest.fixture(scope="session")
def random_traces():
    """1,000 randomized scenario runs shared by the property criteria."""
    return [(seed, run_random_scenario(seed)) for seed in range(1000)]
