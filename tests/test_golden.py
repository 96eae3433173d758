"""Golden digests of every log, goal snapshot, PROV-JSON, DOT and query output.

`golden_digests.json` holds SHA-256 digests of the outputs on the eight
bundled fixtures, on one hand-built log that interleaves two policies, and
over the 1,000 seeded random runs, plus each fixture run's log hash and goal
snapshots and one digest over the random runs' log hashes and snapshots.
Any change to an output's bytes or order fails here. Regenerate the file only
for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from policyprov import TokenKind, build_prov, export_prov_json, query, reconstruct_process, to_dot

from conftest import BCU, NWT, OWNER, SNT, define_default_goal, make_system, open_policy

GOLDEN = Path(__file__).with_name("golden_digests.json")
FIXTURES = (
    "neighbourhood_safety",
    "change_control_board",
    "pattern_sequential",
    "pattern_parallel",
    "pattern_synchronous",
    "pattern_asynchronous",
    "pattern_async_parallel",
    "loop_phases",
)


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def policy_outputs(log, policy_id) -> dict:
    return {
        "prov": export_prov_json(build_prov(log, policy_id)),
        "dot": to_dot(reconstruct_process(log, policy_id)).encode("utf-8"),
        "dot_notifications": to_dot(
            reconstruct_process(log, policy_id, include_notifications=True)
        ).encode("utf-8"),
    }


def policies_of(log) -> list:
    return sorted({rec.body["policy_id"] for rec in log if "policy_id" in rec.body})


def query_filters(log) -> list:
    """No filter, each single filter value in the log, and actor x phase."""
    bodies = [rec.body for rec in log]
    values = {
        key: sorted({body[key] for body in bodies if body.get(key)})
        for key in ("policy_id", "goal_id", "phase_id")
    }
    actors = sorted(
        {body["who_carried_out"].rpartition("/")[2] for body in bodies if "who_carried_out" in body}
    )
    filters = [{}]
    filters += [{key: value} for key, found in values.items() for value in found]
    filters += [{"actor": actor} for actor in actors]
    filters += [{"actor": actor, "phase_id": phase} for actor in actors for phase in values["phase_id"]]
    return filters


def query_rows(log) -> list:
    rows = []
    for filters in query_filters(log):
        result = query(log, **filters)
        rows.append(
            {
                "filters": filters,
                "offsets": [rec.offset for rec in result.events],
                "policy": result.subgraph.policy_id,
                "nodes": [node.node_id for node in result.subgraph.nodes],
                "edges": [
                    [e.token_id, e.src_node, e.dst_node, e.src_actor, e.dst_actor, e.pattern.value]
                    for e in result.subgraph.edges
                ],
            }
        )
    return rows


def log_digests(log) -> dict:
    return {
        "policies": {
            pid: {name: sha(out) for name, out in policy_outputs(log, pid).items()}
            for pid in policies_of(log)
        },
        "queries": sha(json.dumps(query_rows(log), sort_keys=True)),
    }


def random_digest(traces) -> str:
    digest = hashlib.sha256()
    for seed, trace in traces:
        for pid in policies_of(trace.log):
            for name, out in policy_outputs(trace.log, pid).items():
                digest.update(f"{seed}/{pid}/{name}\n".encode("utf-8"))
                digest.update(out)
    return digest.hexdigest()


def run_digests(trace) -> dict:
    return {"log_hash": trace.log_hash, "goal_snapshots": sha(json.dumps(trace.goal_snapshots, sort_keys=True))}


def random_run_digest(traces) -> str:
    digest = hashlib.sha256()
    for seed, trace in traces:
        digest.update(f"{seed} {json.dumps(run_digests(trace), sort_keys=True)}\n".encode("utf-8"))
    return digest.hexdigest()


def two_policy_log():
    """Two policies whose tokens interleave, with responses both ways."""
    system = make_system()
    first, second = open_policy(system, b"idea one"), open_policy(system, b"idea two")
    define_default_goal(system, first, goal_id="g-one")
    define_default_goal(system, second, goal_id="g-two")

    def local(actor, policy, task, output):
        system.create_local_token(
            actor, policy.policy_id, task=task, task_input="survey results",
            task_output=output, task_description=task,
        )

    def send(actor, policy, dest, task, kind=TokenKind.TASK_HANDOFF):
        system.send_token(
            actor, policy.policy_id, destination=dest, previous_task=task,
            previous_task_output="problem analysis document", task_description=f"{task} message",
            kind=kind,
        )

    local(SNT, first, "analyse", "problem analysis document")
    local(SNT, second, "analyse", "draft note")
    send(SNT, first, BCU, "analyse", TokenKind.APPROVAL_REQUEST)
    send(SNT, first, NWT, "analyse")
    send(SNT, second, BCU, "analyse")
    local(SNT, first, "draft", "draft note")
    local(BCU, first, "review", "review note")
    local(BCU, second, "review", "review note")
    send(BCU, first, SNT, "review", TokenKind.APPROVAL_RESPONSE)
    local(NWT, first, "survey", "survey results")
    send(NWT, first, OWNER, "survey")
    send(BCU, second, SNT, "review", TokenKind.APPROVAL_RESPONSE)
    local(SNT, second, "draft", "draft note")
    local(OWNER, first, "decide", "decision")
    return system.log


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_outputs_match_golden(name, fixture_traces):
    assert log_digests(fixture_traces[name][1].log) == golden()["fixtures"][name]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_run_matches_golden(name, fixture_traces):
    assert run_digests(fixture_traces[name][1]) == golden()["runs"]["fixtures"][name]


def test_random_runs_match_golden(random_traces):
    assert random_run_digest(random_traces) == golden()["runs"]["random_traces"]


def test_two_policy_outputs_match_golden():
    assert log_digests(two_policy_log()) == golden()["two_policies"]


def test_random_run_outputs_match_golden(random_traces):
    assert random_digest(random_traces) == golden()["random_traces"]


if __name__ == "__main__":
    import policyprov as pp

    from conftest import run_random_scenario

    fixture_runs = {name: pp.run(pp.load_scenario(pp.fixture_path(name))) for name in FIXTURES}
    random_runs = [(seed, run_random_scenario(seed)) for seed in range(1000)]
    payload = {
        "fixtures": {name: log_digests(trace.log) for name, trace in fixture_runs.items()},
        "two_policies": log_digests(two_policy_log()),
        "random_traces": random_digest(random_runs),
        "runs": {
            "fixtures": {name: run_digests(trace) for name, trace in fixture_runs.items()},
            "random_traces": random_run_digest(random_runs),
        },
    }
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
