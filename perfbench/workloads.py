"""Workloads: the bundled fixtures and a seeded scenario generator.

The generator writes plain scenario JSON, so the program under test only ever
sees generated inputs, and returns with it what a correct run must produce:
the local tokens and sends it scheduled, and the number of rules that fire.

The seed picks which worker does each step and who receives each send, the
submission payloads, the sampled policies and the query values. It never
changes how many tokens, sends, rules or goals there are, nor the order of
the records, nor, with two networks, how many tokens each network stamps,
so every count and the log's length repeat exactly across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

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

PHASES = ("agenda-setting", "analysis")

# Generator parameters per workload; see README.md for why each is sized so.
GENERATED = {
    "long-policy": dict(policies=1, steps=240, actors=6, networks=2, receivers=2, answer_share=0.5),
    "many-policies": dict(policies=150, steps=3, actors=8, networks=2, receivers=1, answer_share=0.5),
}
EXPORTS_PER_ROUND = {"long-policy": 1, "many-policies": 3}

CLI_STEP_BUDGET = 1000  # `policyprov run` default, used for the fixtures


@dataclass
class Item:
    """One scenario of a workload and the operations a round applies to it."""

    name: str
    path: Path
    seed: int
    step_budget: int
    export_policies: list
    queries: list
    expect: dict = field(default_factory=dict)


def build(workload: str, seed: int, work: Path) -> list:
    if workload == "fixtures":
        return fixture_items(seed)
    if workload not in GENERATED:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    scenario, expect = generate(rng, **GENERATED[workload])
    path = work / f"{workload}.json"
    path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
    policies = [f"pol-{p + 1}" for p in range(GENERATED[workload]["policies"])]
    goal_of = {f"pol-{p + 1}": g["goal_id"] for p, g in enumerate(scenario["goals"].values())}
    approvers = expect["approvers"]
    probe = rng.randrange(len(policies))
    queries = [
        {"actor": approvers[0]},
        {"goal_id": goal_of[policies[probe]]},
        {"phase_id": PHASES[-1], "actor": approvers[probe % len(approvers)]},
    ]
    exports = sorted(rng.sample(policies, EXPORTS_PER_ROUND[workload]), key=lambda p: int(p[4:]))
    return [Item(workload, path, seed, expect.pop("rules_fired"), exports, queries, expect)]


def fixture_items(seed: int) -> list:
    from policyprov import fixture_path

    items = []
    for i, name in enumerate(FIXTURES):
        path = fixture_path(name)
        raw = json.loads(path.read_text(encoding="utf-8"))
        owner = raw["owner"].rpartition("/")[2]
        goal_id = next(iter(raw["goals"].values()))["goal_id"]
        queries = [{"actor": owner}, {"goal_id": goal_id}, {"phase_id": raw["phases"][0]}]
        items.append(
            Item(name, path, seed * len(FIXTURES) + i, CLI_STEP_BUDGET, ["pol-1"], queries,
                 {"fixture": raw.get("expected", {}), "phases": raw["phases"]})
        )
    return items


def generate(rng, policies, steps, actors, networks, receivers, answer_share):
    """Scenario with `policies` policies of `steps` steps each.

    Actor a0 owns every policy and a1 and a2 approve goals, alternately per
    policy; the three are in network n0. The rest are workers, spread over
    the other networks, so with two networks the sequence numbers each
    network stamps do not depend on the seed. The owner's time-triggered
    rule number p submits policy p, defines its goal (deliver the last
    step's artifact, then the approver's approval) and hands the first step
    to a worker.
    Each step is a `once: false` receive rule keyed by a tag in the task
    description: the worker records a local token, then sends to `receivers`
    other workers. The first send carries the task on, as a handoff or as an
    approval request whose answer returns it; the others are side sends. A
    fixed share of each policy's sends is answered, at positions that
    depend on the policy's number but not on the seed.
    The last step asks the policy's approver, whose answer satisfies the
    goal and makes the approver notify the owner.
    """
    names = [f"a{i}" for i in range(actors)]
    owner, approvers, workers = names[0], names[1:3], names[3:]
    if len(workers) < receivers + 1 or networks < 2 or actors > 10 or policies > 9999 or steps > 999:
        raise ValueError("generator parameters out of range")
    addr = {a: f"n0/{a}" for a in (owner, *approvers)}
    addr |= {w: f"n{1 + i % (networks - 1)}/{w}" for i, w in enumerate(workers)}
    rules = {a: [] for a in names}
    goals, local_tokens, sends = {}, [], []
    # Which sends are answered fixes the order of the records in the log, and
    # with it the sequence numbers and timestamps, so it does not use the seed.
    optional = (steps - 1) * receivers  # sends per policy that may be answered
    answered = {p * optional + i for p in range(policies)
                for i in random.Random(p).sample(range(optional), round(answer_share * optional))}
    counter = 0

    def rule(actor, tag, actions, at_time=None):
        trigger = {"at_time": at_time} if tag is None else {"on_receive": {"task_description_contains": tag}}
        rules[actor].append({"trigger": trigger, "once": tag is None, "actions": actions})

    def local(actor, task, task_input, task_output, phase):
        local_tokens.append([addr[actor], task])
        return {"do": "local_token", "task": task, "task_input": task_input, "task_output": task_output,
                "task_description": task, "source_of_evidence": task_input, "data_details": task_input,
                "phase_id": phase}

    def send(src, dst, kind, prev_task, prev_output, description, phase):
        sends.append([addr[src], addr[dst], kind, description])
        return {"do": "send_token", "to": addr[dst], "kind": kind, "previous_task": prev_task,
                "previous_task_output": prev_output, "task_description": description,
                "source_of_evidence": prev_output, "data_details": prev_output, "phase_id": phase}

    for p in range(policies):
        goal_name, approver = f"goal {p:04d}", approvers[p % len(approvers)]
        artifact = [f"artifact {p:04d}.{s:03d}" for s in range(steps)]
        goals[f"goal-{p:04d}"] = {
            "goal_id": f"g-{p:04d}",
            "phase": PHASES[p % len(PHASES)],
            "name": goal_name,
            "metrics": [
                {"kind": "artifact-delivery", "artifact": artifact[-1]},
                {"kind": "approval", "approver": addr[approver]},
            ],
        }

        def tag(s, suffix=""):
            return f"[p{p:04d}.s{s:03d}{suffix}]"

        actor = rng.choice(workers)
        brief = f"brief {p:04d}"
        rule(owner, None, [
            {"do": "submit_policy", "payload": f"submission {p:04d} {rng.getrandbits(32):08x}",
             "media_hint": "policy submission"},
            {"do": "define_goal", "goal": f"goal-{p:04d}"},
            send(owner, actor, "task-handoff", "open policy", brief, f"{tag(0)} open", PHASES[0]),
        ], at_time=p)
        for s in range(steps):
            phase = PHASES[s * len(PHASES) // steps]
            task = f"task {p:04d}.{s:03d}"
            actions = [local(actor, task, artifact[s - 1] if s else brief, artifact[s], phase)]
            if s == steps - 1:
                targets = [(approver, True, tag(s, ".r0"), tag(s + 1))]
            else:
                targets = []
                for j, other in enumerate(rng.sample([w for w in workers if w != actor], receivers)):
                    ask = counter in answered
                    counter += 1
                    onward = tag(s + 1) if j == 0 else tag(s, f".r{j}.done")
                    targets.append((other, ask, tag(s, f".r{j}") if ask else onward, onward))
            for other, ask, sent_tag, answer_tag in targets:
                kind = "approval-request" if ask else "task-handoff"
                actions.append(send(actor, other, kind, task, artifact[s], f"{sent_tag} {kind}", phase))
                if ask:
                    review, reply = f"review {p:04d}.{s:03d}", f"reply {p:04d}.{s:03d}"
                    rule(other, sent_tag, [
                        local(other, review, artifact[s], reply, phase),
                        send(other, actor, "approval-response", review, reply, f"{answer_tag} answer", phase),
                    ])
            rule(actor, tag(s), actions)
            other, ask = targets[0][:2]
            if not ask:  # a handoff moves the task on; an answered request returns it
                actor = other
        sends.append([addr[approver], addr[owner], "notification", f"goal satisfied: {goal_name}"])

    scenario = {
        "name": f"generated-{policies}x{steps}",
        "seed": 0,
        "phases": list(PHASES),
        "networks": [
            {"id": f"n{i}", "actors": [a for a in names if addr[a].startswith(f"n{i}/")]}
            for i in range(networks)
        ],
        "links": [[f"n{i}", f"n{j}"] for i in range(networks) for j in range(i + 1, networks)],
        "owner": addr[owner],
        "goals": goals,
        "behaviors": [{"actor": addr[a], "rules": rules[a]} for a in names if rules[a]],
    }
    expect = {
        "local_tokens": local_tokens,
        "sends": sends,
        "approvers": [addr[a] for a in approvers],
        "rules_fired": sum(len(r) for r in rules.values()),
    }
    return scenario, expect
