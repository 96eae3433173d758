"""Scenario loading, the deterministic scheduler, and run summaries."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from policyprov import Address, Metric, MetricKind, TokenKind, fixture_path, load_scenario, run, trace_report
from policyprov.cli import main
from policyprov.errors import (
    CorruptLogError, DuplicateGoalError, RunawayScenarioError, ScenarioError, UnknownPolicyError,
)
from policyprov.simulation import Rule, _Runner, build_system, trace_of
from policyprov.storage import EventLog

from conftest import random_scenario_dict, two_policy_scenario_dict

FIXTURES = [
    "neighbourhood_safety",
    "change_control_board",
    "pattern_sequential",
    "pattern_parallel",
    "pattern_synchronous",
    "pattern_asynchronous",
    "pattern_async_parallel",
    "loop_phases",
]


def minimal_scenario(**overrides) -> dict:
    base = {
        "name": "minimal",
        "seed": 3,
        "phases": ["agenda-setting", "analysis"],
        "networks": [{"id": "net", "actors": ["owner", "alpha"]}],
        "links": [],
        "owner": "net/owner",
        "goals": {
            "g": {
                "goal_id": "g-1",
                "phase": "agenda-setting",
                "name": "deliver the report",
                "metrics": [{"kind": "artifact-delivery", "artifact": "report"}],
            }
        },
        "behaviors": [
            {
                "actor": "net/alpha",
                "rules": [
                    {"trigger": {"at_time": 0},
                     "actions": [{"do": "submit_policy", "payload": "idea", "media_hint": "idea"}]},
                    {"trigger": {"at_time": 2},
                     "actions": [{"do": "local_token", "task": "write",
                                  "task_input": "notes", "task_output": "report",
                                  "task_description": "write the report"}]},
                ],
            },
            {
                "actor": "net/owner",
                "rules": [
                    {"trigger": {"on_receive": {"kind": "notification",
                                                "task_description_contains": "submission"}},
                     "actions": [{"do": "define_goal", "goal": "g"}]},
                ],
            },
        ],
    }
    base.update(overrides)
    return base


class TestLoading:
    def test_fixture_files_load(self):
        scenario = load_scenario(fixture_path("neighbourhood_safety"))
        assert scenario.owner is not None
        assert scenario.expected  # ground-truth block is present

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "name": oops\n}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_duplicate_actor_rejected(self):
        raw = minimal_scenario(networks=[{"id": "net", "actors": ["owner", "owner"]}])
        with pytest.raises(ScenarioError, match="duplicate actor"):
            load_scenario(raw)

    def test_duplicate_network_rejected(self):
        raw = minimal_scenario(
            networks=[{"id": "net", "actors": ["owner"]}, {"id": "net", "actors": ["alpha"]}]
        )
        with pytest.raises(ScenarioError, match="duplicate network"):
            load_scenario(raw)

    def test_unresolved_owner_rejected(self):
        with pytest.raises(ScenarioError, match="unresolved address"):
            load_scenario(minimal_scenario(owner="net/stranger"))

    def test_unresolved_send_target_rejected(self):
        raw = minimal_scenario()
        raw["behaviors"][0]["rules"].append(
            {"trigger": {"at_time": 5},
             "actions": [{"do": "send_token", "to": "net/stranger"}]}
        )
        with pytest.raises(ScenarioError, match="unresolved address"):
            load_scenario(raw)

    def test_unknown_goal_reference_rejected(self):
        raw = minimal_scenario()
        raw["behaviors"][1]["rules"][0]["actions"][0]["goal"] = "nope"
        with pytest.raises(ScenarioError, match="unknown goal"):
            load_scenario(raw)

    def test_goal_with_unknown_phase_rejected(self):
        raw = minimal_scenario()
        raw["goals"]["g"]["phase"] = "evaluation"
        with pytest.raises(ScenarioError, match="unknown phase"):
            load_scenario(raw)

    def test_goal_without_goal_id_rejected(self):
        raw = minimal_scenario()
        raw["goals"]["g"].pop("goal_id")
        with pytest.raises(ScenarioError, match="goal g has no goal_id"):
            load_scenario(raw)

    def test_rule_without_trigger_rejected(self):
        raw = minimal_scenario()
        raw["behaviors"][0]["rules"][0].pop("trigger")
        with pytest.raises(ScenarioError, match="no trigger"):
            load_scenario(raw)

    def test_link_to_unknown_network_rejected(self):
        with pytest.raises(ScenarioError, match="unknown network"):
            load_scenario(minimal_scenario(links=[["net", "ghost"]]))


class TestRunning:
    def test_minimal_scenario_reaches_goal(self):
        trace = run(load_scenario(minimal_scenario()))
        snapshot = trace.goal_snapshots["pol-1"]
        assert snapshot["goals"][0]["status"] == "satisfied"
        assert trace.receipt_summary.get("delivered", 0) >= 1

    def test_same_seed_is_byte_identical(self):
        hashes = {run(load_scenario(minimal_scenario())).log_hash for _ in range(3)}
        assert len(hashes) == 1

    def test_seed_override_changes_token_ids_only_deterministically(self):
        a = run(load_scenario(minimal_scenario()), seed=11).log_hash
        b = run(load_scenario(minimal_scenario()), seed=12).log_hash
        c = run(load_scenario(minimal_scenario()), seed=11).log_hash
        assert a == c != b

    def test_reactions_run_before_later_timers(self):
        # The goal must exist (a reaction of the submission notice) before the
        # alpha timer at t=2 creates the report token, or the metric never fires.
        trace = run(load_scenario(minimal_scenario()))
        offsets = {rec.event_kind: rec.offset for rec in trace.log}
        assert offsets["goal-defined"] < offsets["local-token"]

    def test_step_budget_stops_runaway_runs(self):
        with pytest.raises(RunawayScenarioError) as err:
            run(load_scenario(minimal_scenario()), step_budget=1)
        assert err.value.pending  # names the rules still queued

    def test_unknown_action_rejected(self):
        raw = minimal_scenario()
        raw["behaviors"][0]["rules"][1]["actions"] = [{"do": "teleport"}]
        with pytest.raises(ScenarioError, match="unknown action"):
            run(load_scenario(raw))

    def test_token_actions_pass_their_fields_to_the_engine(self):
        raw = minimal_scenario()
        raw["behaviors"][0]["rules"][1]["actions"] += [
            {"do": "send_token", "to": "net/owner", "kind": "approval-request", "previous_task": "write",
             "previous_task_output": "report", "task_description": "please approve",
             "communication_pattern": "asynchronous", "required_action": "approve",
             "data_reference": "d-annex", "colour": "red"},
            {"do": "local_token", "task": "file", "task_input": "report", "task_output": "filed report",
             "data_reference": "d-annex"},
        ]
        log = run(load_scenario(raw)).log
        send = log.scan(event_kind="routed-token-send")[-1].body
        assert (send["kind"], send["communication_pattern"], send["required_action"], send["data_reference"]) == (
            "approval-request", "asynchronous", "approve", "d-annex")
        assert "colour" not in send
        local = log.scan(event_kind="local-token")[-1].body
        assert (local["task_description"], local["data_reference"]) == ("file", "d-annex")  # the task by default

    def test_log_persisted_when_path_given(self, tmp_path):
        path = tmp_path / "events.jsonl"
        trace = run(load_scenario(minimal_scenario()), log_path=path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(trace.offsets)

    def test_random_scenarios_always_quiesce(self):
        for seed in range(20):
            run(load_scenario(random_scenario_dict(seed)))


_ACTORS = ["net/owner", "net/a", "net/b"]
# Few values per key, so that a delivery often matches several rules; a
# two-letter alphabet makes needles overlap and occur twice in one description.
_KINDS = ["task-handoff", "approval-request"]
_CONDITIONS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(_KINDS),
    "from": st.sampled_from(_ACTORS),
    "required_action": st.just("sign"),
    "task_description_contains": st.text(alphabet="ab", max_size=4),
})
_RULES = st.lists(st.tuples(st.sampled_from(_ACTORS), _CONDITIONS, st.booleans()), min_size=2, max_size=16)
_DELIVERIES = st.lists(
    st.tuples(st.permutations(_ACTORS), st.sampled_from(_KINDS), st.sampled_from([None, "sign"]),
              st.text(alphabet="ab", min_size=1, max_size=6)),
    min_size=1, max_size=12,
)


def oracle_pending(scenario, tokens) -> list:
    """(rule_id, token) queued per delivery: every receive rule of the scenario, tried in rule_id order."""
    fired, pending = set(), []
    for token in tokens:
        for rule in sorted(scenario.rules, key=lambda r: r.rule_id):
            cond = rule.trigger["on_receive"]
            if rule.once and rule.rule_id in fired:
                continue
            if (str(rule.actor) == str(token.destination_address)
                    and cond.get("kind", token.kind.value) == token.kind.value
                    and cond.get("from", str(token.source_address)) == str(token.source_address)
                    and cond.get("required_action", token.required_action) == token.required_action
                    and cond.get("task_description_contains", "") in token.task_description):
                if rule.once:
                    fired.add(rule.rule_id)
                pending.append((rule.rule_id, token))
    return pending


class TestScheduler:
    def test_delivery_only_tries_its_destination_rules_in_rule_id_order(self, monkeypatch):
        def on(cond):
            return {"trigger": {"on_receive": cond}, "actions": []}

        scenario = load_scenario({
            "networks": [{"id": "net", "actors": ["owner", "alpha", "beta"]}],
            "owner": "net/owner",
            "behaviors": [
                {"actor": "net/alpha", "rules": [on({"kind": "task-handoff"}),
                                                 on({"kind": "approval-request"})]},
                {"actor": "net/beta", "rules": [on({})]},
                {"actor": "net/alpha", "rules": [on({"from": "net/owner"})]},
            ],
        })
        system = build_system(scenario)
        runner = _Runner(scenario, system, step_budget=10)
        owner, alpha = Address("net", "owner"), Address("net", "alpha")
        policy, _, _ = system.notify_new_policy(system.put_data(b"idea", owner, "idea"), owner)
        system.define_goal(policy.policy_id, "agenda-setting", "report",
                           [Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")], by=owner)
        tried = []
        matches = Rule.matches
        monkeypatch.setattr(Rule, "matches", lambda rule, token: tried.append(rule.rule_id) or matches(rule, token))
        token, _ = system.send_token(owner, policy.policy_id, destination=alpha, kind=TokenKind.TASK_HANDOFF,
                                     previous_task="review", previous_task_output="brief",
                                     task_description="write it up")
        assert tried == [0, 1, 3]
        assert [(rule.rule_id, queued) for rule, queued in runner.pending] == [(0, token), (3, token)]

    @settings(max_examples=150, deadline=None)
    @given(_RULES, _DELIVERIES)
    # A needle-less rule between matching needle rules, the empty needle, and
    # overlapping needles that occur twice in the description.
    @example(
        [("net/a", {"task_description_contains": "ab"}, True), ("net/a", {}, False),
         ("net/a", {"task_description_contains": ""}, False), ("net/a", {"task_description_contains": "b"}, True)],
        [(["net/owner", "net/a", "net/b"], "task-handoff", None, "abab")] * 2,
    )
    def test_queued_rules_equal_a_linear_scan_over_all_rules(self, rules, deliveries):
        scenario = load_scenario({
            "networks": [{"id": "net", "actors": [a.partition("/")[2] for a in _ACTORS]}],
            "owner": "net/owner",
            "behaviors": [{"actor": actor, "rules": [{"trigger": {"on_receive": cond}, "actions": [], "once": once}]}
                          for actor, cond, once in rules],
        })
        system = build_system(scenario)
        owner = Address("net", "owner")
        policy, _, _ = system.notify_new_policy(system.put_data(b"idea", owner, "idea"), owner)
        system.define_goal(policy.policy_id, "agenda-setting", "never",
                           [Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="never")], by=owner)
        runner = _Runner(scenario, system, step_budget=10)
        tokens = []
        for (src, dst, *_), kind, required_action, description in deliveries:
            token, _ = system.send_token(Address.parse(src), policy.policy_id, destination=Address.parse(dst),
                                         kind=TokenKind(kind), previous_task="t", previous_task_output="o",
                                         task_description=description, required_action=required_action)
            tokens.append(token)
        assert [(rule.rule_id, token) for rule, token in runner.pending] == oracle_pending(scenario, tokens)


@pytest.mark.parametrize("at_time", [0, 50])
def test_once_rule_with_a_receive_and_a_time_trigger_fires_once(at_time):
    """A `once` rule fires at most once, whichever of its two triggers comes:
    here alpha's task arrives before either time, so the time passes unused
    and takes no step. Seven rules fire: two submissions, the owner's two
    answers, the two submitters' reports and this one."""
    raw = two_policy_scenario_dict()
    raw["behaviors"][0]["rules"].append({
        "trigger": {"at_time": at_time, "on_receive": {}},
        "actions": [{"do": "local_token", "task": "note", "task_input": "brief", "task_output": "memo",
                     "task_description": "note it", "source_of_evidence": "brief"}],
        "once": True,
    })
    log = run(load_scenario(raw), step_budget=7).log
    assert [rec.body["task"] for rec in log.scan(event_kind="local-token")].count("note") == 1


def with_owner_timer(raw: dict, at_time: int, **trigger) -> dict:
    """`raw` (two_policy_scenario_dict) plus an owner rule at `at_time` that decides "continue"."""
    raw["behaviors"][2]["rules"].append(
        {"trigger": {"at_time": at_time, **trigger}, "actions": [{"do": "decide", "decision": "continue"}]}
    )
    return raw


class TestTimeRulePolicy:
    @pytest.mark.parametrize("trigger, policy_id", [
        ({}, "pol-1"), ({"policy": "pol-1"}, "pol-1"), ({"policy": "pol-2"}, "pol-2"),
    ], ids=["unnamed-is-first", "first", "later"])
    def test_acts_on_the_named_policy_or_else_the_first(self, trigger, policy_id):
        trace = run(load_scenario(with_owner_timer(two_policy_scenario_dict(), 2, **trigger)))
        decisions = [rec.body for rec in trace.log if rec.body.get("decision") == "continue"]
        assert [body["policy_id"] for body in decisions] == [policy_id]

    @pytest.mark.parametrize("policy", ["", 2, None, ["pol-1"]])
    def test_policy_that_is_not_an_id_rejected(self, policy):
        with pytest.raises(ScenarioError, match="not a policy id"):
            load_scenario(with_owner_timer(two_policy_scenario_dict(), 2, policy=policy))

    def test_policy_on_a_receive_rule_rejected(self):
        raw = two_policy_scenario_dict()
        raw["behaviors"][2]["rules"][0]["trigger"]["policy"] = "pol-1"
        with pytest.raises(ScenarioError, match="without an at_time trigger"):
            load_scenario(raw)

    def test_policy_not_created_yet_stops_the_run_with_exit_2(self, tmp_path, capsys):
        # The timer at 0 fires after alpha's submission (pol-1) and before beta's (pol-2).
        raw = with_owner_timer(two_policy_scenario_dict(), 0, policy="pol-2")
        with pytest.raises(UnknownPolicyError):
            run(load_scenario(raw))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("run failed: unknown-policy: pol-2")


    @pytest.mark.parametrize("action", [
        {"do": "decide", "decision": "continue"}, {"do": "define_goal", "goal": "g"},
    ], ids=["decide", "define-goal"])
    def test_owner_action_before_any_policy_stops_the_run(self, action):
        raw = minimal_scenario(behaviors=[
            {"actor": "net/owner", "rules": [{"trigger": {"at_time": 0}, "actions": [action]}]},
        ])
        with pytest.raises(UnknownPolicyError):
            run(load_scenario(raw))


class TestTraceOf:
    @pytest.mark.parametrize("raw", [fixture_path(name) for name in FIXTURES] + [two_policy_scenario_dict()],
                             ids=FIXTURES + ["two-policies"])
    def test_snapshots_equal_one_display_snapshot_per_policy(self, raw):
        scenario = load_scenario(raw)
        system = build_system(scenario)
        _Runner(scenario, system, step_budget=1000).run()
        expected = {p: system.goal_display_snapshot(p) for p in system.policies}
        assert trace_of(system.log).goal_snapshots == expected
        assert all(snapshot["goals"] for snapshot in expected.values())

    @pytest.mark.parametrize("raw", [fixture_path(name) for name in FIXTURES] + [two_policy_scenario_dict()],
                             ids=FIXTURES + ["two-policies"])
    def test_fold_of_the_written_log_reproduces_the_run_outputs(self, raw, tmp_path, capsys):
        if isinstance(raw, dict):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(raw))
            raw = path
        out = tmp_path / "out"
        assert main(["run", str(raw), "-o", str(out)]) == 0
        trace = trace_of(EventLog.load(out / "events.jsonl"))
        goals = json.dumps(trace.goal_snapshots, sort_keys=True, indent=2) + "\n"
        assert (out / "goals.json").read_bytes() == goals.encode("utf-8")
        assert (out / "trace.txt").read_bytes() == trace_report(trace).encode("utf-8")
        quiescent = f"quiescent after {len(trace.offsets)} events; log hash {trace.log_hash}\n"
        assert capsys.readouterr().out == quiescent

    def test_empty_log_folds_to_an_empty_summary(self):
        trace = trace_of(EventLog())
        assert (trace.goal_snapshots, len(trace.offsets), trace.receipt_summary) == ({}, 0, {})
        assert trace.log_hash == hashlib.sha256(b"").hexdigest()

    def test_goal_id_reused_by_another_policy_stops_the_run(self):
        with pytest.raises(DuplicateGoalError):
            run(load_scenario(two_policy_scenario_dict(second_goal="ga")))


class TestTraceReport:
    def test_one_line_per_delivery_in_arrow_form(self):
        trace = run(load_scenario(minimal_scenario()))
        report = trace_report(trace)
        lines = [l for l in report.splitlines() if l]
        receives = [rec for rec in trace.log if rec.event_kind == "routed-token-receive"]
        assert len(lines) == len(receives)
        assert lines[0].startswith("alpha → owner: notification")


@pytest.mark.parametrize("body, shown", [
    ({"token_id": "t", "at": 1, "policy_id": "pol-1"}, "None"),
    ({"token_id": "t", "outcome": ["x"], "at": 1, "policy_id": "pol-1"}, r"\['x'\]"),
], ids=["no-outcome", "list-outcome"])
def test_malformed_receipt_in_a_loaded_log_is_corrupt(tmp_path, body, shown):
    """A receipt whose outcome is missing or not text raises `CorruptLogError`
    naming its offset, where it ended in a bare KeyError or TypeError."""
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append("receipt", body, 1)
    log.close()
    with pytest.raises(CorruptLogError, match=f"^offset 0: receipt body has no text outcome: {shown}$"):
        trace_of(EventLog.load(path))
