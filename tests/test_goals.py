"""Goal definition, modification, metric matching, and snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprov import Metric, MetricKind, TokenKind, load_scenario
from policyprov.errors import (
    AlreadyTerminatedError,
    DuplicateGoalError,
    EmptyMetricsError,
    LastMetricError,
    NotOwnerError,
    TerminatedPolicyError,
    UnknownGoalError,
    UnknownPhaseError,
)
from policyprov.goals import GoalStatus, MetricStatus, canonical_artifact, fold_goal_state
from policyprov.simulation import _Runner, build_system

from conftest import (
    BCU,
    NWT,
    OWNER,
    SNT,
    define_default_goal,
    make_system,
    open_policy,
    random_scenario_dict,
)


def define_report_goal(system, policy, goal_id, name="report", artifact="report"):
    return system.define_goal(
        policy.policy_id, "agenda-setting", name,
        [Metric(f"{goal_id}-m1", MetricKind.ARTIFACT_DELIVERY, artifact_key=artifact)],
        by=OWNER, goal_id=goal_id,
    )


def write(system, policy, output):
    return system.create_local_token(SNT, policy.policy_id, task="write", task_input="notes",
                                     task_output=output, task_description="write")


class TestCanonicalArtifact:
    def test_case_and_whitespace_insensitive(self):
        assert canonical_artifact("  Problem   Analysis\tDocument ") == "problem analysis document"

    def test_distinct_names_stay_distinct(self):
        assert canonical_artifact("report a") != canonical_artifact("report b")


class TestMetricShape:
    def test_artifact_metric_requires_key_only(self):
        with pytest.raises(ValueError):
            Metric("m", MetricKind.ARTIFACT_DELIVERY)
        with pytest.raises(ValueError):
            Metric("m", MetricKind.ARTIFACT_DELIVERY, artifact_key="x", approver=BCU)

    def test_approval_metric_requires_approver_only(self):
        with pytest.raises(ValueError):
            Metric("m", MetricKind.APPROVAL)
        with pytest.raises(ValueError):
            Metric("m", MetricKind.APPROVAL, artifact_key="x", approver=BCU)


class TestDefineGoal:
    def test_goal_event_carries_full_state(self):
        system = make_system()
        policy = open_policy(system)
        goal = define_default_goal(system, policy)
        assert goal.status is GoalStatus.ACTIVE
        events = system.log.scan(event_kind="goal-defined")
        assert len(events) == 1
        body = events[0].body
        assert body["goal_id"] == goal.goal_id
        assert [m["metric_id"] for m in body["metrics"]] == [
            "g-problem-identification-m1",
            "g-problem-identification-m2",
        ]

    def test_only_owner_may_define(self):
        system = make_system()
        policy = open_policy(system)
        with pytest.raises(NotOwnerError):
            system.define_goal(policy.policy_id, "agenda-setting", "g",
                               [Metric("m", MetricKind.APPROVAL, approver=BCU)], by=SNT)

    def test_empty_metrics_rejected(self):
        system = make_system()
        policy = open_policy(system)
        with pytest.raises(EmptyMetricsError):
            system.define_goal(policy.policy_id, "agenda-setting", "g", [], by=OWNER)

    def test_unknown_phase_rejected(self):
        system = make_system()
        policy = open_policy(system)
        with pytest.raises(UnknownPhaseError):
            system.define_goal(policy.policy_id, "evaluation", "g",
                               [Metric("m", MetricKind.APPROVAL, approver=BCU)], by=OWNER)

    def test_goal_ids_allocated_when_omitted(self):
        system = make_system()
        policy = open_policy(system)
        goal = system.define_goal(policy.policy_id, "analysis", "g",
                                  [Metric("m", MetricKind.APPROVAL, approver=BCU)], by=OWNER)
        assert goal.goal_id == "g-1"

    def test_goal_id_of_another_policy_rejected(self):
        system = make_system()
        first = open_policy(system)
        second = open_policy(system, payload=b"second idea")
        define_report_goal(system, first, "g-x")
        with pytest.raises(DuplicateGoalError):
            define_report_goal(system, second, "g-x")
        assert write(system, first, "draft").goal_id == "g-x"
        assert system.goals.goals_for(second.policy_id) == []
        assert len(system.log.scan(event_kind="goal-defined")) == 1

    def test_redefinition_within_a_policy_replaces_in_place(self):
        system = make_system()
        policy = open_policy(system)
        define_report_goal(system, policy, "g-x")
        define_report_goal(system, policy, "g-y")
        define_report_goal(system, policy, "g-x", name="renamed")
        live = [g.to_record() for g in system.goals.goals_for(policy.policy_id)]
        assert [(g["goal_id"], g["name"]) for g in live] == [("g-x", "renamed"), ("g-y", "report")]
        assert live == [g.to_record() for g in fold_goal_state(system.log, policy.policy_id)]


class TestMetricMatching:
    def test_local_token_output_satisfies_artifact_metric(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.create_local_token(
            SNT, policy.policy_id, task="analyse", task_input="complaints",
            task_output="Problem  Analysis  DOCUMENT", task_description="analysis",
        )
        assert len(system.log.scan(event_kind="metric-satisfied")) == 1
        assert not system.log.scan(event_kind="goal-satisfied")  # approval still pending

    def test_approval_response_from_approver_satisfies_and_closes_goal(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.create_local_token(
            SNT, policy.policy_id, task="analyse", task_input="complaints",
            task_output="problem analysis document", task_description="analysis",
        )
        system.send_token(
            BCU, policy.policy_id, destination=SNT, kind=TokenKind.APPROVAL_RESPONSE,
            previous_task="review", previous_task_output="approved analysis",
            task_description="approved",
        )
        assert len(system.log.scan(event_kind="goal-satisfied")) == 1

    def test_approval_from_non_approver_is_ignored(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.send_token(
            NWT, policy.policy_id, destination=SNT, kind=TokenKind.APPROVAL_RESPONSE,
            previous_task="review", previous_task_output="opinion",
            task_description="unofficial approval",
        )
        assert not system.log.scan(event_kind="metric-satisfied")

    def test_stored_data_media_hint_satisfies_artifact_metric(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.put_data(b"...", SNT, "problem analysis document")
        hits = system.log.scan(event_kind="metric-satisfied")
        assert len(hits) == 1

    def test_token_satisfies_only_its_own_policys_goals(self):
        system = make_system()
        first = open_policy(system)
        second = open_policy(system, payload=b"second idea")
        define_report_goal(system, first, "g-1")
        define_report_goal(system, second, "g-2")
        write(system, second, "report")
        assert [rec.body["goal_id"] for rec in system.log.scan(event_kind="metric-satisfied")] == ["g-2"]

    def test_stored_data_is_matched_against_every_policy(self):
        system = make_system()
        first = open_policy(system)
        second = open_policy(system, payload=b"second idea")
        define_report_goal(system, first, "g-1")
        define_report_goal(system, second, "g-2")
        system.put_data(b"...", SNT, "report")
        assert [rec.body["goal_id"] for rec in system.log.scan(event_kind="metric-satisfied")] == [
            "g-1", "g-2",
        ]

    def test_stored_data_satisfies_a_metric_only_through_its_current_key(self):
        system = make_system()
        first = open_policy(system)
        second = open_policy(system, payload=b"second idea")
        define_report_goal(system, first, "g-1", artifact="draft")
        define_report_goal(system, second, "g-2", artifact="draft")

        def modify(policy, goal_id, op, **change):
            system.modify_goal(policy.policy_id, goal_id, {"op": op, **change}, by=OWNER)

        def artifact(metric_id, key):
            return Metric(metric_id, MetricKind.ARTIFACT_DELIVERY, artifact_key=key)

        modify(first, "g-1", "replace-metric", metric_id="g-1-m1", metric=artifact("g-1-m1", "final"))
        # A second metric on a key is removed or replaced; the first still names the key.
        modify(first, "g-1", "add-metric", metric=artifact("g-1-m2", " FINAL "))
        modify(first, "g-1", "remove-metric", metric_id="g-1-m2")
        modify(second, "g-2", "add-metric", metric=artifact("g-2-m2", "Annex"))
        modify(second, "g-2", "add-metric", metric=artifact("g-2-m3", "annex"))
        modify(second, "g-2", "replace-metric", metric_id="g-2-m3", metric=artifact("g-2-m3", "appendix"))
        for payload, hint, expected in [
            (b"1", "draft", [("g-2", "g-2-m1")]),
            (b"2", "annex", [("g-2", "g-2-m2")]),
            (b"3", "final", [("g-1", "g-1-m1")]),
            (b"4", "appendix", [("g-2", "g-2-m3")]),
            (b"5", "draft", []),
        ]:
            logged = len(system.log)
            system.put_data(payload, SNT, hint)
            assert [(rec.body["goal_id"], rec.body["metric_id"]) for rec in system.log
                    if rec.offset >= logged and rec.event_kind == "metric-satisfied"] == expected, hint
            for policy in (first, second):
                assert [g.to_record() for g in system.goals.goals_for(policy.policy_id)] == [
                    g.to_record() for g in fold_goal_state(system.log, policy.policy_id)
                ]
        assert all(g.status is GoalStatus.SATISFIED for g in fold_goal_state(system.log))

    def test_token_cannot_name_a_goal_of_another_policy(self):
        system = make_system()
        first = open_policy(system)
        second = open_policy(system, payload=b"second idea")
        define_report_goal(system, first, "g-x")
        logged = len(system.log)
        with pytest.raises(UnknownGoalError):
            system.create_local_token(SNT, second.policy_id, task="write", task_input="notes",
                                      task_output="report", task_description="write", goal_id="g-x")
        assert len(system.log) == logged
        assert write(system, first, "draft").goal_id == "g-x"

    def test_undelivered_send_does_not_satisfy(self):
        system = make_system()
        system.register_network("isolated")
        system.register_actor("isolated", "judge")
        policy = open_policy(system)
        define_default_goal(system, policy)
        # Artifact named in a send that dead-letters: the send event itself is
        # still evaluated at creation time, so build the goal around approval
        # from the unreachable actor instead, which requires delivery.
        from policyprov import Address

        judge = Address("isolated", "judge")
        system.define_goal(
            policy.policy_id, "analysis", "external sign-off",
            [Metric("m-judge", MetricKind.APPROVAL, approver=judge)], by=OWNER, goal_id="g-x",
        )
        _, receipt = system.send_token(
            judge, policy.policy_id, destination=SNT, kind=TokenKind.APPROVAL_RESPONSE,
            previous_task="review", previous_task_output="sign-off",
            task_description="sign-off", goal_id="g-x",
        )
        assert receipt.outcome == "dead-letter"
        assert not system.log.scan(event_kind="metric-satisfied", goal_id="g-x")


class TestModifyGoal:
    def test_add_metric_reopens_satisfied_goal(self):
        system = make_system()
        policy = open_policy(system)
        goal = system.define_goal(
            policy.policy_id, "agenda-setting", "one-shot",
            [Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")],
            by=OWNER, goal_id="g-one",
        )
        system.create_local_token(SNT, policy.policy_id, task="write", task_input="notes",
                                  task_output="report", task_description="write report")
        assert goal.status is GoalStatus.SATISFIED
        system.modify_goal(
            policy.policy_id, "g-one",
            {"op": "add-metric", "metric": Metric("m2", MetricKind.APPROVAL, approver=BCU)},
            by=OWNER,
        )
        assert goal.status is GoalStatus.ACTIVE
        assert goal.version == 2

    def test_remove_last_metric_rejected(self):
        system = make_system()
        policy = open_policy(system)
        system.define_goal(
            policy.policy_id, "agenda-setting", "g",
            [Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")],
            by=OWNER, goal_id="g-one",
        )
        with pytest.raises(LastMetricError):
            system.modify_goal(policy.policy_id, "g-one",
                               {"op": "remove-metric", "metric_id": "m1"}, by=OWNER)

    def test_unknown_goal_rejected(self):
        system = make_system()
        policy = open_policy(system)
        with pytest.raises(UnknownGoalError):
            system.modify_goal(policy.policy_id, "nope", {"op": "rename", "name": "x"}, by=OWNER)

    def test_goal_of_another_policy_is_unknown(self):
        system = make_system()
        first = open_policy(system)
        second = open_policy(system, payload=b"second idea")
        define_report_goal(system, first, "g-x")
        logged = len(system.log)
        with pytest.raises(UnknownGoalError):
            system.modify_goal(second.policy_id, "g-x", {"op": "rename", "name": "taken"}, by=OWNER)
        assert system.goals.goal("g-x", first.policy_id).name == "report"
        assert len(system.log) == logged

    def test_modification_event_carries_post_change_state(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.modify_goal(policy.policy_id, "g-problem-identification",
                           {"op": "rename", "name": "renamed"}, by=OWNER)
        body = system.log.scan(event_kind="goal-modified")[-1].body
        assert body["name"] == "renamed"
        assert body["version"] == 2
        assert body["op"] == "rename"


class TestDecisions:
    def test_terminate_blocks_further_tokens(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.decide_continuation(policy.policy_id, "terminate", by=OWNER)
        with pytest.raises(TerminatedPolicyError):
            system.create_local_token(SNT, policy.policy_id, task="t", task_input="i",
                                      task_output="o", task_description="d")

    def test_double_terminate_rejected(self):
        system = make_system()
        policy = open_policy(system)
        system.decide_continuation(policy.policy_id, "terminate", by=OWNER)
        with pytest.raises(AlreadyTerminatedError):
            system.decide_continuation(policy.policy_id, "terminate", by=OWNER)

    def test_only_owner_decides(self):
        system = make_system()
        policy = open_policy(system)
        with pytest.raises(NotOwnerError):
            system.decide_continuation(policy.policy_id, "terminate", by=SNT)


class TestSnapshots:
    def test_snapshot_is_a_pure_fold_of_the_log(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.create_local_token(SNT, policy.policy_id, task="analyse", task_input="complaints",
                                  task_output="problem analysis document",
                                  task_description="analysis")
        snap_a = system.goal_display_snapshot(policy.policy_id)
        snap_b = system.goal_display_snapshot(policy.policy_id)
        assert snap_a.goals == snap_b.goals
        goal = snap_a.goals[0]
        assert goal["metrics"][0]["status"] == "satisfied"
        assert goal["metrics"][1]["status"] == "pending"
        assert goal["status"] == "active"

    def test_upto_prefix_reflects_history(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        defined_at = system.log.scan(event_kind="goal-defined")[0].offset
        system.create_local_token(SNT, policy.policy_id, task="analyse", task_input="complaints",
                                  task_output="problem analysis document",
                                  task_description="analysis")
        early = system.goal_display_snapshot(policy.policy_id, upto=defined_at)
        assert early.goals[0]["metrics"][0]["status"] == "pending"

    def test_fold_matches_live_engine_state(self):
        system = make_system()
        policy = open_policy(system)
        goal = define_default_goal(system, policy)
        system.create_local_token(SNT, policy.policy_id, task="analyse", task_input="complaints",
                                  task_output="problem analysis document",
                                  task_description="analysis")
        folded = {g.goal_id: g for g in fold_goal_state(system.log, policy.policy_id)}
        live = system.goals.goal(goal.goal_id, policy.policy_id)
        assert folded[goal.goal_id].status is live.status
        assert [m.status for m in folded[goal.goal_id].metrics] == [
            m.status for m in live.metrics
        ]
        assert folded[goal.goal_id].metrics[0].status is MetricStatus.SATISFIED


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_live_goals_equal_the_fold_after_every_record(seed):
    """The live engine is a cache of the log: after each appended record, every
    policy's goals equal the fold over the log up to that record."""
    scenario = load_scenario(random_scenario_dict(seed))
    system = build_system(scenario)
    log, append = system.log, system.log.append
    mismatches = []

    def checked_append(event_kind, body, logical_time):
        offset = append(event_kind, body, logical_time)
        for policy_id in system.policies:
            live = [g.to_record() for g in system.goals.goals_for(policy_id)]
            folded = [g.to_record() for g in fold_goal_state(log, policy_id, upto=offset)]
            if live != folded:
                mismatches.append((offset, event_kind, policy_id))
        return offset

    log.append = checked_append
    _Runner(scenario, system, step_budget=1000).run()
    assert len(log) > 0
    assert mismatches == []
