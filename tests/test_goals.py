"""Goal definition, modification, metric matching, and snapshots."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprov import (
    ArtifactNature,
    CommunicationPattern,
    DataRecord,
    LocalToken,
    Metric,
    MetricKind,
    RoutedToken,
    StakeholderNature,
    TokenKind,
    load_scenario,
)
from policyprov.errors import (
    AlreadyTerminatedError,
    CorruptLogError,
    DuplicateGoalError,
    DuplicateMetricError,
    EmptyMetricsError,
    InvalidGoalError,
    LastMetricError,
    NotOwnerError,
    TerminatedPolicyError,
    UnknownDecisionError,
    UnknownGoalError,
    UnknownMetricError,
    UnknownPhaseError,
    UnknownPolicyError,
)
from policyprov.goals import GoalStatus, MetricStatus, canonical_artifact, fold_goal_state
from policyprov.simulation import _Runner, build_system, trace_of
from policyprov.storage import EventLog

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

    @pytest.mark.parametrize("name, metrics, goal_id", [
        ("g", ["x"], None),
        ("g", "x", None),
        ("g", None, None),
        (5, [Metric("m", MetricKind.APPROVAL, approver=BCU)], None),
        ("g", [Metric("m", MetricKind.APPROVAL, approver=BCU)], ["g-1"]),
        ("g", [Metric("m", MetricKind.APPROVAL, approver=BCU)], 7),
        ("g", [Metric("m", "approval", approver=BCU)], None),
        ("g", [Metric(["m"], MetricKind.APPROVAL, approver=BCU)], None),
        ("g", [Metric(5, MetricKind.APPROVAL, approver=BCU)], None),
    ], ids=["metric-not-a-metric", "metrics-text", "metrics-none", "name-not-text", "goal-id-a-list",
            "goal-id-an-int", "metric-kind-text", "metric-id-a-list", "metric-id-an-int"])
    def test_malformed_goal_rejected(self, name, metrics, goal_id):
        system = make_system()
        policy = open_policy(system)
        logged, digest = len(system.log), system.log.content_hash()
        with pytest.raises(InvalidGoalError):
            system.define_goal(policy.policy_id, "agenda-setting", name, metrics, by=OWNER, goal_id=goal_id)
        assert (len(system.log), system.log.content_hash()) == (logged, digest)
        assert system.goals.goals_for(policy.policy_id) == []

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

    def test_refused_auto_goal_takes_no_id(self):
        system = make_system()
        policy = open_policy(system)
        approval = Metric("m", MetricKind.APPROVAL, approver=BCU)
        system.define_goal(policy.policy_id, "analysis", "first", [approval], by=OWNER)
        with pytest.raises(DuplicateMetricError):
            system.define_goal(policy.policy_id, "analysis", "twice", [approval, approval], by=OWNER)
        goal = system.define_goal(policy.policy_id, "analysis", "second", [approval], by=OWNER)
        assert goal.goal_id == "g-2"

    def test_auto_goal_id_skips_an_explicit_one(self):
        system = make_system()
        policy = open_policy(system)
        define_report_goal(system, policy, "g-1")
        goal = system.define_goal(policy.policy_id, "analysis", "auto",
                                  [Metric("m", MetricKind.APPROVAL, approver=BCU)], by=OWNER)
        assert goal.goal_id == "g-2"
        live = [(g.goal_id, g.name) for g in system.goals.goals_for(policy.policy_id)]
        assert live == [("g-1", "report"), ("g-2", "auto")]

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


# Events as evaluate_event receives them, for pol-1; each case replaces a few fields.
LOCAL = LocalToken(
    token_id="t-local", policy_id="pol-1", phase_id="agenda-setting", goal_id="g-a", seq_num=1,
    task="write", task_input="notes", nature_of_task_input=ArtifactNature.DOCUMENT, task_output="",
    nature_of_task_output=ArtifactNature.DOCUMENT, task_description="write", who_carried_out=SNT,
    nature_of_stakeholders=StakeholderNature.INTERNAL, data_details="notes", source_of_evidence="notes",
    timestamp=100,
)
ROUTED = RoutedToken(
    token_id="t-routed", policy_id="pol-1", phase_id="agenda-setting", goal_id="g-a", seq_num=1,
    previous_task="review", previous_task_output="", nature_of_task_output=ArtifactNature.DOCUMENT,
    task_description="hand over", communication_pattern=CommunicationPattern.SEQUENTIAL,
    nature_of_stakeholders=StakeholderNature.INTERNAL, data_details="review", source_of_evidence="review",
    communication_with=SNT, timestamp=100, source_address=BCU, destination_address=SNT,
    kind=TokenKind.TASK_HANDOFF,
)
DATA = DataRecord(data_id="d-1", payload=b"...", media_hint="", created_by=SNT, timestamp=100)
REPORT = Metric("m", MetricKind.ARTIFACT_DELIVERY, artifact_key=" Final  Report ")
BY_BCU = Metric("m", MetricKind.APPROVAL, approver=BCU)
RESPONSE = replace(ROUTED, kind=TokenKind.APPROVAL_RESPONSE, previous_task_output="approved")


@pytest.mark.parametrize("event, metric, satisfied_by", [
    (replace(LOCAL, task_output="final report"), REPORT, "t-local"),
    (replace(LOCAL, task_output="  FINAL\tReport\n"), REPORT, "t-local"),
    (replace(LOCAL, task_output="final reports"), REPORT, None),
    (replace(LOCAL, task_output="final report"), BY_BCU, None),
    (replace(ROUTED, previous_task_output="Final report"), REPORT, "t-routed"),
    (replace(ROUTED, previous_task_output="draft", task_description="final report"), REPORT, None),
    (replace(DATA, media_hint="FINAL REPORT"), REPORT, "d-1"),
    (replace(DATA, media_hint="draft"), REPORT, None),
    (RESPONSE, BY_BCU, "t-routed"),
    (replace(RESPONSE, goal_id=""), BY_BCU, "t-routed"),
    (replace(RESPONSE, goal_id="g-b"), BY_BCU, None),
    (replace(RESPONSE, source_address=NWT), BY_BCU, None),
    (replace(RESPONSE, kind=TokenKind.APPROVAL_REQUEST), BY_BCU, None),
    (replace(RESPONSE, kind=TokenKind.TASK_HANDOFF), BY_BCU, None),
    (replace(RESPONSE, previous_task_output="final report"), REPORT, "t-routed"),
], ids=[
    "local-output", "local-output-case-and-whitespace", "local-other-output", "local-token-approves-nothing",
    "routed-previous-output", "routed-description-is-no-artifact", "data-media-hint", "data-other-hint",
    "approval-naming-its-goal", "approval-naming-no-goal", "approval-naming-another-goal",
    "approval-from-non-approver", "approval-request-from-approver", "handoff-from-approver",
    "approval-response-delivers-its-output",
])
def test_evaluate_event_matches_each_metric_by_one_rule(event, metric, satisfied_by):
    """`g-a` holds the metric under test; `g-b`, a second goal of the same
    policy, holds an approval by the same approver and an artifact metric."""
    system = make_system()
    policy = open_policy(system)
    for goal_id, metrics in (("g-a", [metric]), ("g-b", [replace(BY_BCU, metric_id="b1"),
                                                         replace(REPORT, metric_id="b2")])):
        system.define_goal(policy.policy_id, "agenda-setting", goal_id, metrics, by=OWNER, goal_id=goal_id)
    logged = len(system.log)
    system.goals.evaluate_event(event)
    satisfied = [(rec.body["goal_id"], rec.body["metric_id"], rec.body["satisfied_by"])
                 for rec in system.log if rec.offset >= logged and rec.event_kind == "metric-satisfied"]
    satisfied = [entry for entry in satisfied if entry[0] == "g-a"]
    assert satisfied == ([("g-a", "m", satisfied_by)] if satisfied_by else [])


class TestDuplicateMetricIds:
    """A `metric-satisfied` record names its metric by id alone, so no goal holds two metrics of one id."""

    def test_define_goal_rejects_two_metrics_of_one_id(self):
        system = make_system()
        policy = open_policy(system)
        logged = len(system.log)
        with pytest.raises(DuplicateMetricError):
            system.define_goal(policy.policy_id, "agenda-setting", "two m1", [
                Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report"),
                Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="annex"),
            ], by=OWNER, goal_id="g-two")
        assert len(system.log) == logged
        assert system.goals.goals_for(policy.policy_id) == []

    def test_replace_metric_rejects_another_metrics_id(self):
        system = make_system()
        policy = open_policy(system)
        goal = system.define_goal(policy.policy_id, "agenda-setting", "g", [
            Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report"),
            Metric("m2", MetricKind.ARTIFACT_DELIVERY, artifact_key="annex"),
        ], by=OWNER, goal_id="g-one")
        before, logged = goal.to_record(), len(system.log)
        with pytest.raises(DuplicateMetricError):
            system.modify_goal(policy.policy_id, "g-one", {
                "op": "replace-metric", "metric_id": "m2",
                "metric": Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="appendix"),
            }, by=OWNER)
        assert goal.to_record() == before
        assert len(system.log) == logged


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

    @pytest.mark.parametrize("change, error", [
        ({"op": "remove-metric", "metric_id": "m1"}, LastMetricError),
        ({"op": "add-metric", "metric": Metric("m2", MetricKind.APPROVAL, approver=BCU)}, NotOwnerError),
        ({"op": "retitle", "name": "x"}, ValueError),
        ({"op": "add-metric", "metric": Metric("m1", MetricKind.APPROVAL, approver=BCU)}, DuplicateMetricError),
        ({"op": "remove-metric"}, InvalidGoalError),
        ({}, InvalidGoalError),
        ({"op": "rename"}, InvalidGoalError),
        ({"op": "add-metric"}, InvalidGoalError),
        ({"op": "add-metric", "metric": "x"}, InvalidGoalError),
        ({"op": "add-metric", "metric": Metric("m2", "approval", approver=BCU)}, InvalidGoalError),
        ({"op": "rename", "name": 5}, InvalidGoalError),
        ({"op": "remove-metric", "metric_id": ["m1"]}, InvalidGoalError),
        (None, InvalidGoalError),
        ({"op": "add-metric", "metric": Metric(["m2"], MetricKind.APPROVAL, approver=BCU)}, InvalidGoalError),
        ({"op": "add-metric", "metric": Metric(5, MetricKind.APPROVAL, approver=BCU)}, InvalidGoalError),
        ({"op": "replace-metric", "metric_id": "m1", "metric": Metric(["m1"], MetricKind.APPROVAL, approver=BCU)},
         InvalidGoalError),
        ({"op": "replace-metric", "metric_id": "m1", "metric": Metric(5, MetricKind.APPROVAL, approver=BCU)},
         InvalidGoalError),
    ], ids=["last-metric", "not-owner", "unknown-op", "duplicate-metric-id", "remove-without-metric-id", "no-op",
            "rename-without-name", "add-without-metric", "metric-not-a-metric", "metric-kind-text", "name-not-text",
            "metric-id-unhashable", "change-not-a-dict", "metric-id-a-list", "metric-id-an-int",
            "replaced-metric-id-a-list", "replaced-metric-id-an-int"])
    def test_rejected_change_leaves_goal_and_log_untouched(self, change, error):
        system = make_system()
        policy = open_policy(system)
        goal = system.define_goal(
            policy.policy_id, "agenda-setting", "g",
            [Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")],
            by=OWNER, goal_id="g-one",
        )
        before, logged, digest = goal.to_record(), len(system.log), system.log.content_hash()
        by = SNT if error is NotOwnerError else OWNER
        with pytest.raises(error):
            system.modify_goal(policy.policy_id, "g-one", change, by=by)
        assert goal.to_record() == before
        assert (len(system.log), system.log.content_hash()) == (logged, digest)

    @pytest.mark.parametrize("change", [
        {"op": "remove-metric", "metric_id": "nope"},
        {"op": "replace-metric", "metric_id": "nope", "metric": Metric("nope", MetricKind.APPROVAL, approver=BCU)},
    ], ids=["remove", "replace"])
    def test_change_to_a_metric_the_goal_does_not_have_is_refused(self, change):
        system = make_system()
        policy = open_policy(system)
        goal = define_default_goal(system, policy)
        before, logged, digest = goal.to_record(), len(system.log), system.log.content_hash()
        with pytest.raises(UnknownMetricError):
            system.modify_goal(policy.policy_id, goal.goal_id, change, by=OWNER)
        assert (goal.to_record(), len(system.log), system.log.content_hash()) == (before, logged, digest)

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

    def test_terminated_policy_takes_no_continue(self):
        system = make_system()
        policy = open_policy(system)
        system.decide_continuation(policy.policy_id, "terminate", by=OWNER)
        logged = len(system.log)
        with pytest.raises(AlreadyTerminatedError):
            system.decide_continuation(policy.policy_id, "continue", by=OWNER)
        assert len(system.log) == logged
        decisions = [rec.body["decision"] for rec in system.log.scan(event_kind="decision")]
        assert decisions == ["policy-created", "terminate"]

    def test_only_owner_decides(self):
        system = make_system()
        policy = open_policy(system)
        with pytest.raises(NotOwnerError):
            system.decide_continuation(policy.policy_id, "terminate", by=SNT)

    @pytest.mark.parametrize("decision", ["maybe", None])
    def test_unknown_decision_rejected(self, decision):
        system = make_system()
        policy = open_policy(system)
        logged = len(system.log)
        with pytest.raises(UnknownDecisionError):
            system.decide_continuation(policy.policy_id, decision, by=OWNER)
        assert len(system.log) == logged


@pytest.mark.parametrize("call", [
    lambda system: system.define_goal("pol-9", "agenda-setting", "g",
                                      [Metric("m", MetricKind.APPROVAL, approver=BCU)], by=OWNER),
    lambda system: system.modify_goal("pol-9", "g-one", {"op": "rename", "name": "x"}, by=OWNER),
    lambda system: system.decide_continuation("pol-9", "continue", by=OWNER),
    lambda system: system.goal_display_snapshot("pol-9"),
], ids=["define", "modify", "decide", "snapshot"])
def test_unknown_policy_rejected(call):
    system = make_system()
    open_policy(system)
    logged = len(system.log)
    with pytest.raises(UnknownPolicyError):
        call(system)
    assert len(system.log) == logged


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
        assert snap_a["goals"] == snap_b["goals"]
        goal = snap_a["goals"][0]
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
        assert early["goals"][0]["metrics"][0]["status"] == "pending"

    def test_snapshot_is_stamped_with_its_last_folded_record_time(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        system.create_local_token(SNT, policy.policy_id, task="analyse", task_input="complaints",
                                  task_output="problem analysis document",
                                  task_description="analysis")
        last = len(system.log) - 1
        assert (system.log[5].logical_time, system.log[last].logical_time) == (6, 8)
        for upto, time in [(5, 6), (None, 8), (last, 8), (last + 10, 8), (-1, 0)]:
            assert system.goal_display_snapshot(policy.policy_id, upto=upto)["snapshot_time"] == time, upto

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


def metric_record(metric_id, artifact="", approver="", status="pending", satisfied_by=None):
    kind = "approval" if approver else "artifact-delivery"
    return {"metric_id": metric_id, "kind": kind, "artifact_key": artifact, "approver": approver,
            "status": status, "satisfied_by": satisfied_by, "version": 1}


def goal_record(goal_id, policy_id, name, metrics, status="active", version=1):
    return {"goal_id": goal_id, "policy_id": policy_id, "phase_id": "agenda-setting", "name": name,
            "status": status, "version": version, "metrics": metrics, "by": "local-council/policy-owner"}


def satisfied(policy_id, goal_id, metric_id, by):
    return {"policy_id": policy_id, "goal_id": goal_id, "phase_id": "agenda-setting",
            "metric_id": metric_id, "satisfied_by": by}


# Hand-written goal records, one per offset, that the table below folds.
GOAL_RECORDS = [
    ("goal-defined", goal_record("g-1", "pol-1", "report", [
        metric_record("m1", artifact="report"), metric_record("m2", approver="local-council/bcu")])),
    ("goal-defined", goal_record("g-2", "pol-2", "memo", [metric_record("n1", artifact="memo")])),
    ("goal-defined", goal_record("g-3", "pol-1", "annex", [metric_record("k1", artifact="annex")])),
    # A redefinition keeps g-1's place ahead of g-3.
    ("goal-defined", goal_record("g-1", "pol-1", "final report", [
        metric_record("m1", artifact="report"), metric_record("m2", approver="local-council/bcu")])),
    ("metric-satisfied", satisfied("pol-1", "g-1", "m1", "t-1")),
    ("metric-satisfied", satisfied("pol-1", "g-9", "m1", "t-2")),  # unknown goal
    ("metric-satisfied", satisfied("pol-1", "g-1", "m9", "t-3")),  # unknown metric
    ("metric-satisfied", satisfied("pol-1", "g-1", "m2", "t-4")),
    ("goal-satisfied", {"policy_id": "pol-1", "goal_id": "g-1", "phase_id": "agenda-setting"}),
    # Reopens g-1; the fold takes the status as recorded.
    ("goal-modified", goal_record("g-1", "pol-1", "final report", [
        metric_record("m1", artifact="report", status="satisfied", satisfied_by="t-1"),
        metric_record("m2", approver="local-council/bcu", status="satisfied", satisfied_by="t-4"),
        metric_record("m3", artifact="annex")], status="active", version=2) | {"op": "add-metric"}),
    ("decision", {"policy_id": "pol-1", "decision": "continue", "by": "local-council/policy-owner"}),
    ("metric-satisfied", satisfied("pol-2", "g-2", "n1", "d-1")),
    ("goal-satisfied", {"policy_id": "pol-2", "goal_id": "g-2", "phase_id": "agenda-setting"}),
]

G1_DEFINED = ("g-1", "pol-1", "report", "active", 1, [("m1", "pending", None), ("m2", "pending", None)])
G1_RENAMED = ("g-1", "pol-1", "final report", "active", 1, [("m1", "pending", None), ("m2", "pending", None)])
G1_SATISFIED = ("g-1", "pol-1", "final report", "satisfied", 1, [
    ("m1", "satisfied", "t-1"), ("m2", "satisfied", "t-4")])
G1_REOPENED = ("g-1", "pol-1", "final report", "active", 2, [
    ("m1", "satisfied", "t-1"), ("m2", "satisfied", "t-4"), ("m3", "pending", None)])
G2_SATISFIED = ("g-2", "pol-2", "memo", "satisfied", 1, [("n1", "satisfied", "d-1")])
G3 = ("g-3", "pol-1", "annex", "active", 1, [("k1", "pending", None)])


@pytest.mark.parametrize("policy_id, upto, expected", [
    ("pol-1", 0, [G1_DEFINED]),
    ("pol-1", 2, [G1_DEFINED, G3]),
    ("pol-1", 3, [G1_RENAMED, G3]),
    ("pol-1", 6, [("g-1", "pol-1", "final report", "active", 1, [
        ("m1", "satisfied", "t-1"), ("m2", "pending", None)]), G3]),
    ("pol-1", 8, [G1_SATISFIED, G3]),
    ("pol-1", None, [G1_REOPENED, G3]),
    ("pol-2", 11, [("g-2", "pol-2", "memo", "active", 1, [("n1", "satisfied", "d-1")])]),
    ("pol-2", None, [G2_SATISFIED]),
    ("pol-3", None, []),
    (None, None, [G1_REOPENED, G2_SATISFIED, G3]),
], ids=["defined", "second-goal", "redefined-in-place", "unknown-goal-and-metric-ignored", "goal-satisfied",
        "modified-reopens", "other-policy-upto", "other-policy", "no-goals", "every-policy"])
def test_fold_of_hand_written_goal_records(policy_id, upto, expected):
    log = EventLog()
    for time, (kind, body) in enumerate(GOAL_RECORDS, start=1):
        log.append(kind, body, time)
    folded = [
        (g.goal_id, g.policy_id, g.name, g.status.value, g.version,
         [(m.metric_id, m.status.value, m.satisfied_by) for m in g.metrics])
        for g in fold_goal_state(log, policy_id, upto=upto)
    ]
    assert folded == expected


@pytest.mark.parametrize("second_kind", ["goal-defined", "goal-modified"])
def test_goal_id_of_another_policy_in_a_loaded_log_is_corrupt(second_kind):
    """A goal id belongs to one policy: a log that defines g-x for pol-1 and then
    for pol-2 does not fold, where it moved the goal to pol-2. Each policy's own
    fold raises as the fold of every policy does, where pol-2's returned g-x."""
    log = EventLog()
    log.append("goal-defined", goal_record("g-x", "pol-1", "x", [metric_record("m1", artifact="x")]), 1)
    log.append(second_kind, goal_record("g-x", "pol-2", "x", [metric_record("m1", artifact="x")]), 2)
    folds = (trace_of, fold_goal_state, lambda log: fold_goal_state(log, "pol-1"),
             lambda log: fold_goal_state(log, "pol-2"))
    for fold in folds:
        with pytest.raises(CorruptLogError, match="^offset 1: .*goal g-x of pol-2 already belongs to pol-1"):
            fold(log)


def test_each_policys_fold_of_a_valid_two_policy_log_is_its_part_of_every_policys_fold():
    """The log of the test above with pol-2's goal named g-y folds, and each
    policy's own fold is that policy's goals of the fold of every policy."""
    log = EventLog()
    log.append("goal-defined", goal_record("g-x", "pol-1", "x", [metric_record("m1", artifact="x")]), 1)
    log.append("goal-defined", goal_record("g-y", "pol-2", "x", [metric_record("m1", artifact="x")]), 2)
    every = [g.to_record() for g in fold_goal_state(log)]
    assert [g["goal_id"] for g in every] == ["g-x", "g-y"]
    for policy_id, upto in (("pol-1", None), ("pol-2", None), ("pol-1", 0), ("pol-2", 0)):
        assert [g.to_record() for g in fold_goal_state(log, policy_id, upto)] == [
            g.to_record() for g in fold_goal_state(log, upto=upto) if g.policy_id == policy_id]
    assert fold_goal_state(log, "pol-2", 0) == []


def test_satisfaction_record_naming_another_policys_goal_is_ignored_by_every_fold():
    """A satisfaction record is applied to a goal of its own policy only, so the
    fold of every policy, each policy's own fold and the `goals.json` records
    agree on a record that names another policy's goal, where the fold of every
    policy marked that goal satisfied."""
    log = EventLog()
    log.append("goal-defined", goal_record("g-1", "pol-1", "report", [metric_record("m1", artifact="report")]), 1)
    log.append("metric-satisfied", satisfied("pol-2", "g-1", "m1", "t-1"), 2)
    log.append("goal-satisfied", {"policy_id": "pol-2", "goal_id": "g-1", "phase_id": "agenda-setting"}, 3)
    every, snapshots = fold_goal_state(log), trace_of(log).goal_snapshots
    for policy_id in ("pol-1", "pol-2"):
        own = fold_goal_state(log, policy_id)
        assert [g.to_record() for g in every if g.policy_id == policy_id] == [g.to_record() for g in own]
        assert [(g["goal_id"], g["status"], [(m["metric_id"], m["status"]) for m in g["metrics"]])
                for g in snapshots[policy_id]["goals"]] == [
            (g.goal_id, g.status.value, [(m.metric_id, m.status.value) for m in g.metrics]) for g in own]
    [goal] = fold_goal_state(log, "pol-1")
    assert (goal.status, goal.metrics[0].status) == (GoalStatus.ACTIVE, MetricStatus.PENDING)


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


_REPORT = goal_record("g-1", "pol-1", "report", [metric_record("m1", artifact="report")])


@pytest.mark.parametrize("kind, body", [
    ("goal-defined", _without(_REPORT, "phase_id")),
    ("goal-defined", _REPORT | {"metrics": [metric_record("m1", artifact="report") | {"kind": "bogus"}]}),
    ("goal-defined", _REPORT | {"metrics": "x"}),
    ("goal-defined", _REPORT | {"metrics": [5]}),
    ("goal-modified", _REPORT | {"metrics": [metric_record("m1", approver="local-council/bcu") | {"approver": 5}]}),
    ("goal-satisfied", {"policy_id": "pol-1", "phase_id": "agenda-setting"}),
    ("goal-defined", _REPORT | {"metrics": []}),
    ("goal-modified", _REPORT | {"metrics": []}),
    ("goal-defined", _REPORT | {"metrics": [
        metric_record("m1", artifact="report"), metric_record("m1", artifact="annex")]}),
    ("goal-defined", _REPORT | {"status": "defined"}),
], ids=["no-phase-id", "bogus-metric-kind", "metrics-text", "metric-int", "approver-int", "satisfied-no-goal-id",
        "empty-metrics", "modified-to-no-metrics", "duplicate-metric-ids", "status-defined"])
def test_malformed_goal_record_in_a_loaded_log_is_corrupt(tmp_path, kind, body):
    """A goal record the fold cannot read raises `CorruptLogError` naming its
    offset, where it ended in a bare KeyError, ValueError, TypeError or AttributeError."""
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append(kind, body, 1)
    log.close()
    loaded = EventLog.load(path)
    for fold in (trace_of, fold_goal_state):
        with pytest.raises(CorruptLogError, match=f"^offset 0: {kind} body is not a goal record: "):
            fold(loaded)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_live_goals_equal_the_fold_after_every_record(seed):
    """The live engine is a cache of the log: after each appended record, every
    policy's goals equal the fold over the log up to that record."""
    scenario = load_scenario(random_scenario_dict(seed))
    system = build_system(scenario)
    log, append = system.log, system.log.append
    mismatches = []

    def checked_append(event_kind, body, logical_time, text=None):
        offset = append(event_kind, body, logical_time, text)
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
