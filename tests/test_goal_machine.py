"""The goal engine under a state machine: after any sequence of calls, refused
calls included, a refused call has changed nothing and the live goals equal
every fold of the log.

Tier-1 runs a short machine; a longer run of the same machine is

    PYTHONPATH=src:tests python -c "
    from hypothesis import settings
    from hypothesis.stateful import run_state_machine_as_test
    from test_goal_machine import GoalMachine
    run_state_machine_as_test(GoalMachine, settings=settings(max_examples=500, stateful_step_count=50, deadline=None))
    "
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from policyprov import Address, Metric, MetricKind, TokenKind
from policyprov.errors import PolicyProvError
from policyprov.goals import fold_goal_state

from conftest import BCU, COMMUNITY, NWT, OWNER, SNT, make_system


def mostly(valid, *invalid):
    """A value of `valid` seven times in eight, else one of the `invalid` values."""
    return st.tuples(st.integers(0, 7), valid, st.sampled_from(invalid)).map(lambda t: t[2] if t[0] == 7 else t[1])


ACTORS = st.sampled_from((OWNER, SNT, BCU, COMMUNITY, Address("citizens", "stranger")))  # the last one unregistered
OWNERS = mostly(st.just(OWNER), SNT, COMMUNITY)
PHASES = mostly(st.sampled_from(("agenda-setting", "analysis")), "evaluation")
ARTIFACTS = st.sampled_from(("report", "  Report", "memo", "idea"))
METRIC_IDS = st.sampled_from(("m1", "m2", "m3"))
METRIC = st.one_of(
    st.builds(lambda metric_id, artifact: Metric(metric_id, MetricKind.ARTIFACT_DELIVERY, artifact_key=artifact),
              METRIC_IDS, ARTIFACTS),
    st.builds(lambda metric_id, approver: Metric(metric_id, MetricKind.APPROVAL, approver=approver),
              METRIC_IDS, st.sampled_from((BCU, NWT))),
)
# One to three metrics of three ids, so that two of them often share one.
METRICS = mostly(st.lists(METRIC, min_size=1, max_size=3), [], ["not a metric"], "m1")
NAMES = mostly(st.sampled_from(("report", "renamed")), 5, None)
CHANGES = mostly(
    st.one_of(
        st.builds(lambda metric: {"op": "add-metric", "metric": metric}, METRIC),
        st.builds(lambda metric_id: {"op": "remove-metric", "metric_id": metric_id}, METRIC_IDS),
        st.builds(lambda metric_id, metric: {"op": "replace-metric", "metric_id": metric_id, "metric": metric},
                  METRIC_IDS, METRIC),
        st.builds(lambda name: {"op": "rename", "name": name}, NAMES),
    ),
    {}, None, "rename", {"op": "remove-metric"}, {"op": "rename"}, {"op": "add-metric"},
    {"op": "add-metric", "metric": "x"}, {"op": "retitle", "name": "x"}, {"op": "remove-metric", "metric_id": ["m1"]},
)
DECISIONS = st.sampled_from(("continue", "continue", "terminate", "maybe"))


class GoalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.system = make_system()
        self.stored = []  # every data record stored, to submit as a policy

    @initialize()
    def open_first_policy(self):
        record = self.system.put_data(b"community idea", COMMUNITY, "community idea document")
        policy, _, _ = self.system.notify_new_policy(record, COMMUNITY)
        self.stored.append(record)
        self.system.define_goal(policy.policy_id, "agenda-setting", "report", [
            Metric("m1", MetricKind.ARTIFACT_DELIVERY, artifact_key="report"),
            Metric("m2", MetricKind.APPROVAL, approver=BCU),
        ], by=OWNER)

    # -- draws that depend on the state ----------------------------------------------

    def policy_id(self, data) -> str:
        """A policy, now and then an unknown one."""
        return data.draw(mostly(st.sampled_from(list(self.system.policies)), "pol-9"))

    def goal_id(self, data, policy_id: str):
        """A goal of the policy, now and then one of another policy, an unknown or an automatic one."""
        goals = self.system.goals
        own = [g.goal_id for g in goals.goals_for(policy_id)]
        every = [g.goal_id for p in self.system.policies for g in goals.goals_for(p)]
        return data.draw(mostly(st.sampled_from(own or [None]), *every, "g-x", None))

    def state(self):
        system, log = self.system, self.system.log
        goals = {p: [g.to_record() for g in system.goals.goals_for(p)] for p in system.policies}
        statuses = {p: policy.status for p, policy in system.policies.items()}
        return len(log), log.content_hash(), log._now, goals, statuses

    def call(self, method: str, *args, **kwargs):
        """Call the engine; a call it refuses with a `PolicyProvError` must change
        nothing, and any other exception fails the machine."""
        before = self.state()
        try:
            return getattr(self.system, method)(*args, **kwargs)
        except PolicyProvError:
            assert self.state() == before

    # -- rules -------------------------------------------------------------------------

    @rule(payload=st.sampled_from((b"idea", b"report", b"memo")), by=ACTORS, media_hint=ARTIFACTS)
    def put_data(self, payload, by, media_hint):
        record = self.call("put_data", payload, by, media_hint)
        if record is not None:
            self.stored.append(record)

    @precondition(lambda self: len(self.system.policies) < 3)  # so that most calls meet a policy with goals
    @rule(data=st.data(), by=ACTORS)
    def notify_new_policy(self, data, by):
        self.call("notify_new_policy", data.draw(st.sampled_from(self.stored)), by)

    @rule(data=st.data(), phase=PHASES, name=NAMES, metrics=METRICS, by=OWNERS)
    def define_goal(self, data, phase, name, metrics, by):
        policy_id = self.policy_id(data)
        self.call("define_goal", policy_id, phase, name, metrics, by=by, goal_id=self.goal_id(data, policy_id))

    @rule(data=st.data(), change=CHANGES, by=OWNERS)
    def modify_goal(self, data, change, by):
        policy_id = self.policy_id(data)
        self.call("modify_goal", policy_id, self.goal_id(data, policy_id), change, by=by)

    @rule(data=st.data(), actor=ACTORS, output=ARTIFACTS)
    def create_local_token(self, data, actor, output):
        policy_id = self.policy_id(data)
        self.call("create_local_token", actor, policy_id, task="write", task_input="notes", task_output=output,
                  task_description="write", goal_id=self.goal_id(data, policy_id))

    @rule(data=st.data(), actor=mostly(st.sampled_from((BCU, NWT)), OWNER))
    def approve(self, data, actor):
        policy_id = self.policy_id(data)
        self.call("send_token", actor, policy_id, OWNER, kind=TokenKind.APPROVAL_RESPONSE, previous_task="review",
                  previous_task_output="approval", task_description="approve", goal_id=self.goal_id(data, policy_id))

    @rule(data=st.data(), decision=DECISIONS, by=OWNERS)
    def decide_continuation(self, data, decision, by):
        self.call("decide_continuation", self.policy_id(data), decision, by=by)

    @invariant()
    def live_goals_equal_every_fold(self):
        log, goals = self.system.log, self.system.goals
        every = fold_goal_state(log)
        for policy_id in self.system.policies:
            live = [g.to_record() for g in goals.goals_for(policy_id)]
            assert live == [g.to_record() for g in fold_goal_state(log, policy_id)]
            assert live == [g.to_record() for g in every if g.policy_id == policy_id]


TestGoalMachine = GoalMachine.TestCase
TestGoalMachine.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
