"""Goal handling: goal/metric definition, continuous evaluation, snapshots.

Goal state is derived from the event log; the live engine keeps a cache, but
`goal_display_snapshot` recomputes the same state by folding the log so that
two snapshots over the same prefix are always identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import (
    AlreadyTerminatedError,
    DuplicateGoalError,
    EmptyMetricsError,
    LastMetricError,
    NotOwnerError,
    UnknownGoalError,
    UnknownPhaseError,
    UnknownPolicyError,
)
from .model import Address, DataRecord, LocalToken, PolicyRef, PolicyStatus, RoutedToken, TokenKind
from .storage import EventLog, LogicalClock


class MetricKind(str, Enum):
    ARTIFACT_DELIVERY = "artifact-delivery"
    APPROVAL = "approval"


class MetricStatus(str, Enum):
    PENDING = "pending"
    SATISFIED = "satisfied"


class GoalStatus(str, Enum):
    DEFINED = "defined"
    ACTIVE = "active"
    SATISFIED = "satisfied"


def canonical_artifact(text: str) -> str:
    """Case-insensitive, whitespace-normalized artifact name."""
    return " ".join(text.split()).lower()


@dataclass
class Metric:
    metric_id: str
    kind: MetricKind
    artifact_key: str = ""
    approver: Optional[Address] = None
    status: MetricStatus = MetricStatus.PENDING
    satisfied_by: Optional[str] = None
    version: int = 1

    def __post_init__(self):
        if self.kind is MetricKind.ARTIFACT_DELIVERY and (not self.artifact_key or self.approver):
            raise ValueError("artifact-delivery metric needs artifact_key only")
        if self.kind is MetricKind.APPROVAL and (self.approver is None or self.artifact_key):
            raise ValueError("approval metric needs approver only")

    def to_record(self) -> dict:
        return {
            "metric_id": self.metric_id,
            "kind": self.kind.value,
            "artifact_key": self.artifact_key,
            "approver": str(self.approver) if self.approver else "",
            "status": self.status.value,
            "satisfied_by": self.satisfied_by,
            "version": self.version,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Metric":
        metric = cls(
            metric_id=rec["metric_id"],
            kind=MetricKind(rec["kind"]),
            artifact_key=rec.get("artifact_key", ""),
            approver=Address.parse(rec["approver"]) if rec.get("approver") else None,
            version=rec.get("version", 1),
        )
        metric.status = MetricStatus(rec.get("status", "pending"))
        metric.satisfied_by = rec.get("satisfied_by")
        return metric


@dataclass
class Goal:
    goal_id: str
    policy_id: str
    phase_id: str
    name: str
    metrics: list[Metric]
    status: GoalStatus = GoalStatus.ACTIVE
    version: int = 1

    def all_satisfied(self) -> bool:
        return all(m.status is MetricStatus.SATISFIED for m in self.metrics)

    def to_record(self) -> dict:
        return {
            "goal_id": self.goal_id,
            "policy_id": self.policy_id,
            "phase_id": self.phase_id,
            "name": self.name,
            "status": self.status.value,
            "version": self.version,
            "metrics": [m.to_record() for m in self.metrics],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Goal":
        goal = cls(
            goal_id=rec["goal_id"],
            policy_id=rec["policy_id"],
            phase_id=rec["phase_id"],
            name=rec["name"],
            metrics=[Metric.from_record(m) for m in rec["metrics"]],
            version=rec.get("version", 1),
        )
        goal.status = GoalStatus(rec.get("status", "active"))
        return goal


@dataclass
class GoalDisplaySnapshot:
    policy_id: str
    goals: list[dict]
    snapshot_time: int

    @classmethod
    def of(cls, policy_id: str, goals: list[Goal], snapshot_time: int) -> "GoalDisplaySnapshot":
        return cls(
            policy_id,
            [
                {
                    "goal_id": g.goal_id,
                    "name": g.name,
                    "phase_id": g.phase_id,
                    "status": g.status.value,
                    "version": g.version,
                    "metrics": [
                        {
                            "metric_id": m.metric_id,
                            "status": m.status.value,
                            "satisfied_by": m.satisfied_by,
                        }
                        for m in g.metrics
                    ],
                }
                for g in goals
            ],
            snapshot_time,
        )

    def to_record(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "snapshot_time": self.snapshot_time,
            "goals": self.goals,
        }


class GoalEngine:
    """Goal Manager + Goal Display: definition, monitoring, decisions."""

    def __init__(
        self,
        log: EventLog,
        clock: LogicalClock,
        policies: dict[str, PolicyRef],
        phases: tuple[str, ...],
    ):
        self._log = log
        self._clock = clock
        self._policies = policies
        self.phases = tuple(phases)
        # Called with (goal, event) when an event satisfies a goal's last metric.
        self.on_goal_satisfied: Optional[Callable] = None
        self._goals: dict[str, Goal] = {}
        # Each policy's goals by id in definition order: the index every token's
        # stamping and evaluation reads instead of walking all goals.
        self._by_policy: dict[str, dict[str, Goal]] = {}
        # Every canonical artifact key any version of a goal has named, to
        # those goals' ids: a superset that `_match` re-checks, never pruned.
        self._by_artifact: dict[str, set[str]] = {}
        # Each goal id's place in `_goals`, which a redefinition keeps.
        self._position: dict[str, int] = {}
        self._counter = 0

    # -- registry views -------------------------------------------------

    @property
    def goal_ids(self):
        return self._goals.keys()

    def goal(self, goal_id: str, policy_id: str) -> Goal:
        """The policy's goal of that id; a goal of another policy is unknown to it."""
        try:
            return self._by_policy[policy_id][goal_id]
        except KeyError:
            raise UnknownGoalError(goal_id) from None

    def goals_for(self, policy_id: str) -> list[Goal]:
        return list(self._by_policy.get(policy_id, {}).values())

    def current_goal(self, policy_id: str) -> Optional[Goal]:
        """Earliest still-unsatisfied goal, else the last defined one."""
        goals = self._by_policy.get(policy_id, {}).values()
        for goal in goals:
            if goal.status is not GoalStatus.SATISFIED:
                return goal
        return next(reversed(goals), None)

    # -- owner operations ------------------------------------------------

    def define_goal(
        self,
        policy: PolicyRef,
        phase: str,
        name: str,
        metrics: list[Metric],
        by: Address,
        goal_id: Optional[str] = None,
    ) -> Goal:
        if by != policy.owner:
            raise NotOwnerError(f"{by} is not the owner of {policy.policy_id}")
        if not metrics:
            raise EmptyMetricsError(name)
        if phase not in self.phases:
            raise UnknownPhaseError(phase)
        if goal_id is None:
            self._counter += 1
            goal_id = f"g-{self._counter}"
        old = self._goals.get(goal_id)
        if old is not None and old.policy_id != policy.policy_id:
            raise DuplicateGoalError(f"{goal_id} already belongs to {old.policy_id}")
        goal = Goal(goal_id, policy.policy_id, phase, name, list(metrics))
        # A redefinition keeps its place in both dicts, as in the fold over the log.
        self._goals[goal_id] = goal
        self._by_policy.setdefault(policy.policy_id, {})[goal_id] = goal
        self._position.setdefault(goal_id, len(self._position))
        self._index_artifacts(goal_id, goal.metrics)
        self._log.append("goal-defined", goal.to_record() | {"by": str(by)}, self._clock.tick())
        return goal

    def modify_goal(self, policy: PolicyRef, goal_id: str, change: dict, by: Address) -> Goal:
        """change: {"op": add-metric|remove-metric|replace-metric|rename, ...}."""
        if by != policy.owner:
            raise NotOwnerError(str(by))
        goal = self.goal(goal_id, policy.policy_id)
        op = change["op"]
        if op in ("add-metric", "replace-metric"):
            self._index_artifacts(goal_id, [change["metric"]])
        if op == "add-metric":
            goal.metrics.append(change["metric"])
        elif op == "remove-metric":
            if len(goal.metrics) == 1:
                raise LastMetricError(goal_id)
            goal.metrics = [m for m in goal.metrics if m.metric_id != change["metric_id"]]
        elif op == "replace-metric":
            goal.metrics = [
                change["metric"] if m.metric_id == change["metric_id"] else m
                for m in goal.metrics
            ]
        elif op == "rename":
            goal.name = change["name"]
        else:
            raise ValueError(f"unknown goal change op: {op}")
        goal.version += 1
        # A modification may reopen a previously satisfied goal.
        goal.status = GoalStatus.SATISFIED if goal.all_satisfied() else GoalStatus.ACTIVE
        self._log.append(
            "goal-modified",
            goal.to_record() | {"by": str(by), "op": op},
            self._clock.tick(),
        )
        return goal

    def _index_artifacts(self, goal_id: str, metrics: list[Metric]) -> None:
        for metric in metrics:
            if metric.kind is MetricKind.ARTIFACT_DELIVERY:
                self._by_artifact.setdefault(canonical_artifact(metric.artifact_key), set()).add(goal_id)

    def decide_continuation(self, policy: PolicyRef, decision: str, by: Address) -> PolicyRef:
        if by != policy.owner:
            raise NotOwnerError(str(by))
        if decision not in ("continue", "terminate"):
            raise ValueError(decision)
        if decision == "terminate":
            if policy.status is PolicyStatus.TERMINATED:
                raise AlreadyTerminatedError(policy.policy_id)
            policy.status = PolicyStatus.TERMINATED
        self._log.append(
            "decision",
            {"policy_id": policy.policy_id, "decision": decision, "by": str(by)},
            self._clock.tick(),
        )
        return policy

    # -- continuous monitoring --------------------------------------------

    def evaluate_event(self, event) -> None:
        """Match an appended token or data record against pending metrics.

        A token can only satisfy its own policy's goals; a data record has no
        policy and is matched against every goal that has named its artifact,
        in definition order.
        """
        if isinstance(event, (LocalToken, RoutedToken)):
            goals = list(self._by_policy.get(event.policy_id, {}).values())
        else:
            goal_ids = self._by_artifact.get(canonical_artifact(event.media_hint), ())
            goals = [self._goals[goal_id] for goal_id in sorted(goal_ids, key=self._position.__getitem__)]
        for goal in goals:
            for metric in goal.metrics:
                if metric.status is not MetricStatus.PENDING:
                    continue
                token_id = self._match(goal, metric, event)
                if token_id is None:
                    continue
                metric.status = MetricStatus.SATISFIED
                metric.satisfied_by = token_id
                self._log.append(
                    "metric-satisfied",
                    {
                        "policy_id": goal.policy_id,
                        "goal_id": goal.goal_id,
                        "phase_id": goal.phase_id,
                        "metric_id": metric.metric_id,
                        "satisfied_by": token_id,
                    },
                    self._clock.tick(),
                )
                if goal.all_satisfied():
                    goal.status = GoalStatus.SATISFIED
                    self._log.append(
                        "goal-satisfied",
                        {
                            "policy_id": goal.policy_id,
                            "goal_id": goal.goal_id,
                            "phase_id": goal.phase_id,
                        },
                        self._clock.tick(),
                    )
                if goal.status is GoalStatus.SATISFIED and self.on_goal_satisfied is not None:
                    self.on_goal_satisfied(goal, event)

    @staticmethod
    def _match(goal: Goal, metric: Metric, event) -> Optional[str]:
        """`evaluate_event` passes a token only its own policy's goals."""
        if isinstance(event, LocalToken):
            if metric.kind is MetricKind.ARTIFACT_DELIVERY and canonical_artifact(
                event.task_output
            ) == canonical_artifact(metric.artifact_key):
                return event.token_id
            return None
        if isinstance(event, RoutedToken):
            if (
                metric.kind is MetricKind.APPROVAL
                and event.kind is TokenKind.APPROVAL_RESPONSE
                and event.source_address == metric.approver
                and (not event.goal_id or event.goal_id == goal.goal_id)
            ):
                return event.token_id
            if metric.kind is MetricKind.ARTIFACT_DELIVERY and canonical_artifact(
                event.previous_task_output
            ) == canonical_artifact(metric.artifact_key):
                return event.token_id
            return None
        if isinstance(event, DataRecord):
            if metric.kind is MetricKind.ARTIFACT_DELIVERY and canonical_artifact(
                event.media_hint
            ) == canonical_artifact(metric.artifact_key):
                return event.data_id
        return None

    # -- display -----------------------------------------------------------

    def goal_display_snapshot(self, policy_id: str, upto: Optional[int] = None) -> GoalDisplaySnapshot:
        if policy_id not in self._policies:
            raise UnknownPolicyError(policy_id)
        goals = fold_goal_state(self._log, policy_id, upto=upto)
        return GoalDisplaySnapshot.of(policy_id, goals, self._clock.now)


def fold_goal_state(log: EventLog, policy_id: Optional[str] = None, upto: Optional[int] = None) -> list[Goal]:
    """Rebuild goal state purely from recorded goal events."""
    goals: dict[str, Goal] = {}
    for rec in log:
        if upto is not None and rec.offset > upto:
            break
        body = rec.body
        if policy_id is not None and body.get("policy_id") != policy_id:
            continue
        if rec.event_kind in ("goal-defined", "goal-modified"):
            record = {k: v for k, v in body.items() if k not in ("by", "op")}
            goals[body["goal_id"]] = Goal.from_record(record)
        elif rec.event_kind == "metric-satisfied":
            goal = goals.get(body["goal_id"])
            if goal is None:
                continue
            for metric in goal.metrics:
                if metric.metric_id == body["metric_id"]:
                    metric.status = MetricStatus.SATISFIED
                    metric.satisfied_by = body["satisfied_by"]
        elif rec.event_kind == "goal-satisfied":
            goal = goals.get(body["goal_id"])
            if goal is not None:
                goal.status = GoalStatus.SATISFIED
    return list(goals.values())
