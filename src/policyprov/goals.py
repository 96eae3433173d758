"""Goal handling: goal/metric definition, continuous evaluation, snapshots.

Goal state is a fold over the event log's goal records. `GoalBook.apply` is
its one transition and states every goal rule: the live engine applies each
record before it logs it, and `fold_goal_state` applies the logged ones, so
replay refuses what the engine refuses. The engine checks only what the log
does not hold: the phase, the metric a change names and a change's form; the
owner is the network engine's one check. When an event satisfies a goal, the
engine hands the goal and the event's actor to the notifier it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Callable, Optional

from .errors import (
    CorruptLogError,
    DuplicateGoalError,
    DuplicateMetricError,
    EmptyMetricsError,
    InvalidGoalError,
    LastMetricError,
    PolicyProvError,
    UnknownGoalError,
    UnknownMetricError,
    UnknownPhaseError,
)
from .model import Address, DataRecord, LocalToken, TokenKind
from .storage import EventLog, policy_ids


class MetricKind(str, Enum):
    ARTIFACT_DELIVERY = "artifact-delivery"
    APPROVAL = "approval"


class MetricStatus(str, Enum):
    PENDING = "pending"
    SATISFIED = "satisfied"


class GoalStatus(str, Enum):
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
        return cls(
            metric_id=rec["metric_id"],
            kind=MetricKind(rec["kind"]),
            artifact_key=rec["artifact_key"],
            approver=Address.parse(rec["approver"]) if rec["approver"] else None,
            status=MetricStatus(rec["status"]),
            satisfied_by=rec["satisfied_by"],
            version=rec["version"],
        )


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
        return cls(
            goal_id=rec["goal_id"],
            policy_id=rec["policy_id"],
            phase_id=rec["phase_id"],
            name=rec["name"],
            metrics=[Metric.from_record(m) for m in rec["metrics"]],
            status=GoalStatus(rec["status"]),
            version=rec["version"],
        )


class GoalBook:
    """Goal state and its indexes, changed only by `apply`."""

    def __init__(self):
        # Every goal by id, in first-definition order; a redefinition keeps its place.
        self.goals: dict[str, Goal] = {}
        # Each policy's goals by id in definition order: the index every token's
        # stamping and evaluation reads instead of walking all goals.
        self.by_policy: dict[str, dict[str, Goal]] = {}
        # Every canonical artifact key any version of a goal has named, to
        # those goals' ids: a superset that `evaluate_event` re-checks, never pruned.
        self.by_artifact: dict[str, set[str]] = {}
        # Each goal id's place in `goals`.
        self.position: dict[str, int] = {}

    def apply(self, event_kind: str, body: dict) -> None:
        """Apply one record of a kind in `storage.GOAL_KINDS`, or raise before
        anything changes. A goal id belongs to one policy (`DuplicateGoalError`),
        a goal has a metric (`EmptyMetricsError`; `LastMetricError` for a
        change), and no two of its metrics share an id (`DuplicateMetricError`).
        A satisfaction record is ignored unless its goal is one of its own
        policy's."""
        if event_kind in ("goal-defined", "goal-modified"):
            new = Goal.from_record(body)
            goal = self.goals.get(new.goal_id)
            if goal is not None and goal.policy_id != new.policy_id:
                raise DuplicateGoalError(f"goal {new.goal_id} of {new.policy_id} already belongs to {goal.policy_id}")
            if not new.metrics:
                raise (EmptyMetricsError if event_kind == "goal-defined" else LastMetricError)(new.goal_id)
            ids = [metric.metric_id for metric in new.metrics]
            if len(set(ids)) != len(ids):
                raise DuplicateMetricError(f"goal {new.goal_id} has two metrics of one id: {ids}")
            if goal is None:
                goal = self.goals[new.goal_id] = new
                self.position[goal.goal_id] = len(self.position)
            else:
                # In place, so that a goal object handed out stays live.
                vars(goal).update(vars(new))
            self.by_policy.setdefault(goal.policy_id, {})[goal.goal_id] = goal
            for metric in goal.metrics:
                if metric.kind is MetricKind.ARTIFACT_DELIVERY:
                    self.by_artifact.setdefault(canonical_artifact(metric.artifact_key), set()).add(goal.goal_id)
            return
        goal = self.by_policy.get(body["policy_id"], {}).get(body["goal_id"])
        if goal is None:
            return
        if event_kind == "metric-satisfied":
            for metric in goal.metrics:
                if metric.metric_id == body["metric_id"]:
                    metric.status = MetricStatus.SATISFIED
                    metric.satisfied_by = body["satisfied_by"]
        elif event_kind == "goal-satisfied":
            goal.status = GoalStatus.SATISFIED


class GoalEngine:
    """Goal Manager + Goal Display: definition and monitoring."""

    def __init__(self, log: EventLog, phases: tuple[str, ...], notify: Callable[[Goal, Address], None]):
        self._log = log
        self.phases = tuple(phases)
        # Called with (goal, actor) when an event satisfies a goal's last metric.
        self._notify = notify
        self._book = GoalBook()

    def _record(self, event_kind: str, body: dict) -> None:
        """Apply a goal record, then log it: the only way goal state changes.
        In this order, whoever reads the state as the record is appended sees
        the state the record describes."""
        self._book.apply(event_kind, body)
        self._log.append(event_kind, body, self._log.tick())

    # -- registry views -------------------------------------------------

    def goal(self, goal_id: str, policy_id: str) -> Goal:
        """The policy's goal of that id; a goal of another policy is unknown to it."""
        try:
            return self._book.by_policy[policy_id][goal_id]
        except KeyError:
            raise UnknownGoalError(goal_id) from None

    def goals_for(self, policy_id: str) -> list[Goal]:
        return list(self._book.by_policy.get(policy_id, {}).values())

    def current_goal(self, policy_id: str) -> Optional[Goal]:
        """Earliest still-unsatisfied goal, else the last defined one."""
        goals = self._book.by_policy.get(policy_id, {}).values()
        for goal in goals:
            if goal.status is not GoalStatus.SATISFIED:
                return goal
        return next(reversed(goals), None)

    # -- owner operations (the caller has checked the owner) -------------

    def define_goal(
        self,
        policy_id: str,
        phase: str,
        name: str,
        metrics: list[Metric],
        by: Address,
        goal_id: Optional[str] = None,
    ) -> Goal:
        if phase not in self.phases:
            raise UnknownPhaseError(phase)
        _check_form(name, metrics)
        if goal_id is None:  # the first `g-N` the book does not hold
            goal_id = next(f"g-{n}" for n in count(1) if f"g-{n}" not in self._book.goals)
        elif not isinstance(goal_id, str):
            raise InvalidGoalError(f"goal id {goal_id!r} is not text")
        goal = Goal(goal_id, policy_id, phase, name, metrics)
        self._record("goal-defined", goal.to_record() | {"by": str(by)})
        return self._book.goals[goal_id]

    def modify_goal(self, policy_id: str, goal_id: str, change: dict, by: Address) -> Goal:
        """change: {"op": add-metric|remove-metric|replace-metric|rename, ...} with
        the `metric`, `metric_id` or `name` its op needs; any other form is an `InvalidGoalError`."""
        goal = self.goal(goal_id, policy_id)
        metrics, name = list(goal.metrics), goal.name
        try:
            op = change["op"]
            if op in ("remove-metric", "replace-metric") and change["metric_id"] not in {m.metric_id for m in metrics}:
                raise UnknownMetricError(f"goal {goal_id} has no metric {change['metric_id']!r}")
            if op == "add-metric":
                metrics.append(change["metric"])
            elif op == "remove-metric":
                metrics = [m for m in metrics if m.metric_id != change["metric_id"]]
            elif op == "replace-metric":
                metrics = [change["metric"] if m.metric_id == change["metric_id"] else m for m in metrics]
            elif op == "rename":
                name = change["name"]
            else:
                raise InvalidGoalError(f"unknown goal change op: {op!r}")
        except (KeyError, TypeError) as exc:  # not a dict, or a key missing or unhashable
            raise InvalidGoalError(f"malformed goal change {change!r}: {exc!r}") from None
        _check_form(name, metrics)
        new = Goal(goal_id, goal.policy_id, goal.phase_id, name, metrics, version=goal.version + 1)
        # A modification may reopen a previously satisfied goal.
        new.status = GoalStatus.SATISFIED if new.all_satisfied() else GoalStatus.ACTIVE
        self._record("goal-modified", new.to_record() | {"by": str(by), "op": op})
        return goal

    # -- continuous monitoring --------------------------------------------

    def evaluate_event(self, event) -> None:
        """Match an appended token or data record against pending metrics.

        An event has one actor and delivers one canonical artifact: a local
        token's performer and output, a routed token's sender and previous
        output, or a data record's creator and media hint. A token meets only
        its own policy's goals; a data record meets every goal that has named
        its artifact, in definition order.
        """
        book = self._book
        approver = None  # the sender of an approval response
        if isinstance(event, DataRecord):
            actor, artifact, satisfied_by = event.created_by, canonical_artifact(event.media_hint), event.data_id
            goal_ids = sorted(book.by_artifact.get(artifact, ()), key=book.position.__getitem__)
            goals = [book.goals[goal_id] for goal_id in goal_ids]
        else:
            satisfied_by = event.token_id
            goals = list(book.by_policy.get(event.policy_id, {}).values())
            if isinstance(event, LocalToken):
                actor, artifact = event.who_carried_out, canonical_artifact(event.task_output)
            else:
                actor, artifact = event.source_address, canonical_artifact(event.previous_task_output)
                if event.kind is TokenKind.APPROVAL_RESPONSE:
                    approver = actor
        for goal in goals:
            for metric in goal.metrics:
                if metric.status is not MetricStatus.PENDING:
                    continue
                if metric.kind is MetricKind.APPROVAL:
                    # Met by a response from its approver that names no other goal.
                    if metric.approver != approver or (event.goal_id and event.goal_id != goal.goal_id):
                        continue
                elif canonical_artifact(metric.artifact_key) != artifact:
                    continue
                ids = {"policy_id": goal.policy_id, "goal_id": goal.goal_id, "phase_id": goal.phase_id}
                self._record("metric-satisfied", ids | {"metric_id": metric.metric_id, "satisfied_by": satisfied_by})
                if goal.all_satisfied():
                    self._record("goal-satisfied", ids)
                if goal.status is GoalStatus.SATISFIED:
                    self._notify(goal, actor)


def _check_form(name, metrics) -> None:
    """A goal the engine logs has a text name and a list of `Metric`s, each of
    a `MetricKind` with a text id; the goal rules are `GoalBook.apply`'s."""
    if not isinstance(name, str):
        raise InvalidGoalError(f"goal name {name!r} is not text")
    if not isinstance(metrics, (list, tuple)) or not all(
        isinstance(metric, Metric) and isinstance(metric.kind, MetricKind) and isinstance(metric.metric_id, str)
        for metric in metrics
    ):
        raise InvalidGoalError(f"goal metrics are not a list of Metric of a MetricKind with a text id: {metrics!r}")


def fold_goal_state(log: EventLog, policy_id: Optional[str] = None, upto: Optional[int] = None) -> list[Goal]:
    """Rebuild goal state purely from recorded goal events, and return every
    goal, or `policy_id`'s alone; a body the book cannot read, or one that
    breaks a goal rule, is a `CorruptLogError` naming its offset. It walks
    the log's goal records alone (`EventLog.goal_records`), and every one of
    them up to `upto` either way, as a goal rule may span policies, so the
    folds of one log raise alike."""
    book = GoalBook()
    for rec in log.goal_records():
        if upto is not None and rec.offset > upto:
            break
        try:
            book.apply(rec.event_kind, rec.body)
        # A field missing or bad (an approver that is not text has no `partition`), or a rule broken.
        except (AttributeError, KeyError, TypeError, ValueError, PolicyProvError) as exc:
            raise CorruptLogError(
                f"offset {rec.offset}: {rec.event_kind} body is not a goal record: {exc!r}"
            ) from None
    return list(book.goals.values() if policy_id is None else book.by_policy.get(policy_id, {}).values())


def goal_snapshots(log: EventLog, upto: Optional[int] = None) -> dict[str, dict]:
    """The `goals.json` record of each policy the log names, in first-appearance
    order: its goals folded from the records up to offset `upto` (all when
    None), each with its id, name, phase, status and version and each of its
    metrics' id, status and satisfier, stamped with the last folded record's
    time (0 when there is none)."""
    last = len(log) - 1 if upto is None else min(upto, len(log) - 1)
    time = log[last].logical_time if last >= 0 else 0
    snapshots = {policy_id: {"policy_id": policy_id, "snapshot_time": time, "goals": []}
                 for policy_id in policy_ids(log)}
    for g in fold_goal_state(log, upto=upto):
        metrics = [{"metric_id": m.metric_id, "status": m.status.value, "satisfied_by": m.satisfied_by}
                   for m in g.metrics]
        snapshots[g.policy_id]["goals"].append({"goal_id": g.goal_id, "name": g.name, "phase_id": g.phase_id,
                                                "status": g.status.value, "version": g.version, "metrics": metrics})
    return snapshots
