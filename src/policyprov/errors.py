"""Exception types shared across the engine."""


class PolicyProvError(Exception):
    """Base class; carries a short machine-readable code."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class NotOwnerError(PolicyProvError):
    code = "not-owner"


class EmptyMetricsError(PolicyProvError):
    code = "empty-metrics"


class UnknownPhaseError(PolicyProvError):
    code = "unknown-phase"


class UnknownGoalError(PolicyProvError):
    code = "unknown-goal"


class DuplicateGoalError(PolicyProvError):
    """A goal id is already used by a goal of another policy."""

    code = "duplicate-goal"


class DuplicateMetricError(PolicyProvError):
    """Two metrics of one goal share a metric id."""

    code = "duplicate-metric"


class UnknownMetricError(PolicyProvError):
    """A goal change names a metric the goal does not have."""

    code = "unknown-metric"


class LastMetricError(PolicyProvError):
    code = "removing-last-metric"


class InvalidGoalError(PolicyProvError, ValueError):
    """A goal definition or change of a form the goal engine cannot read: a
    name that is not text, a metric that is not a `Metric`, or a change with
    an unknown op or without the keys its op needs."""

    code = "invalid-goal"


class UnknownNetworkError(PolicyProvError):
    code = "unknown-network"


class UnknownActorError(PolicyProvError):
    code = "unknown-actor"


class UnknownPolicyError(PolicyProvError):
    code = "unknown-policy"


class TerminatedPolicyError(PolicyProvError):
    code = "terminated-policy"


class AlreadyTerminatedError(PolicyProvError):
    code = "already-terminated"


class UnknownDecisionError(PolicyProvError):
    """A continuation decision other than continue or terminate."""

    code = "unknown-decision"


class SelfDestinationError(PolicyProvError):
    code = "self-destination"


class IntraNetworkRouteError(PolicyProvError):
    """route_external called with source network == destination network."""

    code = "intra-network-route"


class NoOwnerConfiguredError(PolicyProvError):
    code = "no-owner-configured"


class InvalidTokenError(PolicyProvError):
    code = "invalid-token"

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"invalid token fields: {', '.join(self.violations)}")


class UnknownDataIdError(PolicyProvError):
    code = "unknown-data-id"


class CorruptLogError(PolicyProvError):
    """A log line is not a record in place, or a record's body is not what its kind says."""

    code = "corrupt-log"


class TornLogError(CorruptLogError):
    """The log's last line has no newline and is not JSON: the writer stopped mid-append."""

    code = "torn-log"


class ScenarioError(PolicyProvError):
    code = "scenario-error"


class RunawayScenarioError(PolicyProvError):
    code = "runaway-scenario"

    def __init__(self, pending):
        self.pending = list(pending)
        super().__init__(f"step budget exhausted; pending triggers: {self.pending}")
