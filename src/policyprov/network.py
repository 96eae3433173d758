"""The tracking service: one engine owns the log, the data store, the goals,
the networks and the policies.

Both token kinds go through one controller step, `_issue`: it stamps goal and
phase, takes the next per-(network, policy) sequence number and validates the
token; only then does it draw the token id, take a fresh logical time and log
the token, so a refused token is not logged and takes no number, time or id.
One delivery decision, `_route`, serves tokens within and across networks,
and the only routing state is the address books (registered actors and
linked networks). The engine opens the policies, looks them up, and is the
only writer of `decision` records and of a policy's status. It holds the one
policy owner and checks it in one place, `_owned`, for every goal change and
decision. Every stored datum and every token it creates or delivers goes to
goal monitoring from here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    AlreadyTerminatedError,
    InvalidTokenError,
    IntraNetworkRouteError,
    NoOwnerConfiguredError,
    NotOwnerError,
    SelfDestinationError,
    TerminatedPolicyError,
    UnknownActorError,
    UnknownDataIdError,
    UnknownDecisionError,
    UnknownNetworkError,
    UnknownPolicyError,
)
from .goals import GoalEngine, goal_snapshots
from .model import (
    Address,
    ArtifactNature,
    CommunicationPattern,
    DataRecord,
    DEFAULT_PHASES,
    LocalToken,
    PolicyRef,
    PolicyStatus,
    RoutedToken,
    StakeholderNature,
    TokenKind,
    from_fields,
    validate_local_token,
    validate_routed_token,
)
from .storage import DataStore, EventLog, record_text

# The token id and logical time a token holds while it is validated, before it draws its own.
_UNISSUED_ID = "unissued"
_UNISSUED_TIME = 0


@dataclass(frozen=True)
class DeliveryReceipt:
    token_id: str
    outcome: str  # delivered | duplicate-ignored | dead-letter
    at: int

    def to_record(self) -> dict:
        return {"token_id": self.token_id, "outcome": self.outcome, "at": self.at}


class NetworkEngine:
    """One provenance-tracked policy environment (all networks, one log),
    exported as `policyprov.PolicySystem`."""

    def __init__(
        self,
        phases=DEFAULT_PHASES,
        seed: int = 0,
        owner: Optional[Address] = None,
        log_path: Optional[Path] = None,
        data_root: Optional[Path] = None,
    ):
        self.log = EventLog(log_path)
        try:
            self.store = DataStore(self.log, data_root)
        except OSError:  # the data root cannot be made: leave no log file open
            self.log.close()
            raise
        self.goals = GoalEngine(self.log, tuple(phases), self._notify_goal_satisfied)
        self._rng = random.Random(seed)
        self.owner = owner
        self.policies: dict[str, PolicyRef] = {}  # in creation order
        self.networks: dict[str, set[str]] = {}  # network id -> its actor ids
        self.links: set[frozenset] = set()
        # (network id, policy id) -> the sequence number of the last token logged there.
        self._seq: dict[tuple[str, str], int] = {}
        self._delivered: set[str] = set()
        # Simulation hook: called with each delivered RoutedToken.
        self.on_delivered: Optional[Callable[[RoutedToken], None]] = None

    # -- registry ---------------------------------------------------------

    def register_network(self, network_id: str) -> None:
        if not network_id or "/" in network_id:
            raise ValueError(f"network_id must be non-empty and hold no '/': {network_id!r}")
        self.networks.setdefault(network_id, set())

    def register_actor(self, network_id: str, actor_id: str) -> Address:
        if not actor_id or "/" in actor_id:
            raise ValueError(f"actor_id must be non-empty and hold no '/': {actor_id!r}")
        self._actors(network_id).add(actor_id)
        return Address(network_id, actor_id)

    def link_networks(self, a: str, b: str):
        self._actors(a)
        self._actors(b)
        self.links.add(frozenset((a, b)))

    def _actors(self, network_id: str) -> set[str]:
        try:
            return self.networks[network_id]
        except KeyError:
            raise UnknownNetworkError(network_id) from None

    def is_registered(self, address: Address) -> bool:
        """Whether `address` is a registered actor's `Address`; its text is not."""
        return type(address) is Address and address.actor_id in self.networks.get(address.network_id, ())

    # -- policies ----------------------------------------------------------

    def notify_new_policy(self, submission: DataRecord, from_addr: Address):
        """Open a policy for a stored submission and notify the owner."""
        if self.owner is None:
            raise NoOwnerConfiguredError()
        if submission.data_id not in self.store:
            raise UnknownDataIdError(submission.data_id)
        notify = from_addr != self.owner
        if notify:
            self._require_actor(from_addr)
        policy_id = f"pol-{len(self.policies) + 1}"
        policy = self.policies[policy_id] = PolicyRef(policy_id)
        self._decision(policy_id, "policy-created", from_addr, data_reference=submission.data_id)
        token = receipt = None
        if notify:
            token, receipt = self.send_token(
                from_addr,
                policy_id,
                destination=self.owner,
                kind=TokenKind.NOTIFICATION,
                task_description="new policy submission",
                data_reference=submission.data_id,
                data_details=submission.media_hint,
            )
        return policy, token, receipt

    def decide_continuation(self, policy_id: str, decision: str, by: Address) -> PolicyRef:
        """The owner's decision to continue or terminate the policy; a
        terminated policy takes no further decision."""
        policy = self._owned(policy_id, by)
        if decision not in ("continue", "terminate"):
            raise UnknownDecisionError(f"{decision!r} is neither continue nor terminate")
        if policy.status is PolicyStatus.TERMINATED:
            raise AlreadyTerminatedError(policy_id)
        if decision == "terminate":
            policy.status = PolicyStatus.TERMINATED
        self._decision(policy_id, decision, by)
        return policy

    def _decision(self, policy_id: str, decision: str, by: Address, **fields):
        self.log.append(
            "decision", {"policy_id": policy_id, "decision": decision, "by": str(by), **fields}, self.log.tick()
        )

    # -- token creation ------------------------------------------------------

    def create_local_token(
        self,
        actor: Address,
        policy_id: str,
        task: str,
        task_input: str,
        task_output: str,
        task_description: str,
        nature_of_task_input: ArtifactNature = ArtifactNature.DOCUMENT,
        nature_of_task_output: ArtifactNature = ArtifactNature.DOCUMENT,
        data_details: str = "",
        source_of_evidence: str = "",
        data_reference: Optional[str] = None,
        goal_id: Optional[str] = None,
        phase_id: Optional[str] = None,
    ) -> LocalToken:
        self._require_active(policy_id)
        self._require_actor(actor)
        token, _, _ = self._issue(
            LocalToken, validate_local_token, "local-token", actor, policy_id, goal_id, phase_id, {
                "task": task,
                "task_input": task_input,
                "nature_of_task_input": nature_of_task_input,
                "task_output": task_output,
                "nature_of_task_output": nature_of_task_output,
                "task_description": task_description,
                "who_carried_out": actor,
                "nature_of_stakeholders": self._stakeholder_nature(actor),
                "data_details": data_details or task_input,
                "source_of_evidence": source_of_evidence or task_input,
                "timestamp": _UNISSUED_TIME,
                "data_reference": data_reference,
            })
        self.goals.evaluate_event(token)
        return token

    def send_token(
        self,
        actor: Address,
        policy_id: str,
        destination: Address,
        kind: TokenKind = TokenKind.TASK_HANDOFF,
        previous_task: str = "",
        previous_task_output: str = "",
        nature_of_task_output: ArtifactNature = ArtifactNature.DOCUMENT,
        task_description: str = "",
        required_action: Optional[str] = None,
        communication_pattern: CommunicationPattern = CommunicationPattern.SEQUENTIAL,
        data_details: str = "",
        source_of_evidence: str = "",
        data_reference: Optional[str] = None,
        goal_id: Optional[str] = None,
        phase_id: Optional[str] = None,
    ) -> tuple[RoutedToken, DeliveryReceipt]:
        self._require_active(policy_id)
        self._require_actor(actor)
        if destination == actor:
            raise SelfDestinationError("self-messaging must use a local token")
        token, record, text = self._issue(
            RoutedToken, validate_routed_token, "routed-token-send", actor, policy_id, goal_id, phase_id, {
                "previous_task": previous_task,
                "previous_task_output": previous_task_output,
                "nature_of_task_output": nature_of_task_output,
                "task_description": task_description,
                "communication_pattern": communication_pattern,
                "nature_of_stakeholders": self._stakeholder_nature(destination),
                "data_details": data_details or task_description,
                "source_of_evidence": source_of_evidence or previous_task,
                "communication_with": destination,
                "timestamp": _UNISSUED_TIME,
                "source_address": actor,
                "destination_address": destination,
                "kind": kind,
                "required_action": required_action,
                "data_reference": data_reference,
            })
        return token, self._route(token, record, text)

    def _issue(self, cls, validate, event_kind, actor, policy_id, goal_id, phase_id, fields):
        """The controller step of both token kinds: stamp goal and phase, take
        the next sequence number, make a `cls` token from those and the
        caller's `fields` (every other field, in declaration order, the time
        at `_UNISSUED_TIME`), check it with `validate` and log its record as
        `event_kind`, written as text from its field table; it returns the
        token, its record and that text. Only a valid token draws its id, takes
        a fresh tick and writes the sequence counter, so a refused token leaves
        no trace. The validator sees the token with a placeholder id and time
        of the right types; the token is still private here, so the two are
        then set in place."""
        goal_id, phase_id = self._stamp(policy_id, goal_id, phase_id)
        key = (actor.network_id, policy_id)
        seq_num = self._seq.get(key, 0) + 1
        token = from_fields(cls, {"token_id": _UNISSUED_ID, "policy_id": policy_id, "phase_id": phase_id,
                                  "goal_id": goal_id, "seq_num": seq_num, **fields})
        result = validate(token)
        if not result.ok:
            raise InvalidTokenError(result.violations)
        # The text of a version-4 UUID (version nibble 4, variant bits 10) from 128 random bits.
        digits = "%032x" % (self._rng.getrandbits(128) & ~(0xF << 76 | 0x3 << 62) | (0x4 << 76 | 0x2 << 62))
        vars(token).update(
            token_id=f"{digits[:8]}-{digits[8:12]}-{digits[12:16]}-{digits[16:20]}-{digits[20:]}",
            timestamp=self.log.tick(),
        )
        self._seq[key] = seq_num
        record = token.to_record()
        text = record_text(cls, record)
        self.log.append(event_kind, record, token.timestamp, text)
        return token, record, text

    # -- delivery -------------------------------------------------------------

    def route_external(self, token: RoutedToken) -> DeliveryReceipt:
        """Connector-to-connector handoff; exactly once per token_id. A token
        its validator refuses (an address that is not an `Address` included)
        raises `InvalidTokenError`, and one of an unknown or terminated policy
        `UnknownPolicyError` or `TerminatedPolicyError`, as `send_token` does;
        each before it is logged, marked delivered or given a logical time."""
        src, dst = token.source_address, token.destination_address
        if type(src) is type(dst) is Address and src.network_id == dst.network_id:
            raise IntraNetworkRouteError(dst.network_id)
        result = validate_routed_token(token)
        if not result.ok:
            raise InvalidTokenError(result.violations)
        self._require_active(token.policy_id)
        record = token.to_record()
        return self._route(token, record, record_text(RoutedToken, record))

    def _route(self, token: RoutedToken, record: dict, text: str) -> DeliveryReceipt:
        """The one delivery decision: each token_id is delivered at most once,
        and only to a registered actor of the sender's network or of a network
        linked to it. `record` is the token's flat record and `text` its JSON
        text; a delivery logs a copy of the record with that same text."""
        if token.token_id in self._delivered:
            return self._receipt(token, "duplicate-ignored")
        src_net = token.source_address.network_id
        dest = token.destination_address
        if not self.is_registered(dest) or (
            dest.network_id != src_net and frozenset((src_net, dest.network_id)) not in self.links
        ):
            return self._receipt(token, "dead-letter")
        self._delivered.add(token.token_id)
        self.log.append("routed-token-receive", dict(record), self.log.tick(), text)
        receipt = self._receipt(token, "delivered")
        self.goals.evaluate_event(token)
        if self.on_delivered is not None:
            self.on_delivered(token)
        return receipt

    def _receipt(self, token: RoutedToken, outcome: str) -> DeliveryReceipt:
        receipt = DeliveryReceipt(token.token_id, outcome, self.log.tick())
        self.log.append(
            "receipt",
            receipt.to_record() | {"policy_id": token.policy_id},
            receipt.at,
        )
        return receipt

    # -- data and goals ---------------------------------------------------------

    def put_data(self, payload: bytes, by: Address, media_hint: str = "") -> DataRecord:
        """Store the payload; data stored for the first time goes to goal
        monitoring. A `by` that is not a registered actor's `Address` raises
        `UnknownActorError` before anything is stored or logged."""
        self._require_actor(by)
        logged = len(self.log)
        record = self.store.put(payload, by, media_hint)
        if len(self.log) > logged:
            self.goals.evaluate_event(record)
        return record

    def define_goal(self, policy_id, phase, name, metrics, by, goal_id=None):
        self._owned(policy_id, by)
        return self.goals.define_goal(policy_id, phase, name, metrics, by, goal_id)

    def modify_goal(self, policy_id, goal_id, change, by):
        self._owned(policy_id, by)
        return self.goals.modify_goal(policy_id, goal_id, change, by)

    def goal_display_snapshot(self, policy_id, upto=None) -> dict:
        """The policy's `goals.json` record, folded from the log up to offset `upto`; see `goal_snapshots`."""
        try:
            return goal_snapshots(self.log, upto)[policy_id]
        except KeyError:
            raise UnknownPolicyError(str(policy_id)) from None

    # -- goal-satisfaction notifications ---------------------------------------

    def _notify_goal_satisfied(self, goal, source: Address):
        """Emit a notification token from the event's actor to the policy
        owner (first-class token). A terminated policy takes no tokens, so it
        is not notified."""
        policy = self.policies[goal.policy_id]
        if policy.status is PolicyStatus.TERMINATED or source == self.owner or not self.is_registered(source):
            return
        self.send_token(
            source,
            goal.policy_id,
            destination=self.owner,
            kind=TokenKind.NOTIFICATION,
            task_description=f"goal satisfied: {goal.name}",
            goal_id=goal.goal_id,
            phase_id=goal.phase_id,
        )

    # -- helpers ---------------------------------------------------------------

    def policy(self, policy_id: str) -> PolicyRef:
        try:
            return self.policies[policy_id]
        except KeyError:
            raise UnknownPolicyError(str(policy_id)) from None

    def _owned(self, policy_id: str, by: Address) -> PolicyRef:
        """The policy, if `by` is its owner: the one owner check."""
        policy = self.policy(policy_id)
        if by != self.owner:
            raise NotOwnerError(f"{by} is not the owner of {policy_id}")
        return policy

    def _require_active(self, policy_id: str):
        if self.policy(policy_id).status is PolicyStatus.TERMINATED:
            raise TerminatedPolicyError(policy_id)

    def _require_actor(self, actor: Address):
        """A registered actor's `Address`; anything else, such as its text, is an unknown actor."""
        if not self.is_registered(actor):
            raise UnknownActorError(str(actor))

    def _stamp(self, policy_id: str, goal_id: Optional[str], phase_id: Optional[str]):
        """The controller reads the goal display to stamp goal and phase."""
        if goal_id:
            goal = self.goals.goal(goal_id, policy_id)
            return goal_id, phase_id or goal.phase_id
        current = self.goals.current_goal(policy_id)
        if current is not None:
            return current.goal_id, phase_id or current.phase_id
        return "", phase_id or (self.goals.phases[0] if self.goals.phases else "")

    def _stakeholder_nature(self, actor: Address) -> StakeholderNature:
        """Internal in the owner's network; a destination that is not an
        `Address` reads as external, and the validator then refuses it."""
        if type(actor) is Address and actor.network_id == self.owner.network_id:
            return StakeholderNature.INTERNAL
        return StakeholderNature.EXTERNAL

    def close(self):
        self.log.close()
