"""Facade wiring the log, data store, goal engine and network engine."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .errors import UnknownPolicyError
from .goals import GoalDisplaySnapshot, GoalEngine, goal_snapshots
from .model import Address, DEFAULT_PHASES
from .network import NetworkEngine
from .storage import DataStore, EventLog


class PolicySystem:
    """One provenance-tracked policy environment (all networks, one log)."""

    def __init__(
        self,
        phases=DEFAULT_PHASES,
        seed: int = 0,
        owner: Optional[Address] = None,
        log_path: Optional[Path] = None,
        data_root: Optional[Path] = None,
    ):
        self.log = EventLog(log_path)
        self.store = DataStore(self.log, data_root)
        self.goals = GoalEngine(self.log, tuple(phases))
        self.store.on_stored = self.goals.evaluate_event
        self.network = NetworkEngine(self.log, self.store, self.goals, seed=seed, owner=owner)
        self.policies = self.network.policies

    # Registry / routing shortcuts.
    def register_network(self, network_id):
        return self.network.register_network(network_id)

    def register_actor(self, network_id, actor_id):
        return self.network.register_actor(network_id, actor_id)

    def link_networks(self, a, b):
        return self.network.link_networks(a, b)

    def put_data(self, payload: bytes, by: Address, media_hint: str = ""):
        """Store the payload; new data is matched against the goals (`on_stored`)."""
        return self.store.put(payload, by, media_hint)

    def notify_new_policy(self, submission, from_addr):
        return self.network.notify_new_policy(submission, from_addr)

    def create_local_token(self, actor, policy_id, **fields):
        return self.network.create_local_token(actor, policy_id, **fields)

    def send_token(self, actor, policy_id, destination, **fields):
        return self.network.send_token(actor, policy_id, destination=destination, **fields)

    def define_goal(self, policy_id, phase, name, metrics, by, goal_id=None):
        return self.goals.define_goal(self.network.policy(policy_id), phase, name, metrics, by, goal_id)

    def modify_goal(self, policy_id, goal_id, change, by):
        return self.goals.modify_goal(self.network.policy(policy_id), goal_id, change, by)

    def decide_continuation(self, policy_id, decision, by):
        return self.network.decide_continuation(policy_id, decision, by)

    def goal_display_snapshot(self, policy_id, upto=None) -> GoalDisplaySnapshot:
        """The policy's goals as folded from the log up to offset `upto`; see `goal_snapshots`."""
        try:
            return goal_snapshots(self.log, upto)[policy_id]
        except KeyError:
            raise UnknownPolicyError(str(policy_id)) from None

    def close(self):
        self.log.close()
