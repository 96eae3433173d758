"""Builds a W3C PROV-shaped document from the token log and exports PROV-JSON.

Mapping (our formalization):
  local token   -> one Activity (`act:<policy>/<network>/<seq>`), its actor as
                   Agent (+wasAssociatedWith), task_input/task_output as
                   Entities (+used / +wasGeneratedBy), output derived from input
  routed token  -> one message Entity (`tok:<token_id>`) generated by the
                   sender's previous-task Activity and used by the receiver's
                   next Activity, which wasInformedBy the sender's Activity
Artifacts are identified by canonical name within a policy, so entities named
in multiple tokens unify and the graph connects.

The export is the text of `json.dumps(..., sort_keys=True, indent=2)`: any
`indent` would send the standard library to its pure-Python encoder, so every
member is written as text, a node member from its sorted nodes (`_nodes`) and
a relation member from its sorted pairs (`_pairs`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .goals import canonical_artifact
from .model import Address, LocalToken, RoutedToken
from .storage import EventLog
from .view import PolicyView, activity_id_for, view_of


@dataclass
class ProvDocument:
    entities: dict = field(default_factory=dict)
    activities: dict = field(default_factory=dict)
    agents: dict = field(default_factory=dict)
    # Each relation is an insertion-ordered set of pairs: the keys of a dict,
    # added with `relation[pair] = None`.
    used: dict = field(default_factory=dict)  # (activity, entity)
    was_generated_by: dict = field(default_factory=dict)  # (entity, activity)
    was_associated_with: dict = field(default_factory=dict)  # (activity, agent)
    was_informed_by: dict = field(default_factory=dict)  # (informed, informant)
    was_derived_from: dict = field(default_factory=dict)  # (generated, source)
    # entity -> its one generator, written together with was_generated_by.
    _generator: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def generated_by(self, entity_id: str, activity_id: str) -> bool:
        """At most one generator per entity; the first one wins."""
        if entity_id in self._generator:
            return False
        self._generator[entity_id] = activity_id
        self.was_generated_by[entity_id, activity_id] = None
        return True

    def generator_of(self, entity_id: str) -> Optional[str]:
        return self._generator.get(entity_id)

    def agent(self, address: Address) -> tuple:
        """The agent's id and attribute dict, the dict made on first sight."""
        agent_id = f"agt:{address.network_id}/{address.actor_id}"
        attrs = self.agents.get(agent_id)
        if attrs is None:
            attrs = self.agents[agent_id] = {"network": address.network_id, "actor": address.actor_id}
        return agent_id, attrs


def entity_id_for(policy_id: str, name: str) -> str:
    return f"ent:{policy_id}/{canonical_artifact(name)}"


def _merge(nodes: dict, node_id: str, attrs: dict):
    """Add a node, or update an existing one with `attrs`."""
    known = nodes.get(node_id)
    if known is None:
        nodes[node_id] = attrs
    else:
        known.update(attrs)


# Each attribute dict below is one literal; an optional token field is left
# out when it is None, and no other field is ever None in a token.


def _add_local(doc: ProvDocument, token: LocalToken, view: PolicyView):
    act_id = activity_id_for(token)
    attrs = {
        "label": token.task,
        "task_description": token.task_description,
        "phase_id": token.phase_id,
        "goal_id": token.goal_id,
        "start": token.timestamp,
        "end": view.end_time(token),
        "source_of_evidence": token.source_of_evidence,
    }
    if token.data_reference is not None:
        attrs["data_reference"] = token.data_reference
    _merge(doc.activities, act_id, attrs)
    agent_id, agent = doc.agent(token.who_carried_out)
    agent["nature_of_stakeholders"] = token.nature_of_stakeholders.value
    doc.was_associated_with[act_id, agent_id] = None
    in_id = entity_id_for(token.policy_id, token.task_input)
    attrs = {"label": token.task_input, "nature": token.nature_of_task_input.value}
    if doc.generator_of(in_id) is None:
        attrs["external_origin"] = True
    _merge(doc.entities, in_id, attrs)
    doc.used[act_id, in_id] = None
    out_id = entity_id_for(token.policy_id, token.task_output)
    attrs = {
        "label": token.task_output,
        "nature": token.nature_of_task_output.value,
        "source_of_evidence": token.source_of_evidence,
    }
    if token.data_reference is not None:
        attrs["data_reference"] = token.data_reference
    if doc.generated_by(out_id, act_id):
        # An earlier external-origin mark stays: it covers uses that predate
        # this generation.
        attrs["generated_at"] = token.timestamp
    _merge(doc.entities, out_id, attrs)
    doc.was_derived_from[out_id, in_id] = None


def _add_routed(doc: ProvDocument, token: RoutedToken, view: PolicyView):
    tok_id = f"tok:{token.token_id}"
    attrs = {
        "label": token.previous_task_output or token.task_description,
        "kind": token.kind.value,
        "task_description": token.task_description,
        "communication_pattern": token.communication_pattern.value,
    }
    if token.required_action is not None:
        attrs["required_action"] = token.required_action
    if token.data_reference is not None:
        attrs["data_reference"] = token.data_reference
    doc.agent(token.source_address)
    doc.agent(token.destination_address)
    prev = view.previous(token.source_address, token.timestamp, token.previous_task)
    if prev is None:
        attrs["external_origin"] = True
    else:
        prev_id = activity_id_for(prev)
        doc.generated_by(tok_id, prev_id)
        attrs["generated_at"] = token.timestamp
    _merge(doc.entities, tok_id, attrs)
    receive_time = view.receives.get(token.token_id)
    if receive_time is None:
        return
    nxt = view.next(token.destination_address, receive_time)
    if nxt is not None:
        nxt_id = activity_id_for(nxt)
        doc.used[nxt_id, tok_id] = None
        if prev is not None:
            doc.was_informed_by[nxt_id, prev_id] = None


def token_to_prov_fragment(token) -> ProvDocument:
    """Map one token to a standalone fragment."""
    if not isinstance(token, (LocalToken, RoutedToken)):
        raise TypeError(f"cannot map {type(token).__name__} to provenance")
    return _prov(PolicyView(token.policy_id, [token], {}))


def build_prov(log: EventLog, policy_id: str) -> ProvDocument:
    """Union of fragments over all events of the policy, in log order."""
    return _prov(view_of(log, policy_id))


def _prov(view: PolicyView) -> ProvDocument:
    """The view's tokens mapped in its order, the log's."""
    doc = ProvDocument()
    for token in view.tokens:
        if isinstance(token, LocalToken):
            _add_local(doc, token, view)
        else:
            _add_routed(doc, token, view)
    return doc


# (relation attribute, PROV-JSON member, id prefix, role keys of the pair)
_RELATIONS = (
    ("used", "used", "u", ("prov:activity", "prov:entity")),
    ("was_generated_by", "wasGeneratedBy", "gen", ("prov:entity", "prov:activity")),
    ("was_associated_with", "wasAssociatedWith", "assoc", ("prov:activity", "prov:agent")),
    ("was_informed_by", "wasInformedBy", "inf", ("prov:informed", "prov:informant")),
    ("was_derived_from", "wasDerivedFrom", "der", ("prov:generatedEntity", "prov:usedEntity")),
)


_quote = json.encoder.encode_basestring_ascii


def _nodes(nodes: dict) -> list:
    """The entries of a node member as `json.dumps(..., sort_keys=True,
    indent=2)` writes them inside the document, as text.

    Ids and attribute keys are written in sorted order; a str value is
    quoted and an int or bool is written as `json.dumps` writes it. Any other
    value raises `TypeError` naming its node and key.
    """
    entries = []
    for node_id in sorted(nodes):
        attrs = nodes[node_id]
        fields = []
        for key in sorted(attrs):
            value = attrs[key]
            if isinstance(value, str):
                text = _quote(value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, int):
                text = int.__repr__(value)
            else:
                raise TypeError(f"node {node_id!r}, key {key!r}: {type(value).__name__} is not str, int or bool")
            fields.append(f"{_quote(key)}: {text}")
        body = ",\n      ".join(fields)
        entries.append(f"    {_quote(node_id)}: {{\n      {body}\n    }}" if fields else f"    {_quote(node_id)}: {{}}")
    return entries


def _pairs(relation: dict, prefix: str, roles: tuple) -> list:
    """The entries of a relation member as `json.dumps(..., sort_keys=True,
    indent=2)` writes them inside the document, as text.

    The pairs are sorted and pair i (from 1) becomes the leaf `{prefix}{i}`,
    whose two keys are `roles` in sorted order. The leaves are written in the
    order `sort_keys` gives their ids: u1, u10, u100, ..., u2. The prefix and
    the roles are plain ASCII, written as they are; each node is str.
    """
    pairs = sorted(relation)
    first, second = sorted(roles)
    if first != roles[0]:
        pairs = [(b, a) for a, b in pairs]
    head = f'    "{prefix}'
    mid = f'": {{\n      "{first}": '
    sep = f',\n      "{second}": '
    # The number texts are distinct, so the sort orders by them alone.
    numbered = sorted(zip(map(str, range(1, len(pairs) + 1)), pairs))
    return [f"{head}{number}{mid}{_quote(a)}{sep}{_quote(b)}\n    }}" for number, (a, b) in numbered]


def export_prov_json(doc: ProvDocument) -> bytes:
    """Deterministic PROV-JSON: one object with exactly the eight members,
    the bytes of `json.dumps(..., sort_keys=True, indent=2)`.

    `sort_keys` orders every object; relation ids number the sorted pairs.
    """
    members = {"entity": _nodes(doc.entities), "activity": _nodes(doc.activities), "agent": _nodes(doc.agents)}
    for attr, key, prefix, roles in _RELATIONS:
        members[key] = _pairs(getattr(doc, attr), prefix, roles)
    texts = [
        f'  "{key}": {{\n' + ",\n".join(entries) + "\n  }" if entries else f'  "{key}": {{}}'
        for key, entries in sorted(members.items())
    ]
    return ("{\n" + ",\n".join(texts) + "\n}").encode("utf-8")
