"""Rebuilds the structured process from the recorded token log.

Produces the ordered task graph per policy, with each routed interaction's
observed communication pattern (`PolicyView.pattern`, which states the
rules), and detects phase-level loop-backs against a configured phase order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import UnknownPhaseError
from .model import CommunicationPattern, TokenKind
from .storage import EventLog, policy_ids
from .view import PolicyView, activity_id_for, view_of, views_of

EDGE_TYPES = {
    TokenKind.TASK_HANDOFF: "handoff",
    TokenKind.APPROVAL_REQUEST: "approval",
    TokenKind.APPROVAL_RESPONSE: "approval",
    TokenKind.NOTIFICATION: "notification",
}


@dataclass(frozen=True)
class ProcessNode:
    node_id: str
    actor: str  # "network/actor"
    task: str
    phase_id: str
    goal_id: str
    seq: int
    time: int


@dataclass
class ProcessEdge:
    token_id: str
    src_actor: str
    dst_actor: str
    kind: TokenKind
    pattern: CommunicationPattern
    time: int
    receive_time: int
    src_node: Optional[str] = None
    dst_node: Optional[str] = None

    @property
    def edge_type(self) -> str:
        """handoff | approval | notification"""
        return EDGE_TYPES[self.kind]


@dataclass
class ProcessGraph:
    policy_id: str
    nodes: list[ProcessNode] = field(default_factory=list)
    edges: list[ProcessEdge] = field(default_factory=list)
    loop_markers: list[tuple[str, str, int]] = field(default_factory=list)

    def actor_chain(self) -> list[str]:
        """Actor sequence over the time-ordered task edges (handoffs and
        approval requests; responses and notifications return control rather
        than pass the task on), collapsed so consecutive edges sharing an
        endpoint chain up."""
        task_edges = [
            e for e in self.edges
            if e.kind in (TokenKind.TASK_HANDOFF, TokenKind.APPROVAL_REQUEST)
        ]
        chain: list[str] = []
        for edge in sorted(task_edges, key=lambda e: e.time):
            src = edge.src_actor.rpartition("/")[2]
            dst = edge.dst_actor.rpartition("/")[2]
            if not chain:
                chain.append(src)
            elif chain[-1] != src:
                chain.append(src)
            chain.append(dst)
        return chain


def reconstruct_process(
    log: EventLog,
    policy_id: str,
    phase_order: Optional[list[str]] = None,
    include_notifications: bool = False,
) -> ProcessGraph:
    """Node per local-token activity, edge per delivered routed token."""
    return _graph(view_of(log, policy_id), phase_order, include_notifications)


def _graph(view: PolicyView, phase_order=None, include_notifications=False, token_ids=None) -> ProcessGraph:
    """With `token_ids`, only those local tokens' activities and the edges between them (the induced subgraph)."""
    graph = ProcessGraph(view.policy_id)
    for t in view.locals:
        if token_ids is None or t.token_id in token_ids:
            graph.nodes.append(ProcessNode(
                activity_id_for(t), str(t.who_carried_out), t.task, t.phase_id, t.goal_id, t.seq_num, t.timestamp
            ))
    kept = None if token_ids is None else {node.node_id for node in graph.nodes}
    for token in view.sends if kept is None or kept else ():
        if token.token_id not in view.receives:
            continue  # dead letters stay in the log, not in the process graph
        if token.kind is TokenKind.NOTIFICATION and not include_notifications:
            continue
        src = view.previous(token.source_address, token.timestamp)
        dst = view.next(token.destination_address, view.receives[token.token_id])
        src_node = activity_id_for(src) if src else None
        dst_node = activity_id_for(dst) if dst else None
        if kept is None or (src_node in kept and dst_node in kept):
            graph.edges.append(ProcessEdge(
                token.token_id, str(token.source_address), str(token.destination_address), token.kind,
                view.pattern(token), token.timestamp, view.receives[token.token_id], src_node, dst_node,
            ))
    if phase_order is not None:
        graph.loop_markers = detect_loops(graph, phase_order)
    return graph


def detect_loops(graph: ProcessGraph, phase_order: list[str]) -> list[tuple[str, str, int]]:
    """Loop marker on each re-entry into a phase earlier than the maximal
    phase already seen for the policy."""
    index = {phase: i for i, phase in enumerate(phase_order)}
    markers: list[tuple[str, str, int]] = []
    max_seen: Optional[int] = None
    previous_phase: Optional[str] = None
    for node in sorted(graph.nodes, key=lambda n: n.time):
        if node.phase_id not in index:
            raise UnknownPhaseError(node.phase_id)
        i = index[node.phase_id]
        if max_seen is not None and i < max_seen and node.phase_id != previous_phase:
            markers.append((phase_order[max_seen], node.phase_id, node.time))
        max_seen = i if max_seen is None else max(max_seen, i)
        previous_phase = node.phase_id
    return markers


@dataclass
class QueryResult:
    events: list
    subgraph: ProcessGraph


def query(
    log: EventLog,
    policy_id: Optional[str] = None,
    goal_id: Optional[str] = None,
    phase_id: Optional[str] = None,
    actor: Optional[str] = None,
) -> QueryResult:
    """Scan-and-filter over the log plus the subgraph its local-token matches induce.

    Of each policy the matches name, only what that subgraph reads is
    decoded, and so checked: every matched token record, every local token
    of a kept actor (the performer of a matched local token) and every send
    from or to a kept actor. An edge joins two kept actors' activities, and
    its pattern reads its sender's timeline and the replies into it, so the
    subgraph is the one the whole policy induces. Any other token record is
    skipped unread; checking a whole log is a full export's work.
    """
    events = log.scan(policy_id=policy_id, goal_id=goal_id, phase_id=phase_id, actor=actor)
    policies = sorted(policy_ids(events))
    matched = {rec.offset for rec in events}
    performers = [rec.body.get("who_carried_out") for rec in events if rec.event_kind == "local-token"]
    kept = {who for who in performers if isinstance(who, str)}  # a non-text one fails its record's decode

    def decodes(rec) -> bool:  # a send or a local token
        body = rec.body
        if rec.offset in matched:
            return True
        if rec.event_kind == "local-token":
            return body.get("who_carried_out") in kept
        return body.get("source_address") in kept or body.get("destination_address") in kept

    views = views_of(log, policies, decodes)
    token_ids = {rec.body["token_id"] for rec in events if rec.event_kind == "local-token"}
    graphs = [_graph(views[pid], token_ids=token_ids) for pid in policies]
    nodes = [node for graph in graphs for node in graph.nodes]
    edges = [edge for graph in graphs for edge in graph.edges]
    return QueryResult(events, ProcessGraph(policy_id or ",".join(policies), nodes, edges))


def _dot_text(text: str) -> str:
    """`text` as the inside of a DOT quoted string: a quote or a backslash is escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: ProcessGraph) -> str:
    """DOT export: nodes labeled `actor\\ntask`, edges labeled with pattern.
    Every quoted string escapes its quotes and backslashes; the `\\n` in a
    label is DOT's line break."""
    lines = ["digraph process {"]
    for node in sorted(graph.nodes, key=lambda n: n.time):
        actor = node.actor.rpartition("/")[2]
        lines.append(f'  "{_dot_text(node.node_id)}" [label="{_dot_text(actor)}\\n{_dot_text(node.task)}"];')
    for edge in sorted(graph.edges, key=lambda e: e.time):
        src = f'"{_dot_text(edge.src_node or edge.src_actor)}"'
        dst = f'"{_dot_text(edge.dst_node or edge.dst_actor)}"'
        lines.append(f"  {src} -> {dst} [label=\"{edge.pattern.value}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
