"""Process reconstruction: graphs, pattern classification, loops, querying."""

import re

import pytest

from policyprov import (
    CommunicationPattern,
    TokenKind,
    classify_pattern,
    detect_loops,
    query,
    reconstruct_process,
    to_dot,
)
from policyprov.errors import UnknownPhaseError, UnknownPolicyError

from conftest import BCU, NWT, OWNER, SNT, define_default_goal, make_system, open_policy


PHASES_FIVE = ("agenda-setting", "analysis", "implementation", "monitoring", "evaluation")


def local(system, actor, policy_id, task, output="output", **kw):
    return system.create_local_token(
        actor, policy_id, task=task, task_input="input", task_output=output,
        task_description=task, **kw,
    )


def handoff(system, actor, policy_id, dest, task="work", **kw):
    return system.send_token(
        actor, policy_id, destination=dest, previous_task=task,
        previous_task_output="output", task_description=f"{task} handoff", **kw,
    )


def simple_run():
    system = make_system()
    policy = open_policy(system)
    define_default_goal(system, policy)
    local(system, SNT, policy.policy_id, "analyse")
    handoff(system, SNT, policy.policy_id, BCU, task="analyse")
    local(system, BCU, policy.policy_id, "review")
    return system, policy


class TestGraphShape:
    def test_nodes_are_local_activities(self):
        system, policy = simple_run()
        graph = reconstruct_process(system.log, policy.policy_id)
        assert [n.task for n in graph.nodes] == ["analyse", "review"]
        assert graph.nodes[0].node_id == "act:pol-1/local-council/1"

    def test_edges_join_sender_and_receiver_nodes(self):
        system, policy = simple_run()
        graph = reconstruct_process(system.log, policy.policy_id)
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert edge.src_node == "act:pol-1/local-council/1"
        assert edge.dst_node == "act:pol-1/local-council/3"
        assert edge.edge_type == "handoff"

    def test_dead_letters_do_not_become_edges(self):
        system, policy = simple_run()
        from policyprov import Address

        system.register_network("orbit")
        system.register_actor("orbit", "satellite")
        handoff(system, BCU, policy.policy_id, Address("orbit", "satellite"))
        graph = reconstruct_process(system.log, policy.policy_id)
        assert len(graph.edges) == 1

    def test_notifications_excluded_unless_requested(self):
        system, policy = simple_run()
        system.send_token(BCU, policy.policy_id, destination=OWNER,
                          kind=TokenKind.NOTIFICATION, task_description="heads-up")
        base = reconstruct_process(system.log, policy.policy_id)
        full = reconstruct_process(system.log, policy.policy_id, include_notifications=True)
        assert len(base.edges) == 1
        # The submission notice and the heads-up both appear when included.
        assert len(full.edges) == 3
        assert [e.edge_type for e in full.edges].count("notification") == 2

    def test_unknown_policy_rejected(self):
        system, _ = simple_run()
        with pytest.raises(UnknownPolicyError):
            reconstruct_process(system.log, "pol-9")

    def test_actor_chain_collapses_shared_endpoints(self):
        system, policy = simple_run()
        handoff(system, BCU, policy.policy_id, NWT, task="review")
        graph = reconstruct_process(system.log, policy.policy_id)
        assert graph.actor_chain() == [
            "safer-neighbourhood-team", "business-control-unit", "neighbourhood-watch-team",
        ]


class TestPatternRules:
    """Micro-logs built directly against the engine, one rule each."""

    def test_single_send_no_response_is_sequential(self):
        system, policy = simple_run()
        graph = reconstruct_process(system.log, policy.policy_id)
        assert graph.edges[0].pattern is CommunicationPattern.SEQUENTIAL

    def test_two_sends_before_any_other_act_is_parallel(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        local(system, SNT, policy.policy_id, "plan")
        handoff(system, SNT, policy.policy_id, BCU, task="plan")
        handoff(system, SNT, policy.policy_id, NWT, task="plan")
        graph = reconstruct_process(system.log, policy.policy_id)
        assert [e.pattern for e in graph.edges] == [
            CommunicationPattern.PARALLEL, CommunicationPattern.PARALLEL,
        ]

    def test_waiting_for_the_response_is_synchronous(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        local(system, SNT, policy.policy_id, "draft")
        handoff(system, SNT, policy.policy_id, BCU, task="draft")
        handoff(system, BCU, policy.policy_id, SNT, task="reply")  # response first
        local(system, SNT, policy.policy_id, "continue")  # then SNT acts again
        graph = reconstruct_process(system.log, policy.policy_id)
        assert graph.edges[0].pattern is CommunicationPattern.SYNCHRONOUS

    def test_acting_before_the_response_is_asynchronous(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        local(system, SNT, policy.policy_id, "draft")
        handoff(system, SNT, policy.policy_id, BCU, task="draft")
        local(system, SNT, policy.policy_id, "other work")  # before the reply
        handoff(system, BCU, policy.policy_id, SNT, task="reply")
        graph = reconstruct_process(system.log, policy.policy_id)
        assert graph.edges[0].pattern is CommunicationPattern.ASYNCHRONOUS

    def test_parallel_sends_with_early_own_activity_is_asynchronous_parallel(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        local(system, SNT, policy.policy_id, "plan")
        handoff(system, SNT, policy.policy_id, BCU, task="plan")
        handoff(system, SNT, policy.policy_id, NWT, task="plan")
        local(system, SNT, policy.policy_id, "other work")
        handoff(system, BCU, policy.policy_id, SNT, task="reply")
        graph = reconstruct_process(system.log, policy.policy_id)
        fanned = [e for e in graph.edges if e.src_actor == str(SNT)]
        assert [e.pattern for e in fanned] == [
            CommunicationPattern.ASYNCHRONOUS_PARALLEL,
            CommunicationPattern.ASYNCHRONOUS_PARALLEL,
        ]

    def test_classify_pattern_reads_a_node_outgoing_edges(self):
        system, policy = simple_run()
        graph = reconstruct_process(system.log, policy.policy_id)
        assert classify_pattern(graph, "act:pol-1/local-council/1") == [
            CommunicationPattern.SEQUENTIAL
        ]
        with pytest.raises(KeyError):
            classify_pattern(graph, "act:pol-1/local-council/99")


class TestLoops:
    def run_phases(self, phase_ids):
        system = make_system(phases=PHASES_FIVE)
        policy = open_policy(system)
        from policyprov import Metric, MetricKind

        for i, phase in enumerate(dict.fromkeys(phase_ids)):
            system.define_goal(policy.policy_id, phase, f"goal {i}",
                               [Metric(f"m{i}", MetricKind.APPROVAL, approver=BCU)],
                               by=OWNER, goal_id=f"g-{phase}")
        for i, phase in enumerate(phase_ids):
            local(system, SNT, policy.policy_id, f"task {i}", goal_id=f"g-{phase}")
        return reconstruct_process(system.log, policy.policy_id,
                                   phase_order=list(PHASES_FIVE))

    def test_forward_progress_has_no_markers(self):
        graph = self.run_phases(["agenda-setting", "analysis", "implementation"])
        assert graph.loop_markers == []

    def test_reentering_an_earlier_phase_is_marked_once(self):
        graph = self.run_phases(["agenda-setting", "analysis", "agenda-setting"])
        assert [(m[0], m[1]) for m in graph.loop_markers] == [("analysis", "agenda-setting")]

    def test_staying_in_an_earlier_phase_adds_no_second_marker(self):
        graph = self.run_phases(
            ["agenda-setting", "analysis", "agenda-setting", "agenda-setting"]
        )
        assert len(graph.loop_markers) == 1

    def test_two_separate_loop_backs_give_two_markers(self):
        graph = self.run_phases(
            ["agenda-setting", "analysis", "agenda-setting", "analysis",
             "implementation", "analysis", "implementation", "monitoring"]
        )
        assert [(m[0], m[1]) for m in graph.loop_markers] == [
            ("analysis", "agenda-setting"),
            ("implementation", "analysis"),
        ]

    def test_unknown_phase_rejected(self):
        system, policy = simple_run()
        graph = reconstruct_process(system.log, policy.policy_id)
        with pytest.raises(UnknownPhaseError):
            detect_loops(graph, ["not-a-phase"])


class TestQuery:
    def test_events_match_scan_and_graph_is_induced(self):
        system, policy = simple_run()
        handoff(system, BCU, policy.policy_id, NWT, task="review")
        local(system, NWT, policy.policy_id, "patrol")
        result = query(system.log, policy_id=policy.policy_id, actor="business-control-unit")
        assert result.events == system.log.scan(policy_id=policy.policy_id,
                                                actor="business-control-unit")
        assert [n.actor for n in result.subgraph.nodes] == [str(BCU)]
        # Only edges with both endpoints in the match survive.
        assert result.subgraph.edges == []

    def test_goal_filter_selects_matching_nodes(self):
        system, policy = simple_run()
        result = query(system.log, policy_id=policy.policy_id,
                       goal_id="g-problem-identification")
        assert {n.goal_id for n in result.subgraph.nodes} == {"g-problem-identification"}


class TestDot:
    def test_dot_lists_every_node_and_edge(self):
        system, policy = simple_run()
        graph = reconstruct_process(system.log, policy.policy_id)
        dot = to_dot(graph)
        assert dot.startswith("digraph process {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == len(graph.edges)
        for node in graph.nodes:
            assert node.node_id in dot
        assert 'label="sequential"' in dot

    def test_dot_is_deterministic(self):
        a = to_dot(reconstruct_process(*_fresh()))
        b = to_dot(reconstruct_process(*_fresh()))
        assert a == b

    def test_names_with_quotes_backslashes_and_newlines_are_quoted_strings(self):
        system = make_system()
        network = 'Zoë "crew" \\ east'
        system.register_network(network)
        system.link_networks(network, "local-council")
        first = system.register_actor(network, 'say "hi" \\ end')
        second = system.register_actor(network, "line\nbreak 東京\\")
        policy = open_policy(system)
        define_default_goal(system, policy)
        # `second` sends before any activity of its own, so that edge starts at its actor.
        handoff(system, second, policy.policy_id, first)
        local(system, first, policy.policy_id, 'draft "v2" \\ final\nnow')
        handoff(system, first, policy.policy_id, second)
        local(system, second, policy.policy_id, 'Zoë\\"')
        graph = reconstruct_process(system.log, policy.policy_id)
        assert graph.edges[0].src_node is None and len(graph.nodes) == 2

        nodes, edges = parse_dot(to_dot(graph))
        assert nodes == [
            ([node.node_id], [node.actor.rpartition("/")[2], node.task])
            for node in sorted(graph.nodes, key=lambda n: n.time)
        ]
        assert edges == [
            ([edge.src_node or edge.src_actor], [edge.dst_node or edge.dst_actor], [edge.pattern.value])
            for edge in sorted(graph.edges, key=lambda e: e.time)
        ]


# A small DOT tokenizer, as an oracle apart from `to_dot`: a quoted string
# runs to the first quote that no backslash escapes, and may hold a raw newline.
_DOT_TOKEN = re.compile(r'\s*(?:("(?:[^"\\]|\\.)*")|([A-Za-z_][A-Za-z_0-9]*)|(->|[{}\[\];=]))', re.DOTALL)
_LINE_BREAK = object()


def _dot_tokens(dot: str) -> list:
    tokens, at = [], 0
    while dot[at:].strip():
        match = _DOT_TOKEN.match(dot, at)
        assert match, f"not DOT at {dot[at:at + 40]!r}"
        quoted, word, punct = match.groups()
        tokens.append(("string", _unquote(quoted)) if quoted else ("word", word) if word else punct)
        at = match.end()
    return tokens


def _unquote(quoted: str) -> list:
    """A quoted string's characters: `\\"` is a quote, `\\\\` a backslash and
    `\\n` a line break; `to_dot` writes no other escape."""
    out, body, i = [], quoted[1:-1], 0
    while i < len(body):
        if body[i] == "\\":
            out.append({'"': '"', "\\": "\\", "n": _LINE_BREAK}[body[i + 1]])
            i += 2
        else:
            out.append(body[i])
            i += 1
    return out


def _lines(chars: list) -> list:
    lines = [[]]
    for char in chars:
        if char is _LINE_BREAK:
            lines.append([])
        else:
            lines[-1].append(char)
    return ["".join(line) for line in lines]


def parse_dot(dot: str):
    """The (id, label) of each node statement and the (source, target, label)
    of each edge statement of a `to_dot` graph, each string as its lines."""
    tokens = _dot_tokens(dot)
    assert tokens[:3] == [("word", "digraph"), ("word", "process"), "{"] and tokens[-1] == "}"
    nodes, edges, rest = [], [], tokens[3:-1]
    while rest:
        end = rest.index(";")
        statement, rest = rest[:end], rest[end + 1:]
        *ends, bracket, key, equals, label, close = statement
        assert (bracket, key, equals, close) == ("[", ("word", "label"), "=", "]") and label[0] == "string"
        assert all(end[0] == "string" for end in ends[::2])
        if len(ends) == 1:
            nodes.append((_lines(ends[0][1]), _lines(label[1])))
        else:
            assert len(ends) == 3 and ends[1] == "->"
            edges.append((_lines(ends[0][1]), _lines(ends[2][1]), _lines(label[1])))
    return nodes, edges


def _fresh():
    system, policy = simple_run()
    return system.log, policy.policy_id
