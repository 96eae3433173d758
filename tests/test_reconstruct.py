"""Process reconstruction: graphs, pattern classification, loops, querying."""

import json
import re

import pytest

from policyprov import (
    CommunicationPattern,
    TokenKind,
    detect_loops,
    query,
    reconstruct_process,
    to_dot,
)
from policyprov.errors import CorruptLogError, UnknownPhaseError, UnknownPolicyError
from policyprov.storage import EventLog

from conftest import BCU, NWT, OWNER, SNT, define_default_goal, induced_subgraph, make_system, open_policy
from test_golden import FIXTURES, query_filters, two_policy_log


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

    @pytest.mark.parametrize("sender, chain", [
        (BCU, ["safer-neighbourhood-team", "business-control-unit", "neighbourhood-watch-team"]),
        (SNT, ["safer-neighbourhood-team", "business-control-unit", "safer-neighbourhood-team",
               "neighbourhood-watch-team"]),
    ], ids=["shared-endpoint", "new-start"])
    def test_actor_chain_collapses_shared_endpoints(self, sender, chain):
        """The second handoff starts where the first ended, or elsewhere."""
        system, policy = simple_run()
        handoff(system, sender, policy.policy_id, NWT, task="review")
        graph = reconstruct_process(system.log, policy.policy_id)
        assert graph.actor_chain() == chain


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


def assert_queries_induce_the_whole_graph(log):
    """Every golden query filter's subgraph is the whole graph of each matched policy induced on its matches."""
    graphs = {}
    for filters in query_filters(log):
        subgraph = query(log, **filters).subgraph
        assert (subgraph.nodes, subgraph.edges) == induced_subgraph(log, log.scan(**filters), graphs), filters


class TestQueryEqualsInducedGraph:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture(self, name, fixture_traces):
        assert_queries_induce_the_whole_graph(fixture_traces[name][1].log)

    def test_two_policies(self):
        assert_queries_induce_the_whole_graph(two_policy_log())

    def test_first_fifty_random_runs(self, random_traces):
        for seed, trace in random_traces[:50]:
            assert_queries_induce_the_whole_graph(trace.log)

    def test_reply_from_an_actor_not_kept_sets_the_pattern(self):
        """SNT sends to BCU and NWT at once; NWT replies before SNT acts again
        and BCU after, so the pair is synchronous-parallel only with NWT's reply
        read, although a query by phase "analysis" keeps SNT and BCU alone."""
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        pid = policy.policy_id
        local(system, SNT, pid, "analyse", phase_id="analysis")
        handoff(system, SNT, pid, BCU, task="analyse")
        handoff(system, SNT, pid, NWT, task="analyse")
        local(system, BCU, pid, "review", phase_id="analysis")
        local(system, NWT, pid, "patrol")
        handoff(system, NWT, pid, SNT, task="patrol")
        local(system, SNT, pid, "draft", phase_id="analysis")
        handoff(system, BCU, pid, SNT, task="review")
        subgraph = query(system.log, phase_id="analysis").subgraph
        assert [(edge.src_actor, edge.dst_actor, edge.pattern) for edge in subgraph.edges] == [
            (str(SNT), str(BCU), CommunicationPattern.SYNCHRONOUS_PARALLEL),
        ]
        assert_queries_induce_the_whole_graph(system.log)


def relay_log(tmp_path):
    """A logged relay SNT -> BCU -> NWT -> OWNER -> SNT. Only the first two
    activities are in phase "analysis", so a query by that phase keeps SNT and
    BCU; the returned dict maps each activity's task and each send's route to
    its token id."""
    system = make_system(log_path=tmp_path / "events.jsonl")
    policy = open_policy(system)
    define_default_goal(system, policy)
    pid = policy.policy_id
    ids = {
        "analyse": local(system, SNT, pid, "analyse", phase_id="analysis").token_id,
        "SNT->BCU": handoff(system, SNT, pid, BCU, task="analyse")[0].token_id,
        "review": local(system, BCU, pid, "review", phase_id="analysis").token_id,
        "BCU->NWT": handoff(system, BCU, pid, NWT, task="review")[0].token_id,
        "patrol": local(system, NWT, pid, "patrol").token_id,
        "NWT->OWNER": handoff(system, NWT, pid, OWNER, task="patrol")[0].token_id,
        "decide": local(system, OWNER, pid, "decide").token_id,
        "OWNER->SNT": handoff(system, OWNER, pid, SNT, task="decide")[0].token_id,
        "draft": local(system, SNT, pid, "draft").token_id,
    }
    system.log.close()
    return tmp_path / "events.jsonl", ids


def spoiled(path, token_ids, spoil):
    """The log at `path` with `spoil` applied to the token bodies of `token_ids`, and their offsets."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    bad = [
        raw for raw in lines
        if raw["event_kind"] in ("local-token", "routed-token-send") and raw["body"]["token_id"] in token_ids
    ]
    for raw in bad:
        raw["body"] = spoil(raw["body"])
    path.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
    return EventLog.load(path), [raw["offset"] for raw in bad]


class TestQueryDecodes:
    """`query` decodes, so checks, each token record its subgraph reads, and no other."""

    def test_relay_keeps_two_actors(self, tmp_path):
        path, ids = relay_log(tmp_path)
        subgraph = query(EventLog.load(path), phase_id="analysis").subgraph
        assert [node.actor for node in subgraph.nodes] == [str(SNT), str(BCU)]
        assert [edge.token_id for edge in subgraph.edges] == [ids["SNT->BCU"]]

    def test_corrupt_matched_local_token_raises(self, tmp_path):
        path, ids = relay_log(tmp_path)
        log, (offset,) = spoiled(path, {ids["review"]}, lambda body: body | {"task": 5})
        with pytest.raises(CorruptLogError, match=f"^offset {offset}: local-token body "):
            query(log, phase_id="analysis")

    @pytest.mark.parametrize("route", ["SNT->BCU", "BCU->NWT", "OWNER->SNT"])
    def test_corrupt_send_from_or_to_a_kept_actor_raises(self, tmp_path, route):
        path, ids = relay_log(tmp_path)
        log, (offset,) = spoiled(path, {ids[route]}, lambda body: body | {"kind": "bogus"})
        assert offset not in [rec.offset for rec in log.scan(phase_id="analysis")]
        with pytest.raises(CorruptLogError, match=f"^offset {offset}: routed-token-send body "):
            query(log, phase_id="analysis")

    @pytest.mark.parametrize("spoil", [
        lambda body: body | {"who_carried_out": 5},
        lambda body: body | {"who_carried_out": None},
        lambda body: body | {"who_carried_out": ["local-council/business-control-unit"]},
        lambda body: body | {"who_carried_out": {"actor": "x"}},
        lambda body: body | {"who_carried_out": "no-separator"},
        lambda body: {k: v for k, v in body.items() if k != "who_carried_out"},
    ], ids=["int", "null", "list", "dict", "text-not-an-address", "missing"])
    def test_matched_local_token_whose_performer_is_not_an_address_raises(self, tmp_path, spoil):
        path, ids = relay_log(tmp_path)
        log, (offset,) = spoiled(path, {ids["review"]}, spoil)
        with pytest.raises(CorruptLogError, match=f"^offset {offset}: local-token body "):
            query(log, phase_id="analysis")

    def test_records_it_does_not_read_are_not_checked(self, tmp_path):
        path, ids = relay_log(tmp_path)
        clean = query(EventLog.load(path), phase_id="analysis")
        unread = {ids["NWT->OWNER"], ids["patrol"], ids["decide"]}
        log, offsets = spoiled(path, unread, lambda body: body | {"kind": "bogus", "task": 5})
        assert len(offsets) == 3
        result = query(log, phase_id="analysis")
        assert (result.events, result.subgraph) == (clean.events, clean.subgraph)
        with pytest.raises(CorruptLogError, match=f"^offset {offsets[0]}: "):
            reconstruct_process(log, result.subgraph.policy_id)  # a whole-policy read still checks them


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
