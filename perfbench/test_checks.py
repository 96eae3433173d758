"""Each kind of output check passes the program's real output and fails on a
deliberately wrong one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import shutil
import unittest

import checks
import workloads
from run import HERE, import_program, run_keeping_system


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import_program()
        from policyprov import build_prov, export_prov_json, fixture_path, load_scenario
        from policyprov import reconstruct, simulation, storage
        from policyprov.goals import fold_goal_state

        cls.work = HERE / "_runs" / f"test-{os.getpid()}"
        cls.work.mkdir(parents=True)
        scenario, cls.expect = workloads.generate(
            random.Random(0), policies=3, steps=3, actors=6, networks=2, receivers=2, answer_share=0.5
        )
        log_path = cls.work / "events.jsonl"
        cls.trace, system = run_keeping_system(
            simulation, load_scenario(scenario), step_budget=cls.expect["rules_fired"], log_path=log_path
        )
        cls.records = checks.read_log(log_path)
        cls.live = {p: [g.to_record() for g in system.goals.goals_for(p)] for p in system.policies}
        cls.folded = {p: [g.to_record() for g in fold_goal_state(system.log, p)] for p in system.policies}
        cls.log = storage.EventLog.load(log_path)
        cls.prov = export_prov_json(build_prov(cls.log, "pol-2"))
        cls.dot = reconstruct.to_dot(reconstruct.reconstruct_process(cls.log, "pol-2"))
        cls.filters = {"actor": cls.expect["approvers"][0], "phase_id": "analysis"}
        cls.query = reconstruct.query(cls.log, **cls.filters)

        fixture = load_scenario(fixture_path("neighbourhood_safety"))
        fixture_log = simulation.run(fixture).log
        cls.fixture_expected = fixture.expected
        cls.fixture_records = [json.loads(rec.to_json()) for rec in fixture_log]
        cls.fixture_graph = reconstruct.reconstruct_process(fixture_log, "pol-1")
        cls.fixture_looped = reconstruct.reconstruct_process(fixture_log, "pol-1", phase_order=list(fixture.phases))
        cls.fixture_prov = export_prov_json(build_prov(fixture_log, "pol-1"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_real_outputs_pass(self):
        self.assertEqual(checks.scheduled(self.records, self.expect), [])
        self.assertEqual(checks.goals_satisfied(self.trace.goal_snapshots), [])
        self.assertEqual(checks.live_matches_fold(self.live, self.folded), [])
        self.assertEqual(checks.replay(self.trace.log_hash, self.trace.log_hash, self.log.content_hash()), [])
        self.assertEqual(checks.prov_json(self.prov, self.records, "pol-2"), [])
        self.assertEqual(checks.dot(self.dot, self.records, "pol-2"), [])
        self.assertEqual(checks.query(self.records, self.filters, self.query), [])
        self.assertEqual(checks.fixture(self.fixture_expected, self.fixture_records, self.fixture_graph,
                                        self.fixture_looped, self.fixture_prov), [])

    def test_scheduled_fails_on_a_missing_token_or_an_undelivered_send(self):
        first_local = next(i for i, r in enumerate(self.records) if r["event_kind"] == "local-token")
        self.assertTrue(checks.scheduled(self.records[:first_local] + self.records[first_local + 1:], self.expect))
        dead = copy.deepcopy(self.records)
        receipt = next(r for r in dead if r["event_kind"] == "receipt")
        receipt["body"]["outcome"] = "dead-letter"
        self.assertTrue(checks.scheduled(dead, self.expect))

    def test_goals_fail_when_unsatisfied_or_apart_from_the_fold(self):
        snapshots = copy.deepcopy(self.trace.goal_snapshots)
        snapshots["pol-1"]["goals"][0]["status"] = "active"
        self.assertTrue(checks.goals_satisfied(snapshots))
        live = copy.deepcopy(self.live)
        live["pol-1"][0]["metrics"][0]["status"] = "pending"
        self.assertTrue(checks.live_matches_fold(live, self.folded))

    def test_replay_fails_on_another_hash(self):
        other = "0" * 64
        self.assertTrue(checks.replay(self.trace.log_hash, other, other))
        self.assertTrue(checks.replay(self.trace.log_hash, self.trace.log_hash, other))

    def test_query_fails_on_a_missing_event_or_node(self):
        fewer = dataclasses.replace(self.query, events=self.query.events[:-1])
        self.assertTrue(checks.query(self.records, self.filters, fewer))
        graph = dataclasses.replace(self.query.subgraph, nodes=self.query.subgraph.nodes[1:])
        self.assertTrue(checks.query(self.records, self.filters, dataclasses.replace(self.query, subgraph=graph)))

    def test_prov_fails_on_each_broken_rule(self):
        doc = json.loads(self.prov)

        def broken(mutate):
            bad = copy.deepcopy(doc)
            mutate(bad)
            return checks.prov_json(json.dumps(bad).encode(), self.records, "pol-2")

        self.assertTrue(checks.prov_json(b"{not json", self.records, "pol-2"))
        self.assertTrue(broken(lambda d: d.pop("wasInformedBy")))
        self.assertTrue(broken(lambda d: d["activity"].pop(next(iter(d["activity"])))))
        gen = next(iter(doc["wasGeneratedBy"].values()))
        self.assertTrue(broken(lambda d: d["wasGeneratedBy"].setdefault("gen-extra", dict(gen))))
        use = next(u for u in doc["used"].values() if not doc["entity"][u["prov:entity"]].get("external_origin"))
        late = doc["activity"][use["prov:activity"]]["start"] + 1
        self.assertTrue(broken(lambda d: d["entity"][use["prov:entity"]].update(generated_at=late)))

    def test_dot_fails_on_a_missing_node_or_edge(self):
        lines = self.dot.splitlines()
        node = next(i for i, line in enumerate(lines) if "->" not in line and "[label=" in line)
        edge = next(i for i, line in enumerate(lines) if "->" in line)
        for drop in (node, edge):
            self.assertTrue(checks.dot("\n".join(lines[:drop] + lines[drop + 1:]) + "\n", self.records, "pol-2"))

    def test_fixture_fails_against_a_changed_expectation(self):
        for key, value in (
            ("edges", []),
            ("nodes", ["another task"]),
            ("actor_chain", []),
            ("loop_markers", [["analysis", "agenda-setting"]]),
            ("goal", dict(self.fixture_expected["goal"], status="active")),
            ("prov", dict(self.fixture_expected["prov"], entities=0)),
            ("probe_edges", []),
        ):
            expected = dict(self.fixture_expected, **{key: value})
            with self.subTest(key=key):
                self.assertTrue(checks.fixture(expected, self.fixture_records, self.fixture_graph,
                                               self.fixture_looped, self.fixture_prov))


if __name__ == "__main__":
    unittest.main()
