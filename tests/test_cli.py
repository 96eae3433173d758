"""Command-line interface: run, query, export; artifacts and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import policyprov
from policyprov import fixture_path
from policyprov.cli import main
from policyprov.storage import EventLog

from conftest import two_policy_scenario_dict


def non_owner_defines_goal() -> dict:
    raw = two_policy_scenario_dict()
    raw["behaviors"][0]["rules"][0]["actions"].append({"do": "define_goal", "goal": "ga"})
    return raw


def time_rule_before_any_policy() -> dict:
    raw = two_policy_scenario_dict()
    raw["behaviors"] = [{"actor": "net/owner", "rules": [
        {"trigger": {"at_time": 0}, "actions": [{"do": "decide", "decision": "continue"}]},
    ]}]
    return raw


def pattern_sequential(edit=None, rename=()) -> dict:
    """The `pattern_sequential` fixture with each (old, new) text replacement and then `edit` applied."""
    text = fixture_path("pattern_sequential").read_text()
    for old, new in rename:
        text = text.replace(old, new)
    raw = json.loads(text)
    if edit is not None:
        edit(raw)
    return raw


def alpha_actions(raw) -> list:
    """The actions of alpha's second rule: a local token, then a send to beta."""
    return raw["behaviors"][0]["rules"][1]["actions"]


# Each case: the scenario, and how the one stderr line starts.
MALFORMED = {
    "action-without-do": (
        pattern_sequential(lambda raw: alpha_actions(raw)[0].pop("do")),
        "scenario error: rule for net/alpha: unknown action None"),
    "unknown-action": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].update(do="broadcast")),
        "scenario error: rule for net/alpha: unknown action 'broadcast'"),
    "action-do-not-text": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].update(do=["send_token"])),
        "scenario error: rule for net/alpha: unknown action ['send_token']"),
    "send-without-to": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].pop("to")),
        "scenario error: unresolved address None"),
    "send-to-not-text": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].update(to=["net/beta"])),
        "scenario error: unresolved address ['net/beta'] in rule for net/alpha"),
    "local-token-without-task": (
        pattern_sequential(lambda raw: alpha_actions(raw)[0].pop("task")),
        "run failed: invalid-token: invalid token fields: task"),
    "bogus-token-kind": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].update(kind="bogus")),
        "scenario error: rule for net/alpha: 'bogus' is not a valid TokenKind"),
    "no-such-kind": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].update(kind="no-such-kind")),
        "scenario error: rule for net/alpha: 'no-such-kind' is not a valid TokenKind"),
    "local-token-bad-nature": (
        pattern_sequential(lambda raw: alpha_actions(raw)[0].update(nature_of_task_output="tablet")),
        "scenario error: rule for net/alpha: 'tablet' is not a valid ArtifactNature"),
    "decision-maybe": (
        pattern_sequential(
            lambda raw: raw["behaviors"][1]["rules"][0]["actions"].append({"do": "decide", "decision": "maybe"})),
        "run failed: unknown-decision: 'maybe'"),
    "unknown-metric-kind": (
        pattern_sequential(lambda raw: raw["goals"]["probe"]["metrics"][0].update(kind="vote")),
        "scenario error: goal probe: metric "),
    "empty-actor-id": (
        pattern_sequential(lambda raw: raw["networks"][0]["actors"].append("")),
        "scenario error: network 'net': '' is not"),
    "network-id-with-slash": (
        pattern_sequential(rename=[('"net"', '"n/et"'), ('"net/', '"n/et/')]),
        "scenario error: network 'n/et': 'n/et' is not"),
    "actor-id-with-slash": (
        pattern_sequential(rename=[("alpha", "al/pha")]),
        "scenario error: network 'net': 'al/pha' is not"),
    "duplicate-metric-id": (
        pattern_sequential(lambda raw: raw["goals"]["probe"].update(metrics=[
            {"metric_id": "m1", "kind": "artifact-delivery", "artifact": "report"},
            {"metric_id": "m1", "kind": "artifact-delivery", "artifact": "annex"},
        ])),
        "scenario error: goal probe has two metrics of one id"),
    "at-time-text": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"][0]["trigger"].update(at_time="1")),
        "scenario error: rule for net/alpha: at_time '1' is not an integer"),
    "at-time-bool": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"][0]["trigger"].update(at_time=True)),
        "scenario error: rule for net/alpha: at_time True is not an integer"),
    "on-receive-text": (
        pattern_sequential(lambda raw: raw["behaviors"][1]["rules"][0]["trigger"].update(on_receive="notification")),
        "scenario error: rule for net/owner: on_receive 'notification' is not an object"),
    "on-receive-value-not-text": (
        pattern_sequential(lambda raw: raw["behaviors"][1]["rules"][0]["trigger"]["on_receive"].update(kind=None)),
        "scenario error: rule for net/owner: on_receive value None is not a string"),
    "actions-text": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"][1].update(actions="x")),
        "scenario error: rule for net/alpha: actions 'x' is not a list"),
    "action-text": (
        pattern_sequential(lambda raw: alpha_actions(raw).append("x")),
        "scenario error: rule for net/alpha: action 'x' is not an object"),
    "task-not-text": (
        pattern_sequential(lambda raw: alpha_actions(raw)[0].update(task=5)),
        "run failed: invalid-token: invalid token fields: task"),
    "required-action-not-text": (
        pattern_sequential(lambda raw: alpha_actions(raw)[1].update(required_action=["review"])),
        "run failed: invalid-token: invalid token fields: required_action"),
    "scenario-list": (
        [pattern_sequential()],
        "scenario error: the scenario is not a JSON object"),
    "network-text": (
        pattern_sequential(lambda raw: raw["networks"].append("net2")),
        "scenario error: network 'net2' is not an object"),
    "goals-list": (
        pattern_sequential(lambda raw: raw.update(goals=[raw["goals"]["probe"]])),
        "scenario error: goals [{"),
    "behavior-text": (
        pattern_sequential(lambda raw: raw["behaviors"].append("x")),
        "scenario error: behavior 'x' is not an object"),
    "rule-text": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"].append("x")),
        "scenario error: rule for net/alpha 'x' is not an object"),
    "metric-text": (
        pattern_sequential(lambda raw: raw["goals"]["probe"]["metrics"].append("x")),
        "scenario error: goal probe: metric 'x' is not an object"),
    "metrics-empty": (
        pattern_sequential(lambda raw: raw["goals"]["probe"].update(metrics=[])),
        "scenario error: goal probe has no metrics"),
    "metrics-missing": (
        pattern_sequential(lambda raw: raw["goals"]["probe"].pop("metrics")),
        "scenario error: goal probe has no metrics"),
    "link-of-one-network": (
        pattern_sequential(lambda raw: raw.update(links=[["a"]])),
        "scenario error: link ['a'] is not a pair of network ids"),
    "seed-list": (
        pattern_sequential(lambda raw: raw.update(seed=[1])),
        "scenario error: seed [1] is not an integer"),
    "seed-bool": (
        pattern_sequential(lambda raw: raw.update(seed=True)),
        "scenario error: seed True is not an integer"),
    "phases-text": (
        pattern_sequential(lambda raw: raw.update(phases="agenda-setting")),
        "scenario error: phases 'agenda-setting' is not a list"),
    "phase-not-text": (
        pattern_sequential(lambda raw: raw.update(phases=[1, "agenda-setting"])),
        "scenario error: phase 1 is not a string"),
    "goal-id-list": (
        pattern_sequential(lambda raw: raw["goals"]["probe"].update(goal_id=["g"])),
        "scenario error: goal probe: goal_id ['g'] is not a string"),
    "goal-id-int": (
        pattern_sequential(lambda raw: raw["goals"]["probe"].update(goal_id=5)),
        "scenario error: goal probe: goal_id 5 is not a string"),
    "goal-name-not-text": (
        pattern_sequential(lambda raw: raw["goals"]["probe"].update(name=5)),
        "scenario error: goal probe: name 5 is not a string"),
    "metric-id-list": (
        pattern_sequential(lambda raw: raw["goals"]["probe"]["metrics"][0].update(metric_id=["m"])),
        "scenario error: goal probe: metric_id ['m'] is not a string"),
    "metric-artifact-not-text": (
        pattern_sequential(lambda raw: raw["goals"]["probe"]["metrics"][0].update(artifact=5)),
        "scenario error: goal probe: artifact 5 is not a string"),
    "metric-id-equal-to-a-default-id": (
        pattern_sequential(lambda raw: raw["goals"]["probe"]["metrics"].append(
            {"metric_id": "g-probe-m1", "kind": "artifact-delivery", "artifact": "annex"})),
        "scenario error: goal probe has two metrics of one id"),
    "define-goal-list": (
        pattern_sequential(lambda raw: raw["behaviors"][1]["rules"][0]["actions"][0].update(goal=["probe"])),
        "scenario error: rule for net/owner references unknown goal ['probe']"),
    "payload-not-text": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"][0]["actions"][0].update(payload=5)),
        "scenario error: rule for net/alpha: payload 5 is not a string"),
    "media-hint-not-text": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"][0]["actions"][0].update(media_hint=5)),
        "scenario error: rule for net/alpha: media_hint 5 is not a string"),
    "once-text": (
        pattern_sequential(lambda raw: raw["behaviors"][0]["rules"][0].update(once="no")),
        "scenario error: rule for net/alpha: once 'no' is not true or false"),
}


@pytest.fixture()
def run_dir(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(fixture_path("neighbourhood_safety")), "-o", str(out)])
    assert code == 0
    return out


class TestRun:
    def test_writes_the_three_artifacts(self, run_dir):
        for name in ("events.jsonl", "trace.txt", "goals.json"):
            assert (run_dir / name).exists(), name

    def test_goals_file_reports_satisfaction(self, run_dir):
        goals = json.loads((run_dir / "goals.json").read_text())
        statuses = [g["status"] for g in goals["pol-1"]["goals"]]
        assert statuses == ["satisfied"]

    def test_trace_lines_are_deliveries(self, run_dir):
        lines = [l for l in (run_dir / "trace.txt").read_text().splitlines() if l]
        receives = [
            json.loads(l)
            for l in (run_dir / "events.jsonl").read_text().splitlines()
            if json.loads(l)["event_kind"] == "routed-token-receive"
        ]
        assert len(lines) == len(receives)
        assert all("→" in line for line in lines)

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        out = tmp_path / "from-env"
        monkeypatch.setenv("POLICYPROV_OUT", str(out))
        assert main(["run", str(fixture_path("pattern_sequential"))]) == 0
        assert (out / "events.jsonl").exists()

    def test_unreadable_scenario_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"networks": [], "owner": "net/owner"}))
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("raw, code", [
        (two_policy_scenario_dict(second_goal="ga"), "duplicate-goal"),
        (non_owner_defines_goal(), "not-owner"),
        (time_rule_before_any_policy(), "unknown-policy"),
    ], ids=["goal-reused-by-second-policy", "goal-defined-by-non-owner", "time-rule-before-any-policy"])
    def test_error_raised_mid_run_exits_2(self, tmp_path, capsys, raw, code):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        assert main(["run", str(scenario), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run failed: {code}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_scenario_exits_2(self, tmp_path, capsys, raw, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        assert main(["run", str(scenario), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        # A scenario refused when it is loaded runs nothing.
        assert (tmp_path / "o" / "events.jsonl").exists() == message.startswith("run failed")

    def test_runaway_exits_3(self, tmp_path):
        code = main(["run", str(fixture_path("neighbourhood_safety")),
                     "-o", str(tmp_path / "o"), "--step-budget", "1"])
        assert code == 3

    @pytest.mark.parametrize("out", ["file", "file/sub", "."], ids=["output-is-a-file", "output-under-a-file",
                                                                 "data-dir-is-a-file"])
    def test_output_that_cannot_be_made_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("taken")
        (tmp_path / "data").write_text("taken")
        assert main(["run", str(fixture_path("pattern_sequential")), "-o", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "taken"


class TestQuery:
    def test_filters_are_a_conjunction(self, run_dir, capsys):
        log_path = str(run_dir / "events.jsonl")
        assert main(["query", log_path, "--actor", "business-control-unit",
                     "--kind", "local-token"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines
        for rec in lines:
            assert rec["event_kind"] == "local-token"
            assert rec["body"]["who_carried_out"].endswith("/business-control-unit")

    def test_offset_range_is_inclusive(self, run_dir, capsys):
        assert main(["query", str(run_dir / "events.jsonl"), "--offsets", "0:2"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [rec["offset"] for rec in lines] == [0, 1, 2]

    @pytest.mark.parametrize("bad", ["5", "a:b", "3:"])
    def test_malformed_offsets_exit_2(self, run_dir, capsys, bad):
        assert main(["query", str(run_dir / "events.jsonl"), "--offsets", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad --offsets {bad!r}: not lo:hi, two integers\n"

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["query", str(tmp_path / "nope.jsonl")]) == 2

    def test_closed_pipe_ends_quietly(self, run_dir, tmp_path):
        # The fixture run's records 120 times over: far more output than a
        # pipe holds, so the query is still writing when the reader leaves.
        run = EventLog.load(run_dir / "events.jsonl")
        log = EventLog(tmp_path / "long.jsonl")
        for _ in range(120):
            for rec in run:
                log.append(rec.event_kind, rec.body, log.tick())
        log.close()
        src = str(Path(policyprov.__file__).resolve().parent.parent)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen([sys.executable, "-m", "policyprov.cli", "query", str(tmp_path / "long.jsonl")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert json.loads(child.stdout.readline())["offset"] == 0
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 0, err
        assert err == b""

    def test_query_leaves_the_log_untouched(self, run_dir):
        log_path = run_dir / "events.jsonl"
        before = hashlib.sha256(log_path.read_bytes()).hexdigest()
        main(["query", str(log_path), "--kind", "receipt"])
        assert hashlib.sha256(log_path.read_bytes()).hexdigest() == before


@pytest.mark.parametrize("command", [["query"], ["export", "--prov", "-o", "x.json"]])
@pytest.mark.parametrize("bad", [b'{"offset":0}', b"[1,2]", b'{"offset":', b"\xff\xfe",
                                 b'{"offset":0,"event_kind":"decision","logical_time":1,"body":[]}',
                                 b'{"offset":0,"event_kind":"bogus","logical_time":1,"body":{}}',
                                 pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-too-deep")])
def test_corrupt_log_exits_2(tmp_path, monkeypatch, capsys, command, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "events.jsonl").write_bytes(bad + b"\n")
    assert main([command[0], "events.jsonl", *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("cannot read log: line 1: ")
    assert not (tmp_path / "x.json").exists()


def test_torn_last_line_exits_2(run_dir, tmp_path, capsys):
    lines = (run_dir / "events.jsonl").read_bytes().splitlines(keepends=True)
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    message = f"cannot read log: line {len(lines)}: torn last line, cut off before its newline\n"
    for command in (["query"], ["export", "--prov", "-o", str(tmp_path / "x")],
                    ["export", "--graph", "-o", str(tmp_path / "x")]):
        assert main([command[0], str(torn), *command[1:]]) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "x").exists()


LATE_LOCAL_TOKEN = {
    "token_id": "t-1", "policy_id": "pol-1", "phase_id": "agenda-setting", "goal_id": "g-1", "seq_num": 1,
    "task": "write", "task_input": "notes", "nature_of_task_input": "document", "task_output": "report",
    "nature_of_task_output": "document", "task_description": "write", "who_carried_out": "net/alpha",
    "nature_of_stakeholders": "internal", "data_details": "notes", "source_of_evidence": "notes",
    "timestamp": "late", "data_reference": None,
}


@pytest.mark.parametrize("kind", ["--prov", "--graph"])
@pytest.mark.parametrize("body", [{"policy_id": "pol-1"}, LATE_LOCAL_TOKEN,
                                  LATE_LOCAL_TOKEN | {"timestamp": 1, "task": 5}, LATE_LOCAL_TOKEN | {"timestamp": 2}],
                         ids=["missing-fields", "timestamp-not-int", "text-field-not-text",
                              "timestamp-not-its-logical-time"])
def test_token_record_that_does_not_decode_exits_2(tmp_path, capsys, kind, body):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps({"offset": 0, "event_kind": "local-token", "logical_time": 1, "body": body}) + "\n")
    out = tmp_path / "x"
    assert main(["export", str(log), kind, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot read log: offset 0: local-token body ")
    assert not out.exists()


class TestExport:
    def test_prov_export_has_eight_members(self, run_dir, tmp_path):
        out = tmp_path / "doc.provjson"
        assert main(["export", str(run_dir / "events.jsonl"), "--prov", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 8

    def test_graph_export_is_dot(self, run_dir, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["export", str(run_dir / "events.jsonl"), "--graph", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph process {")
        assert "->" in text

    def test_exports_are_deterministic(self, run_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["export", str(run_dir / "events.jsonl"), "--prov", "-o", str(a)])
        main(["export", str(run_dir / "events.jsonl"), "--prov", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_multi_policy_log_requires_policy_flag(self, tmp_path, capsys):
        from policyprov import Address, PolicySystem

        log_path = tmp_path / "multi.jsonl"
        system = PolicySystem(owner=Address("n", "o"), log_path=log_path)
        system.register_network("n")
        system.register_actor("n", "o")
        for payload in (b"one", b"two"):
            record = system.put_data(payload, Address("n", "o"), "idea")
            system.notify_new_policy(record, Address("n", "o"))
        system.close()
        assert main(["export", str(log_path), "--prov", "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "log holds multiple policies; pass --policy\n"
        assert not (tmp_path / "x").exists()
        assert main(["export", str(log_path), "--prov", "--policy", "pol-2",
                     "-o", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("kind", ["--prov", "--graph"])
    @pytest.mark.parametrize("text", [
        "", '{"body":{"outcome":"delivered","token_id":"t"},"event_kind":"receipt","logical_time":1,"offset":0}\n',
    ], ids=["empty", "no-policy-id"])
    def test_log_that_names_no_policy_exits_2(self, tmp_path, capsys, kind, text):
        log_path, out = tmp_path / "events.jsonl", tmp_path / "x"
        log_path.write_text(text)
        assert main(["export", str(log_path), kind, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "log names no policy\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["--prov", "--graph"])
    def test_output_that_cannot_be_written_exits_2(self, run_dir, tmp_path, capsys, kind):
        out = tmp_path / "no-such-dir" / "x"
        assert main(["export", str(run_dir / "events.jsonl"), kind, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("kind", ["--prov", "--graph"])
    def test_unknown_policy_exits_2(self, run_dir, tmp_path, capsys, kind):
        out = tmp_path / "x.dot"
        assert main(["export", str(run_dir / "events.jsonl"), kind, "--policy", "pol-9",
                     "-o", str(out)]) == 2
        assert "unknown policy: pol-9" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["export", str(tmp_path / "nope.jsonl"), "--prov",
                     "-o", str(tmp_path / "x")]) == 2
