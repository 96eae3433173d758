"""The log's per-policy and goal record lists, and the readers that walk them.

`EventLog` keeps each policy's records and the goal records beside the whole
log; `scan`, `policy_ids`, `views_of` and `fold_goal_state` read those lists.
Each property below compares a list or a reader with a plain loop over
`iter(log)`, written here, on logs built by `append` (a random scenario's
run, `two_policy_log()`, and the two interleaved with refused appends
between) and on the same logs read back by `EventLog.load`. The last one
runs the same appends, refused ones included, on a log with a file and on
one without, and compares the two.
"""

from functools import cache
from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from policyprov import load_scenario, run
from policyprov.goals import GoalBook, fold_goal_state
from policyprov.storage import _ENCODER, EVENT_KINDS, EventLog, policy_ids

from conftest import ADDRESS_KEYS, random_scenario_dict
from test_golden import two_policy_log

GOAL_KINDS = ("goal-defined", "goal-modified", "metric-satisfied", "goal-satisfied")

# Appends the log refuses, each before it keeps anything: an unknown kind, a
# null or int policy_id, a body that is not a dict, a body the encoder
# refuses, a logical time that is not an int and, once the log holds a
# record (every one is kept at time 1 or later), a logical time before it.
REFUSED = (
    ("bogus-kind", {"policy_id": "pol-1"}, 1, ValueError),
    ("decision", {"policy_id": None}, 1, TypeError),
    ("goal-defined", {"policy_id": 7}, 1, TypeError),
    ("local-token", ["policy_id"], 1, TypeError),
    ("goal-satisfied", {"policy_id": "pol-1", "goal_id": {"g-one"}}, 1, TypeError),
    ("decision", {"policy_id": "pol-1"}, "1", TypeError),
    ("decision", {"policy_id": "pol-1"}, 0, ValueError),
)
TIME_GOES_BACK = REFUSED[-1]


def refuse(log, refused) -> str:
    """Append a `REFUSED` entry, which must raise its error; its message,
    or "" for a time-goes-back append to a log with no record to go back from."""
    kind, body, time, error = refused
    if refused is TIME_GOES_BACK and len(log) == 0:
        return ""
    with pytest.raises(error) as caught:
        log.append(kind, body, time)
    return str(caught.value)


@cache
def _two_policy_records() -> tuple:
    return tuple(two_policy_log())


def _random_run(seed: int, directory):
    """A random scenario's run, logged to a file; its log and the loaded file."""
    path = directory / "run.jsonl"
    trace = run(load_scenario(random_scenario_dict(seed)), log_path=path)
    return trace.log, EventLog.load(path)


def _relabelled(body: dict) -> dict:
    return {**body, "policy_id": "pol-r"} if "policy_id" in body else body


def _renamed(version: int) -> dict:
    """A goal-modified record renaming two_policy_log()'s goal g-one."""
    [defined] = [rec.body for rec in _two_policy_records()
                 if rec.event_kind == "goal-defined" and rec.body["goal_id"] == "g-one"]
    return {**defined, "name": f"renamed {version}", "version": version, "op": "rename"}


def _merged(seed_records, picks, directory):
    """The random run's records (as policy pol-r) and `two_policy_log()`'s,
    interleaved by `picks`, each appended at a fresh tick, with a renaming
    of goal g-one or a refused append wherever a pick says so; and the
    loaded file."""
    path = directory / "merged.jsonl"
    log = EventLog(path)
    sources = [list(seed_records), list(_two_policy_records())]
    for version, pick in enumerate(picks, 2):
        if pick < 2:
            if sources[pick]:
                rec = sources[pick].pop(0)
                log.append(rec.event_kind, _relabelled(rec.body) if pick == 0 else rec.body, log.tick())
            continue
        if pick == 2:
            log.append("goal-modified", _renamed(version), log.tick())
            continue
        refuse(log, REFUSED[pick - 3])
    for pick, rest in enumerate(sources):
        for rec in rest:
            log.append(rec.event_kind, _relabelled(rec.body) if pick == 0 else rec.body, log.tick())
    log.close()
    return log, EventLog.load(path)


def _logs(seed, picks, directory) -> list:
    """Each log these properties read: built by `append`, then loaded."""
    ran, ran_loaded = _random_run(seed, directory)
    two = two_policy_log()
    path = directory / "two.jsonl"
    path.write_text("".join(rec.to_json() + "\n" for rec in two), encoding="utf-8")
    merged, merged_loaded = _merged(ran, picks, directory)
    return [ran, ran_loaded, two, EventLog.load(path), merged, merged_loaded]


_PICKS = st.lists(st.integers(0, 2 + len(REFUSED)), max_size=60)


def plain_policy_ids(log) -> list:
    out = []
    for rec in log:
        if "policy_id" in rec.body and rec.body["policy_id"] not in out:
            out.append(rec.body["policy_id"])
    return out


def plain_scan(log, **filters) -> list:
    out = []
    for rec in log:
        body = rec.body
        if any(body.get(key) != filters[key] for key in ("policy_id", "goal_id", "phase_id") if key in filters):
            continue
        if "event_kind" in filters and rec.event_kind != filters["event_kind"]:
            continue
        if "offset_range" in filters and not filters["offset_range"][0] <= rec.offset <= filters["offset_range"][1]:
            continue
        if "actor" in filters:
            actor = filters["actor"]
            texts = [body[key] for key in ADDRESS_KEYS if isinstance(body.get(key), str)]
            if not any(text == actor or "/" not in actor and text.rpartition("/")[2] == actor for text in texts):
                continue
        out.append(rec)
    return out


def plain_fold(log, policy_id, upto) -> list:
    book = GoalBook()
    for rec in log:
        if upto is not None and rec.offset > upto:
            break
        if rec.event_kind in GOAL_KINDS:
            book.apply(rec.event_kind, rec.body)
    goals = book.goals.values() if policy_id is None else book.by_policy.get(policy_id, {}).values()
    return [goal.to_record() for goal in goals]


def filter_values(log) -> dict:
    """Every value of each filter the log's records hold, and some no record
    holds; offset ranges negative, inverted, past the end and inside, with
    int and with float bounds."""
    bodies = [rec.body for rec in log]
    actors = sorted({body[key] for body in bodies for key in ADDRESS_KEYS if isinstance(body.get(key), str)})
    n = len(log)
    return {
        "policy_id": plain_policy_ids(log) + ["pol-x"],
        "actor": actors + sorted({actor.rpartition("/")[2] for actor in actors}) + ["nobody", "n0/nobody", "", "/"],
        "phase_id": sorted({body["phase_id"] for body in bodies if isinstance(body.get("phase_id"), str)}) + ["x"],
        "goal_id": sorted({body["goal_id"] for body in bodies if isinstance(body.get("goal_id"), str)}) + ["g-x"],
        "event_kind": list(EVENT_KINDS),
        "offset_range": [(-3, -1), (-2, 3), (-1, 0), (5, 2), (0, n + 5), (n, n + 3), (n - 1, n - 1), (3, 3),
                         (n // 2, n - 2), (0, 0), (-(10**20), 10**20),
                         (0.5, 3.5), (-0.5, n + 0.5), (n / 3, n / 2), (2.5, 2.5), (3.5, 1.5), (-1.5, -0.5),
                         (n - 0.5, float("inf")), (-float("inf"), 0.0)],
    }


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), picks=_PICKS)
def test_record_lists_are_plain_filters_after_appends_a_load_and_refused_appends(tmp_path_factory, seed, picks):
    for log in _logs(seed, picks, tmp_path_factory.mktemp("lists")):
        records = list(log)
        pids = plain_policy_ids(log)
        assert policy_ids(log) == pids
        assert policy_ids(records) == pids
        for pid in pids + ["pol-x"]:
            assert log.policy_records(pid) == [rec for rec in records if rec.body.get("policy_id") == pid]
        assert log.goal_records() == [rec for rec in records if rec.event_kind in GOAL_KINDS]
        assert sum(map(len, map(log.policy_records, pids))) == sum("policy_id" in rec.body for rec in records)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), picks=_PICKS, data=st.data())
def test_scan_equals_a_plain_loop_for_each_filter_and_pairs_of_filters(tmp_path_factory, seed, picks, data):
    for log in _logs(seed, picks, tmp_path_factory.mktemp("scan")):
        values = filter_values(log)
        for name, choices in values.items():
            for value in choices:
                assert log.scan(**{name: value}) == plain_scan(log, **{name: value}), (name, value)
        for pid in values["policy_id"]:  # a policy's records sliced by offset, every range
            for offsets in values["offset_range"]:
                filters = {"policy_id": pid, "offset_range": offsets}
                assert log.scan(**filters) == plain_scan(log, **filters), filters
        names = sorted(values)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                filters = {first: data.draw(st.sampled_from(values[first])),
                           second: data.draw(st.sampled_from(values[second]))}
                assert log.scan(**filters) == plain_scan(log, **filters), filters
        # A scan hands out a list of its own, never one the log keeps.
        assert log.scan() == list(log) and log.scan() is not log.scan()
        for pid in values["policy_id"]:
            assert log.scan(policy_id=pid) is not log.policy_records(pid)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), picks=_PICKS)
def test_fold_of_the_goal_records_equals_a_goal_book_loop_over_the_log(tmp_path_factory, seed, picks):
    for log in _logs(seed, picks, tmp_path_factory.mktemp("fold")):
        n = len(log)
        for policy_id in [None, "pol-x"] + plain_policy_ids(log):
            for upto in (None, -1, 0, 1, n // 3, n // 2, n - 1, n + 5):
                assert [goal.to_record() for goal in fold_goal_state(log, policy_id, upto)] == plain_fold(
                    log, policy_id, upto), (policy_id, upto)


@settings(max_examples=30, deadline=None)
@given(picks=st.lists(st.integers(0, 1 + len(REFUSED)), max_size=40))
@example(picks=[1 + REFUSED.index(("goal-satisfied", {"policy_id": "pol-1", "goal_id": {"g-one"}}, 1, TypeError))])
@example(picks=[0, 2 + REFUSED.index(TIME_GOES_BACK)])
def test_a_log_with_a_file_and_one_without_keep_refuse_and_hash_alike(tmp_path_factory, picks):
    """The same appends, each a `two_policy_log()` record (pick 0, its body
    encoded by the log; pick 1, its text given) or a refused one, on a log
    without a file and on one with a file: the same offsets and refusals,
    the same records and the same `content_hash`, which is also the loaded
    file's."""
    path = tmp_path_factory.mktemp("modes") / "log.jsonl"
    logs = [EventLog(), EventLog(path)]
    outcomes = [[], []]
    for log, outcome in zip(logs, outcomes):
        records = cycle(_two_policy_records())
        for pick in picks:
            if pick < 2:
                rec = next(records)
                text = _ENCODER.encode(rec.body) if pick else None
                outcome.append(log.append(rec.event_kind, rec.body, log.tick(), text))
                continue
            outcome.append(refuse(log, REFUSED[pick - 2]))
    logs[1].close()
    assert outcomes[0] == outcomes[1]
    loaded = EventLog.load(path)
    kept = [[(rec.offset, rec.event_kind, rec.logical_time, rec.body) for rec in log] for log in (*logs, loaded)]
    assert kept[0] == kept[1] == kept[2]
    assert logs[0].content_hash() == logs[1].content_hash() == loaded.content_hash()
    assert path.read_bytes() == "".join(rec.to_json() + "\n" for rec in logs[0]).encode("utf-8")
