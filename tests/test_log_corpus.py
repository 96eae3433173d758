"""Logs written by an earlier release stay readable: a frozen log corpus.

`logs/v1/` holds, one directory each, the `events.jsonl` of the eight bundled
fixtures' runs and of `two_policy_log()`, as the program wrote them when the
corpus was made, with what was read from each then: `goals.json`,
`trace.txt`, and each policy's PROV-JSON (`<policy>.provjson`) and DOT
(`<policy>.dot`). Each log is read back with the current program, and what
it reads must equal the frozen files. The logs are never rewritten. An
intended change to an output rewrites the frozen outputs from the frozen
logs, never the logs:

    PYTHONPATH=src python tests/test_log_corpus.py

The rule that keeps these logs readable is in `storage.py`'s docstring: a
field added to a record is optional on read, with a stated default, and an
event kind is never renamed or removed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from policyprov import build_prov, export_prov_json, reconstruct_process, to_dot
from policyprov.simulation import trace_of, trace_report
from policyprov.storage import EventLog, policy_ids

CORPUS = Path(__file__).parent / "logs" / "v1"
LOGS = (
    "change_control_board",
    "loop_phases",
    "neighbourhood_safety",
    "pattern_async_parallel",
    "pattern_asynchronous",
    "pattern_parallel",
    "pattern_sequential",
    "pattern_synchronous",
    "two_policy_log",
)


def read_outputs(log: EventLog) -> dict[str, bytes]:
    """Every output read from a log, by the name of its frozen file."""
    trace = trace_of(log)
    outputs = {
        "goals.json": (json.dumps(trace.goal_snapshots, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        "trace.txt": trace_report(trace).encode("utf-8"),
    }
    for policy_id in policy_ids(log):
        outputs[f"{policy_id}.provjson"] = export_prov_json(build_prov(log, policy_id))
        outputs[f"{policy_id}.dot"] = to_dot(reconstruct_process(log, policy_id)).encode("utf-8")
    return outputs


def test_the_corpus_holds_every_log():
    assert sorted(path.name for path in CORPUS.iterdir()) == sorted(LOGS)


@pytest.mark.parametrize("name", LOGS)
def test_frozen_log_reads_to_its_frozen_outputs(name):
    directory = CORPUS / name
    data = (directory / "events.jsonl").read_bytes()
    log = EventLog.load(directory / "events.jsonl")
    assert log.content_hash() == hashlib.sha256(data).hexdigest()
    assert "".join(rec.to_json() + "\n" for rec in log).encode("utf-8") == data
    frozen = {path.name: path.read_bytes() for path in directory.iterdir() if path.name != "events.jsonl"}
    assert read_outputs(log) == frozen


if __name__ == "__main__":
    for name in LOGS:
        directory = CORPUS / name
        for path in directory.iterdir():
            if path.name != "events.jsonl":
                path.unlink()
        for file_name, data in read_outputs(EventLog.load(directory / "events.jsonl")).items():
            (directory / file_name).write_bytes(data)
        print("rewrote the outputs of", directory)
