"""The seed only names tokens: a metamorphic relation on every scenario.

One scenario run under two seeds gives the same outputs once token ids are
renamed in order of first appearance in the log: the log text, `trace.txt`,
`goals.json` and each policy's DOT byte for byte, and each policy's PROV-JSON
as a graph. A relation's id numbers its pair in sorted order, and the sort
reads token ids, so the PROV-JSON graph leaves relation ids out.

Tier-1 runs a few dozen examples; the CI workflow runs
`check_seed_only_names` over many more.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprov import fixture_path, load_scenario, run
from policyprov.prov import build_prov, export_prov_json
from policyprov.reconstruct import reconstruct_process, to_dot
from policyprov.simulation import trace_report
from policyprov.storage import policy_ids

from conftest import random_scenario_dict

FIXTURES = (
    "neighbourhood_safety",
    "change_control_board",
    "pattern_sequential",
    "pattern_parallel",
    "pattern_synchronous",
    "pattern_asynchronous",
    "pattern_async_parallel",
    "loop_phases",
)
# A token id is the text of a version-4 UUID.
TOKEN_ID = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}")
RELATIONS = ("used", "wasGeneratedBy", "wasAssociatedWith", "wasInformedBy", "wasDerivedFrom")

SCENARIOS = st.one_of(st.sampled_from(FIXTURES).map(fixture_path), st.integers(0, 10**6).map(random_scenario_dict))
SEED_PAIRS = st.lists(st.integers(0, 2**64), min_size=2, max_size=2, unique=True)


def prov_graph(text: str) -> dict:
    """A PROV-JSON document with each relation's leaves, sorted, in place of its id -> leaf object."""
    doc = json.loads(text)
    for key in RELATIONS:
        doc[key] = sorted(json.dumps(leaf, sort_keys=True) for leaf in doc[key].values())
    return doc


def renamed_outputs(scenario, seed: int) -> tuple[str, dict]:
    """The run's log text, and every output with each token id renamed
    `token-<n>`, n its rank of first appearance in the log."""
    trace = run(load_scenario(scenario), seed=seed)
    log = trace.log
    text = "".join(rec.to_json() + "\n" for rec in log)
    names: dict = {}
    for token_id in TOKEN_ID.findall(text):
        names.setdefault(token_id, f"token-{len(names)}")

    def rename(out: str) -> str:
        return TOKEN_ID.sub(lambda match: names[match[0]], out)

    outputs = {
        "events.jsonl": rename(text),
        "trace.txt": rename(trace_report(trace)),
        "goals.json": rename(json.dumps(trace.goal_snapshots, sort_keys=True, indent=2)),
    }
    for pid in policy_ids(log):
        outputs[f"{pid}.dot"] = rename(to_dot(reconstruct_process(log, pid)))
        outputs[f"{pid} with notifications.dot"] = rename(to_dot(reconstruct_process(log, pid, include_notifications=True)))
        outputs[f"{pid}.provjson"] = prov_graph(rename(export_prov_json(build_prov(log, pid)).decode("utf-8")))
    return text, outputs


def check_seed_only_names(scenario, seeds):
    (log_s, outputs_s), (log_t, outputs_t) = (renamed_outputs(scenario, seed) for seed in seeds)
    assert outputs_s == outputs_t
    assert log_s != log_t or not TOKEN_ID.search(log_s)  # the renaming is what makes them equal


@pytest.mark.parametrize("fixture", FIXTURES)
def test_the_seed_only_names_the_tokens_of_each_fixture(fixture):
    check_seed_only_names(fixture_path(fixture), (1, 2))


@settings(max_examples=100, deadline=None)
@given(SCENARIOS, SEED_PAIRS)
def test_the_seed_only_names_tokens(scenario, seeds):
    check_seed_only_names(scenario, seeds)
