"""Network- and goal-based provenance tracking for ad-hoc policy processes.

Tokens created and routed at run time by per-network controllers are the unit
of provenance; goal metrics monitor process state; the PROV builder and the
process reconstructor recover the full policy process from the event log.
"""

from importlib import resources
from pathlib import Path

from .goals import Goal, GoalEngine, Metric, MetricKind
from .model import (
    Address,
    ArtifactNature,
    CommunicationPattern,
    DataRecord,
    LocalToken,
    PolicyRef,
    RoutedToken,
    StakeholderNature,
    TokenKind,
    validate_local_token,
    validate_routed_token,
)
from .network import DeliveryReceipt, NetworkEngine
from .prov import ProvDocument, build_prov, export_prov_json, token_to_prov_fragment
from .reconstruct import ProcessGraph, detect_loops, query, reconstruct_process, to_dot
from .simulation import RunTrace, Scenario, load_scenario, run, trace_report
from .storage import DataStore, EventLog, EventRecord

# The library name of the network engine, which is the whole service.
PolicySystem = NetworkEngine

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Path of a bundled scenario fixture, e.g. 'neighbourhood_safety'."""
    if not name.endswith(".json"):
        name += ".json"
    return Path(resources.files("policyprov") / "fixtures" / name)
