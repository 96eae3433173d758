"""Scripted multi-network simulation: scenario files, deterministic scheduler.

Actors are driven by ordered condition->actions rules. Delivery is synchronous
inside the scheduler, reactions run in FIFO order, and time triggers fire only
when no reaction is pending, so a (scenario, seed) pair always replays to a
byte-identical event log.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Union, get_type_hints

from .errors import CorruptLogError, RunawayScenarioError, ScenarioError, UnknownPolicyError
from .goals import Metric, MetricKind, goal_snapshots
from .model import DEFAULT_PHASES, Address, RoutedToken
from .network import NetworkEngine
from .storage import EventLog


@dataclass
class Rule:
    actor: Address
    trigger: dict
    actions: list[dict]
    once: bool = True
    rule_id: int = 0

    def matches(self, token: RoutedToken) -> bool:
        """Whether the `on_receive` trigger's keys hold; the runner only offers
        a receive rule its actor's own deliveries, and checks
        `task_description_contains` itself."""
        cond = self.trigger["on_receive"]
        if "kind" in cond and token.kind.value != cond["kind"]:
            return False
        if "from" in cond and str(token.source_address) != cond["from"]:
            return False
        if "required_action" in cond and token.required_action != cond["required_action"]:
            return False
        return True


@dataclass
class Scenario:
    name: str
    networks: dict[str, list[str]]
    links: list[tuple[str, str]]
    owner: Address
    phases: tuple[str, ...]
    goal_defs: dict[str, dict]
    rules: list[Rule]
    seed: int = 0
    expected: dict = field(default_factory=dict)


@dataclass
class RunTrace:
    """Summary of one run, a fold of its log alone (`trace_of`), so one log always gives one summary."""

    log: EventLog
    offsets: range
    goal_snapshots: dict[str, dict]
    receipt_summary: dict[str, int]
    log_hash: str


def load_scenario(source: Union[str, Path, dict]) -> Scenario:
    """Parse and fully validate a scenario; all cross-references resolved."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("the scenario is not a JSON object")

    networks: dict[str, list[str]] = {}
    for net in _shaped(raw.get("networks", []), list, "networks"):
        net = _shaped(net, dict, "network")
        network_id = net.get("id")
        actors = _shaped(net.get("actors", []), list, "network {!r}: actors", network_id)
        # An address is "network/actor", so neither id may hold a "/".
        for text in (network_id, *actors):
            if not isinstance(text, str) or not text or "/" in text:
                raise ScenarioError(f"network {network_id!r}: {text!r} is not a non-empty id without '/'")
        if len(set(actors)) != len(actors):
            raise ScenarioError(f"duplicate actor ids in network {network_id}")
        if network_id in networks:
            raise ScenarioError(f"duplicate network id {network_id}")
        networks[network_id] = list(actors)

    phases = tuple(_shaped(raw.get("phases", list(DEFAULT_PHASES)), list, "phases"))
    for phase in phases:
        if not isinstance(phase, str):
            raise ScenarioError(f"phase {phase!r} is not a string")
    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise ScenarioError(f"seed {seed!r} is not an integer")
    declared = {f"{n}/{a}" for n, actors in networks.items() for a in actors}

    def resolve(text, context: str) -> str:
        """`text`, which must be a declared actor's address."""
        if not isinstance(text, str) or text not in declared:
            raise ScenarioError(f"unresolved address {text!r} in {context}")
        return text

    owner = None
    if raw.get("owner"):
        owner = Address.parse(resolve(raw["owner"], "owner"))

    goal_defs = {}
    for ref, spec in _shaped(raw.get("goals", {}), dict, "goals").items():
        spec = _shaped(spec, dict, "goal {}", ref)
        for key in ("goal_id", "name"):
            if key not in spec:
                raise ScenarioError(f"goal {ref} has no {key}")
            if not isinstance(spec[key], str):
                raise ScenarioError(f"goal {ref}: {key} {spec[key]!r} is not a string")
        if spec.get("phase") not in phases:
            raise ScenarioError(f"goal {ref} uses unknown phase {spec.get('phase')}")
        metrics = _shaped(spec.get("metrics", []), list, "goal {}: metrics", ref)
        if not metrics:  # the goal engine refuses a goal that nothing can satisfy
            raise ScenarioError(f"goal {ref} has no metrics")
        metric_ids = []
        for i, metric in enumerate(metrics, 1):
            kind = _shaped(metric, dict, "goal {}: metric", ref).get("kind")
            if kind == "approval":
                resolve(metric.get("approver"), f"goal {ref}")
            elif kind != "artifact-delivery" or not metric.get("artifact"):
                raise ScenarioError(f"goal {ref}: metric {metric} is neither an approval nor an artifact delivery")
            elif not isinstance(metric["artifact"], str):
                raise ScenarioError(f"goal {ref}: artifact {metric['artifact']!r} is not a string")
            metric_id = _metric_id(spec["goal_id"], i, metric)
            if not isinstance(metric_id, str):
                raise ScenarioError(f"goal {ref}: metric_id {metric_id!r} is not a string")
            metric_ids.append(metric_id)
        if len(set(metric_ids)) != len(metric_ids):
            raise ScenarioError(f"goal {ref} has two metrics of one id: {metric_ids}")
        goal_defs[ref] = spec

    rules: list[Rule] = []
    for behavior in _shaped(raw.get("behaviors", []), list, "behaviors"):
        behavior = _shaped(behavior, dict, "behavior")
        actor = Address.parse(resolve(behavior.get("actor"), "behaviors"))
        where = f"rule for {actor}"
        for rule_raw in _shaped(behavior.get("rules", []), list, "{}: rules", where):
            trigger = _shaped(rule_raw, dict, "{}", where).get("trigger", {})
            if not isinstance(trigger, dict) or ("on_receive" not in trigger and "at_time" not in trigger):
                raise ScenarioError(f"rule for {actor} has no trigger")
            if "at_time" in trigger and type(trigger["at_time"]) is not int:
                raise ScenarioError(f"rule for {actor}: at_time {trigger['at_time']!r} is not an integer")
            on_receive = _shaped(trigger.get("on_receive", {}), dict, "{}: on_receive", where)
            for value in on_receive.values():
                if not isinstance(value, str):
                    raise ScenarioError(f"rule for {actor}: on_receive value {value!r} is not a string")
            actions = _shaped(rule_raw.get("actions", []), list, "{}: actions", where)
            if "policy" in trigger:
                if "at_time" not in trigger:
                    raise ScenarioError(f"rule for {actor} names a policy without an at_time trigger")
                if not isinstance(trigger["policy"], str) or not trigger["policy"]:
                    raise ScenarioError(f"rule for {actor} names policy {trigger['policy']!r}, not a policy id")
            if "from" in on_receive:
                resolve(on_receive["from"], where)
            for action in actions:
                do = _shaped(action, dict, "{}: action", where).get("do")
                try:
                    enum_values = _ACTIONS[do]
                except (KeyError, TypeError):  # TypeError: a `do` such as a list, which no key equals
                    raise ScenarioError(f"rule for {actor}: unknown action {do!r}") from None
                if do == "send_token":
                    resolve(action.get("to"), where)
                elif do == "define_goal":
                    if not isinstance(action.get("goal"), str) or action["goal"] not in goal_defs:
                        raise ScenarioError(f"rule for {actor} references unknown goal {action.get('goal')}")
                elif do in ("submit_policy", "put_data"):
                    for key in ("payload", "media_hint"):
                        if not isinstance(action.get(key, ""), str):
                            raise ScenarioError(f"rule for {actor}: {key} {action[key]!r} is not a string")
                for key, enum, values in enum_values:
                    if key in action and not (isinstance(action[key], str) and action[key] in values):
                        raise ScenarioError(f"rule for {actor}: {action[key]!r} is not a valid {enum.__name__}")
            once = rule_raw.get("once", True)
            if type(once) is not bool:
                raise ScenarioError(f"rule for {actor}: once {once!r} is not true or false")
            rules.append(Rule(actor, trigger, list(actions), once, len(rules)))

    links = []
    for link in _shaped(raw.get("links", []), list, "links"):
        if not isinstance(link, list) or [type(end) for end in link] != [str, str]:
            raise ScenarioError(f"link {link!r} is not a pair of network ids")
        a, b = link
        if a not in networks or b not in networks:
            raise ScenarioError(f"link references unknown network: {a} <-> {b}")
        links.append((a, b))

    return Scenario(
        name=raw.get("name", "scenario"),
        networks=networks,
        links=links,
        owner=owner,
        phases=phases,
        goal_defs=goal_defs,
        rules=rules,
        seed=seed,
        expected=raw.get("expected", {}),
    )


def _shaped(value, kind: type, what: str, context=None):
    """`value`, which must be a `kind`, dict or list; an error names it `what.format(context)`."""
    if not isinstance(value, kind):
        raise ScenarioError(f"{what.format(context)} {value!r} is not {'an object' if kind is dict else 'a list'}")
    return value


def _metric_id(goal_id: str, i: int, metric: dict) -> str:
    """The id of a goal's `i`-th metric (from 1): its `metric_id`, else `<goal_id>-m<i>`."""
    return metric.get("metric_id", f"{goal_id}-m{i}")


def _metrics_from(spec: dict) -> list[Metric]:
    metrics = []
    for i, m in enumerate(spec["metrics"], 1):
        metric_id = _metric_id(spec["goal_id"], i, m)
        if m["kind"] == "artifact-delivery":
            metrics.append(Metric(metric_id, MetricKind.ARTIFACT_DELIVERY, artifact_key=m["artifact"]))
        else:
            metrics.append(Metric(metric_id, MetricKind.APPROVAL, approver=Address.parse(m["approver"])))
    return metrics


class _Runner:
    def __init__(self, scenario: Scenario, system: NetworkEngine, step_budget: int):
        self.scenario = scenario
        self.system = system
        self.step_budget = step_budget
        self.pending: deque = deque()
        self.fired: set[int] = set()
        self.time_rules = sorted(
            (r for r in scenario.rules if "at_time" in r.trigger),
            key=lambda r: (r.trigger["at_time"], r.rule_id),
        )
        # A delivery only tries the receive rules of its destination, in rule_id
        # order, each with its needle (`task_description_contains`, or None).
        self.receive_rules: dict[Address, list[tuple[Optional[str], Rule]]] = {}
        for rule in scenario.rules:
            if "on_receive" in rule.trigger:
                needle = rule.trigger["on_receive"].get("task_description_contains")
                self.receive_rules.setdefault(rule.actor, []).append((needle, rule))
        system.on_delivered = self._on_delivered

    def _on_delivered(self, token: RoutedToken):
        text = token.task_description
        for needle, rule in self.receive_rules.get(token.destination_address, ()):
            if needle is not None and needle not in text:
                continue
            if rule.rule_id in self.fired and rule.once:
                continue
            if rule.matches(token):
                if rule.once:
                    self.fired.add(rule.rule_id)
                self.pending.append((rule, token))

    def run(self):
        steps = 0
        time_rules = deque(self.time_rules)
        while self.pending or time_rules:
            if not self.pending and time_rules[0].once and time_rules[0].rule_id in self.fired:
                time_rules.popleft()  # a delivery fired this once rule already; it takes no step
                continue
            steps += 1
            if steps > self.step_budget:
                descriptions = [self._describe(r) for r, _ in self.pending]
                descriptions += [self._describe(r) for r in time_rules]
                raise RunawayScenarioError(descriptions)
            if self.pending:
                rule, token = self.pending.popleft()
            else:
                rule, token = time_rules.popleft(), None
                if rule.once:
                    self.fired.add(rule.rule_id)
            self._execute(rule, token)

    @staticmethod
    def _describe(rule: Rule) -> str:
        return f"{rule.actor}:{json.dumps(rule.trigger, sort_keys=True)}"

    def _execute(self, rule: Rule, token: Optional[RoutedToken]):
        system = self.system
        if token is not None:
            policy_id = token.policy_id
        elif "policy" in rule.trigger:
            policy_id = rule.trigger["policy"]
            if policy_id not in system.policies:
                raise UnknownPolicyError(policy_id)
        else:
            policy_id = next(iter(system.policies), None)  # the first policy created
        for action in rule.actions:
            do = action.get("do")
            if do == "submit_policy":
                record = system.put_data(
                    action.get("payload", "").encode("utf-8"), rule.actor, action.get("media_hint", "")
                )
                policy, _, _ = system.notify_new_policy(record, rule.actor)
                policy_id = policy.policy_id
            elif do == "put_data":
                system.put_data(
                    action.get("payload", "").encode("utf-8"), rule.actor, action.get("media_hint", "")
                )
            elif do == "define_goal":
                spec = self.scenario.goal_defs[action["goal"]]
                system.define_goal(
                    policy_id,
                    spec["phase"],
                    spec["name"],
                    _metrics_from(spec),
                    by=rule.actor,
                    goal_id=spec["goal_id"],
                )
            elif do == "local_token":
                task = action.get("task", "")  # a missing task fails the engine's token validation
                defaults = {"task": task, "task_input": "", "task_output": "", "task_description": task}
                system.create_local_token(rule.actor, policy_id, **defaults | _token_fields(action, _TOKEN_KEYS[do]))
            elif do == "send_token":
                destination = Address.parse(action["to"])
                system.send_token(rule.actor, policy_id, destination, **_token_fields(action, _TOKEN_KEYS[do]))
            elif do == "decide":
                system.decide_continuation(policy_id, action.get("decision"), by=rule.actor)
            else:
                raise ScenarioError(f"unknown action {do!r}")


# The token fields a scenario action may set: the engine methods' own keyword
# arguments, each with its enum type if it has one (given as the value's
# string) and None if not.
_TOKEN_KEYS = {
    do: {key: hint if isinstance(hint, type) and issubclass(hint, Enum) else None
         for key, hint in get_type_hints(method).items() if key not in ("actor", "policy_id", "destination", "return")}
    for do, method in (("local_token", NetworkEngine.create_local_token), ("send_token", NetworkEngine.send_token))
}
# The actions a rule may take (`load_scenario` refuses any other `do`), each
# with its enum keys and the values each accepts: `load_scenario` checks
# those, so that `_token_fields` converts without fail.
_ACTIONS = {do: () for do in ("submit_policy", "put_data", "define_goal", "decide")} | {
    do: tuple((key, enum, frozenset(member.value for member in enum)) for key, enum in keys.items() if enum)
    for do, keys in _TOKEN_KEYS.items()
}


def _token_fields(action: dict, keys: dict) -> dict:
    """The action's keys that `keys` names, enum values converted; other keys are ignored."""
    return {key: keys[key](value) if keys[key] else value for key, value in action.items() if key in keys}


def run(
    scenario: Scenario,
    seed: Optional[int] = None,
    step_budget: int = 1000,
    log_path: Optional[Path] = None,
    data_root: Optional[Path] = None,
) -> RunTrace:
    """Execute the scheduler to quiescence and summarize the run."""
    system = build_system(scenario, seed=seed, log_path=log_path, data_root=data_root)
    try:
        _Runner(scenario, system, step_budget).run()
    finally:
        system.close()
    return trace_of(system.log)


def build_system(
    scenario: Scenario,
    seed: Optional[int] = None,
    log_path: Optional[Path] = None,
    data_root: Optional[Path] = None,
) -> NetworkEngine:
    system = NetworkEngine(
        phases=scenario.phases,
        seed=scenario.seed if seed is None else seed,
        owner=scenario.owner,
        log_path=log_path,
        data_root=data_root,
    )
    for network_id, actors in scenario.networks.items():
        system.register_network(network_id)
        for actor_id in actors:
            system.register_actor(network_id, actor_id)
    for a, b in scenario.links:
        system.link_networks(a, b)
    return system


def trace_of(log: EventLog) -> RunTrace:
    """A body it cannot read, a receipt's or a goal record's, is a `CorruptLogError`."""
    receipt_summary = Counter()
    for rec in log:
        if rec.event_kind == "receipt":
            outcome = rec.body.get("outcome")
            if type(outcome) is not str:
                raise CorruptLogError(f"offset {rec.offset}: receipt body has no text outcome: {outcome!r}")
            receipt_summary[outcome] += 1
    return RunTrace(
        log=log,
        offsets=range(len(log)),
        goal_snapshots=goal_snapshots(log),
        receipt_summary=dict(receipt_summary),
        log_hash=log.content_hash(),
    )


def trace_report(trace: RunTrace) -> str:
    """Chronological `A → B: kind (task)` listing, one line per delivery."""
    lines = []
    for rec in trace.log:
        if rec.event_kind != "routed-token-receive":
            continue
        body = rec.body
        src = body["source_address"].rpartition("/")[2]
        dst = body["destination_address"].rpartition("/")[2]
        line = f"{src} → {dst}: {body['kind']}"
        if body.get("task_description"):
            line += f" ({body['task_description']})"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
