"""Core domain types: addresses, token records, and their validation.

Every type is an immutable value and serializes to a flat JSON object with
snake_case keys; that flat form is the event-log record format.

A token class's dataclass declaration is the one statement of its fields; the
`_FieldTable` read from it drives encoding, decoding, both validators and
the record keys and types the log writes a token's JSON text from.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Optional, get_type_hints

DEFAULT_PHASES = ("agenda-setting", "analysis")


class ArtifactNature(str, Enum):
    DATA = "data"
    DOCUMENT = "document"
    DECISION = "decision"
    REQUIRED_ACTION = "required-action"


class StakeholderNature(str, Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


class CommunicationPattern(str, Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    SYNCHRONOUS_PARALLEL = "synchronous-parallel"
    ASYNCHRONOUS_PARALLEL = "asynchronous-parallel"

    @classmethod
    def combine(cls, base: "CommunicationPattern", parallel: bool) -> "CommunicationPattern":
        """Combination flag only pairs synchronous/asynchronous with parallel."""
        if not parallel:
            return base
        if base is cls.SYNCHRONOUS:
            return cls.SYNCHRONOUS_PARALLEL
        if base is cls.ASYNCHRONOUS:
            return cls.ASYNCHRONOUS_PARALLEL
        if base is cls.PARALLEL:
            return base
        raise ValueError(f"{base.value} cannot combine with parallel")


class TokenKind(str, Enum):
    TASK_HANDOFF = "task-handoff"
    APPROVAL_REQUEST = "approval-request"
    APPROVAL_RESPONSE = "approval-response"
    NOTIFICATION = "notification"


class PolicyStatus(str, Enum):
    ACTIVE = "active"
    TERMINATED = "terminated"


class Address(namedtuple("Address", ("network_id", "actor_id"))):
    """Routing address: a registered network and an actor within it. A tuple,
    so that its hash and equality, which every routing check and index runs,
    are the tuple's own C code."""

    __slots__ = ()

    def __new__(cls, network_id: str, actor_id: str) -> "Address":
        if not network_id or not actor_id:
            raise ValueError("address parts must be non-empty")
        return tuple.__new__(cls, (network_id, actor_id))

    def __str__(self) -> str:
        return f"{self.network_id}/{self.actor_id}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        network_id, sep, actor_id = text.partition("/")
        if not sep:
            raise ValueError(f"address must be 'network/actor': {text!r}")
        return cls(network_id, actor_id)


@dataclass
class PolicyRef:
    policy_id: str
    status: PolicyStatus = PolicyStatus.ACTIVE


@dataclass(frozen=True)
class LocalToken:
    """Record of a task an actor performed without routing anything."""

    token_id: str
    policy_id: str
    phase_id: str
    goal_id: str
    seq_num: int
    task: str
    task_input: str
    nature_of_task_input: ArtifactNature
    task_output: str
    nature_of_task_output: ArtifactNature
    task_description: str
    who_carried_out: Address
    nature_of_stakeholders: StakeholderNature
    data_details: str
    source_of_evidence: str
    timestamp: int
    data_reference: Optional[str] = None

    def to_record(self) -> dict:
        return _encode(self)

    @classmethod
    def from_record(cls, rec: dict, addresses: Optional[dict] = None) -> "LocalToken":
        """The token a `to_record` dict describes; see `_decode` for `addresses` and the errors."""
        return _decode(cls, rec, addresses)


@dataclass(frozen=True)
class RoutedToken:
    """Inter-actor message carrying task provenance plus routing addresses."""

    token_id: str
    policy_id: str
    phase_id: str
    goal_id: str
    seq_num: int
    previous_task: str
    previous_task_output: str
    nature_of_task_output: ArtifactNature
    task_description: str
    communication_pattern: CommunicationPattern
    nature_of_stakeholders: StakeholderNature
    data_details: str
    source_of_evidence: str
    communication_with: Address
    timestamp: int
    source_address: Address
    destination_address: Address
    kind: TokenKind
    required_action: Optional[str] = None
    data_reference: Optional[str] = None

    def to_record(self) -> dict:
        return _encode(self)

    @classmethod
    def from_record(cls, rec: dict, addresses: Optional[dict] = None) -> "RoutedToken":
        """The token a `to_record` dict describes; see `_decode` for `addresses` and the errors."""
        return _decode(cls, rec, addresses)


@dataclass(frozen=True)
class DataRecord:
    """Content-addressed payload; data_id is the SHA-256 of the payload."""

    data_id: str
    payload: bytes
    media_hint: str
    created_by: Address
    timestamp: int

    def to_record(self) -> dict:
        return {
            "data_id": self.data_id,
            "media_hint": self.media_hint,
            "created_by": str(self.created_by),
            "timestamp": self.timestamp,
            "size": len(self.payload),
        }


def content_hash(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# What a field of each declared type may hold, by exact type (a bool is no int);
# an enum or `Address` field holds only its own type. Decoding and validation share it.
_HOLDS = {int: (int,), str: (str,), Optional[str]: (str, type(None))}


class _FieldTable:
    """A token class's fields, their order and types, read once from its dataclass declaration."""

    def __init__(self, cls):
        hints = get_type_hints(cls)
        # Field order, each optional field at its default; `to_record` and
        # `vars()` keep this order.
        self.defaults = {f.name: f.default for f in fields(cls)}
        names = list(self.defaults)
        self.required = frozenset(n for n, default in self.defaults.items() if default is MISSING)
        # Each field with the types it may hold; `typed` keeps those a record holds
        # as they are (`timestamp` orders a token, `seq_num` names its activity).
        self.holds = tuple((n, _HOLDS.get(hints[n], (hints[n],))) for n in names)
        self.typed = tuple((n, _HOLDS[hints[n]]) for n in names if hints[n] in _HOLDS)
        self.text = tuple(n for n in names if hints[n] is str)
        self.addresses = tuple(n for n in names if hints[n] is Address)
        self.enums = tuple(
            (n, hints[n], {member.value: member for member in hints[n]})
            for n in names if isinstance(hints[n], type) and issubclass(hints[n], Enum)
        )
        covered = {*(n for n, _ in self.typed), *self.addresses, *(n for n, _, _ in self.enums)}
        if covered != set(names):
            raise TypeError(f"{cls.__name__} fields of no known type: {sorted(set(names) - covered)}")
        # The record's keys in sorted order, each with its declared type.
        self.sorted_types = tuple((n, hints[n]) for n in sorted(names))


def _encode(token) -> dict:
    """The token's record: fields in declaration order (as `vars` holds them), enums as values, addresses as text."""
    table = _TABLES[type(token)]
    rec = vars(token).copy()
    for name, _, _ in table.enums:
        rec[name] = rec[name]._value_  # the member's attribute; `.value` is a property
    for name in table.addresses:
        rec[name] = str(rec[name])
    return rec


def record_fields(cls) -> tuple:
    """A token class's record keys in sorted order, each with its declared type."""
    return _TABLES[cls].sorted_types


def _decode(cls, rec: dict, addresses: Optional[dict]):
    """Decode `rec` as a `cls` token. `addresses` maps each address text seen
    so far to its `Address`, and is added to; a caller decoding many records
    passes one dict so that each distinct text is parsed once.

    Raises `ValueError` for a missing or extra field, a bad enum value or a bad
    address, and `TypeError` for the first int or text field holding a type
    `_HOLDS` does not allow, or an address that is not text.
    """
    table = _TABLES[cls]
    values = dict(table.defaults)
    values.update(rec)
    # required <= keys <= fields. The update added no key exactly when
    # keys <= fields; a record that then has every field, as `to_record`
    # writes it, needs no set comparison.
    if len(values) != len(table.defaults) or (len(rec) != len(values) and not table.required <= rec.keys()):
        missing, unknown = sorted(table.required - rec.keys()), sorted(rec.keys() - table.defaults.keys())
        raise ValueError(f"missing fields {missing}, unknown fields {unknown}")
    for name, holds in table.typed:
        if type(values[name]) not in holds:
            raise TypeError(f"{name} may not hold {values[name]!r}")
    for name, enum_cls, members in table.enums:
        member = members.get(values[name])
        if member is None:
            raise ValueError(f"{values[name]!r} is not a valid {enum_cls.__name__}")
        values[name] = member
    if addresses is None:
        addresses = {}
    for name in table.addresses:
        text = values[name]
        address = addresses.get(text)
        if address is None:
            if type(text) is not str:
                raise TypeError(f"{name} is not text: {text!r}")
            address = addresses[text] = Address.parse(text)
        values[name] = address
    return from_fields(cls, values)


def from_fields(cls, values: dict):
    """The `cls` token whose attributes are `values`: every field, in
    declaration order, holding what `cls(**values)` would store. Neither token
    class has a `__post_init__`, so this is that call without its per-field
    `object.__setattr__`; the token takes `values` itself as its `__dict__`."""
    token = object.__new__(cls)
    object.__setattr__(token, "__dict__", values)
    return token


_TABLES = {cls: _FieldTable(cls) for cls in (LocalToken, RoutedToken)}


@dataclass
class TokenValidation:
    ok: bool
    violations: list = field(default_factory=list)


# A notification is controller plumbing and may precede any goal or task, so
# it must fill only these of the text fields, which every other token fills.
_NOTIFICATION_MANDATORY = ("token_id", "policy_id", "task_description")


def _violations(token, mandatory) -> list:
    """The fields holding a type their declaration does not allow, in field
    order, then the `mandatory` fields left empty, then `seq_num` below 1."""
    values = vars(token)
    violations = []
    for name, holds in _TABLES[type(token)].holds:
        if type(values[name]) not in holds:
            violations.append(name)
    for name in mandatory:
        if not values[name] and name not in violations:
            violations.append(name)
    if "seq_num" not in violations and token.seq_num < 1:
        violations.append("seq_num")
    return violations


def validate_local_token(token: LocalToken) -> TokenValidation:
    """Check the local-token template invariants; never raises."""
    violations = _violations(token, _TABLES[LocalToken].text)
    return TokenValidation(not violations, violations)


def validate_routed_token(token: RoutedToken) -> TokenValidation:
    """Check the routed-token template invariants; never raises."""
    mandatory = _NOTIFICATION_MANDATORY
    if token.kind is not TokenKind.NOTIFICATION:
        mandatory += _TABLES[RoutedToken].text  # a field named twice is reported once
    violations = _violations(token, mandatory)
    if token.source_address == token.destination_address:
        violations.append("addresses")
    if token.communication_with != token.destination_address:
        violations.append("communication_with")
    return TokenValidation(not violations, violations)
