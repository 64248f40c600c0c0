"""Protocol documents of both kinds: their records, loading, parsing,
purification and emission.

A document is YAML describing a two-party protocol in the
two-machines-plus-channel register model.  A bit-commitment document gives
Alice's two initial preparations (one per committed bit), Bob's, the commit
and open rounds, and Bob's per-bit acceptance projectors; a coin-toss
document gives each party's preparation, rounds that alternate actors, and
each party's outcome rules "0", "1" and "invalid".  Every check on a
document runs once, in ``parse_protocol`` or ``parse_coin_protocol``;
``Protocol`` and ``CoinProtocol`` are plain records built from checked
parts.  Measurements inside rounds are legal in documents; the coin parser
and ``purify_protocol`` compile them away into ancilla entanglement so every
analysis runs on a closed unitary circuit.  This module is the only one that
reads or writes YAML.
"""

from __future__ import annotations

import ast
import math
import re
import reprlib
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np
import yaml
from yaml.composer import ComposerError
from yaml.constructor import SafeConstructor
from yaml.error import Mark
from yaml.events import (AliasEvent, DocumentEndEvent, DocumentStartEvent, MappingEndEvent,
                         MappingStartEvent, ScalarEvent, SequenceEndEvent, StreamEndEvent)

from . import qcore
from .qcore import GateOp, InvariantViolation, Partition, PureState

PROJECTOR_TOL = 1e-8
COMPLETENESS_TOL = 1e-8
PROBABILITY_DUST = 1e-9

ACTORS = ("alice", "bob")
BUILTIN_NAMES = ("bell-bc", "bb84-bc", "leaky-bc", "ideal-ct", "guess-ct")

KIND_COMMITMENT = "bit-commitment"
KIND_COIN = "coin-toss"
OUTCOME_LABELS = ("0", "1", "invalid")
_PARSER_OF = {KIND_COMMITMENT: "parse_protocol", KIND_COIN: "parse_coin_protocol"}


class ProtocolError(ValueError):
    """Document rejected; ``location`` is the field path of the problem."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def other_actor(actor: str) -> str:
    return "bob" if actor == "alice" else "alice"


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class MeasureOp:
    """Computational-basis measurement recording its result under a label."""

    targets: tuple
    result_id: str

    def __post_init__(self):
        object.__setattr__(self, "targets",
                           qcore._qubit_indices(self.targets, InvariantViolation))


@dataclass(frozen=True)
class Round:
    actor: str
    ops: tuple
    allow_consecutive: bool = False


@dataclass(frozen=True)
class Projector:
    """P = V V^dagger for an isometry V (2^k x rank) on an explicit, strictly
    increasing list of k qubits; a zero projector's V has no columns."""

    qubits: tuple
    isometry: np.ndarray

    def __post_init__(self):
        qubits = qcore._qubit_indices(self.qubits, InvariantViolation)
        if not qubits or list(qubits) != sorted(set(qubits)):
            raise InvariantViolation(f"projector qubits must strictly increase, got {qubits}")
        v = np.array(self.isometry, dtype=complex)
        if v.ndim != 2 or v.shape[0] != 2 ** len(qubits):
            raise InvariantViolation(
                f"isometry shape {v.shape} does not match {len(qubits)} qubits")
        self._own(qubits, v)

    @classmethod
    def _of(cls, qubits: tuple, v: np.ndarray) -> "Projector":
        """A Projector that takes ``v`` as it is, for a caller holding a fresh
        complex V of the right shape on an already sorted tuple of ints.  Only
        the isometry check runs; ``v`` becomes read-only."""
        rule = object.__new__(cls)
        rule._own(qubits, v)
        return rule

    def _own(self, qubits: tuple, v: np.ndarray):
        if not qcore._isometry_residual(v) <= PROJECTOR_TOL:
            raise InvariantViolation(f"projector is not an isometry within {PROJECTOR_TOL}")
        v.setflags(write=False)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "isometry", v)

    @property
    def matrix(self) -> np.ndarray:
        """V V^dagger, formed on each call."""
        return self.isometry @ self.isometry.conj().T

    def expectation(self, state: PureState) -> float:
        """<psi, P psi>, the probability that ``state`` passes P, the one
        place a probability is read from a projector.  A value in
        [-PROBABILITY_DUST, 0) is rounding and reads as 0.0; a lower value,
        or NaN, raises InvariantViolation."""
        # <psi, (V V^dagger) psi>, not ||V^dagger psi||^2: the two round
        # differently, and the report bytes are those of this form
        projected = qcore._apply_matrix(
            state.amplitudes, self.matrix, self.qubits, state.num_qubits)
        value = float(np.real(np.vdot(state.amplitudes, projected)))
        if not value >= -PROBABILITY_DUST:
            raise InvariantViolation(f"projector expectation {value!r} is not a probability")
        return max(value, 0.0)

    def lifted(self, space: tuple) -> np.ndarray:
        """V x I on ``space``, a sorted superset of ``qubits``, with its row
        axes moved into ``space``'s order."""
        rest = tuple(q for q in space if q not in self.qubits)
        order = self.qubits + rest
        eye = np.identity(2 ** len(rest))
        lifted = self.isometry[:, None, :, None] * eye[None, :, None, :]
        rows = lifted.reshape((2,) * len(space) + (-1,)).transpose(
            [order.index(q) for q in space] + [len(space)])
        return rows.reshape(2 ** len(space), -1)


class _Document:
    """The register and document frame shared by both protocol kinds."""

    def declared_counts(self) -> dict:
        """Qubit counts of the document header, ancillas excluded."""
        base = self.partition.num_qubits - len(self.ancilla_owners)
        return {
            "alice": sum(1 for q in self.partition.alice_qubits if q < base),
            "bob": sum(1 for q in self.partition.bob_qubits if q < base),
            "channel": len(self.partition.channel_qubits),
        }

    def _document(self, kind: str, **body) -> dict:
        """Document form: name, kind and qubits, then ``body``, then ancillas."""
        doc = {"name": self.name, "kind": kind, "qubits": self.declared_counts(), **body}
        if self.ancilla_owners:
            doc["ancillas"] = list(self.ancilla_owners)
        return doc


@dataclass(frozen=True)
class Protocol(_Document):
    """A parsed bit-commitment protocol over an explicit register partition."""

    name: str
    partition: Partition
    initial_alice: tuple          # (ops for b=0, ops for b=1)
    initial_bob_channel: tuple
    commit_rounds: tuple
    open_rounds: tuple
    verification: tuple           # (accept projector for b=0, for b=1)
    ancilla_owners: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def all_rounds(self) -> tuple:
        return self.commit_rounds + self.open_rounds

    @property
    def has_measurements(self) -> bool:
        return any(
            isinstance(op, MeasureOp) for rnd in self.all_rounds for op in rnd.ops)


@dataclass(frozen=True)
class CoinProtocol(_Document):
    """Alternating-round coin protocol with three-way outcome rules.

    ``outcome_rules`` maps each actor to projectors labeled "0", "1" and
    "invalid" that partition the actor's end-of-protocol holding: the last
    sender reads only their machine, the other party may also read the
    channel they just received.  The record checks nothing: the parser checks
    this once, and truncation keeps it (see the ``cointoss`` module docstring).
    """

    name: str
    partition: Partition
    initial_alice: tuple
    initial_bob: tuple
    rounds: tuple
    outcome_rules: dict
    ancilla_owners: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


# ---------------------------------------------------------------------------
# document loading


_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml's emitter when PyYAML has it (see document_to_yaml)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_TAG = "tag:yaml.org,2002:"
# spellings on which SafeConstructor's int and float are exactly int() and float()
_DECIMAL = re.compile(r"[-+]?(?:0|[1-9][0-9]*)").fullmatch
_POINT_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?").fullmatch
# the bool spellings Resolver tags; any other plain scalar is a str unless it
# starts with one of _NON_STR_START or is a null, the forms Resolver may tag
# int, float, null, timestamp, merge or value
_BOOLS = {spelling: value for word, value in SafeConstructor.bool_values.items()
          for spelling in (word, word.capitalize(), word.upper())}
_NON_STR_START = frozenset("~.-+<=0123456789")
_NULLS = frozenset(("", "null", "Null", "NULL"))

# Deepest node a document may hold, the root being level 1.  A valid
# document's deepest node is at level 9: a number in a RAW matrix's pair.
# Both composers recurse once per level: PyYAML's hits Python's recursion
# limit within a few hundred levels and libyaml's overflows the C stack
# within some tens of thousands, so 64 leaves room for any hand-written
# document and keeps both far from their limits.
_MAX_DEPTH = 64


def _cap_depth(loader):
    """Make ``loader`` refuse a node nested deeper than ``_MAX_DEPTH``.

    Both composers call the resolver's descend and ascend hooks once per
    node.  The safe loaders declare no path resolvers, so the hooks have
    nothing else to do.  They are closures set on the instance: methods
    counting in an attribute made composing about 7% slower.
    """
    depth = 0

    def descend_resolver(parent, index):
        nonlocal depth
        depth += 1
        if depth > _MAX_DEPTH:
            # a mark without source, as libyaml's, so both loaders say the same
            at = parent.start_mark
            raise ComposerError(
                None, None, f"found a node nested deeper than {_MAX_DEPTH} levels",
                Mark(at.name, at.index, at.line, at.column, None, None))

    def ascend_resolver():
        nonlocal depth
        depth -= 1

    loader.descend_resolver, loader.ascend_resolver = descend_resolver, ascend_resolver
    return loader


def _built(text: str):
    """The value SafeLoader gives ``text``, built from the parser's events.

    Untagged strings, bools, plain decimal ints, point floats, sequences and
    mappings are built here, each anchor registered before its collection's
    items, so an alias, recursive ones included, is the same object as in
    PyYAML.  Anything else returns None: a tag, a null, any other implicit
    scalar form (octal, ``.inf``, timestamps, merge and ``=`` keys, ...), a
    duplicate anchor or key, a second document or a node deeper than
    ``_MAX_DEPTH``.  A syntax error, an undefined alias, an unhashable key
    or an int too long for ``int()`` raises.  None is never a built value,
    so it also marks "no key yet".
    """
    loader = _YAML_LOADER(text)
    try:
        event = loader.get_event
        event()  # the stream's start
        if type(event()) is not DocumentStartEvent:  # an empty stream
            return None
        anchors = {}
        # (collection, pending key) of each enclosing collection; a new
        # node's level, the root's being 1, is one more than its length
        parents = []
        node, key = [], None  # the document holds its root as a list's item
        while True:
            e = event()
            kind = type(e)
            if kind is AliasEvent:
                value = anchors[e.anchor]
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                value = node
                node, key = parents.pop()
            elif kind is DocumentEndEvent:
                break
            elif e.tag is not None or e.anchor in anchors or len(parents) >= _MAX_DEPTH:
                return None
            elif kind is ScalarEvent:
                value = e.value
                if e.implicit[0]:  # plain; a quoted or block scalar is a str
                    if value[:1] in _NON_STR_START or value in _NULLS:
                        if _POINT_FLOAT(value):
                            value = float(value)
                        elif _DECIMAL(value):
                            value = int(value)
                        else:
                            return None
                    else:
                        value = _BOOLS.get(value, value)
                if e.anchor is not None:
                    anchors[e.anchor] = value
            else:  # a collection's start
                parents.append((node, key))
                node, key = {} if kind is MappingStartEvent else [], None
                if e.anchor is not None:
                    anchors[e.anchor] = node
                continue
            if type(node) is list:
                node.append(value)
            elif key is None:
                key = value
            elif key in node:
                return None
            else:
                node[key] = value
                key = None
        return node[0] if type(event()) is StreamEndEvent else None
    finally:
        loader.dispose()


def _load_yaml(text: str) -> dict:
    """The YAML mapping in ``text``; every document is loaded here.

    ``_YAML_LOADER`` scans and parses with libyaml's C code when PyYAML was
    built with it and with PyYAML's pure-Python scanner otherwise.  A
    document is built whole by ``_built`` from the parser's events or, on
    anything ``_built`` leaves or any error it meets, loaded again whole from
    the text by PyYAML (``get_single_data``, as ``yaml.load`` does, with a
    node nested deeper than ``_MAX_DEPTH`` refused while composing), so its
    value or error is PyYAML's own.  A document loads to the same dict, and
    an error reports the same line and column, with either loader; only the
    wording after the location differs (no source excerpt from libyaml).
    One form loads under the pure-Python scanner only: a flow entry with a
    space before an empty value (``a: {b :}``), which libyaml refuses.
    """
    try:
        data = _built(text)
    except Exception:  # PyYAML's own load below reports any error itself
        data = None
    if data is None:
        loader = _cap_depth(_YAML_LOADER(text))
        try:
            data = loader.get_single_data()
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "document"
            raise ProtocolError(f"YAML syntax error at {where}: {exc}") from exc
        except (ValueError, KeyError, AttributeError) as exc:
            # a scalar constructor's own error, which carries no mark: name the
            # innermost node PyYAML was building
            node = list(loader.recursive_objects)[-1]
            mark = node.start_mark
            raise ProtocolError(
                f"YAML value error at line {mark.line + 1}, column {mark.column + 1}: cannot "
                f"read {reprlib.repr(node.value)} as {node.tag.replace(_TAG, '!!')}") from exc
        finally:
            loader.dispose()
    if not isinstance(data, dict):
        raise ProtocolError("protocol document must be a mapping")
    return data


def _builtin_text(name: str) -> str:
    path = resources.files("qcheat").joinpath("builtins", f"{name}.yaml")
    return path.read_text(encoding="utf-8")


def resolve_document(source: str):
    """Builtin name (optionally with a parenthesized parameter) or file path.

    Returns (document dict, parameter overrides).
    """
    source = source.strip()
    overrides = {}
    if source.endswith(")") and "(" in source:
        name, _, arg = source[:-1].partition("(")
        name = name.strip()
        if name in BUILTIN_NAMES:
            try:
                value = float(arg)
            except ValueError:
                raise ProtocolError(
                    f"bad parameter value {arg!r} in {source!r}") from None
            data = _load_yaml(_builtin_text(name))
            params = data.get("params")
            if not isinstance(params, dict) or len(params) != 1:
                raise ProtocolError(
                    f"{name!r} does not take exactly one positional parameter")
            overrides = {next(iter(params)): value}
            return data, overrides
    if source in BUILTIN_NAMES:
        return _load_yaml(_builtin_text(source)), overrides
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProtocolError(
            f"{source!r} is neither a built-in protocol nor a readable file "
            f"({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            f"{source!r} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start} ({exc.reason})") from exc
    return _load_yaml(text), overrides


def document_kind(data: dict) -> str:
    """The kind a document declares; bit-commitment when it declares none."""
    kind = data.get("kind", KIND_COMMITMENT)
    if not isinstance(kind, str) or kind not in _PARSER_OF:
        raise ProtocolError(f"unknown document kind {kind!r}; expected "
                            f"{KIND_COMMITMENT} or {KIND_COIN}", "kind")
    return kind


def _load_with(parse, source: str, param_overrides):
    """``parse`` a resolved document; explicit overrides win over positional ones."""
    data, positional = resolve_document(source)
    return parse(data, param_overrides={**positional, **(param_overrides or {})})


# ---------------------------------------------------------------------------
# field accessors with location-bearing diagnostics


def _loc(parent, child):
    return f"{parent}.{child}" if parent else str(child)


def _req(data, key, loc):
    if key not in data:
        raise ProtocolError(f"missing required field {key!r}", loc)
    return data[key]


def _as_dict(value, loc):
    if not isinstance(value, dict):
        raise ProtocolError("expected a mapping", loc)
    return value


def _as_list(value, loc):
    if not isinstance(value, list):
        raise ProtocolError("expected a list", loc)
    return value


def _as_str(value, loc):
    if not isinstance(value, str):
        raise ProtocolError("expected a string", loc)
    return value


def _as_actor(value, loc, what):
    actor = _as_str(value, loc)
    if actor not in ACTORS:
        raise ProtocolError(f"{what} must be alice or bob, got {actor!r}", loc)
    return actor


def _as_count(value, loc):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProtocolError("expected a positive integer", loc)
    return value


def _section(data, key):
    """The top-level mapping at ``key``; only a missing key or null reads as empty."""
    value = data.get(key)
    return {} if value is None else _as_dict(value, key)


def _check_keys(data, allowed, loc):
    unknown = [k for k in data if k not in allowed]
    if unknown:
        raise ProtocolError(f"unknown field {unknown[0]!r}", loc)


def _as_number(value, loc):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("expected a number", loc)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ProtocolError("expected a finite number", loc)
    return value


# ---------------------------------------------------------------------------
# angle expressions

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}
# Longest angle string read.  An expression's syntax tree is at most one
# level deep per character, so within the cap ast.parse and _eval_expr stay
# far below Python's recursion limit whichever command parses the angle.
_MAX_ANGLE_CHARS = 500


def _eval_expr(node, env, loc, source):
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ProtocolError(f"unknown name {node.id!r} in angle {source!r}", loc)
        return float(env[node.id])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_expr(node.operand, env, loc, source)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
        left = _eval_expr(node.left, env, loc, source)
        right = _eval_expr(node.right, env, loc, source)
        try:
            return _BIN_OPS[type(node.op)](left, right)
        except ZeroDivisionError:
            raise ProtocolError(f"division by zero in angle {source!r}", loc) from None
    raise ProtocolError(
        f"unsupported construct in angle {source!r} (numbers, parameter names, "
        "+, -, *, /, ** only)", loc)


def _parse_angle(value, env, loc):
    if isinstance(value, bool):
        raise ProtocolError("angle must be a number or expression string", loc)
    if isinstance(value, (int, float)):
        return _as_number(value, loc)
    if isinstance(value, str):
        if len(value) > _MAX_ANGLE_CHARS:
            raise ProtocolError(f"angle expression {reprlib.repr(value)} is longer than "
                                f"{_MAX_ANGLE_CHARS} characters", loc)
        try:
            tree = ast.parse(value, mode="eval")
            angle = _eval_expr(tree.body, env, loc, value)
        except SyntaxError:
            raise ProtocolError(f"malformed angle expression {reprlib.repr(value)}",
                                loc) from None
        except RecursionError:  # under a caller's lowered recursion limit
            raise ProtocolError(f"angle expression {reprlib.repr(value)} nests too deeply "
                                "to evaluate", loc) from None
        except OverflowError:
            angle = math.inf
        return _as_number(angle, loc)
    raise ProtocolError("angle must be a number or expression string", loc)


# ---------------------------------------------------------------------------
# matrix literals: [re, im] pairs, flat row-major or nested by rows


def _parse_pair(entry, loc):
    if not isinstance(entry, list) or len(entry) != 2:
        raise ProtocolError("matrix entries must be [re, im] pairs", loc)
    return complex(_as_number(entry[0], loc), _as_number(entry[1], loc))


def _parse_matrix(node, loc):
    rows = _as_list(node, loc)
    if not rows:
        raise ProtocolError("empty matrix literal", loc)
    nested = isinstance(rows[0], list) and rows[0] and isinstance(rows[0][0], list)
    if nested:
        dim = len(rows)
        out = np.zeros((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            row = _as_list(row, loc)
            if len(row) != dim:
                raise ProtocolError(
                    f"matrix row {i} has {len(row)} entries, expected {dim}", loc)
            for j, entry in enumerate(row):
                out[i, j] = _parse_pair(entry, loc)
        return out
    dim = math.isqrt(len(rows))
    if dim * dim != len(rows):
        raise ProtocolError(
            f"flat matrix literal has {len(rows)} entries, not a square count", loc)
    flat = np.array([_parse_pair(entry, loc) for entry in rows], dtype=complex)
    return flat.reshape(dim, dim)


# ---------------------------------------------------------------------------
# ops and rounds

_OP_KEYS = ("gate", "targets", "angle", "matrix", "control_classical")
_MEASURE_KEYS = ("measure", "targets", "result_id")


def _parse_qubits(node, key, num_qubits, loc, allowed, describe):
    """The qubit list ``node[key]`` (``targets`` or ``qubits``): integers of
    the ``num_qubits``-qubit register within ``allowed``, in the order given."""
    at, word = _loc(loc, key), key[:-1]
    out = []
    for q in _as_list(_req(node, key, loc), at):
        if isinstance(q, bool) or not isinstance(q, int):
            raise ProtocolError(f"{key} must be integers", at)
        if not 0 <= q < num_qubits:
            raise ProtocolError(f"{word} {q} outside the {num_qubits}-qubit register", at)
        if q not in allowed:
            raise ProtocolError(f"{word} {q} is outside {describe}", at)
        out.append(q)
    return tuple(out)


@dataclass
class _Scope:
    """What a document's op lists parse against: its register partition, its
    angle environment, and the measurement results recorded so far."""

    partition: Partition
    env: dict
    results: dict = field(default_factory=dict)


def _parse_op(node, scope, loc, allowed, describe, actor):
    node = _as_dict(node, loc)
    num_qubits = scope.partition.num_qubits
    if "measure" in node:
        if actor is None:
            raise ProtocolError("measurements are not allowed here", loc)
        _check_keys(node, _MEASURE_KEYS, loc)
        if node["measure"] is not True:
            raise ProtocolError("measure must be the literal true", _loc(loc, "measure"))
        targets = _parse_qubits(node, "targets", num_qubits, loc, allowed, describe)
        if not targets:
            raise ProtocolError("measurement needs at least one target", loc)
        result_id = _as_str(_req(node, "result_id", loc), _loc(loc, "result_id"))
        if result_id in scope.results:
            raise ProtocolError(f"duplicate result_id {result_id!r}", _loc(loc, "result_id"))
        scope.results[result_id] = (actor, len(targets))
        return MeasureOp(targets, result_id)

    _check_keys(node, _OP_KEYS, loc)
    name = _as_str(_req(node, "gate", loc), _loc(loc, "gate"))
    if name not in qcore.GATE_NAMES:
        raise ProtocolError(f"unknown gate name {name!r}", _loc(loc, "gate"))
    targets = _parse_qubits(node, "targets", num_qubits, loc, allowed, describe)
    angle = None
    if "angle" in node:
        angle = _parse_angle(node["angle"], scope.env, _loc(loc, "angle"))
    matrix = None
    if "matrix" in node:
        matrix = _parse_matrix(node["matrix"], _loc(loc, "matrix"))
    control = None
    if "control_classical" in node:
        control = _as_str(node["control_classical"], _loc(loc, "control_classical"))
        if actor is None:
            raise ProtocolError("classical controls are not allowed here",
                                _loc(loc, "control_classical"))
        if control not in scope.results:
            raise ProtocolError(
                f"classical control references unknown or later result {control!r}",
                _loc(loc, "control_classical"))
        owner = scope.results[control][0]
        if owner != actor:
            raise ProtocolError(
                f"classical control {control!r} belongs to {owner}; only the "
                "measuring party may condition on it", _loc(loc, "control_classical"))
    try:
        return GateOp(name, targets, param=angle, matrix=matrix, control_classical=control)
    except InvariantViolation as exc:
        raise ProtocolError(str(exc), loc) from None


def _parse_ops(nodes, scope, loc, allowed, describe, actor=None):
    """The op list at ``loc``, targets within ``allowed``.

    Measurements and classical controls are legal only in a round, whose
    ``actor`` records and reads the results.
    """
    return tuple(_parse_op(node, scope, f"{loc}[{i}]", allowed, describe, actor)
                 for i, node in enumerate(_as_list(nodes, loc)))


def _parse_rounds(nodes, scope, loc, *, strict_alternation, prev_actor=None):
    rounds = []
    for i, node in enumerate(_as_list(nodes, loc)):
        rloc = f"{loc}[{i}]"
        node = _as_dict(node, rloc)
        _check_keys(node, ("actor", "ops", "allow_consecutive"), rloc)
        actor = _as_actor(_req(node, "actor", rloc), _loc(rloc, "actor"), "actor")
        allow_consecutive = node.get("allow_consecutive", False)
        if not isinstance(allow_consecutive, bool):
            raise ProtocolError("expected true or false", _loc(rloc, "allow_consecutive"))
        if actor == prev_actor:
            if strict_alternation:
                raise ProtocolError("rounds must strictly alternate actors", rloc)
            if not allow_consecutive:
                raise ProtocolError(
                    f"{actor} acts twice in a row; annotate allow_consecutive "
                    "if intended", rloc)
        ops = _parse_ops(_req(node, "ops", rloc), scope, _loc(rloc, "ops"),
                         scope.partition.holding(actor, actor),
                         f"{actor}'s machine or the channel", actor)
        rounds.append(Round(actor, ops, allow_consecutive))
        prev_actor = actor
    return tuple(rounds), prev_actor


# ---------------------------------------------------------------------------
# projector specs

_PROJECTOR_KEYS = ("qubits", "gates", "accept_states", "matrix", "zero")


def _parse_projector(spec, scope, loc, *, default_qubits, allowed, allow_zero=False):
    spec = _as_dict(spec, loc)
    _check_keys(spec, _PROJECTOR_KEYS, loc)
    if "qubits" in spec:
        qubits = _parse_qubits(spec, "qubits", scope.partition.num_qubits, loc, allowed,
                               "the allowed holding")
        if any(a >= b for a, b in zip(qubits, qubits[1:])) or not qubits:
            raise ProtocolError("qubits must be strictly increasing", _loc(loc, "qubits"))
    else:
        qubits = tuple(default_qubits)
    k = len(qubits)
    if k > qcore.MAX_SIDE_QUBITS:
        raise ProtocolError(f"projector on {k} qubits; the cap is {qcore.MAX_SIDE_QUBITS}", loc)

    forms = [key for key in ("zero", "matrix", "accept_states") if key in spec]
    if len(forms) != 1:
        raise ProtocolError(
            "projector spec needs exactly one of: matrix, accept_states, zero", loc)

    if "zero" in spec:
        if not allow_zero:
            raise ProtocolError("zero projectors are not allowed here", _loc(loc, "zero"))
        if spec["zero"] is not True:
            raise ProtocolError("zero must be the literal true", _loc(loc, "zero"))
        if "gates" in spec:
            raise ProtocolError("zero takes no gates", _loc(loc, "gates"))
        return Projector(qubits, np.zeros((2 ** k, 0), dtype=complex))

    if "matrix" in spec:
        if "gates" in spec:
            raise ProtocolError("give either a matrix or a gate list, not both",
                                _loc(loc, "gates"))
        return Projector(qubits, _literal_isometry(
            _parse_matrix(spec["matrix"], _loc(loc, "matrix")), k, _loc(loc, "matrix")))

    gates = _parse_ops(spec.get("gates", []), scope, _loc(loc, "gates"), qubits,
                       "the projector's qubit list")
    accepted = set()
    for s in _as_list(spec["accept_states"], _loc(loc, "accept_states")):
        s = _as_str(s, _loc(loc, "accept_states"))
        if len(s) != k or any(ch not in "01" for ch in s):
            raise ProtocolError(
                f"accept state {s!r} is not a {k}-bit string", _loc(loc, "accept_states"))
        if int(s, 2) in accepted:
            raise ProtocolError(f"accept state {s!r} repeats", _loc(loc, "accept_states"))
        accepted.add(int(s, 2))
    # V is C^dagger at the accepted columns; taking C's rows before the
    # conjugate copies no 2^k x 2^k matrix
    return Projector(qubits, qcore._circuit_matrix(gates, qubits)[sorted(accepted)].conj().T)


def _literal_isometry(matrix, k: int, loc) -> np.ndarray:
    """V with V V^dagger = ``matrix``, a user's projector literal on k qubits,
    checked first: its eigenvectors of eigenvalue 1, from one ``eigh``."""
    if matrix.shape != (2 ** k, 2 ** k):
        raise ProtocolError(
            f"projector matrix shape {matrix.shape} does not match {k} qubits", loc)
    if np.max(np.abs(matrix - matrix.conj().T)) > PROJECTOR_TOL:
        raise ProtocolError(f"projector is not Hermitian within {PROJECTOR_TOL}", loc)
    if np.max(np.abs(matrix @ matrix - matrix)) > PROJECTOR_TOL:
        raise ProtocolError(f"projector is not idempotent within {PROJECTOR_TOL}", loc)
    values, vectors = np.linalg.eigh(matrix)
    return vectors[:, values > 0.5]


# ---------------------------------------------------------------------------
# whole-document parsing

_TOP_KEYS = ("name", "kind", "qubits", "params", "initial",
             "commit_rounds", "open_rounds", "verify", "ancillas")


def _front_matter(document, kind, top_keys, overrides):
    """Kind, keys, header and params of a document of either kind.

    Returns (data, name, the document's ``_Scope``, ancilla owners,
    declared (alice, bob, channel) ranges, params).
    """
    data = _load_yaml(document) if isinstance(document, str) else document
    data = _as_dict(data, "")
    found = document_kind(data)
    if found != kind:
        raise ProtocolError(f"document kind {found!r} is not {kind}; {found} "
                            f"documents go through {_PARSER_OF[found]}", "kind")
    _check_keys(data, top_keys, "")

    name = _as_str(_req(data, "name", ""), "name")
    counts = _as_dict(_req(data, "qubits", ""), "qubits")
    _check_keys(counts, ("alice", "bob", "channel"), "qubits")
    na = _as_count(_req(counts, "alice", "qubits"), "qubits.alice")
    nb = _as_count(_req(counts, "bob", "qubits"), "qubits.bob")
    nc = _as_count(_req(counts, "channel", "qubits"), "qubits.channel")

    owners = [_as_actor(owner, f"ancillas[{i}]", "ancilla owner")
              for i, owner in enumerate(_as_list(data.get("ancillas", []), "ancillas"))]
    # refused before any qubit set is built: a count may be in the billions
    total = na + nb + nc + len(owners)
    if total > qcore.MAX_QUBITS:
        raise ProtocolError(f"{total} qubits declared; the register is capped at "
                            f"{qcore.MAX_QUBITS}", "qubits")

    declared = (frozenset(range(na)), frozenset(range(na, na + nb)),
                frozenset(range(na + nb, na + nb + nc)))
    partition = Partition(*declared)
    for owner in owners:
        partition = partition.add_ancilla(owner)

    params = {}
    for key, value in _section(data, "params").items():
        if str(key) == "pi":
            raise ProtocolError("pi names the constant in angles and cannot be declared",
                                "params.pi")
        params[str(key)] = _as_number(value, f"params.{key}")
    if overrides:
        unknown = [k for k in overrides if k not in params]
        if unknown:
            raise ProtocolError(f"override for undeclared parameter {unknown[0]!r}",
                                "params")
        params.update({k: _as_number(v, f"params.{k}") for k, v in overrides.items()})
    scope = _Scope(partition, {**params, "pi": math.pi})
    return data, name, scope, tuple(owners), declared, params


def parse_protocol(document, *, param_overrides=None) -> Protocol:
    """Parse and validate a bit-commitment document (YAML text or mapping)."""
    data, name, scope, owners, (decl_a, decl_b, decl_c), params = _front_matter(
        document, KIND_COMMITMENT, _TOP_KEYS, param_overrides)

    initial = _section(data, "initial")
    _check_keys(initial, ("alice0", "alice1", "bob_channel"), "initial")
    prep0, prep1 = (_parse_ops(initial.get(key, []), scope, f"initial.{key}", decl_a,
                               "alice's declared qubits") for key in ("alice0", "alice1"))
    prep_bc = _parse_ops(initial.get("bob_channel", []), scope, "initial.bob_channel",
                         decl_b | decl_c, "bob's declared qubits or the channel")

    commit_rounds, last = _parse_rounds(
        data.get("commit_rounds", []), scope, "commit_rounds", strict_alternation=False)
    open_rounds, _ = _parse_rounds(
        data.get("open_rounds", []), scope, "open_rounds", strict_alternation=False,
        prev_actor=last)

    verify = _section(data, "verify")
    _check_keys(verify, ("accept_b0", "accept_b1"), "verify")
    default_qubits = tuple(sorted(decl_b | decl_c))
    identity = None
    accept = []
    for key in ("accept_b0", "accept_b1"):
        if key in verify:
            accept.append(_parse_projector(
                verify[key], scope, f"verify.{key}", default_qubits=default_qubits,
                allowed=decl_b | decl_c))
        else:
            if identity is None:
                # the identity on one qubit lifts to the identity on all of
                # them, without a 2^|B∪C|-wide matrix
                identity = Projector(default_qubits[:1], np.eye(2))
            accept.append(identity)

    return Protocol(
        name=name, partition=scope.partition, initial_alice=(prep0, prep1),
        initial_bob_channel=prep_bc, commit_rounds=commit_rounds,
        open_rounds=open_rounds, verification=tuple(accept),
        ancilla_owners=owners, params=params)


def load_protocol(source: str, *, param_overrides=None) -> Protocol:
    """Resolve a builtin name or file path and parse it as bit commitment."""
    return _load_with(parse_protocol, source, param_overrides)


_COIN_TOP_KEYS = ("name", "kind", "qubits", "params", "initial", "rounds",
                  "outcomes", "ancillas")


def parse_coin_protocol(document, *, param_overrides=None) -> CoinProtocol:
    """Parse a coin-toss document; measurements are compiled away on entry."""
    data, name, scope, owners, declared, params = _front_matter(
        document, KIND_COIN, _COIN_TOP_KEYS, param_overrides)

    initial = _section(data, "initial")
    _check_keys(initial, ACTORS, "initial")
    prep_a, prep_b = (
        _parse_ops(initial.get(actor, []), scope, f"initial.{actor}", allowed,
                   f"{actor}'s declared qubits")
        for actor, allowed in zip(ACTORS, declared))

    rounds, _ = _parse_rounds(_req(data, "rounds", ""), scope, "rounds", strict_alternation=True)
    owners = list(owners)
    partition, rounds = _purify_round_list(scope.partition, owners, {}, rounds, "rounds")
    # outcome rules read the purified register, ancillas included
    scope = replace(scope, partition=partition)

    outcomes = _as_dict(_req(data, "outcomes", ""), "outcomes")
    _check_keys(outcomes, ACTORS, "outcomes")
    rules = {}
    for actor in ACTORS:
        section = _as_dict(_req(outcomes, actor, "outcomes"), f"outcomes.{actor}")
        labeled = {str(key): value for key, value in section.items()}
        if len(labeled) != len(section):
            raise ProtocolError("outcome labels repeat", f"outcomes.{actor}")
        unknown = [k for k in labeled if k not in OUTCOME_LABELS]
        if unknown:
            raise ProtocolError(
                f"outcome label must be 0, 1 or invalid, got {unknown[0]!r}",
                f"outcomes.{actor}")
        missing = [k for k in OUTCOME_LABELS if k not in labeled]
        if missing:
            raise ProtocolError(f"missing outcome label {missing[0]!r}", f"outcomes.{actor}")
        rules[actor] = {
            label: _parse_projector(
                labeled[label], scope, f"outcomes.{actor}.{label}",
                default_qubits=partition.holding(actor, None),
                allowed=partition.holding(actor, actor), allow_zero=True)
            for label in OUTCOME_LABELS
        }

    # each rule reads the actor's machine or the channel, and the channel
    # only when the actor did not send the last round
    sender = rounds[-1].actor if rounds else None
    for actor, actor_rules in rules.items():
        for label, rule in actor_rules.items():
            read = partition.channel_qubits.intersection(rule.qubits)
            if actor == sender and read:
                raise ProtocolError(f"{actor} outcome rule {label!r} reads qubit {min(read)} "
                                    "outside their holding", f"outcomes.{actor}.{label}")
        space = tuple(sorted({q for rule in actor_rules.values() for q in rule.qubits}))
        if len(space) > qcore.MAX_SIDE_QUBITS:
            raise ProtocolError(f"{actor} outcome rules read {len(space)} qubits; a rule "
                                f"space is capped at {qcore.MAX_SIDE_QUBITS}", f"outcomes.{actor}")
        # the rules' sum is W W^dagger, the identity exactly when W^dagger is an isometry
        w = np.hstack([rule.lifted(space) for rule in actor_rules.values()])
        if not qcore._isometry_residual(w.conj().T) <= COMPLETENESS_TOL:
            raise ProtocolError(f"{actor} outcome rules do not sum to the identity within "
                                f"{COMPLETENESS_TOL}", f"outcomes.{actor}")

    return CoinProtocol(
        name=name, partition=partition, initial_alice=prep_a,
        initial_bob=prep_b, rounds=rounds, outcome_rules=rules,
        ancilla_owners=tuple(owners), params=params)


def load_coin_protocol(source: str, *, param_overrides=None) -> CoinProtocol:
    """Resolve a builtin name or file path and parse it as a coin toss."""
    return _load_with(parse_coin_protocol, source, param_overrides)


# ---------------------------------------------------------------------------
# purification: compile measurements into ancilla entanglement


def purify_protocol(p: Protocol) -> Protocol:
    """Replace measurements by CNOTs onto fresh per-actor ancillas.

    Classically controlled gates become quantum-controlled on the recording
    ancillas (firing when every recorded bit is 1); the compiled protocol is
    measurement-free and reproduces the original's outcome distribution
    exactly, branch for branch.
    """
    if not p.has_measurements:
        return p
    partition = p.partition
    owners = list(p.ancilla_owners)
    recorded = {}
    partition, commit = _purify_round_list(
        partition, owners, recorded, p.commit_rounds, "commit_rounds")
    partition, opened = _purify_round_list(
        partition, owners, recorded, p.open_rounds, "open_rounds")
    return replace(p, partition=partition, commit_rounds=commit,
                   open_rounds=opened, ancilla_owners=tuple(owners))


def _purify_round_list(partition, owners, recorded, rounds, loc):
    """One compiler pass over the round list at field ``loc``, naming the op
    a refusal is at; mutates ``owners`` and ``recorded``."""
    new_rounds = []
    for i, rnd in enumerate(rounds):
        new_ops = []
        for j, op in enumerate(rnd.ops):
            if isinstance(op, MeasureOp):
                ancillas = []
                for target in op.targets:
                    anc = partition.num_qubits
                    if anc >= qcore.MAX_QUBITS:
                        raise ProtocolError(f"purification exceeds the {qcore.MAX_QUBITS}-"
                                            "qubit cap", f"{loc}[{i}].ops[{j}]")
                    partition = partition.add_ancilla(rnd.actor)
                    owners.append(rnd.actor)
                    ancillas.append(anc)
                    new_ops.append(GateOp("CX", (target, anc)))
                recorded[op.result_id] = tuple(ancillas)
            elif op.control_classical is not None:
                new_ops.append(_compile_control(op, recorded[op.control_classical],
                                                f"{loc}[{i}].ops[{j}]"))
            else:
                new_ops.append(op)
        new_rounds.append(Round(rnd.actor, tuple(new_ops), rnd.allow_consecutive))
    return partition, tuple(new_rounds)


def _compile_control(op: GateOp, ancillas, loc) -> GateOp:
    base = GateOp(op.kind, op.targets, param=op.param, matrix=op.matrix)
    if len(ancillas) == 1 and op.kind == "X":
        return GateOp("CX", (ancillas[0],) + op.targets)
    if len(ancillas) == 1 and op.kind == "Z":
        return GateOp("CZ", (ancillas[0],) + op.targets)
    total = len(ancillas) + len(op.targets)
    if total > qcore.MAX_RAW_TARGETS:
        raise ProtocolError(
            f"classically controlled {op.kind} needs {total} qubits as a raw "
            f"controlled gate; the basis caps raw gates at {qcore.MAX_RAW_TARGETS}", loc)
    unitary = qcore.gate_matrix(base)
    dim = 2 ** total
    block = unitary.shape[0]
    matrix = np.eye(dim, dtype=complex)
    matrix[dim - block:, dim - block:] = unitary
    return GateOp("RAW", tuple(ancillas) + op.targets, matrix=matrix)


# ---------------------------------------------------------------------------
# document emission (for the purify command and round-trip tests)


def _matrix_rows(matrix: np.ndarray):
    return [[[float(entry.real), float(entry.imag)] for entry in row]
            for row in np.asarray(matrix, dtype=complex)]


def _op_node(op):
    if isinstance(op, MeasureOp):
        return {"measure": True, "targets": list(op.targets),
                "result_id": op.result_id}
    node = {"gate": op.kind, "targets": list(op.targets)}
    if op.param is not None:
        node["angle"] = float(op.param)
    if op.matrix is not None:
        node["matrix"] = _matrix_rows(op.matrix)
    if op.control_classical is not None:
        node["control_classical"] = op.control_classical
    return node


def _round_node(rnd: Round):
    node = {"actor": rnd.actor, "ops": [_op_node(op) for op in rnd.ops]}
    if rnd.allow_consecutive:
        node["allow_consecutive"] = True
    return node


def _projector_node(proj: Projector):
    return {"qubits": list(proj.qubits), "matrix": _matrix_rows(proj.matrix)}


def _rule_node(rule: Projector):
    if not rule.isometry.shape[1]:
        return {"qubits": list(rule.qubits), "zero": True}
    return _projector_node(rule)


def protocol_to_document(p: Protocol) -> dict:
    """Serialize back to document form; angles appear fully evaluated."""
    return p._document(
        KIND_COMMITMENT,
        initial={
            "alice0": [_op_node(op) for op in p.initial_alice[0]],
            "alice1": [_op_node(op) for op in p.initial_alice[1]],
            "bob_channel": [_op_node(op) for op in p.initial_bob_channel],
        },
        commit_rounds=[_round_node(r) for r in p.commit_rounds],
        open_rounds=[_round_node(r) for r in p.open_rounds],
        verify={
            "accept_b0": _projector_node(p.verification[0]),
            "accept_b1": _projector_node(p.verification[1]),
        })


def coin_to_document(p: CoinProtocol) -> dict:
    return p._document(
        KIND_COIN,
        initial={
            "alice": [_op_node(op) for op in p.initial_alice],
            "bob": [_op_node(op) for op in p.initial_bob],
        },
        rounds=[_round_node(r) for r in p.rounds],
        outcomes={
            actor: {label: _rule_node(p.outcome_rules[actor][label])
                    for label in OUTCOME_LABELS}
            for actor in ACTORS
        })


def document_to_yaml(doc: dict) -> str:
    """``doc`` as YAML, emitted through ``_YAML_DUMPER``.

    libyaml's emitter and PyYAML's wrote the same bytes for every value
    tried.  They differ on some mapping keys that need quotes, such as
    ``''`` or one with escapes, which either may write as an explicit
    ``? key``; every document emitted here has plain field names as keys.
    """
    return yaml.dump(doc, Dumper=_YAML_DUMPER, sort_keys=False, default_flow_style=None,
                     width=10 ** 6)
