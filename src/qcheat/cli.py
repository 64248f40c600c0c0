"""Command-line frontend.

Every command resolves a protocol document (built-in name or file path),
runs one analysis, and emits a report whose bytes are a pure function of
the inputs: JSON with insertion-ordered keys and 17-significant-digit
floats, or CSV flattened from that JSON value.  Exit codes: 0 success,
2 rejected input (or out of memory), 3 a broken internal invariant.

The argument parser depends on no input, so the first ``main`` call of a
process builds it and later calls reuse it.  ``main`` dispatches on the
parsed command when it runs, by looking up ``_cmd_<command>``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import attack as attacks
from . import cointoss as coins
from . import document as doc
from . import protocol as proto
from .fidelity import (
    OVERLAP_BYTES,
    POVM_BYTE_BUDGET,
    fidelity_povm,
    fidelity_purification,
    povm_sample_bytes,
    sample_overlaps,
)
from .qcore import InvariantViolation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

DEFAULT_SEED = 7
POVM_SAMPLE_TOL = 1e-8
# sweep runs one attack per grid point
MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# deterministic serialization


class Report:
    """A finished report: a JSON value and the records its CSV rows flatten.

    ``records`` defaults to [value]; ``columns`` defaults to the first
    record's cells (see ``_csv_cells``).
    """

    def __init__(self, value, records=None, columns=None):
        self.value = value
        self.records = [value] if records is None else records
        self.columns = columns


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise InvariantViolation(f"non-finite value {value!r} in a report")
    return format(float(value), ".17g")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _render_json(value) -> str:
    """``value`` as indented JSON with floats pinned to %.17g.

    json.dumps formats floats with repr, so the tree is rendered by hand, in
    one pass that appends to a single list of fragments.  Scalars dispatch
    on their exact type; any other type (a numpy scalar, a subclass) takes
    ``_json_scalar``.  A key's text is json.dumps's text of ``str(key)``.
    """
    out = []
    _render_into(value, "\n", out)
    return "".join(out)


def _render_into(value, newline: str, out: list):
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out += (sep, encode_basestring_ascii(str(key)), ": ")
            _render_into(item, inner, out)
            sep = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render_into(item, inner, out)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    else:
        out.append(_json_scalar(value))


# exact types only: a bool is no int here, and a numpy scalar goes to _json_scalar
_SCALAR_TEXT = {
    float: _format_float,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _csv_cells(record: dict) -> dict:
    """A record's CSV cells: its scalar fields, and each map of scalars
    entry by entry as ``field_key``.  ``command``, lists and maps of maps
    stay JSON-only."""
    cells = {}
    for key, item in record.items():
        if isinstance(item, dict):
            if not any(isinstance(entry, (dict, list, tuple)) for entry in item.values()):
                cells.update((f"{key}_{sub}", entry) for sub, entry in item.items())
        elif key != "command" and not isinstance(item, (list, tuple)):
            cells[key] = item
    return cells


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    return str(value)


def _write_text(text: str, path) -> int:
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
    return len(data)


def emit_report(report: Report, fmt: str = "json", path=None) -> int:
    """Serialize one report and write it to ``path`` (stdout when None).

    Returns the number of bytes written.  The same report always yields
    the same bytes.
    """
    if fmt == "json":
        text = _render_json(report.value) + "\n"
    elif fmt == "csv":
        rows = [_csv_cells(record) for record in report.records]
        columns = report.columns or list(rows[0])
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for cells in rows:
            writer.writerow([_csv_cell(cells.get(column)) for column in columns])
        text = buffer.getvalue()
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return _write_text(text, path)


# ---------------------------------------------------------------------------
# document loading


# kind -> (parse, emit as a document, the commands that take the kind)
_KINDS = {
    doc.KIND_COMMITMENT: (
        lambda data, ov: doc.purify_protocol(doc.parse_protocol(data, param_overrides=ov)),
        doc.protocol_to_document, "simulate, attack, sweep, or fidelity"),
    doc.KIND_COIN: (
        lambda data, ov: doc.parse_coin_protocol(data, param_overrides=ov),
        doc.coin_to_document, "the cointoss command"),
}


def _resolve(source: str, want=None):
    """Resolve a document and dispatch on its kind; no other CLI code reads it.

    Returns (document, positional overrides, the kind's ``_KINDS`` entry).
    A document of a kind other than ``want`` is refused, naming the
    commands that take it.
    """
    data, overrides = doc.resolve_document(source)
    kind = doc.document_kind(data)
    if want not in (None, kind):
        raise doc.ProtocolError(
            f"{data.get('name', source)!r} is a {kind} document; use {_KINDS[kind][2]}")
    return data, overrides, _KINDS[kind]


def _load(source: str, want: str):
    data, overrides, (parse, _, _) = _resolve(source, want)
    return parse(data, overrides)


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(ns) -> Report:
    p = _load(ns.protocol, doc.KIND_COMMITMENT)
    custody = proto.commit_custody(p, ns.channel_custody)
    states = (proto.run_commit(p, 0), proto.run_commit(p, 1))
    delta = proto.commit_fidelity(p, custody, states)[0]
    # accept[b][c]: Bob's acceptance of claim c after an honest commit to b.
    # Each state is opened by donation, read, and dropped before the next
    # opens, so at most three registers are live.
    accept = []
    for state in states:
        opened = proto.open_state(p, state, donate=True)
        accept.append([proj.expectation(opened) for proj in p.verification])
        del opened
    value = {
        "command": "simulate",
        "protocol": p.name,
        "channel_custody": custody,
        "ancillas": len(p.ancilla_owners),
        "delta": delta,
        "honest_accept": {"0": accept[0][0], "1": accept[1][1]},
        "cross_accept": {"commit0_open1": accept[0][1], "commit1_open0": accept[1][0]},
    }
    return Report(value)


def _attack_fields(rep: attacks.AttackReport) -> dict:
    return {
        "delta": rep.delta,
        "fidelity": rep.fidelity,
        "achieved_overlap": rep.achieved_overlap,
        "honest_accept": {"0": rep.honest_accept[0], "1": rep.honest_accept[1]},
        "cheat_accept": rep.cheat_accept,
    }


def _cmd_attack(ns) -> Report:
    p = _load(ns.protocol, doc.KIND_COMMITMENT)
    rep = attacks.epr_attack(p, custody=ns.channel_custody)
    value = {"command": "attack", "protocol": rep.protocol_name,
             "channel_custody": rep.channel_custody, **_attack_fields(rep)}
    return Report(value)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be start:stop:count, got {text!r}") from None
    if count < 1:
        raise ValueError("grid count must be at least 1")
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"--grid: count {count} is over the cap of {MAX_GRID_POINTS} points")
    if not math.isfinite(stop - start):
        raise ValueError(f"grid bounds and their span must be finite, got {text!r}")
    return [float(x) for x in np.linspace(start, stop, count)]


_SWEEP_COLUMNS = ["param", "value", "delta", "fidelity", "achieved_overlap",
                  "honest_accept_0", "honest_accept_1", "cheat_accept", "error"]


def _cmd_sweep(ns) -> Report:
    grid = _parse_grid(ns.grid)
    data, _, _ = _resolve(ns.protocol, doc.KIND_COMMITMENT)
    points = attacks.attack_sweep(data, grid, param=ns.param, custody=ns.channel_custody)
    # _parse_grid refuses an empty grid, so there is a first point
    param = points[0].param
    items = [{"value": pt.value, "error": pt.error} if pt.report is None
             else {"value": pt.value, **_attack_fields(pt.report), "error": None}
             for pt in points]
    value = {
        "command": "sweep",
        "protocol": data.get("name"),
        "param": param,
        "points": items,
    }
    # every point may be an error row, so the columns are named here
    return Report(value, [{"param": param, **item} for item in items], _SWEEP_COLUMNS)


def _cmd_fidelity(ns) -> Report:
    samples = ns.povm_samples
    if samples < 0:
        raise ValueError("--povm-samples must be nonnegative")
    if samples and ns.seed < 0:
        raise ValueError("--seed must be nonnegative")
    p = _load(ns.protocol, doc.KIND_COMMITMENT)
    custody = proto.commit_custody(p, ns.channel_custody)
    held = len(proto._capped_side(p, "bob", custody))
    dim = 2 ** held
    need = povm_sample_bytes(dim, dim + 1) if samples else 0
    if need > POVM_BYTE_BUDGET:
        raise ValueError(
            f"--povm-samples: one random measurement on Bob's {held} qubits needs an "
            f"estimated {need} bytes, over the {POVM_BYTE_BUDGET}-byte sampling budget")
    if need + OVERLAP_BYTES * samples > POVM_BYTE_BUDGET:
        raise ValueError(
            f"--povm-samples: {samples} overlaps take {OVERLAP_BYTES * samples} bytes, which "
            f"with one measurement's estimated {need} is over the {POVM_BYTE_BUDGET}-byte "
            "sampling budget")
    delta, f_trace, rho0, rho1 = proto.commit_reductions(
        p, custody, (proto.run_commit(p, b) for b in (0, 1)))
    f_purif, _ = fidelity_purification(rho0, rho1)
    f_povm, _ = fidelity_povm(rho0, rho1)

    sample_min = None
    samples_ok = None
    if samples:
        # every measurement's overlap must sit at or above the minimum
        sample_min = min(sample_overlaps(rho0, rho1, dim + 1, samples, ns.seed))
        samples_ok = bool(sample_min >= f_povm - POVM_SAMPLE_TOL)

    value = {
        "command": "fidelity",
        "protocol": p.name,
        "channel_custody": custody,
        "delta": delta,
        "fidelity_trace": f_trace,
        "fidelity_purification": f_purif,
        "fidelity_povm": f_povm,
        "gap_purification": abs(f_trace - f_purif),
        "gap_povm": abs(f_trace - f_povm),
        "seed": ns.seed,
        "povm_samples": samples,
        "povm_sample_min": sample_min,
        "povm_samples_ok": samples_ok,
    }
    return Report(value)


def _cmd_cointoss(ns) -> Report:
    coins._check_tol(ns.ideal_tol, "--ideal-tol")
    cp = _load(ns.protocol, doc.KIND_COIN)
    verdict = coins.induction_report(
        cp, tol=ns.ideal_tol, allow_mixed_invalid=ns.allow_mixed_invalid)
    steps = []
    for step in verdict.steps:
        t = step.triple
        steps.append({
            "round": step.round_index,
            "sender": step.sender,
            "f01": t.f01,
            "f0_invalid": t.f0inv,
            "f1_invalid": t.f1inv,
            "present": list(t.present),
        })
    value = {
        "command": "cointoss",
        "protocol": cp.name,
        "rounds": verdict.rounds,
        "verdict": verdict.verdict,
        "outcome_distribution": verdict.outcome_distribution,
        "steps": steps,
        "mutual_information": verdict.mutual_information,
        "witness_round": verdict.witness_round,
        "witness_fidelity": verdict.witness_fidelity,
        "witness_pair": verdict.witness_pair,
        "message": verdict.message,
    }
    return Report(value)


def _cmd_purify(ns) -> str:
    data, overrides, (parse, to_document, _) = _resolve(ns.protocol)
    return doc.document_to_yaml(to_document(parse(data, overrides)))


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcheat",
        description="Simulate two-party quantum protocols and synthesize "
                    "Alice's cheating unitaries.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, *, custody=True, output=True):
        sp.add_argument(
            "--protocol", required=True, metavar="NAME_OR_PATH",
            help="built-in name, built-in with a value like leaky-bc(0.5), "
                 "or a document path")
        if custody:
            sp.add_argument(
                "--channel-custody", choices=("alice", "bob"), default=None,
                dest="channel_custody",
                help="who holds the channel at commit time "
                     "(default: the receiver of the last commit round)")
        if output:
            sp.add_argument("--output", choices=("json", "csv"), default="json",
                            help="report format (default: json)")
            sp.add_argument("--out", default=None, metavar="PATH",
                            help="write the report to PATH instead of stdout")

    sp = sub.add_parser(
        "simulate", help="run both honest commit/open flows and report "
                         "the hiding defect and acceptance table")
    common(sp)

    sp = sub.add_parser(
        "attack", help="synthesize Alice's cheating unitary and score it")
    common(sp)

    sp = sub.add_parser("sweep", help="run the attack across a parameter grid")
    common(sp)
    sp.add_argument("--grid", required=True, metavar="START:STOP:COUNT",
                    help="inclusive linear grid, e.g. 0:1.5707963267948966:9")
    sp.add_argument("--param", default=None, metavar="NAME",
                    help="parameter to vary (default: the document's only one)")

    sp = sub.add_parser(
        "fidelity", help="compare the trace, purification, and measurement "
                         "routes to the fidelity of Bob's two states")
    common(sp)
    sp.add_argument("--povm-samples", type=int, default=0, dest="povm_samples",
                    metavar="N", help="also score N random measurements "
                                      "against the minimizer (default: 0)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"random measurement seed (default: {DEFAULT_SEED})")

    sp = sub.add_parser(
        "cointoss", help="backward-induction analysis of a coin-toss document")
    common(sp, custody=False)
    sp.add_argument("--ideal-tol", type=float, default=coins.IDEAL_TOL,
                    dest="ideal_tol", metavar="TOL",
                    help="orthogonality threshold for truncation "
                         f"(default: {coins.IDEAL_TOL:g})")
    sp.add_argument("--allow-mixed-invalid", action="store_true",
                    dest="allow_mixed_invalid",
                    help="permit a mixed conditional state on the invalid outcome")

    sp = sub.add_parser(
        "purify", help="compile measurements into ancilla entanglement and "
                       "print the resulting document")
    common(sp, custody=False, output=False)
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the document to PATH instead of stdout")

    return parser


# built by the first main call and reused: the parser depends on no input
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        # looked up per call, so a rebound _cmd_* is the one that runs
        result = globals()[f"_cmd_{ns.command}"](ns)
        if isinstance(result, str):
            _write_text(result, ns.out)
        else:
            emit_report(result, ns.output, ns.out)
        return EXIT_OK
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
