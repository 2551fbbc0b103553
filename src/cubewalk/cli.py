"""Command line front end.

Thin adapters only: every subcommand parses its arguments, calls the
library, and serializes the result.  No math lives here.

Conventions shared by all subcommands:

  * the primary document goes to stdout as indented JSON, or to the file
    named by --out; surveys additionally print a short aligned summary to
    stderr so long runs stay legible,
  * --csv switches tabular subcommands (spectrum, evolve, measure) to CSV
    on stdout with the run manifest as one JSON line on stderr,
  * there is one emit path, ``_emit``.  A list with one row per vertex
    (2ⁿ rows) never becomes Python dicts: the command hands it over as
    numpy-rendered columns of JSON texts (``_Rows``), and ``_emit`` writes
    the indented document, the canonical text behind the digest and the
    CSV rows from those columns, splicing the rows into what json.dumps
    makes of the rest of the payload.  The bytes are the ones json.dumps
    would write for the full payload,
  * every JSON document embeds a run manifest: argv, tool version, the
    inputs, seed where one applies, start/finish timestamps, and a sha256
    digest of the canonical payload so re-runs can be compared byte for
    byte,
  * exit codes: 0 success, 1 verification failure (an oracle or
    certificate check did not hold), 2 usage or input errors, 3 a survey
    found a violation.

Times are printed the way they are parsed: "pi/2", "3*pi/4", "pi", "0".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bitspace import ConnectionSet, GroupElement, SetFormatError
from .dynamics import (GaussianInteger, RationalAngle, all_amplitudes,
                       all_fidelities, amplitude_exact, exact_components,
                       measurement_distribution)
from .graphwalk import (bfs_profile, bipartite_functional,
                        is_complete_bipartite)
from .oracle import OracleMismatchError, verify_equivalence
from .pst import (CertificationError, certify, decide_pst_exact, folded_cube,
                  plan_route, pst_at_half_pi)
from .scanner import (ScanReport, _joined_rows, _pick, antipodality_audit,
                      canonical_dumps, conjecture_scan, scan_sets)
from .spectral import classify_set


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


# Rows rendered per piece of output: bounds the text held at once.
_CHUNK = 1 << 16
# Marks a column value in a row template; JSON text never holds a raw NUL.
_SLOT = "\0"


class _Rows(dict):
    """A payload list with one JSON row per vertex, held as columns.

    Maps a key to the JSON texts of that field in every row, in row order;
    there is at least one row.  A dotted key ("amplitude.re") is a field of
    a nested object, and the single key "" makes each row the bare value.
    Every column is all JSON strings, or all numbers and nulls.
    """


def _numbers(values: np.ndarray, missing: np.ndarray | None = None
             ) -> list[str]:
    """JSON texts of an int or float column, "null" where ``missing``.

    Each distinct value is rendered once; floats are told apart by bit
    pattern, so -0.0 keeps its sign.  A non-finite float raises
    ValueError, as json.dumps(allow_nan=False) does.
    """
    keys = values
    if values.dtype.kind == "f":
        if not np.isfinite(values).all():
            raise ValueError("Out of range float values are not JSON "
                             "compliant")
        keys = values.view(np.int64)
    distinct, index = np.unique(keys, return_inverse=True)
    texts = list(map(repr, distinct.view(values.dtype).tolist()))
    if missing is not None:
        index[missing] = len(texts)
        texts.append("null")
    return _pick(index, texts)


def _binary_texts(n: int) -> list[str]:
    """JSON texts of every n-bit label in order: '"00"', '"01"', ..."""
    half = n // 2
    high = ['"' + format(x, f"0{n - half}b") for x in range(1 << (n - half))]
    low = [format(x, f"0{half}b") + '"' for x in range(1 << half)] \
        if half else ['"']
    return [h + lo for h in high for lo in low]


def _row_template(keys: Iterable[str], level: int | None
                  ) -> tuple[str, list[str]]:
    """One row as text with a _SLOT per field, and the keys in slot order.

    ``level`` is the nesting depth of the row in a document indented by
    two spaces; None gives the compact, key-sorted form of
    ``canonical_dumps``.
    """
    keys = list(keys)
    if keys == [""]:
        return _template("", level)
    tree: dict = {}
    for key in keys:
        *path, leaf = key.split(".")
        node = tree
        for name in path:
            node = node.setdefault(name, {})
        node[leaf] = key
    return _template(tree, level)


def _template(node: dict | str, level: int | None) -> tuple[str, list[str]]:
    if isinstance(node, str):
        return _SLOT, [node]
    if level is None:
        items, inner, close, colon = sorted(node.items()), "", "", ":"
    else:
        items, colon = node.items(), ": "
        inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    texts, order = [], []
    for name, sub in items:
        text, keys = _template(sub, None if level is None else level + 1)
        texts.append(encode_basestring_ascii(name) + colon + text)
        order += keys
    return "{" + inner + ("," + inner).join(texts) + close + "}", order


def _rows_text(rows: _Rows, indented: bool) -> Iterator[str]:
    """The JSON text of the list ``rows`` stands for, in pieces.

    Indented as json.dumps(indent=2) indents the value of a top-level key,
    or compact with sorted keys as ``canonical_dumps``.
    """
    template, keys = _row_template(rows, 2 if indented else None)
    yield "[\n    " if indented else "["
    yield from _joined_rows(template.split(_SLOT), [rows[k] for k in keys],
                            ",\n    " if indented else ",", _CHUNK)
    yield "\n  ]" if indented else "]"


def _marker(key: str) -> str:
    return "\0" + key + "\0"


def _spliced(text: str, tables: dict[str, _Rows],
             indented: bool) -> Iterator[str]:
    """``text`` in pieces, each table's marker replaced by its rows."""
    marks = sorted((text.index(json.dumps(_marker(key))), key)
                   for key in tables)
    done = 0
    for at, key in marks:
        yield text[done:at]
        yield from _rows_text(tables[key], indented)
        done = at + len(json.dumps(_marker(key)))
    yield text[done:]


def _csv_text(columns: dict[str, list[str]]) -> Iterator[str]:
    """CSV with one column per header, as csv.writer writes the values.

    String cells keep their JSON quotes until a piece of rows is joined,
    and each piece drops them in one pass, so no cell is copied: the
    string columns (binary labels and class names) never hold a quote.
    """
    cells = [texts if texts[0].startswith('"')
             else ["" if t == "null" else t for t in texts]
             for texts in columns.values()]
    yield ",".join(columns) + "\r\n"
    for piece in _joined_rows([""] + [","] * (len(cells) - 1) + ["\r\n"],
                              cells, "", _CHUNK):
        yield piece.replace('"', "")


def _emit(args: argparse.Namespace, payload: dict, inputs: dict, *,
          seed=None, csv: dict[str, list[str]] | None = None,
          manifest_extra: dict | None = None,
          summary_lines: list[str] | None = None) -> None:
    """Serialize one command result according to the output flags.

    Payload values that are ``_Rows`` are spliced in as lists; ``csv``
    maps each CSV header to one of their columns.  Documents are dumped
    with allow_nan=False, so a non-finite float raises ValueError (exit 2)
    before anything is written: ``_numbers`` checks its columns alike.
    """
    tables = {key: value for key, value in payload.items()
              if isinstance(value, _Rows)}
    marked = {key: _marker(key) if key in tables else value
              for key, value in payload.items()}
    digest = hashlib.sha256()
    for piece in _spliced(canonical_dumps(marked), tables, indented=False):
        digest.update(piece.encode())
    manifest = {
        "tool": "cubewalk",
        "version": __version__,
        "argv": list(args.raw_argv),
        "inputs": inputs,
        "seed": seed,
        "started": args.started_at,
        "finished": _utc_now(),
        "payload_sha256": digest.hexdigest(),
    }
    manifest.update(manifest_extra or {})
    if getattr(args, "csv", False) and csv is not None:
        pieces = _csv_text(csv)
        print(json.dumps({"manifest": manifest}, allow_nan=False),
              file=sys.stderr)
    else:
        text = json.dumps({**marked, "manifest": manifest}, indent=2,
                          allow_nan=False) + "\n"
        pieces = _spliced(text, tables, indented=True)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(pieces)
    if summary_lines:
        for line in summary_lines:
            print(line, file=sys.stderr)


def _angle_of(args: argparse.Namespace):
    """The time argument as a RationalAngle (--t-pi) or float (--t-real)."""
    if args.t_pi is not None:
        try:
            return RationalAngle.parse(args.t_pi)
        except ValueError as exc:
            raise SetFormatError(str(exc)) from None
    if not math.isfinite(args.t_real):
        raise ValueError(f"--t-real must be finite, got {args.t_real}")
    return args.t_real


def _gauss_json(z: GaussianInteger) -> dict:
    return {"re": z.re, "im": z.im}


def _phase_json(phase) -> dict:
    if isinstance(phase, GaussianInteger):
        return _gauss_json(phase)
    return {"re": float(phase.real), "im": float(phase.imag)}


# ── subcommands ───────────────────────────────────────────────────────────

def cmd_spectrum(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    report = classify_set(omega)
    rows = _Rows({
        "v": _binary_texts(args.n),
        "lambda": _numbers(report.eigenvalues),
        "k": _numbers(report.k, missing=~report.in_class),
        "congruence_class": _pick(
            report.odd.astype(np.intp),
            [encode_basestring_ascii(c) for c in report.classes]),
        "ok": _pick(report.ok.astype(np.intp), ["false", "true"]),
    })
    payload = {
        "command": "spectrum",
        "n": args.n,
        "omega": omega.format(),
        "d": omega.d,
        "u": str(omega.u),
        "case": report.case,
        "all_pass": report.all_pass,
        "eigenvalues": rows,
    }
    _emit(args, payload, {"n": args.n, "omega": omega.format()},
          csv={"v_binary": rows["v"], "lambda": rows["lambda"],
               "k": rows["k"], "congruence_class": rows["congruence_class"]})
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    t = _angle_of(args)
    size = 1 << args.n
    exact = isinstance(t, RationalAngle) and t.is_quarter_exact
    if exact:
        re, im = exact_components(omega, t)
        amp = re + 1j * im
    else:
        amp = all_amplitudes(
            omega, t.radians if isinstance(t, RationalAngle) else t)
    fid = np.abs(amp) / size  # as all_fidelities: exact 0.0/1.0 on the grid
    amp = amp / size
    rows = _Rows({"delta": _binary_texts(args.n), "fidelity": _numbers(fid)})
    if exact:
        rows["amplitude_exact.re"] = _numbers(re)
        rows["amplitude_exact.im"] = _numbers(im)
    rows["amplitude.re"] = _numbers(amp.real)
    rows["amplitude.im"] = _numbers(amp.imag)
    payload = {
        "command": "evolve",
        "n": args.n,
        "omega": omega.format(),
        "time": str(t) if isinstance(t, RationalAngle) else t,
        "mode": "exact" if exact else "float",
        "fidelities": rows,
    }
    _emit(args, payload,
          {"n": args.n, "omega": omega.format(), "time": payload["time"]},
          csv={"delta_binary": rows["delta"], "fidelity": rows["fidelity"],
               "re": rows["amplitude.re"], "im": rows["amplitude.im"]})
    return 0


def cmd_fidelity(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    delta = GroupElement.parse(args.delta, args.n)
    t = _angle_of(args)
    exact = isinstance(t, RationalAngle) and t.is_quarter_exact
    fid = all_fidelities(omega, t)
    payload = {
        "command": "fidelity",
        "n": args.n,
        "omega": omega.format(),
        "delta": str(delta),
        "time": str(t) if isinstance(t, RationalAngle) else t,
        "mode": "exact" if exact else "float",
        "fidelity": float(fid[delta.bits]),
    }
    if exact:
        payload["amplitude_exact"] = _gauss_json(
            amplitude_exact(omega, delta, t))
    _emit(args, payload, {"n": args.n, "omega": omega.format(),
                          "delta": str(delta), "time": payload["time"]})
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    start = GroupElement.parse(args.a, args.n) if args.a \
        else GroupElement.zero(args.n)
    t = _angle_of(args)
    dist = measurement_distribution(omega, start, t)
    rows = _Rows({"vertex": _binary_texts(args.n), "p": _numbers(dist)})
    payload = {
        "command": "measure",
        "n": args.n,
        "omega": omega.format(),
        "a": str(start),
        "time": str(t) if isinstance(t, RationalAngle) else t,
        "distribution": rows,
    }
    if isinstance(t, RationalAngle) and t.q == 2:
        # Odd multiple of pi/2 (p is odd in lowest terms): the outcome is
        # deterministic either way, which is what makes this time a
        # measurement-based detector for whether the xor-sum vanishes.
        if omega.u.bits == 0:
            payload["note"] = ("xor-sum is zero: the walker is back at its "
                               "start with certainty at this time")
        else:
            payload["note"] = ("the walker is at a xor u with certainty at "
                               "this time; away from the exact grid the "
                               "distribution spreads over the cube")
    _emit(args, payload,
          {"n": args.n, "omega": omega.format(), "a": str(start),
           "time": payload["time"]},
          csv={"vertex_binary": rows["vertex"], "probability": rows["p"]})
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    source = GroupElement.parse(args.source, args.n) if args.source \
        else GroupElement.zero(args.n)
    profile = bfs_profile(omega, source)
    functional = bipartite_functional(omega)
    parts = is_complete_bipartite(omega)
    labels = _binary_texts(args.n)
    payload = {
        "command": "graph",
        "n": args.n,
        "omega": omega.format(),
        "d": omega.d,
        "source": str(source),
        "connected": profile.connected,
        "diameter": profile.diameter,
        "shells": profile.shell_sizes(),
        "distances": _Rows({
            "v": labels,
            "dist": _numbers(profile.dist, missing=profile.dist < 0)}),
        "bipartite": functional is not None,
        "bipartite_functional": str(functional) if functional else None,
        "complete_bipartite": list(parts) if parts else None,
    }
    if profile.connected:
        far = np.flatnonzero(profile.dist == profile.diameter)
        payload["antipodal"] = _Rows({"": _pick(far, labels)})
    else:
        payload["antipodal"] = None
    _emit(args, payload, {"n": args.n, "omega": omega.format(),
                          "source": str(source)})
    return 0


def cmd_pst_check(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    cert = pst_at_half_pi(omega)
    payload = {
        "command": "pst-check",
        "n": args.n,
        "omega": omega.format(),
        "d": omega.d,
        "u": str(omega.u),
        "pst": cert is not None,
    }
    if cert is not None:
        payload["time"] = str(cert.time)
        payload["delta"] = str(cert.delta)
        payload["phase"] = _phase_json(cert.phase)
        payload["method"] = cert.method
    else:
        payload["note"] = "revival at pi/2"
    _emit(args, payload, {"n": args.n, "omega": omega.format()})
    return 0


def cmd_pst_search(args: argparse.Namespace) -> int:
    omega = ConnectionSet.parse(args.omega, args.n)
    delta = GroupElement.parse(args.delta, args.n)
    found = decide_pst_exact(omega, delta)
    payload = {
        "command": "pst-search",
        "n": args.n,
        "omega": omega.format(),
        "delta": str(delta),
        "pst": found is not None,
    }
    if found is not None:
        cert = certify(omega, delta, found)
        payload["time"] = str(found)
        payload["phase"] = _phase_json(cert.phase)
        payload["method"] = cert.method
    _emit(args, payload, {"n": args.n, "omega": omega.format(),
                          "delta": str(delta)})
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    target = GroupElement.parse(args.target, args.n)
    plan = plan_route(args.n, target)
    payload = {
        "command": "route",
        "n": args.n,
        "target": str(target),
        "base": plan.base.format(),
        "total_time": str(plan.total_time),
        "stages": [{
            "omega": s.omega.format(),
            "hop": str(s.hop),
            "time": str(s.time),
            "phase": _phase_json(s.certificate.phase),
        } for s in plan.stages],
    }
    _emit(args, payload, {"n": args.n, "target": str(target)})
    return 0


def _survey_summary(report: ScanReport) -> list[str]:
    label_width = max(len(k) for k in report.summary) + 2
    lines = [f"{report.kind}  n={report.n}  "
             f"wall={report.wall_time_s:.2f}s  "
             f"{report.sets_per_s:.0f} sets/s"]
    for key, val in report.summary.items():
        lines.append(f"  {key:<{label_width}}{val}")
    lines.append(f"  {'digest':<{label_width}}{report.digest()[:16]}")
    return lines


def _emit_survey(args: argparse.Namespace, report: ScanReport,
                 inputs: dict, seed=None) -> int:
    """Emit a survey report; its timings go in the manifest only."""
    _emit(args, {"command": args.command, "report": report.payload()},
          inputs, seed=seed,
          manifest_extra={"wall_time_s": report.wall_time_s,
                          "sets_per_s": report.sets_per_s,
                          "path": "batched"},
          summary_lines=_survey_summary(report))
    return 3 if report.violations else 0


def cmd_scan(args: argparse.Namespace) -> int:
    common = dict(d_min=args.d_min, d_max=args.d_max, sample=args.sample,
                  seed=args.seed)
    if args.u_zero:
        report = conjecture_scan(args.n, **common)
    else:
        report = scan_sets(args.n, **common)
    return _emit_survey(args, report, {"n": args.n, "filters": report.filters},
                        seed=args.seed if args.sample else None)


def cmd_audit(args: argparse.Namespace) -> int:
    return _emit_survey(args, antipodality_audit(args.n), {"n": args.n})


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    result = verify_equivalence(trials=args.trials, pair_trials=args.pairs,
                                seed=args.seed, n_max=args.n_max)
    payload = {"command": "oracle-verify", **result}
    _emit(args, payload, {"trials": args.trials, "pairs": args.pairs,
                          "n_max": args.n_max}, seed=args.seed)
    return 0 if result["ok"] else 1


# ── parser ────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubewalk",
        description="Perfect state transfer on cubelike graphs: exact "
                    "spectra, walk dynamics, transfer certificates, "
                    "routing, and surveys.")
    parser.add_argument("--version", action="version",
                        version=f"cubewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, set_args=True, time_args=False,
            csv_arg=False):
        p = sub.add_parser(name, help=help_text)
        if set_args:
            p.add_argument("--n", type=int, required=True,
                           help="dimension of the label space")
            p.add_argument("--omega", required=True,
                           help="comma-separated labels, n-bit binary "
                                "or 0x-hex")
        if time_args:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--t-pi", metavar="P/Q",
                             help="time as a rational multiple of pi")
            grp.add_argument("--t-real", type=float, metavar="T",
                             help="time in plain radians")
        if csv_arg:
            p.add_argument("--csv", action="store_true",
                           help="tabular output instead of JSON")
        p.add_argument("--out", help="write the JSON document here "
                                     "instead of stdout")
        return p

    add("spectrum", "integer spectrum and congruence classes", csv_arg=True)

    add("evolve", "fidelities (and amplitudes) for every offset at one "
        "time", time_args=True, csv_arg=True)

    p = add("fidelity", "fidelity at one offset and one time",
            time_args=True)
    p.add_argument("--delta", required=True, help="offset a xor b")

    p = add("measure", "position-measurement distribution at one time",
            time_args=True, csv_arg=True)
    p.add_argument("--a", help="start vertex (default all-zero)")

    p = add("graph", "distances, diameter, antipodal offsets, bipartite "
            "type")
    p.add_argument("--source", help="BFS source (default all-zero)")

    add("pst-check", "closed-form transfer test at pi/2")

    p = add("pst-search", "exact earliest-transfer decision for one offset")
    p.add_argument("--delta", required=True, help="offset to test")

    p = add("route", "chain quarter-period hops to a target offset",
            set_args=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True, help="target offset, nonzero")

    p = add("scan", "survey sets for transfer offsets", set_args=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u-zero", action="store_true",
                   help="restrict to xor-sum-zero sets (conjecture scan; "
                        "findings are counterexamples and exit 3)")
    p.add_argument("--d-min", type=int)
    p.add_argument("--d-max", type=int)
    p.add_argument("--sample", type=int,
                   help="sample this many sets instead of exhausting")
    p.add_argument("--seed", type=int, default=0)

    p = add("audit-antipodal", "antipodality audit of every transfer "
            "offset", set_args=False)
    p.add_argument("--n", type=int, required=True)

    p = add("oracle-verify", "drive the dense reference paths against the "
            "transform path", set_args=False)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=6)

    handlers = {
        "spectrum": cmd_spectrum,
        "evolve": cmd_evolve,
        "fidelity": cmd_fidelity,
        "measure": cmd_measure,
        "graph": cmd_graph,
        "pst-check": cmd_pst_check,
        "pst-search": cmd_pst_search,
        "route": cmd_route,
        "scan": cmd_scan,
        "audit-antipodal": cmd_audit,
        "oracle-verify": cmd_oracle_verify,
    }
    parser.set_defaults(handlers=handlers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    args.started_at = _utc_now()
    handler = args.handlers[args.command]
    try:
        return handler(args)
    except (CertificationError, OracleMismatchError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
