"""Command line front end.

Each single-set subcommand (spectrum, evolve, fidelity, measure, graph,
pst-check, pst-search, route) is a handler of its typed inputs: it calls
the library and returns only the rest of its payload, with its CSV
columns where it has any (spectrum, evolve, measure).  One step,
``_single_set``, wraps all eight where ``build_parser`` registers them:
it parses --n, --omega, the element and the time once each, hands the
typed values to the handler, opens the payload with the command and the
canonical texts of the inputs (also the manifest's ``inputs``), emits it
and returns 0.  The arithmetic left in the handlers is small: ``evolve``
divides the amplitudes by 2ⁿ and reads each fidelity off as a modulus,
``evolve`` and ``fidelity`` take the exact mode on the quarter-period
grid, and ``measure`` picks its note from the time and the xor-sum.  The
surveys and oracle-verify name their own ``inputs``, which their payloads
do not hold.

Conventions shared by all subcommands:

  * the primary document goes to stdout as compact JSON, or to the file
    named by --out (``python -m json.tool`` pretty-prints it); surveys
    additionally print a short aligned summary to stderr so long runs stay
    legible,
  * --csv switches tabular subcommands (spectrum, evolve, measure) to CSV
    rows, on stdout or in the --out file, with the run manifest as one
    JSON line on stderr,
  * there is one emit path, ``_emit``, surveys included.  A list with one
    row per vertex (2ⁿ rows) or per survey finding never becomes Python
    dicts or strings: the command hands it over as token columns, uint8
    tables of JSON texts with a table row per list row (``jsontext.Rows``),
    and ``_emit`` renders the document and the CSV rows from them through
    one byte kernel, with the bytes json.dumps would write for the full
    payload,
  * a JSON document is the payload's canonical text (sorted keys, no
    whitespace) with its closing brace moved after a last key, the run
    manifest: argv, tool version, the inputs, seed where one applies,
    start/finish timestamps, and last the sha256 digest of that canonical
    text, so re-runs can be compared byte for byte and the digest checked
    by hashing the bytes before ``,"manifest":`` and a closing brace,
  * the manifest's ``env`` names the Python and numpy versions, and for
    oracle-verify the scipy version and the OPENBLAS_NUM_THREADS value
    scipy's BLAS loaded with, with who set it (see ``_load_scipy``),
  * exit codes: 0 success, 1 verification failure (an oracle or
    certificate check did not hold), 2 usage or input errors, 3 a survey
    found a violation, 141 stdout closed before the document was written
    (a reader such as ``head`` stopped early; nothing goes to stderr, and
    141 is what a shell reports for a process ended by SIGPIPE),
  * each subcommand imports the modules it runs when it runs, and this
    module imports only the standard library, so --version, --help and
    usage errors answer before numpy loads and ``spectrum`` never loads
    the survey, transfer, oracle or BFS modules.

Times are printed the way they are parsed: "pi/2", "3*pi/4", "pi", "0".
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

from . import __version__


# The exit code when the reader closes stdout early: 128 + SIGPIPE.
EXIT_STDOUT_CLOSED = 141
# Read once by OpenBLAS, when the library loads.
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _csv_text(columns: dict[str, Tokens]) -> Iterator[bytes | np.ndarray]:
    """CSV with one column per header, as csv.writer writes the values.

    Each column's table is rewritten once: a string column (binary labels
    and class names, which never hold a quote) loses its quotes, and a
    number column writes "null" as an empty cell.
    """
    import numpy as np

    from .jsontext import rendered

    cells = []
    for tokens in columns.values():
        table = tokens.table.copy()
        if table[0, 0] == ord('"'):
            table[table == ord('"')] = 0
        else:
            null = b"null".ljust(table.shape[1], b"\0")[:table.shape[1]]
            table[(table == np.frombuffer(null, np.uint8)).all(axis=1)] = 0
        cells.append(tokens._replace(table=table))
    yield (",".join(columns) + "\r\n").encode()
    yield from rendered([""] + [","] * (len(cells) - 1) + ["\r\n"], cells,
                        "", "")


def _document(payload: dict, manifest: dict
              ) -> Iterator[bytes | np.ndarray]:
    """The payload's canonical text, in the bytes-like pieces of
    ``jsontext.dumps``, with ``,"manifest":{...}`` spliced in before its
    closing brace, then a newline.  The manifest's last keys,
    ``finished`` and ``payload_sha256`` (of the canonical text, brace
    included), are filled in once the payload is out."""
    import hashlib

    from .jsontext import dumps

    sha = hashlib.sha256()
    pieces = dumps(payload)
    held = next(pieces)
    for piece in pieces:
        sha.update(held)
        yield held
        held = piece
    sha.update(held)
    yield held[:-1]
    manifest.update(finished=_utc_now(), payload_sha256=sha.hexdigest())
    yield b',"manifest":' + json.dumps(
        manifest, separators=(",", ":"), allow_nan=False).encode() + b"}\n"


def _emit(args: argparse.Namespace, payload: dict, inputs: dict, *,
          seed=None, csv: dict[str, Tokens] | None = None,
          env: dict | None = None, manifest_extra: dict | None = None
          ) -> dict:
    """Serialize one command result according to the output flags.

    ``Rows`` in the payload are spliced in as lists; ``csv`` maps each
    CSV header to one of their columns.  The JSON document is rendered
    once, as ``_document`` writes it.  A non-finite float raises
    ValueError (exit 2) before anything is written or --out is opened:
    ``canonical_dumps`` refuses one in the payload's text, ``numbers`` in
    its columns.
    ``env`` adds to the Python and numpy versions in ``manifest.env``.
    Returns the manifest.
    """
    import numpy as np

    manifest = {
        "tool": "cubewalk",
        "version": __version__,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, **(env or {})},
        "argv": list(args.raw_argv),
        "inputs": inputs,
        "seed": seed,
        "started": args.started_at,
        **(manifest_extra or {}),
    }
    if getattr(args, "csv", False) and csv is not None:
        from .jsontext import digest

        manifest.update(finished=_utc_now(), payload_sha256=digest(payload))
        pieces = _csv_text(csv)
        note = json.dumps({"manifest": manifest}, allow_nan=False)
    else:
        pieces = _document(payload, manifest)
        note = None
    # canonical_dumps refuses a non-finite float at the first piece: take
    # it before --out is opened, so an existing file keeps its bytes.  The
    # CSV manifest waits for --out to open, so an --out that cannot be
    # opened leaves only the error on stderr.
    pieces = itertools.chain([next(pieces)], pieces)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "wb") as handle:
                if note:
                    print(note, file=sys.stderr)
                handle.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        if note:
            print(note, file=sys.stderr)
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:  # a text stream, such as io.StringIO
            stream, pieces = sys.stdout, (str(p, "ascii") for p in pieces)
        try:
            sys.stdout.flush()
            stream.writelines(pieces)
            stream.flush()
        except BrokenPipeError:
            # The reader stopped early.  What is still buffered goes to
            # devnull, so the flush at exit cannot fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(EXIT_STDOUT_CLOSED) from None
    return manifest


def _angle_of(args: argparse.Namespace):
    """The time argument as a RationalAngle (--t-pi) or float (--t-real)."""
    from .bitspace import SetFormatError
    from .dynamics import RationalAngle

    if args.t_pi is not None:
        try:
            return RationalAngle.parse(args.t_pi)
        except ValueError as exc:
            raise SetFormatError(str(exc)) from None
    if not math.isfinite(args.t_real):
        raise ValueError(f"--t-real must be finite, got {args.t_real}")
    return args.t_real


def _single_set(handler):
    """The command step of the single-set command that ``handler`` answers.

    The step parses the inputs, each once, in the order errors are
    reported in: --n with --omega, then the element (--delta, --a,
    --source or --target; an absent or empty --a or --source is the zero
    vertex), then the time.  ``handler`` takes the typed values in that
    order and returns the rest of the payload, or that and its CSV columns.
    The canonical texts of the inputs, keyed as the payload keys, are the
    manifest's ``inputs`` and open the payload after the command.  The
    step emits the document and returns 0.
    """
    @functools.wraps(handler)
    def step(args: argparse.Namespace) -> int:
        from .bitspace import ConnectionSet, GroupElement

        given = vars(args)
        values = {}
        if "omega" in given:
            values["omega"] = ConnectionSet.parse(args.omega, args.n)
        for key in ("delta", "a", "source", "target"):
            if key in given:
                values[key] = (GroupElement.zero(args.n)
                               if key in ("a", "source") and not given[key]
                               else GroupElement.parse(given[key], args.n))
        if "t_pi" in given:
            values["time"] = _angle_of(args)
        inputs = {"n": args.n, **{key: v if isinstance(v, float) else str(v)
                                  for key, v in values.items()}}
        answer = handler(*values.values())
        body, csv = answer if isinstance(answer, tuple) else (answer, None)
        _emit(args, {"command": args.command, **inputs, **body}, inputs,
              csv=csv)
        return 0
    return step


def _complex_json(z: GaussianInteger | complex) -> dict:
    from .dynamics import GaussianInteger

    if isinstance(z, GaussianInteger):
        return {"re": z.re, "im": z.im}
    return {"re": float(z.real), "im": float(z.imag)}


# ── subcommands ───────────────────────────────────────────────────────────

def cmd_spectrum(omega: ConnectionSet) -> tuple[dict, dict]:
    import numpy as np

    from .jsontext import Rows, binary_texts, booleans, numbers, pick, slots
    from .spectral import classify_set

    report = classify_set(omega)
    columns = {
        "v": binary_texts(omega.n),
        "lambda": numbers(report.eigenvalues),
        "k": numbers(report.k, missing=~report.in_class),
        "congruence_class": pick(
            report.odd.astype(np.intp),
            [encode_basestring_ascii(c) for c in report.classes]),
        "ok": booleans(report.ok),
    }
    return {
        "d": omega.d,
        "u": str(omega.u),
        "case": report.case,
        "all_pass": report.all_pass,
        "eigenvalues": Rows(slots(*columns), [columns]),
    }, {"v_binary": columns["v"], "lambda": columns["lambda"],
        "k": columns["k"], "congruence_class": columns["congruence_class"]}


def cmd_evolve(omega: ConnectionSet, t: RationalAngle | float
               ) -> tuple[dict, dict]:
    import numpy as np

    from .dynamics import RationalAngle, all_amplitudes, exact_components
    from .jsontext import Rows, binary_texts, numbers, slot, slots

    size = 1 << omega.n
    exact = isinstance(t, RationalAngle) and t.is_quarter_exact
    if exact:
        re, im = exact_components(omega, t)
        amp = re + 1j * im
    else:
        amp = all_amplitudes(
            omega, t.radians if isinstance(t, RationalAngle) else t)
    fid = np.abs(amp) / size  # as all_fidelities: exact 0.0/1.0 on the grid
    amp = amp / size
    columns = {"delta": binary_texts(omega.n), "fidelity": numbers(fid),
               "re": numbers(amp.real), "im": numbers(amp.imag)}
    row = slots("delta", "fidelity")
    if exact:
        columns.update(exact_re=numbers(re), exact_im=numbers(im))
        row["amplitude_exact"] = {"re": slot("exact_re"),
                                  "im": slot("exact_im")}
    row["amplitude"] = {"re": slot("re"), "im": slot("im")}
    return {
        "mode": "exact" if exact else "float",
        "fidelities": Rows(row, [columns]),
    }, {"delta_binary": columns["delta"], "fidelity": columns["fidelity"],
        "re": columns["re"], "im": columns["im"]}


def cmd_fidelity(omega: ConnectionSet, delta: GroupElement,
                 t: RationalAngle | float) -> dict:
    from .dynamics import RationalAngle, all_fidelities, amplitude_exact

    exact = isinstance(t, RationalAngle) and t.is_quarter_exact
    body = {"mode": "exact" if exact else "float",
            "fidelity": float(all_fidelities(omega, t)[delta.bits])}
    if exact:
        body["amplitude_exact"] = _complex_json(
            amplitude_exact(omega, delta, t))
    return body


def cmd_measure(omega: ConnectionSet, start: GroupElement,
                t: RationalAngle | float) -> tuple[dict, dict]:
    from .dynamics import RationalAngle, measurement_distribution
    from .jsontext import Rows, binary_texts, numbers, slots

    dist = measurement_distribution(omega, start, t)
    columns = {"vertex": binary_texts(omega.n), "p": numbers(dist)}
    body = {"distribution": Rows(slots(*columns), [columns])}
    if isinstance(t, RationalAngle) and t.q == 2:
        # Odd multiple of pi/2 (p is odd in lowest terms): the outcome is
        # deterministic either way, which is what makes this time a
        # measurement-based detector for whether the xor-sum vanishes.
        if omega.u.bits == 0:
            body["note"] = ("xor-sum is zero: the walker is back at its "
                            "start with certainty at this time")
        else:
            body["note"] = ("the walker is at a xor u with certainty at "
                            "this time; away from the exact grid the "
                            "distribution spreads over the cube")
    return body, {"vertex_binary": columns["vertex"],
                  "probability": columns["p"]}


def cmd_graph(omega: ConnectionSet, source: GroupElement) -> dict:
    from .graphwalk import (bfs_profile, bipartite_functional,
                            is_complete_bipartite)
    from .jsontext import Rows, Tokens, binary_texts, numbers, slot, slots

    profile = bfs_profile(omega, source)
    functional = bipartite_functional(omega)
    parts = is_complete_bipartite(omega)
    labels = binary_texts(omega.n)
    distances = {"v": labels,
                 "dist": numbers(profile.dist, missing=profile.dist < 0)}
    return {
        "d": omega.d,
        "connected": profile.connected,
        "diameter": profile.diameter,
        "shells": profile.shell_sizes(),
        "distances": Rows(slots(*distances), [distances]),
        "bipartite": functional is not None,
        "bipartite_functional": str(functional) if functional else None,
        "complete_bipartite": list(parts) if parts else None,
        "antipodal": Rows(slot("v"), [
            {"v": Tokens(labels.table, profile.farthest())}])
        if profile.connected else None,
    }


def cmd_pst_check(omega: ConnectionSet) -> dict:
    from .pst import pst_at_half_pi

    cert = pst_at_half_pi(omega)
    body = {"d": omega.d, "u": str(omega.u), "pst": cert is not None}
    if cert is None:
        return {**body, "note": "revival at pi/2"}
    return {**body, "time": str(cert.time), "delta": str(cert.delta),
            "phase": _complex_json(cert.phase), "method": cert.method}


def cmd_pst_search(omega: ConnectionSet, delta: GroupElement) -> dict:
    from .pst import certify, decide_pst_exact

    found = decide_pst_exact(omega, delta)
    if found is None:
        return {"pst": False}
    cert = certify(omega, delta, found)
    return {"pst": True, "time": str(found),
            "phase": _complex_json(cert.phase), "method": cert.method}


def cmd_route(target: GroupElement) -> dict:
    from .pst import plan_route

    plan = plan_route(target.n, target)
    return {
        "base": plan.base.format(),
        "total_time": str(plan.total_time),
        "stages": [{
            "omega": s.omega.format(),
            "hop": str(s.hop),
            "time": str(s.time),
            "phase": _complex_json(s.certificate.phase),
        } for s in plan.stages],
    }


def _emit_survey(args: argparse.Namespace, report: ScanReport,
                 inputs: dict, seed=None) -> int:
    """Emit a survey report, its timings in the manifest only, then an
    aligned summary on stderr; ``digest`` there is the payload_sha256."""
    manifest = _emit(args, {"command": args.command,
                            "report": report.columnar_payload()},
                     inputs, seed=seed,
                     manifest_extra={"wall_time_s": report.wall_time_s,
                                     "sets_per_s": report.sets_per_s,
                                     "path": report.path})
    width = max(len(k) for k in report.summary) + 2
    print(f"{report.kind}  n={report.n}  wall={report.wall_time_s:.2f}s  "
          f"{report.sets_per_s:.0f} sets/s", file=sys.stderr)
    for key, val in [*report.summary.items(),
                     ("digest", manifest["payload_sha256"][:16])]:
        print(f"  {key:<{width}}{val}", file=sys.stderr)
    return 3 if report.violations else 0


def cmd_scan(args: argparse.Namespace) -> int:
    from .scanner import conjecture_scan, scan_sets

    survey = conjecture_scan if args.u_zero else scan_sets
    report = survey(args.n, d_min=args.d_min, d_max=args.d_max,
                    sample=args.sample, seed=args.seed)
    return _emit_survey(args, report, {"n": args.n, "filters": report.filters},
                        seed=args.seed if args.sample else None)


def cmd_audit(args: argparse.Namespace) -> int:
    from .scanner import antipodality_audit

    return _emit_survey(args, antipodality_audit(args.n), {"n": args.n})


def _load_scipy() -> dict:
    """Import scipy.linalg for the dense oracle; its ``env`` entries.

    scipy ships its own OpenBLAS, and on its default thread pool the
    oracle's ≤ 64 × 64 expm calls spend most of their time in thread
    contention: on 2 vCPUs one thread halved oracle-verify end to end.
    So scipy loads with OPENBLAS_NUM_THREADS=1, unless the user set the
    variable or scipy was loaded before this command (then its setting is
    unknown).  The library reads the variable once, when it loads, so
    os.environ is put back at once and later children and in-process
    callers see no change.
    """
    if "scipy" in sys.modules:
        threads = {"value": None, "set_by": "unknown"}
    elif BLAS_THREADS in os.environ:
        threads = {"value": os.environ[BLAS_THREADS], "set_by": "user"}
    else:
        threads = {"value": "1", "set_by": "cubewalk"}
        os.environ[BLAS_THREADS] = "1"
    try:
        import scipy.linalg
    finally:
        if threads["set_by"] == "cubewalk":
            del os.environ[BLAS_THREADS]
    return {"scipy": scipy.__version__, BLAS_THREADS: threads}


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    from .oracle import verify_equivalence

    # only the trials call scipy's expm
    env = _load_scipy() if args.trials > 0 else None
    result = verify_equivalence(trials=args.trials, pair_trials=args.pairs,
                                seed=args.seed, n_max=args.n_max)
    payload = {"command": "oracle-verify", **result}
    _emit(args, payload, {"trials": args.trials, "pairs": args.pairs,
                          "n_max": args.n_max}, seed=args.seed, env=env)
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

    def add(name, handler, help_text, *, set_args=True, time_args=False,
            csv_arg=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
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
                           help="CSV rows instead of JSON, the manifest "
                                "as one JSON line on stderr")
        p.add_argument("--out", help="write the JSON document"
                       + (", or with --csv the CSV rows," if csv_arg else "")
                       + " here instead of stdout")
        return p

    add("spectrum", _single_set(cmd_spectrum), "integer spectrum and "
        "congruence classes", csv_arg=True)

    add("evolve", _single_set(cmd_evolve), "fidelities (and amplitudes) for "
        "every offset at one time", time_args=True, csv_arg=True)

    p = add("fidelity", _single_set(cmd_fidelity), "fidelity at one offset "
            "and one time", time_args=True)
    p.add_argument("--delta", required=True, help="offset a xor b")

    p = add("measure", _single_set(cmd_measure), "position-measurement "
            "distribution at one time", time_args=True, csv_arg=True)
    p.add_argument("--a", help="start vertex (default all-zero)")

    p = add("graph", _single_set(cmd_graph), "distances, diameter, antipodal "
            "offsets, bipartite type")
    p.add_argument("--source", help="BFS source (default all-zero)")

    add("pst-check", _single_set(cmd_pst_check), "closed-form transfer test "
        "at pi/2")

    p = add("pst-search", _single_set(cmd_pst_search), "exact "
            "earliest-transfer decision for one offset")
    p.add_argument("--delta", required=True, help="offset to test")

    p = add("route", _single_set(cmd_route), "chain quarter-period hops to "
            "a target offset", set_args=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True, help="target offset, nonzero")

    p = add("scan", cmd_scan, "survey sets for transfer offsets",
            set_args=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u-zero", action="store_true",
                   help="restrict to xor-sum-zero sets (conjecture scan; "
                        "findings are counterexamples and exit 3)")
    p.add_argument("--d-min", type=int)
    p.add_argument("--d-max", type=int)
    p.add_argument("--sample", type=int,
                   help="sample this many sets instead of exhausting")
    p.add_argument("--seed", type=int, default=0)

    p = add("audit-antipodal", cmd_audit, "antipodality audit of every "
            "transfer offset", set_args=False)
    p.add_argument("--n", type=int, required=True)

    p = add("oracle-verify", cmd_oracle_verify, "drive the dense reference "
            "paths against the transform path", set_args=False)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=6)
    return parser


def _verification_errors() -> tuple[type[Exception], ...]:
    """The certificate and oracle failure types of the modules loaded.

    Only a module that was loaded can have raised one, so none is imported
    here; ``main`` evaluates this as the handler's exception propagates.
    """
    return tuple(getattr(sys.modules[module], name) for module, name in
                 (("cubewalk.pst", "CertificationError"),
                  ("cubewalk.oracle", "OracleMismatchError"))
                 if module in sys.modules)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    args.started_at = _utc_now()
    try:
        return args.handler(args)
    except _verification_errors() as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
