"""The columnar emitter against the dict-building renderer it replaced.

The reference commands below build every per-vertex list as Python dicts
and render them with json.dumps and csv.writer, as the CLI once did.  The
CLI must print the same bytes: the payload's canonical text up to its
closing brace, where the manifest follows, the payload digest and the CSV
rows.
"""

import csv
import hashlib
import io
import json
import random

import numpy as np
import pytest

from cubewalk import cli, dynamics, jsontext, spectral
from cubewalk.bitspace import ConnectionSet, GroupElement
from cubewalk.dynamics import (RationalAngle, all_amplitudes,
                               exact_components, measurement_distribution)
from cubewalk.graphwalk import (bfs_profile, bipartite_functional,
                                is_complete_bipartite)
from cubewalk.jsontext import canonical_dumps
from cubewalk.scanner import antipodality_audit, scan_sets
from cubewalk.spectral import Spectrum, classify_congruences, spectrum


# ── reference: one dict per entry ─────────────────────────────────────────

def _ref_spectrum(args):
    omega = ConnectionSet.parse(args.omega, args.n)
    report = spectral.classify_set(omega)  # read at call time: tests patch it
    entries = [{
        "v": format(e.v, f"0{args.n}b"),
        "lambda": e.eigenvalue,
        "k": e.k,
        "congruence_class": e.congruence_class,
        "ok": e.ok,
    } for e in report.entries]
    payload = {
        "command": "spectrum",
        "n": args.n,
        "omega": omega.format(),
        "d": omega.d,
        "u": str(omega.u),
        "case": report.case,
        "all_pass": report.all_pass,
        "eigenvalues": entries,
    }
    rows = [[e["v"], e["lambda"], e["k"], e["congruence_class"]]
            for e in entries]
    return payload, ["v_binary", "lambda", "k", "congruence_class"], rows


def _ref_evolve(args):
    omega = ConnectionSet.parse(args.omega, args.n)
    t = cli._angle_of(args)
    size = 1 << args.n
    exact = isinstance(t, RationalAngle) and t.is_quarter_exact
    if exact:
        re, im = exact_components(omega, t)
        amp = re + 1j * im
    else:
        amp = all_amplitudes(
            omega, t.radians if isinstance(t, RationalAngle) else t)
    fid = np.abs(amp) / size
    amp = amp / size
    entries = []
    for db in range(size):
        entry = {"delta": format(db, f"0{args.n}b"),
                 "fidelity": float(fid[db])}
        if exact:
            entry["amplitude_exact"] = {"re": int(re[db]), "im": int(im[db])}
        entry["amplitude"] = {"re": float(amp[db].real),
                              "im": float(amp[db].imag)}
        entries.append(entry)
    payload = {
        "command": "evolve",
        "n": args.n,
        "omega": omega.format(),
        "time": str(t) if isinstance(t, RationalAngle) else t,
        "mode": "exact" if exact else "float",
        "fidelities": entries,
    }
    rows = [[e["delta"], repr(e["fidelity"]), repr(e["amplitude"]["re"]),
             repr(e["amplitude"]["im"])] for e in entries]
    return payload, ["delta_binary", "fidelity", "re", "im"], rows


def _ref_measure(args):
    omega = ConnectionSet.parse(args.omega, args.n)
    start = GroupElement.parse(args.a, args.n) if args.a \
        else GroupElement.zero(args.n)
    t = cli._angle_of(args)
    dist = measurement_distribution(omega, start, t)
    entries = [{"vertex": format(v, f"0{args.n}b"), "p": float(dist[v])}
               for v in range(1 << args.n)]
    payload = {
        "command": "measure",
        "n": args.n,
        "omega": omega.format(),
        "a": str(start),
        "time": str(t) if isinstance(t, RationalAngle) else t,
        "distribution": entries,
    }
    if isinstance(t, RationalAngle) and t.q == 2:
        if omega.u.bits == 0:
            payload["note"] = ("xor-sum is zero: the walker is back at its "
                               "start with certainty at this time")
        else:
            payload["note"] = ("the walker is at a xor u with certainty at "
                               "this time; away from the exact grid the "
                               "distribution spreads over the cube")
    rows = [[e["vertex"], repr(e["p"])] for e in entries]
    return payload, ["vertex_binary", "probability"], rows


def _ref_graph(args):
    omega = ConnectionSet.parse(args.omega, args.n)
    source = GroupElement.parse(args.source, args.n) if args.source \
        else GroupElement.zero(args.n)
    profile = bfs_profile(omega, source)
    functional = bipartite_functional(omega)
    parts = is_complete_bipartite(omega)
    payload = {
        "command": "graph",
        "n": args.n,
        "omega": omega.format(),
        "d": omega.d,
        "source": str(source),
        "connected": profile.connected,
        "diameter": profile.diameter,
        "shells": profile.shell_sizes(),
        "distances": [{"v": format(v, f"0{args.n}b"),
                       "dist": int(profile.dist[v]) if profile.dist[v] >= 0
                       else None}
                      for v in range(1 << args.n)],
        "bipartite": functional is not None,
        "bipartite_functional": str(functional) if functional else None,
        "complete_bipartite": list(parts) if parts else None,
    }
    if profile.connected:
        far = np.nonzero(profile.dist == profile.diameter)[0]
        payload["antipodal"] = [format(int(v), f"0{args.n}b") for v in far]
    else:
        payload["antipodal"] = None
    return payload, None, None


REFERENCE = {"spectrum": _ref_spectrum, "evolve": _ref_evolve,
             "measure": _ref_measure, "graph": _ref_graph}


PARSER = cli.build_parser()


def _handle(argv):
    """``cli.main`` minus its per-call parser build, which dwarfs n <= 3."""
    args = PARSER.parse_args(argv)
    args.raw_argv, args.started_at = argv, cli._utc_now()
    return args.handler(args)


def _assert_same_bytes(capsys, argv, tmp_path=None):
    """Run ``argv`` through the CLI and check it against the reference."""
    payload, header, rows = REFERENCE[argv[0]](PARSER.parse_args(argv))
    assert _handle(argv) == 0
    out = capsys.readouterr().out
    text = canonical_dumps(payload)
    head, sep, _ = out.partition(',"manifest":')
    assert sep and head == text[:-1], argv
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert json.loads(out)["manifest"]["payload_sha256"] == digest, argv
    if header is not None:
        assert _handle(argv + ["--csv"]) == 0
        captured = capsys.readouterr()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        assert captured.out == buf.getvalue(), argv
        manifest = json.loads(captured.err)["manifest"]
        assert manifest["payload_sha256"] == digest, argv
    if tmp_path is not None:
        target = tmp_path / "doc.json"
        assert _handle(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        written = target.read_text()
        assert written.partition(',"manifest":')[0] == head, argv
        manifest = json.loads(written)["manifest"]
        assert manifest["payload_sha256"] == digest, argv


def _argvs(n, labels, rng):
    """Every columnar command on one set, at grid and off-grid times."""
    omega = ",".join(format(w, f"0{n}b") for w in labels)
    common = ["--n", str(n), "--omega", omega]
    vertex = format(rng.randrange(1 << n), f"0{n}b")
    return [["spectrum", *common],
            ["evolve", *common, "--t-pi", rng.choice(["1/2", "1", "3/2"])],
            ["evolve", *common, "--t-pi", "1/3"],
            ["evolve", *common, "--t-real", "0.7"],
            ["measure", *common, "--t-pi", "1/2", "--a", vertex],
            ["measure", *common, "--t-real", "0.3"],
            ["graph", *common, "--source", vertex]]


def test_named_runs_are_byte_identical(capsys, tmp_path):
    for argv in (["spectrum", "--n", "3", "--omega", "001,010,111"],
                 ["evolve", "--n", "2", "--omega", "01,10", "--t-pi", "1/2"],
                 ["evolve", "--n", "3", "--omega", "001,110", "--t-pi",
                  "1/3"],
                 ["evolve", "--n", "3", "--omega", "001,110", "--t-real",
                  "0.7"],
                 ["measure", "--n", "2", "--omega", "01", "--t-pi", "3/2",
                  "--a", "10"],
                 ["graph", "--n", "3", "--omega", "001,010,100,111"],
                 ["graph", "--n", "2", "--omega", "11"]):
        _assert_same_bytes(capsys, argv, tmp_path)


def test_every_set_small_is_byte_identical(capsys):
    rng = random.Random(3)
    for n in (1, 2, 3):
        for mask in range(1, 1 << ((1 << n) - 1)):
            labels = [j + 1 for j in range((1 << n) - 1) if mask >> j & 1]
            for argv in _argvs(n, labels, rng):
                _assert_same_bytes(capsys, argv)


def test_random_sets_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(jsontext, "CHUNK", 7)  # rows cross piece boundaries
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 10)
        pool = range(1, 1 << n)
        labels = sorted(rng.sample(pool, rng.randint(1, min(2 * n,
                                                             len(pool)))))
        for argv in _argvs(n, labels, rng):
            _assert_same_bytes(capsys, argv, tmp_path)


def test_broken_spectrum_rows_are_byte_identical(capsys, monkeypatch):
    # k is null and ok false where an eigenvalue leaves its class
    def tampered(omega):
        values = spectrum(omega).values.copy()
        values[1::3] += 2
        values[2::5] -= 8
        bad = Spectrum(n=omega.n, d=omega.d, values=values)
        return classify_congruences(bad, omega.u, omega.u in omega)

    monkeypatch.setattr(spectral, "classify_set", tampered)
    for argv in (["spectrum", "--n", "3", "--omega", "001,010,111"],
                 ["spectrum", "--n", "5", "--omega", "00011,01100,10101"]):
        _assert_same_bytes(capsys, argv)


def _texts(tokens):
    """The text of every row of a token column."""
    rows = tokens.table if tokens.index is None \
        else tokens.table[tokens.index]
    return [row.tobytes().rstrip(b"\0").decode() for row in rows]


def test_number_texts_match_json():
    values = np.array([0.0, -0.0, 1.0, -1.0, 1e-05, 0.1, 1e16, 1e22,
                       5e-324, -2.5e-308, 1.7976931348623157e308, 0.0,
                       -0.0, 2.0 ** -40, 1 / 3])
    assert _texts(jsontext.numbers(values)) == [json.dumps(x)
                                                for x in values.tolist()]
    ints = np.array([3, -1, 0, -7, 3, 2 ** 40], dtype=np.int64)
    missing = ints < 0
    assert _texts(jsontext.numbers(ints, missing=missing)) == [
        "null" if m else json.dumps(x)
        for x, m in zip(ints.tolist(), missing.tolist())]


def test_small_int_columns_match_str():
    # the survey's d, diameter and distance columns: a few distinct values,
    # some far apart, in every integer dtype a column arrives in
    rng = np.random.default_rng(5)
    for dtype in (np.int64, np.intp, np.int32, np.int8):
        for size in (1, 2, 17, 3000):
            top = rng.choice([1, 5, 127])
            values = rng.integers(0, top + 1, size).astype(dtype)
            values[0] = top
            assert _texts(jsontext.numbers(values)) == list(
                map(str, values.tolist()))
    sparse = np.array([524_287, 3, 524_287, 0])  # one d at n = 20
    assert _texts(jsontext.numbers(sparse)) == ["524287", "3", "524287",
                                                "0"]


def test_binary_label_texts_match_format():
    rng = np.random.default_rng(7)
    for n in range(1, 25):
        labels = rng.integers(0, 1 << n, 200)
        labels[:2] = 0, (1 << n) - 1
        assert _texts(jsontext.binary_texts(n, labels)) == [
            f'"{x:0{n}b}"' for x in labels.tolist()], n
        if n <= 12:
            assert _texts(jsontext.binary_texts(n)) == [
                f'"{x:0{n}b}"' for x in range(1 << n)], n


# ── the byte kernel against json.dumps ────────────────────────────────────

# JSON values whose texts run from 1 to 30 characters
VALUES = [None, True, False, 0, 7, -1, -123456, 2 ** 40, -0.0, 0.5, 5e-324,
          1e22, -2.5e-308, 1 / 3, "", "a", "0101", "x" * 28]


def _right_aligned(index):
    """Each row of ``index`` with its 0s moved to the left, the members
    in their order: the layout ``Members`` takes."""
    return np.take_along_axis(
        index, np.argsort(index != 0, axis=1, kind="stable"), axis=1)


def _random_block(rng, rows):
    """Token columns of ``rows`` rows and the same rows as dicts."""
    def _sample(k):
        return [VALUES[i] for i in rng.integers(0, len(VALUES), k)]

    def tokens(pool):
        texts = [json.dumps(v) for v in pool]
        index = rng.integers(0, len(pool), rows)
        return jsontext.Tokens(jsontext.table(texts), index), \
            [pool[i] for i in index.tolist()]

    def members():
        pool = ["skipped"] + _sample(5)
        k = int(rng.integers(1, 4))
        # some lists empty, some one
        index = _right_aligned(rng.integers(0, len(pool), (rows, k))
                               * (rng.random((rows, k)) < 0.6))
        texts = jsontext.table([json.dumps(v) for v in pool])
        return jsontext.Members(texts, index), \
            [[pool[i] for i in row if i] for row in index.tolist()]

    a, a_values = tokens(VALUES)
    b, b_values = tokens(_sample(3))
    m, m_values = members()
    labels = jsontext.binary_texts(5, rng.integers(0, 32, rows))
    label_values = [t.strip('"') for t in _texts(labels)]
    bools = rng.random(rows) < 0.5
    columns = {"a": a, "b": b, "m": m, "v": labels,
               "t": jsontext.booleans(bools)}
    dicts = [{"z": av, "nested": {"m": mv, "v": lv, "deep": [{"b": bv}]},
              "t": tv}
             for av, bv, mv, lv, tv in zip(a_values, b_values, m_values,
                                           label_values, bools.tolist())]
    return columns, dicts


SKELETON = {"z": jsontext.slot("a"),
            "nested": {"m": jsontext.slot("m"), "v": jsontext.slot("v"),
                       "deep": [jsontext.slots("b")]},
            "t": jsontext.slot("t")}


def test_kernel_renders_random_token_columns_as_json(monkeypatch):
    rng = np.random.default_rng(11)
    for chunk in (1, 7, jsontext.CHUNK):
        monkeypatch.setattr(jsontext, "CHUNK", chunk)
        for _ in range(12):
            blocks = [_random_block(rng, int(rng.integers(1, 40)))
                      for _ in range(int(rng.integers(0, 4)))]
            rows = jsontext.Rows(SKELETON, [c for c, _ in blocks])
            doc = {"rows": rows, "after": [1, {"x": None}]}
            want = {"rows": [d for _, ds in blocks for d in ds],
                    "after": [1, {"x": None}]}
            pieces = list(jsontext.dumps(doc))
            # a piece may be a uint8 array, where ``in`` looks for a
            # number: the bytes are searched for a NUL
            assert all(b"\0" not in bytes(piece) for piece in pieces)
            assert b"".join(pieces).decode() == canonical_dumps(want), chunk
            assert jsontext.digest(doc) == hashlib.sha256(
                canonical_dumps(want).encode()).hexdigest()


def _column_kinds(rng, rows):
    """One column of every kind, ``rows`` rows each."""
    labels = jsontext.binary_texts(6).table
    ints = rng.integers(-5, 1 << 40, rows)
    floats = np.array([0.0, -0.0, 1.5, -2.5e-308, 1e22, 1 / 3, 5e-324])
    members = _right_aligned(rng.integers(0, 64, (rows, 4))
                             * (rng.random((rows, 4)) < 0.5))
    return {
        "text": jsontext.binary_texts(6, rng.integers(0, 64, rows)),
        "label": jsontext.Tokens(labels, rng.integers(0, 64, rows)),
        "int": jsontext.numbers(ints),
        "small": jsontext.numbers(rng.integers(0, 9, rows)),
        "float": jsontext.numbers(rng.choice(floats, rows)),
        "maybe": jsontext.numbers(ints, missing=rng.random(rows) < 0.3),
        "flag": jsontext.booleans(rng.random(rows) < 0.5),
        "pick": jsontext.pick(rng.integers(0, 3, rows),
                              ['"a"', "null", "2.5"]),
        "members": jsontext.Members(labels, members),
        "none": jsontext.Members(labels, np.zeros((rows, 2), np.int64)),
    }


def test_rows_values_are_json_loads_of_their_text():
    # every column kind read back: members with 0s on the left and
    # empty lists, -0.0 with its sign, null where missing; json.dumps
    # without sort_keys also tells true from 1 and checks the key order
    rng = np.random.default_rng(13)
    names = list(_column_kinds(rng, 1))
    skeleton = {"first": jsontext.slots(*names[:5]),
                "rest": [jsontext.slot(name) for name in names[5:]]}
    for sizes in ([], [1], [5, 300, 2]):
        rows = jsontext.Rows(skeleton,
                             [_column_kinds(rng, size) for size in sizes])
        got = rows.values()
        want = json.loads(b"".join(rows.text()))
        assert got == want
        assert json.dumps(got) == json.dumps(want)


def test_a_shared_table_gives_one_object_per_text():
    labels = jsontext.binary_texts(3).table
    index = np.array([[0, 1, 2], [1, 2, 3], [0, 0, 3]])
    columns = {"m": jsontext.Members(labels, index),
               "x": jsontext.Tokens(labels, index[:, 2]),
               "y": jsontext.Tokens(labels, index[:, 1])}
    skeleton = {**jsontext.slots("x", "y"), "m": jsontext.slot("m")}
    got = jsontext.Rows(skeleton, [columns, columns]).values()
    assert got[2] == {"m": ["011"], "x": "011", "y": "000"}
    texts = {}
    for row in got:
        for text in (*row["m"], row["x"], row["y"]):
            assert texts.setdefault(text, text) is text
    assert sorted(texts) == ["000", "001", "010", "011"]


def test_members_refuse_a_zero_right_of_a_member():
    # a row renders as "[", a text and comma per member but the last, then
    # the last column's text and "]": a 0 there would close the list after
    # a comma, ["a",]
    labels = jsontext.binary_texts(2).table
    for index in ([[1, 0]], [[0, 2], [3, 0]], [[1, 0, 2]]):
        with pytest.raises(ValueError, match="right-aligned"):
            jsontext.Members(labels, np.array(index))
    with pytest.raises(ValueError, match="one column"):
        jsontext.Members(labels, np.zeros((2, 0), np.int64))
    members = jsontext.Members(labels, np.array([[0, 0], [0, 3], [1, 2]]))
    rows = jsontext.Rows({"m": jsontext.slot("m")}, [{"m": members}])
    assert b"".join(rows.text()) == b'[{"m":[]},{"m":["11"]},' \
        b'{"m":["01","10"]}]'


def test_a_nul_in_a_table_text_is_refused():
    with pytest.raises(ValueError, match="NUL"):
        jsontext.table(['"a\0b"', "1"])


# ── no 2^n list reaches json.dumps ────────────────────────────────────────

def test_no_vertex_list_reaches_the_python_encoder(capsys, monkeypatch):
    dumps = json.dumps

    def longest(obj):
        if isinstance(obj, dict):
            return max(map(longest, obj.values()), default=0)
        if isinstance(obj, (list, tuple)):
            return max([len(obj), *map(longest, obj)])
        return 0

    def guarded(obj, *args, **kwargs):
        if longest(obj) > 1000:
            raise AssertionError("a list of over 1000 items reached "
                                 "json.dumps")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", guarded)
    rng = random.Random(12)
    dense = ",".join(format(w, "012b") for w in rng.sample(range(1, 4096),
                                                           24))
    cube = ",".join(format(1 << i, "012b") for i in range(12))
    # every label: diameter 1, so 4095 antipodal offsets
    complete = ",".join(format(w, "012b") for w in range(1, 4096))
    for omega in (dense, cube, complete):
        common = ["--n", "12", "--omega", omega]
        for argv in (["spectrum", *common], ["spectrum", *common, "--csv"],
                     ["evolve", *common, "--t-pi", "1/2"],
                     ["evolve", *common, "--t-pi", "1/3"],
                     ["measure", *common, "--t-pi", "1/2"],
                     ["graph", *common]):
            assert cli.main(argv) == 0, argv
            assert len(capsys.readouterr().out) > 4096


def test_non_finite_column_exits_2_with_nothing_on_stdout(capsys,
                                                          monkeypatch):
    def poisoned(omega, t):
        amp = all_amplitudes(omega, t)
        amp[1] = complex(float("nan"), 0.0)
        return amp

    monkeypatch.setattr(dynamics, "all_amplitudes", poisoned)
    for tail in ([], ["--csv"]):
        code = cli.main(["evolve", "--n", "3", "--omega", "001,010",
                         "--t-real", "0.7", *tail])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")



# ── the document: the canonical payload, then its manifest ────────────────

def _assert_document(text, payload, extra=()):
    """``text`` is the payload's canonical text without its closing brace,
    the manifest as the last key, then one newline; the payload text and
    its brace hash to the digest, and it parses back to the payload."""
    head, sep, tail = text.partition(',"manifest":')
    assert sep and head == canonical_dumps(payload)[:-1]
    doc = json.loads(text)
    manifest = doc.pop("manifest")
    assert list(manifest) == ["tool", "version", "env", "argv", "inputs",
                              "seed", "started", *extra, "finished",
                              "payload_sha256"]
    assert tail == json.dumps(manifest, separators=(",", ":")) + "}\n"
    assert manifest["payload_sha256"] == hashlib.sha256(
        (head + "}").encode()).hexdigest()
    assert doc == payload


def test_document_is_the_canonical_payload_then_its_manifest(capsys,
                                                             tmp_path):
    argv = ["evolve", "--n", "3", "--omega", "001,110", "--t-pi", "1/2"]
    payload, _, _ = _ref_evolve(PARSER.parse_args(argv))
    assert _handle(argv) == 0
    _assert_document(capsys.readouterr().out, payload)
    survey = ("wall_time_s", "sets_per_s", "path")
    assert _handle(["audit-antipodal", "--n", "3"]) == 0
    _assert_document(capsys.readouterr().out, {
        "command": "audit-antipodal",
        "report": antipodality_audit(3).payload()}, survey)
    target = tmp_path / "scan.json"
    assert _handle(["scan", "--n", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    _assert_document(target.read_text(), {
        "command": "scan", "report": scan_sets(3).payload()}, survey)


def test_non_finite_scalar_exits_2_with_nothing_on_stdout(capsys,
                                                          monkeypatch):
    def poisoned(omega, t):
        return np.full(1 << omega.n, complex(float("nan"), 0.0))

    monkeypatch.setattr(dynamics, "all_amplitudes", poisoned)
    code = cli.main(["fidelity", "--n", "3", "--omega", "001,010",
                     "--delta", "011", "--t-real", "0.7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_unrenderable_payload_leaves_the_out_file_as_it_was(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # the payload is refused before --out is opened, so an existing file
    # keeps its bytes
    def poisoned(omega, t):
        return np.full(1 << omega.n, complex(float("nan"), 0.0))

    monkeypatch.setattr(dynamics, "all_amplitudes", poisoned)
    target = tmp_path / "keep.json"
    target.write_text('{"old": 1}')
    code = cli.main(["fidelity", "--n", "3", "--omega", "001,010",
                     "--delta", "011", "--t-real", "0.7",
                     "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert target.read_text() == '{"old": 1}'
