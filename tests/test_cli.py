"""End-to-end command line checks; every handler stays a thin adapter."""

import argparse
import csv
import hashlib
import io
import json
import os
import pkgutil
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

import cubewalk
from cubewalk import cli, dynamics, scanner
from cubewalk.bitspace import ConnectionSet
from cubewalk.cli import main
from cubewalk.dynamics import HALF_PI, all_fidelities
from cubewalk.scanner import conjecture_scan


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_of(out):
    doc = json.loads(out)
    payload = {k: v for k, v in doc.items() if k != "manifest"}
    return doc, payload


def test_pst_check_with_transfer(capsys):
    code, out, _ = _run(capsys,
                        ["pst-check", "--n", "3", "--omega", "010,001,111"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["u"] == "100"
    assert doc["pst"] is True
    assert doc["time"] == "pi/2"
    assert doc["delta"] == "100"
    assert doc["phase"] == {"re": 0, "im": 1}
    assert doc["method"] == "closed-form"


def test_pst_check_revival(capsys):
    code, out, _ = _run(capsys, ["pst-check", "--n", "3",
                                 "--omega", "100,010,001,111"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["u"] == "000"
    assert doc["pst"] is False
    assert doc["note"] == "revival at pi/2"


def test_spectrum_csv(capsys):
    code, out, err = _run(capsys, ["spectrum", "--n", "3",
                                   "--omega", "100,010,001", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["v_binary", "lambda", "k", "congruence_class"]
    assert len(rows) == 9
    lams = sorted(int(r[1]) for r in rows[1:])
    assert lams == [-3, -1, -1, -1, 1, 1, 1, 3]
    manifest = json.loads(err)["manifest"]
    assert manifest["tool"] == "cubewalk"
    assert "payload_sha256" in manifest


def test_spectrum_json_matches_library(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--n", "3",
                                 "--omega", "001,010,111"])
    assert code == 0
    doc, payload = _json_of(out)
    assert doc["all_pass"] is True
    assert doc["case"] == "xor-sum outside set"
    digest = hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert doc["manifest"]["payload_sha256"] == digest


def test_evolve_exact_mode(capsys):
    code, out, _ = _run(capsys, ["evolve", "--n", "2", "--omega", "01,10",
                                 "--t-pi", "1/2"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["mode"] == "exact"
    by_delta = {e["delta"]: e for e in doc["fidelities"]}
    assert by_delta["11"]["fidelity"] == 1.0
    assert by_delta["00"]["fidelity"] == 0.0
    assert by_delta["11"]["amplitude_exact"] == {"re": -4, "im": 0}
    fid = all_fidelities(ConnectionSet.parse("01,10", 2), HALF_PI)
    for entry in doc["fidelities"]:
        assert entry["fidelity"] == fid[int(entry["delta"], 2)]


def test_evolve_evaluates_the_exact_transform_once(capsys, monkeypatch):
    calls = []
    exact = dynamics.exact_components

    def counted(omega, t):
        calls.append(t)
        return exact(omega, t)

    monkeypatch.setattr(dynamics, "exact_components", counted)
    code, _, _ = _run(capsys, ["evolve", "--n", "3", "--omega", "001,110",
                               "--t-pi", "1"])
    assert code == 0 and len(calls) == 1


def test_fidelity_evaluates_the_exact_components_at_most_once(
        capsys, monkeypatch):
    calls = []
    exact = dynamics.exact_components

    def counted(omega, t):
        calls.append(t)
        return exact(omega, t)

    monkeypatch.setattr(dynamics, "exact_components", counted)
    code, _, _ = _run(capsys, ["fidelity", "--n", "3", "--omega",
                               "001,010,111", "--delta", "100",
                               "--t-pi", "1/2"])
    assert code == 0 and len(calls) <= 1


def test_evolve_float_mode_csv(capsys):
    code, out, err = _run(capsys, ["evolve", "--n", "2", "--omega", "01,10",
                                   "--t-real", "0.7", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["delta_binary", "fidelity", "re", "im"]
    assert len(rows) == 5
    total = sum(float(r[1]) ** 2 for r in rows[1:])
    assert abs(total - 1.0) <= 1e-9
    json.loads(err)  # manifest line must parse


def test_fidelity_subcommand(capsys):
    code, out, _ = _run(capsys, ["fidelity", "--n", "3",
                                 "--omega", "010,001,111",
                                 "--delta", "100", "--t-pi", "1/2"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["fidelity"] == 1.0
    assert doc["mode"] == "exact"
    assert doc["amplitude_exact"] == {"re": 0, "im": 8}


def test_measure_notes(capsys):
    code, out, _ = _run(capsys, ["measure", "--n", "2", "--omega", "01,10,11",
                                 "--t-pi", "1/2"])
    assert code == 0
    doc, _ = _json_of(out)
    assert "back at its start" in doc["note"]
    probs = {e["vertex"]: e["p"] for e in doc["distribution"]}
    assert probs["00"] == 1.0
    code, out, _ = _run(capsys, ["measure", "--n", "2", "--omega", "01",
                                 "--t-pi", "3/2", "--a", "10"])
    doc, _ = _json_of(out)
    assert "a xor u" in doc["note"]
    probs = {e["vertex"]: e["p"] for e in doc["distribution"]}
    assert probs["11"] == 1.0


def test_measure_no_note_off_grid(capsys):
    code, out, _ = _run(capsys, ["measure", "--n", "2", "--omega", "01",
                                 "--t-real", "0.3"])
    assert code == 0
    doc, _ = _json_of(out)
    assert "note" not in doc


def test_graph_subcommand(capsys):
    code, out, _ = _run(capsys, ["graph", "--n", "3",
                                 "--omega", "001,010,100,111"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["connected"] is True
    assert doc["diameter"] == 2
    assert doc["shells"] == [1, 4, 3]
    assert doc["bipartite"] is True
    assert doc["complete_bipartite"] == [4, 4]
    code, out, _ = _run(capsys, ["graph", "--n", "2", "--omega", "01,10"])
    doc, _ = _json_of(out)
    assert doc["complete_bipartite"] == [2, 2]
    assert doc["antipodal"] == ["11"]


def test_graph_disconnected(capsys):
    code, out, _ = _run(capsys, ["graph", "--n", "2", "--omega", "11"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["connected"] is False
    assert doc["antipodal"] is None
    dist = {e["v"]: e["dist"] for e in doc["distances"]}
    assert dist["01"] is None and dist["11"] == 1


def test_pst_search(capsys):
    code, out, _ = _run(capsys, ["pst-search", "--n", "3",
                                 "--omega", "010,001,111", "--delta", "100"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["pst"] is True and doc["time"] == "pi/2"
    code, out, _ = _run(capsys, ["pst-search", "--n", "3",
                                 "--omega", "010,001,111", "--delta", "001"])
    doc, _ = _json_of(out)
    assert doc["pst"] is False and "time" not in doc


def test_route_subcommand(capsys):
    code, out, _ = _run(capsys, ["route", "--n", "4", "--target", "1011"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["total_time"] == "3*pi/2"
    hops = [s["hop"] for s in doc["stages"]]
    assert hops == ["0001", "0010", "1000"]
    acc = 0
    for stage in doc["stages"]:
        acc ^= int(stage["hop"], 2)
        assert stage["time"] == "pi/2"
    assert acc == 0b1011


# Each single-set command's input layer, pinned: the payload digest and the
# manifest's inputs, the canonical texts that open the payload.  Every time
# is on the exact grid, so no digest depends on libm.
INPUT_PINS = [
    ("spectrum --n 3 --omega 001,010,111",
     "eb89dca91d215009734c8322c204e6def04ed886364d09e4e1916cb68f9c6300",
     {"n": 3, "omega": "001,010,111"}),
    ("evolve --n 3 --omega 001,110 --t-pi 1/2",
     "81aacf0cf3785b7fa3ae0fad21a2f9d76ec17ac671ce96606173461f48440a45",
     {"n": 3, "omega": "001,110", "time": "pi/2"}),
    ("fidelity --n 3 --omega 001,010,111 --delta 100 --t-pi 1/2",
     "67a074e43e1ca0a720d6d0c26cc2369d606dd28bf83048972658b268e0a8299c",
     {"n": 3, "omega": "001,010,111", "delta": "100", "time": "pi/2"}),
    ("measure --n 3 --omega 001,110 --t-pi 3/2 --a 101",
     "d0396349ee622e485676e1892aa3c4275501b33eea7fab4fb7ee81ce277d9e42",
     {"n": 3, "omega": "001,110", "a": "101", "time": "3*pi/2"}),
    ("graph --n 3 --omega 001,010,100,111 --source 011",
     "dca2fc94cde6c8dba01a210a76fc7708a804e67674fee3c835b9bbfcee1f51d7",
     {"n": 3, "omega": "001,010,100,111", "source": "011"}),
    ("pst-check --n 3 --omega 010,001,111",
     "ce7ec922f55c902c7de325955c9737ff1e156f53bf0c69ca3d356691bc4d50f4",
     {"n": 3, "omega": "001,010,111"}),
    ("pst-check --n 3 --omega 100,010,001,111",
     "615974dac8eb440d5b230574fd8a271fb96dc4bad609874316b6efd4a3316e39",
     {"n": 3, "omega": "001,010,100,111"}),
    ("pst-search --n 3 --omega 001,010,111 --delta 100",
     "212e699f9f7db4a73b8d8d695ec2ed521bab732c5307dfc43233de21bb82fa4b",
     {"n": 3, "omega": "001,010,111", "delta": "100"}),
    ("pst-search --n 3 --omega 001,010,111 --delta 011",
     "d083885210b2c65f55e1b8a566352d9de42a883cd0c3db4c04fd507da1dc45e3",
     {"n": 3, "omega": "001,010,111", "delta": "011"}),
    ("route --n 4 --target 1011",
     "19fbe783740f950e55d7a97331cd2ee4f520fb26058f9fa57708511b6ee4a949",
     {"n": 4, "target": "1011"}),
]


@pytest.mark.parametrize("argv, digest, inputs", INPUT_PINS,
                         ids=[a.split()[0] + f"-{i}"
                              for i, (a, _, _) in enumerate(INPUT_PINS)])
def test_single_set_inputs_and_digests_are_pinned(capsys, argv, digest,
                                                  inputs):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    doc, payload = _json_of(out)
    manifest = doc["manifest"]
    assert manifest["payload_sha256"] == digest
    prefix = out.encode().partition(b',"manifest":')[0]
    assert hashlib.sha256(prefix + b"}").hexdigest() == digest
    # the same keys in the same order, and each opens the payload
    assert list(manifest["inputs"].items()) == list(inputs.items())
    assert payload["command"] == argv.split()[0]
    assert {k: payload[k] for k in inputs} == inputs


def test_every_single_set_command_has_a_pinned_digest():
    # build_parser registers a single-set command through the step that
    # parses its inputs and emits its payload; each such command needs a
    # pinned payload digest above, so a new one cannot land without one
    parser = cli.build_parser()
    commands, = (action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    stepped = {}
    for name, sub in commands.items():
        handler = sub.get_default("handler")
        if hasattr(handler, "__wrapped__"):
            stepped[name] = handler.__wrapped__
    assert set(stepped) == {argv.split()[0] for argv, _, _ in INPUT_PINS}
    for name, answer in stepped.items():
        assert answer is getattr(cli, "cmd_" + name.replace("-", "_"))


def test_input_parsing_order_and_zero_vertex_defaults(capsys):
    # the first bad input in parse order is the one reported:
    # n, omega, then the element, then the time
    for argv, message in (
            ("fidelity --n 3 --omega 2 --delta 9 --t-pi x",
             "label '2' is not a binary string of length 3"),
            ("fidelity --n 3 --omega 001 --delta 9 --t-pi x",
             "label '9' is not a binary string of length 3"),
            ("measure --n 3 --omega 001 --a 9 --t-pi x",
             "label '9' is not a binary string of length 3"),
            ("fidelity --n 30 --omega 2 --delta 9 --t-pi x",
             "dimension must be in 1..24, got 30")):
        code, out, err = _run(capsys, argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    code, out, err = _run(capsys, ["route", "--n", "30", "--target", ""])
    assert (code, out, err) == (
        2, "", "error: dimension must be in 1..24, got 30\n")
    # --delta and --target are required: an empty one is an error ...
    for argv in (["fidelity", "--n", "3", "--omega", "001", "--delta", "",
                  "--t-pi", "1/2"],
                 ["pst-search", "--n", "3", "--omega", "001", "--delta", ""],
                 ["route", "--n", "3", "--target", ""]):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", "error: empty element token\n")
    # ... while an empty --a or --source is the zero vertex, as when absent
    for argv, key in ((["measure", "--n", "3", "--omega", "001,110",
                        "--t-pi", "3/2"], "a"),
                      (["graph", "--n", "3", "--omega", "001,110"],
                       "source")):
        docs = [json.loads(_run(capsys, argv + tail)[1])
                for tail in ([], [f"--{key}", ""], [f"--{key}", "000"])]
        digests = {d.pop("manifest")["payload_sha256"] for d in docs}
        assert len(digests) == 1
        assert docs[0] == docs[1] == docs[2] and docs[0][key] == "000"


def test_scan_and_audit_exit_codes(capsys):
    code, out, err = _run(capsys, ["scan", "--n", "3", "--u-zero"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["report"]["summary"]["counterexamples"] == 0
    assert "conjecture-scan" in err
    code, out, err = _run(capsys, ["audit-antipodal", "--n", "2"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["report"]["violations"] == 0
    assert "digest" in err


def test_survey_violation_exit_code(capsys, monkeypatch):
    # wiring check: a nonzero violation count must map to exit 3; this
    # sample holds exactly one counterexample
    report = conjecture_scan(5, sample=2000, seed=11)
    monkeypatch.setattr(scanner, "conjecture_scan", lambda n, **kw: report)
    code, out, err = _run(capsys, ["scan", "--n", "5", "--u-zero",
                                   "--sample", "2000", "--seed", "11"])
    assert code == 3
    doc, payload = _json_of(out)
    assert payload == {"command": "scan", "report": report.payload()}
    assert doc["manifest"]["wall_time_s"] == report.wall_time_s
    assert "counterexamples  1" in err


def test_scan_window_errors_exit_2(capsys, monkeypatch):
    # the window is checked before the walk, so no block of sets is ever
    # built: every exhaustive block of the word path (n <= 5) comes from
    # _walk, and every block of the indicator path passes through
    # _indicators
    def walked(*args):
        raise AssertionError("a block of sets was built")

    monkeypatch.setattr(scanner, "_walk", walked)
    monkeypatch.setattr(scanner, "_indicators", walked)
    for argv in (["--n", "5", "--d-min", "1"],
                 ["--n", "3", "--d-min", "5", "--d-max", "2"],
                 ["--n", "7", "--d-min", "9", "--d-max", "8",
                  "--sample", "1"]):
        code, out, err = _run(capsys, ["scan", *argv])
        assert code == 2 and out == "" and err.startswith("error: ")


def test_scan_refuses_the_whole_n5_xor_sum_zero_space(capsys):
    # the cap counts the xor-sum-zero sets the walk would visit, exactly
    code, out, err = _run(capsys, ["scan", "--n", "5", "--u-zero"])
    assert code == 2 and out == ""
    assert err == ("error: degree window [1, 31] at n = 5 holds 67108863 "
                   "xor-sum-zero sets, over the 2^24 cap; narrow the window "
                   "or sample\n")


@pytest.mark.parametrize("argv", [["--n", "40", "--sample", "1"],
                                  ["--u-zero", "--n", "64", "--sample", "1"]])
def test_scan_refuses_a_large_dimension_before_allocating(capsys, argv):
    # a 2^n-entry array at n = 40 would take 8 TiB; the dimension is
    # checked before the survey allocates anything, so the refusal is the
    # usage error, not a MemoryError
    code, out, err = _run(capsys, ["scan", *argv])
    n = argv[argv.index("--n") + 1]
    assert code == 2 and out == ""
    assert err == f"error: dimension must be in 1..24, got {n}\n"


def test_scan_manifest_records_wall_time_not_payload(capsys):
    code, out, _ = _run(capsys, ["scan", "--n", "2"])
    assert code == 0
    doc, payload = _json_of(out)
    assert "wall_time_s" in doc["manifest"]
    assert "wall_time_s" not in json.dumps(payload)
    digest = hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert doc["manifest"]["payload_sha256"] == digest


def test_survey_manifest_reports_throughput_and_path(capsys):
    # the path names the engine: subset tables of mask words up to n = 5,
    # indicator rows and their WHT above
    for argv, path in ((["scan", "--n", "3"], "word-table"),
                       (["audit-antipodal", "--n", "3"], "word-table"),
                       (["scan", "--n", "7", "--sample", "5"],
                        "indicator-wht")):
        code, out, err = _run(capsys, argv)
        assert code == 0
        doc, payload = _json_of(out)
        manifest = doc["manifest"]
        assert manifest["path"] == path
        rate = doc["report"]["universe"] / manifest["wall_time_s"]
        assert manifest["sets_per_s"] == pytest.approx(rate)
        assert "sets_per_s" not in json.dumps(payload)
        assert path not in json.dumps(payload)
        assert " sets/s" in err.splitlines()[0]


def test_unfillable_sample_exits_2_before_drawing(capsys, monkeypatch):
    class Undrawable:
        def __init__(self, seed):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"drew from the RNG ({name})")

    monkeypatch.setattr(scanner, "random",
                        types.SimpleNamespace(Random=Undrawable))
    for argv in (["--n", "5", "--u-zero", "--sample", "200", "--d-max", "2"],
                 ["--n", "3", "--sample", "29", "--d-max", "2"]):
        code, out, err = _run(capsys, ["scan", *argv])
        assert code == 2 and out == "" and err.startswith("error: ")


def test_xor_sum_zero_sample_over_its_population_exits_2(capsys,
                                                          monkeypatch):
    class Undrawable:
        def __init__(self, seed):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"drew from the RNG ({name})")

    monkeypatch.setattr(scanner, "random",
                        types.SimpleNamespace(Random=Undrawable))
    for argv in (["--n", "4", "--u-zero", "--sample", "2048"],
                 ["--n", "3", "--u-zero", "--sample", "16"],
                 ["--n", "4", "--u-zero", "--d-min", "3", "--d-max", "3",
                  "--sample", "36"]):
        code, out, err = _run(capsys, ["scan", *argv])
        assert code == 2 and out == "" and err.startswith("error: ")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["spectrum", "--n", "2", "--omega", "01,10",
                                 "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "spectrum"


def test_csv_out_writes_the_rows_to_the_file(tmp_path, capsys):
    # with --csv, --out takes the CSV rows; the manifest stays on stderr,
    # with the digest of the payload the JSON document holds
    argv = ["evolve", "--n", "3", "--omega", "001,110", "--t-pi", "1/3"]
    code, rows, err = _run(capsys, argv + ["--csv"])
    assert code == 0 and rows.startswith("delta_binary,")
    digest = json.loads(err)["manifest"]["payload_sha256"]
    target = tmp_path / "rows.csv"
    code, out, err = _run(capsys, argv + ["--csv", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_bytes() == rows.encode()
    assert json.loads(err)["manifest"]["payload_sha256"] == digest
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["manifest"]["payload_sha256"] == digest


def test_json_round_trip_idempotent(capsys):
    code, out, _ = _run(capsys, ["graph", "--n", "3", "--omega", "001,010"])
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_oracle_verify_subcommand(capsys):
    code, out, _ = _run(capsys, ["oracle-verify", "--trials", "5",
                                 "--pairs", "2", "--n-max", "4"])
    assert code == 0
    doc, _ = _json_of(out)
    assert doc["ok"] is True
    assert doc["commutator_max"] == 0


def test_oracle_verify_non_finite_deviation_exits_1(capsys, monkeypatch):
    def nan_amplitudes(omega, t):
        return np.full(1 << omega.n, np.nan, dtype=complex)

    monkeypatch.setattr(dynamics, "all_amplitudes", nan_amplitudes)
    code, out, err = _run(capsys, ["oracle-verify", "--trials", "5",
                                   "--pairs", "1"])
    assert code == 1 and out == ""
    assert err.startswith("verification failed:") and "closed-form" in err


def test_bad_binary_label_names_the_length_it_needs(capsys):
    # the wording reads right for any n, 3 and 8 alike
    for n, token in (("3", "12"), ("8", "0101")):
        code, out, err = _run(capsys, ["spectrum", "--n", n,
                                       "--omega", token])
        assert code == 2 and out == ""
        assert err == (f"error: label '{token}' is not a binary string "
                       f"of length {n}\n")


def test_invalid_inputs_exit_2(capsys, tmp_path):
    assert _run(capsys, ["spectrum", "--n", "3", "--omega", "000"])[0] == 2
    assert _run(capsys, ["spectrum", "--n", "3", "--omega", "01"])[0] == 2
    assert _run(capsys, ["pst-search", "--n", "3", "--omega", "001",
                         "--delta", "000"])[0] == 2
    assert _run(capsys, ["evolve", "--n", "2", "--omega", "01",
                         "--t-pi", "nonsense"])[0] == 2
    code, out, err = _run(capsys, ["evolve", "--n", "2", "--omega", "01",
                                   "--t-pi", "3/"])
    assert code == 2 and out == "" and "bad angle '3/'" in err
    assert _run(capsys, ["route", "--n", "3", "--target", "000"])[0] == 2
    for n in ("30", "0"):  # the dimension is checked before the label
        code, out, err = _run(capsys, ["route", "--n", n, "--target", "1"])
        assert code == 2 and out == "" and "dimension must be in 1..24" in err
    for value in ("nan", "inf"):
        code, out, err = _run(capsys, ["fidelity", "--n", "2", "--omega",
                                       "01", "--delta", "01",
                                       "--t-real", value])
        assert code == 2 and out == "" and "finite" in err
    for tail, name in ((["--trials", "-1"], "trials"),
                       (["--pairs", "-3"], "pair_trials"),
                       (["--trials", "-1", "--pairs", "-3"], "trials"),
                       (["--trials", "0", "--pairs", "0"], "both 0"),
                       (["--n-max", "0"], "n_max")):
        code, out, err = _run(capsys, ["oracle-verify", *tail])
        assert code == 2 and out == "" and name in err, tail
    # the audit has no window and no sample to offer past its cap
    for n in ("5", "6"):
        code, out, err = _run(capsys, ["audit-antipodal", "--n", n])
        assert code == 2 and out == "" and "n = 4" in err
        assert "sample" not in err and "window" not in err
    # --out is opened before the CSV manifest goes to stderr, so an
    # unwritable path leaves the error line alone there
    missing = tmp_path / "missing" / "x.json"
    for tail in ([], ["--csv"]):
        code, out, err = _run(capsys, ["spectrum", "--n", "2", "--omega",
                                       "01", *tail, "--out", str(missing)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {missing}: ")
        assert err.count("\n") == 1, err


def test_huge_time_numerators(capsys):
    # 10^20 + 1 = 1 mod 4, so on the grid this is pi/2 exactly
    huge = str(10 ** 20 + 1)
    for tail in (["fidelity", "--delta", "100"], ["evolve"], ["measure"]):
        argv = [tail[0], "--n", "3", "--omega", "001,010,111", *tail[1:]]
        code, out, _ = _run(capsys, argv + ["--t-pi", f"{huge}/2"])
        assert code == 0
        _, payload = _json_of(out)
        _, small = _json_of(_run(capsys, argv + ["--t-pi", "1/2"])[1])
        assert payload.pop("time") == f"{huge}*pi/2"
        small.pop("time")
        assert payload == small
        # the walk has period 2*pi and 10^400 = 4 mod 6: this is 4*pi/3
        code, out, _ = _run(capsys, argv + ["--t-pi", f"{10 ** 400}/3"])
        assert code == 0
        _, payload = _json_of(out)
        _, reduced = _json_of(_run(capsys, argv + ["--t-pi", "4/3"])[1])
        assert payload.pop("time") == f"{10 ** 400}*pi/3"
        reduced.pop("time")
        assert payload == reduced
        # a time that has no float value even when reduced: an input error
        code, out, err = _run(capsys, argv + ["--t-pi", f"1/{10 ** 400}"])
        assert code == 2 and out == "" and err.startswith("error:")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def _child_env(**extra):
    src = os.path.dirname(os.path.dirname(cubewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src, **extra)
    if "OPENBLAS_NUM_THREADS" not in extra:
        env.pop("OPENBLAS_NUM_THREADS", None)
    return env


SUBMODULES = {f"cubewalk.{m.name}"
              for m in pkgutil.iter_modules(cubewalk.__path__)}
HEAVY = {"numpy", "scipy"}


def _running(argv):
    """Probe lines that run the CLI in process on argv, keeping its code."""
    return ("from cubewalk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n")


@pytest.mark.parametrize("lines, code, unloaded", [
    pytest.param("import cubewalk\ncode = None\n", None,
                 HEAVY | SUBMODULES, id="import-package"),
    pytest.param("import cubewalk.cli\ncode = None\n", None,
                 HEAVY | SUBMODULES - {"cubewalk.cli"}, id="import-cli"),
    pytest.param(_running(["--version"]), 0,
                 HEAVY | SUBMODULES - {"cubewalk.cli"}, id="version"),
    pytest.param(_running(["spectrum", "--n", "3"]), 2,
                 HEAVY | SUBMODULES - {"cubewalk.cli"}, id="usage-error"),
    pytest.param(_running(["spectrum", "--n", "3", "--omega", "001,010"]), 0,
                 {"scipy", "cubewalk.scanner", "cubewalk.pst",
                  "cubewalk.oracle", "cubewalk.graphwalk",
                  "cubewalk.dynamics"}, id="spectrum"),
    pytest.param(_running(["graph", "--n", "3", "--omega", "001,010"]), 0,
                 {"scipy", "cubewalk.spectral", "cubewalk.dynamics",
                  "cubewalk.pst", "cubewalk.scanner", "cubewalk.oracle"},
                 id="graph"),
    pytest.param(_running(["scan", "--n", "2"]), 0,
                 {"scipy", "cubewalk.oracle"}, id="scan"),
])
def test_start_up_loads_only_what_the_command_runs(lines, code, unloaded):
    # start-up is part of every CLI answer: a command loads the modules it
    # runs and no others, scipy (the dense oracle's) included
    probe = ("import contextlib, io, json, sys\n" + lines
             + "print(json.dumps([code, sorted(sys.modules)]))")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    exit_code, loaded = json.loads(done.stdout)
    assert exit_code == code
    assert sorted(unloaded.intersection(loaded)) == []


ORACLE_ARGV = ["oracle-verify", "--trials", "5", "--pairs", "2",
               "--n-max", "4"]


@pytest.mark.parametrize("extra, threads", [
    ({}, {"value": "1", "set_by": "cubewalk"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"value": "2", "set_by": "user"})])
def test_oracle_verify_records_blas_threads(capsys, extra, threads):
    done = subprocess.run([sys.executable, "-m", "cubewalk.cli",
                           *ORACLE_ARGV], env=_child_env(**extra),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc, payload = _json_of(done.stdout)
    env = doc["manifest"]["env"]
    assert env["OPENBLAS_NUM_THREADS"] == threads
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"]
    # the thread count is outside the digested payload and leaves it be
    assert payload == _json_of(_run(capsys, ORACLE_ARGV)[1])[1]


def test_oracle_verify_leaves_os_environ_as_it_was():
    probe = ("import contextlib, io, json, os, sys\n"
             "from cubewalk.cli import main\n"
             "before = dict(os.environ)\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             f"    code = main({ORACLE_ARGV!r})\n"
             "env = json.loads(out.getvalue())['manifest']['env']\n"
             "print(json.dumps([code, env, dict(os.environ) == before]))")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    code, env, unchanged = json.loads(done.stdout)
    assert code == 0 and unchanged
    assert env["OPENBLAS_NUM_THREADS"] == {"value": "1",
                                           "set_by": "cubewalk"}


def test_oracle_verify_without_trials_leaves_scipy_unloaded():
    probe = ("import contextlib, io, json, sys\n"
             "from cubewalk.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    main(['oracle-verify', '--trials', '0', '--pairs', '10'])\n"
             "env = json.loads(out.getvalue())['manifest']['env']\n"
             "print(json.dumps(['scipy' in sys.modules, sorted(env)]))")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert json.loads(done.stdout) == [False, ["numpy", "python"]]


def test_every_manifest_names_its_environment(capsys):
    for argv in (["pst-check", "--n", "3", "--omega", "001,010,111"],
                 ["scan", "--n", "2"]):
        doc = json.loads(_run(capsys, argv)[1])
        assert doc["manifest"]["env"]["numpy"] == np.__version__, argv


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "4"],
    ["evolve", "--n", "3", "--omega", "001,010,111", "--t-pi", "1/3"],
    ["spectrum", "--n", "3", "--omega", "001,010", "--csv"]])
def test_closed_stdout_exits_quietly(argv):
    # as `cubewalk ... | head -c 100`: the reader is gone before the write
    proc = subprocess.Popen([sys.executable, "-m", "cubewalk.cli", *argv],
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_STDOUT_CLOSED == 141
    if "--csv" in argv:  # the manifest line goes to stderr first
        assert json.loads(err)["manifest"]["argv"] == argv
    else:
        assert err == b""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "cubewalk" in capsys.readouterr().out
