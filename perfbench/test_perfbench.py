"""Tests of the benchmark itself, in quick mode.

    python3 -m pytest perfbench -q

Each workload runs one cycle at reduced size, traced and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402

# Per-layer metrics that must be positive in each workload's traced run:
# the layers that workload calls.
REACHED = {
    "survey": ["bitspace.ConnectionSet.calls", "bitspace.ConnectionSet.self_s",
               "pst.pst_offsets.calls", "pst.pst_offsets.self_s",
               "graphwalk.bfs_profile.calls", "scanner.enumerate.self_s",
               "scanner.records.self_s", "scanner.findings",
               "scanner.digest.self_s", "scanner.survey.self_s"],
    "query": ["bitspace.ConnectionSet.calls", "spectral.spectrum.calls",
              "spectral.wht.calls", "spectral.wht.self_s", "spectral.wht.ops",
              "spectral.classify_set.self_s",
              "dynamics.exact_components.calls",
              "dynamics.exact_components.self_s",
              "dynamics.all_amplitudes.calls",
              "dynamics.all_amplitudes.self_s",
              "dynamics.measurement_distribution.self_s",
              "graphwalk.bfs_profile.calls", "graphwalk.bfs_profile.self_s",
              "pst.decide_pst_exact.self_s", "pst.certify.self_s",
              "pst.pst_at_half_pi.self_s", "pst.plan_route.self_s"],
    "cli": ["spectral.spectrum.calls", "oracle.verify_equivalence.self_s",
            "cli.import_s", "cli.main.self_s", "cli.output_bytes",
            "cli.process_s"],
}
# ... and those that must be 0, because the workload bypasses the layer.
BYPASSED = {
    "survey": ["cli.import_s", "cli.output_bytes",
               "oracle.verify_equivalence.self_s"],
    "query": ["scanner.enumerate.self_s", "scanner.findings",
              "cli.import_s", "cli.output_bytes",
              "oracle.verify_equivalence.self_s"],
    "cli": [],
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def expected_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def copy_benchmark(dest: Path) -> None:
    """The files the benchmark ships, without run outputs."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    result = result_of(run(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_named_and_counts_repeat(workload):
    first = result_of(run(workload, 1))
    second = result_of(run(workload, 1))
    assert first["correct"] and second["correct"]
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == expected_units("per_layer")
    for name, metric in first["metrics"].items():
        if name.endswith(".calls"):
            assert metric["value"] == second["metrics"][name]["value"], name
    for name in REACHED[workload] + ["trace.overhead_ratio"]:
        assert first["metrics"][name]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert first["metrics"][name]["value"] == 0, name


def test_tampered_reference_counts_as_failure(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    refs_path = tmp_path / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    for key in refs:
        if key.startswith("query:n=10:"):
            refs[key] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    result = result_of(run("query", 0, cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def traced_request(tracer: Tracer, body) -> list[float]:
    """Time ``body`` inside a root span, the way the benchmark does."""
    start = time.perf_counter()
    with tracer.span("request"):
        body()
    return [time.perf_counter() - start]


def test_self_times_add_up_to_the_request():
    tracer = Tracer()

    def body():
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass

    timed = traced_request(tracer, body)
    tracer.check(timed)
    calls, self_s = tracer.totals()
    assert calls == {"request": 1, "a": 1, "b": 2}
    assert abs(sum(self_s.values())
               - (tracer.ends[0] - tracer.starts[0])) < 1e-9


def test_adopted_span_outside_its_parent_is_refused():
    tracer = Tracer()
    now = time.perf_counter()
    timed = traced_request(tracer, lambda: tracer.adopt(
        [["cli.main", now - 5.0, now - 4.0, -1]], tracer.current))
    with pytest.raises(RuntimeError, match="outside its parent"):
        tracer.check(timed)


def test_overlapping_siblings_are_refused():
    tracer = Tracer()

    def body():
        now = time.perf_counter()
        time.sleep(0.01)
        tracer.adopt([["a", now, now + 0.008, -1],
                      ["b", now + 0.001, now + 0.009, -1]], tracer.current)

    timed = traced_request(tracer, body)
    with pytest.raises(RuntimeError, match="self time"):
        tracer.check(timed)


def test_root_span_must_match_the_request_time():
    tracer = Tracer()
    timed = traced_request(tracer, lambda: None)
    with pytest.raises(RuntimeError, match="misses its request time"):
        tracer.check([timed[0] + 1.0])
    with pytest.raises(RuntimeError, match="root spans"):
        tracer.check(timed * 2)
