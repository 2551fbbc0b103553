"""cubewalk benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload {survey,query,cli,all} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures the whole number of request cycles
(see workloads.py) that comes closest to ``--seconds``, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one cycle
untraced and the same cycle traced, and reports the per-layer metrics;
the traced run's length is fixed by the cycle, not by ``--seconds``, so
its ``.calls`` counts repeat exactly for a seed.  ``--quick`` runs one
cycle at reduced size.  ``--workload all`` runs every workload in turn
and prints each metric by name and unit.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (machine, versions, seed, request counts, fail ratio).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import ROOT as ROOT_SPAN, Tracer, installed  # noqa: E402
from workloads import (OUT, ROOT, SRC, WORKLOADS, child_env,  # noqa: E402
                       problems)

REFS = HERE / "refs.json"
# Half the set-up probes run before the timed requests and half after, so
# their median spans the run rather than one moment of it.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# metric, unit, source: ("calls" | "self" | "counter", key) or a special.
PER_LAYER = (
    ("bitspace.ConnectionSet.calls", "count",
     ("calls", "bitspace.ConnectionSet")),
    ("bitspace.ConnectionSet.self_s", "s", ("self", "bitspace.ConnectionSet")),
    ("spectral.spectrum.calls", "count", ("calls", "spectral.spectrum")),
    ("spectral.wht.calls", "count", ("calls", "spectral.wht")),
    ("spectral.wht.self_s", "s", ("self", "spectral.wht")),
    ("spectral.wht.ops", "ops", ("counter", "spectral.wht.ops")),
    ("spectral.classify_set.self_s", "s", ("self", "spectral.classify_set")),
    ("dynamics.exact_components.calls", "count",
     ("calls", "dynamics.exact_components")),
    ("dynamics.exact_components.self_s", "s",
     ("self", "dynamics.exact_components")),
    ("dynamics.all_amplitudes.calls", "count",
     ("calls", "dynamics.all_amplitudes")),
    ("dynamics.all_amplitudes.self_s", "s",
     ("self", "dynamics.all_amplitudes")),
    ("dynamics.measurement_distribution.self_s", "s",
     ("self", "dynamics.measurement_distribution")),
    ("graphwalk.bfs_profile.calls", "count",
     ("calls", "graphwalk.bfs_profile")),
    ("graphwalk.bfs_profile.self_s", "s", ("self", "graphwalk.bfs_profile")),
    ("pst.pst_offsets.calls", "count", ("calls", "pst.pst_offsets")),
    ("pst.pst_offsets.self_s", "s", ("self", "pst.pst_offsets")),
    ("pst.decide_pst_exact.self_s", "s", ("self", "pst.decide_pst_exact")),
    ("pst.certify.self_s", "s", ("self", "pst.certify")),
    ("pst.pst_at_half_pi.self_s", "s", ("self", "pst.pst_at_half_pi")),
    ("pst.plan_route.self_s", "s", ("self", "pst.plan_route")),
    ("oracle.verify_equivalence.self_s", "s",
     ("self", "oracle.verify_equivalence")),
    ("scanner.enumerate.self_s", "s", ("self", "scanner.enumerate")),
    ("scanner.records.self_s", "s", ("self", "scanner.records")),
    ("scanner.findings", "count", ("counter", "scanner.findings")),
    ("scanner.digest.self_s", "s", ("self", "scanner.digest")),
    ("scanner.survey.self_s", "s", ("self", "scanner.survey")),
    ("cli.import_s", "s", ("self", "cli.import")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.output_bytes", "bytes", ("counter", "cli.output_bytes")),
    ("cli.process_s", "s", "process"),
    ("trace.overhead_ratio", "ratio", "overhead"),
)


class Tally:
    """Request outcomes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.units = 0

    def run(self, wl, req, refs: dict, tracer: Tracer | None = None) -> float:
        """Time one request, check it, and return its latency."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.execute(req)
            else:
                with tracer.span(ROOT_SPAN):
                    out = wl.execute(req, tracer)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"request {req.key} raised:", file=sys.stderr)
            traceback.print_exc()
            self.latencies.append(elapsed)
            return elapsed
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        try:
            bad = problems(wl, req, out, refs)
            self.units += wl.units(req, out)
        except Exception as exc:  # an output the checks cannot even read
            bad = [f"{req.key}: checking raised {exc!r}"]
        if bad:
            self.failed += 1
            for line in bad:
                print(f"check failed: {line}", file=sys.stderr)
        return elapsed


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _probe_setup(args) -> float:
    """Wall time of one fresh process doing the workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    # The probe prints nothing; waiting on its stdout pipe wakes us when it
    # exits, where a bare wait with a timeout polls in 50 ms steps.
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start


def measure(args, wl, refs: dict, tally: Tally) -> dict:
    """End-to-end metrics over the whole cycles that best fill the time.

    Another cycle starts only while the run would end nearer to
    ``--seconds`` with it than without it, taking the last cycle's time
    as the estimate; the first cycle always runs.
    """
    probes = [_probe_setup(args) for _ in range(SETUP_PROBES // 2)]
    wl.setup()
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for req in wl.cycle():
            tally.run(wl, req, refs)
        now = time.perf_counter()
        if args.quick or now - started + (now - cycle_start) / 2 \
                > args.seconds:
            break
    # A probe's largest child is one `cubewalk --version` process, smaller
    # than any cli request, so RUSAGE_CHILDREN still reports a request.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    probes += [_probe_setup(args) for _ in range(SETUP_PROBES // 2)]
    lat = tally.latencies
    values = {
        "setup_s": statistics.median(probes),
        "throughput_per_s": tally.units / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": _percentile(lat, 90),
        "peak_rss_mb": peak_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def trace(args, wl, refs: dict, tally: Tally) -> dict:
    """Per-layer metrics from one cycle, run untraced and then traced."""
    wl.setup()
    reqs = wl.cycle()
    plain = sum(tally.run(wl, req, refs) for req in reqs)
    tracer = Tracer()
    if args.workload == "cli":  # the child runner installs the wrappers
        traced = [tally.run(wl, req, refs, tracer) for req in reqs]
    else:
        with installed(tracer):
            traced = [tally.run(wl, req, refs, tracer) for req in reqs]
    tracer.check(traced)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json.gz")
    calls, self_s = tracer.totals()
    metrics = {}
    for name, unit, source in PER_LAYER:
        if source == "process":
            value = self_s.get(ROOT_SPAN, 0.0) if args.workload == "cli" \
                else 0.0
        elif source == "overhead":
            value = sum(traced) / plain
        else:
            kind, key = source
            table = {"calls": calls, "self": self_s,
                     "counter": tracer.counters}[kind]
            value = table.get(key, 0)
        metrics[name] = _metric(value, unit)
    return metrics


def _versions() -> dict:
    import cubewalk
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cubewalk": cubewalk.__version__,
            "cubewalk_path": str(Path(cubewalk.__file__).parent)}


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one cycle at reduced size")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cubewalk" / "__init__.py").is_file():
        print(f"error: no cubewalk package under {SRC}; run from the root "
              "of a cubewalk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload](args.seed, quick=args.quick)
    if args.setup_probe:
        wl.setup()
        return 0
    refs = json.loads(REFS.read_text())
    tally = Tally()
    started = time.perf_counter()
    metrics = (trace if args.trace else measure)(args, wl, refs, tally)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "requests": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "latency_samples": len(tally.latencies),
        "wall_s": time.perf_counter() - started,
        "nproc": os.cpu_count(), "commit": _git_commit(), **_versions(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
