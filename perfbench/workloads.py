"""The three benchmark workloads: survey, query and cli.

Each workload is one closed-loop client.  It draws its inputs from the
``--seed`` through a fixed pool, so every input it can send has an output
pinned in ``refs.json`` (written by ``pin.py`` from the seed commit), and
the program sees only the generated sets, targets and argv.  A workload
runs in cycles: the cycle is the smallest run of requests whose mix of
inputs is the same in every run, so medians compare across seeds.

Every request is checked twice after it is timed: its outputs against the
pinned digests, and against invariants that hold for any correct output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FREE_TEXT = frozenset({"note", "reading"})
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def _normalize(obj):
    """Drop free-text keys and fix float noise below 1e-9."""
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()
                if k not in FREE_TEXT}
    if isinstance(obj, list):
        return [_normalize(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 9) + 0.0  # + 0.0 turns -0.0 into 0.0
    return obj


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj`` after ``_normalize``."""
    text = json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Request:
    """One unit of latency: its pinned-reference key and its inputs."""

    key: str
    inputs: object


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Import, build the input pool and warm up."""

    def cycle(self) -> list[Request]:
        raise NotImplementedError

    def pool(self) -> list[Request]:
        """Every distinct request the workload can send, for pinning."""
        raise NotImplementedError

    def execute(self, req: Request, tracer=None):
        """The timed part of one request."""
        raise NotImplementedError

    def digests(self, req: Request, out) -> dict[str, str]:
        raise NotImplementedError

    def invariants(self, req: Request, out) -> list[str]:
        return []

    def units(self, req: Request, out) -> int:
        """Work items in one request, for throughput."""
        return 1


def problems(wl: Workload, req: Request, out, refs: dict) -> list[str]:
    """Every way the output of ``req`` differs from what it must be."""
    found = list(wl.invariants(req, out))
    for label, value in wl.digests(req, out).items():
        pinned = refs.get(label)
        if pinned is None:
            found.append(f"{label}: no pinned reference")
        elif pinned != value:
            found.append(f"{label}: digest {value[:12]} != pinned "
                         f"{pinned[:12]}")
    return found


# ── survey ────────────────────────────────────────────────────────────────

SCAN_SEEDS = 16  # the sampled scan draws its seed from range(SCAN_SEEDS)


class Survey(Workload):
    """One request is one rotation of four survey calls with jobs=1.

    The first three calls take no seed; the fourth is a sampled
    xor-sum-zero scan whose seed the workload draws from a pinned pool.
    """

    name = "survey"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        if quick:
            self.fixed = [("antipodality_audit", 3, {}),
                          ("conjecture_scan", 3, {}),
                          ("scan_sets", 4, {"d_min": 2, "d_max": 2})]
            self.sampled = ("conjecture_scan", 4, {"sample": 50})
        else:
            self.fixed = [("antipodality_audit", 4, {}),
                          ("conjecture_scan", 4, {}),
                          ("scan_sets", 5, {"d_min": 3, "d_max": 3})]
            self.sampled = ("conjecture_scan", 5, {"sample": 2000})

    def _sampled_call(self, scan_seed: int):
        fn, n, kwargs = self.sampled
        return fn, n, dict(kwargs, seed=scan_seed)

    @staticmethod
    def _label(call) -> str:
        fn, n, kwargs = call
        args = ",".join([str(n)] + [f"{k}={v}" for k, v in kwargs.items()])
        return f"survey:{fn}({args})"

    def setup(self) -> None:
        from cubewalk import scanner
        scanner.antipodality_audit(2).digest()
        scanner.conjecture_scan(3, sample=4, seed=0).digest()

    def cycle(self) -> list[Request]:
        calls = self.fixed + [self._sampled_call(
            self.rng.randrange(SCAN_SEEDS))]
        return [Request(key="survey", inputs=calls)]

    def pool(self) -> list[Request]:
        reqs = [Request(key="survey", inputs=self.fixed)]
        reqs += [Request(key="survey", inputs=[self._sampled_call(s)])
                 for s in range(SCAN_SEEDS)]
        return reqs

    def execute(self, req: Request, tracer=None):
        from cubewalk import scanner
        reports = []
        for call in req.inputs:
            fn, n, kwargs = call
            report = getattr(scanner, fn)(n, **kwargs)
            report.digest()  # what a user records to compare runs
            reports.append((self._label(call), report))
        return reports

    def digests(self, req: Request, out) -> dict[str, str]:
        result = {}
        for label, report in out:
            payload = report.payload()
            payload["summary"] = {k: v for k, v in payload["summary"].items()
                                  if isinstance(v, int)}
            result[label] = digest(payload)
        return result

    def invariants(self, req: Request, out) -> list[str]:
        found = []
        for label, report in out:
            scanned = report.summary["sets_scanned"]
            if report.universe != scanned:
                found.append(f"{label}: universe {report.universe} != "
                             f"sets_scanned {scanned}")
            sample = report.filters.get("sample")
            if sample is not None and scanned != sample:
                found.append(f"{label}: scanned {scanned} of a {sample} "
                             "sample")
        return found

    def units(self, req: Request, out) -> int:
        return sum(report.summary["sets_scanned"] for _, report in out)


# ── query ─────────────────────────────────────────────────────────────────

POOL_SEED = 20080805  # fixed: the pools, and so refs.json, never move


def witness_labels(blocks: tuple[int, ...]) -> tuple[int, ...]:
    """{eᵢ} ∪ {1̄_B⊕eᵢ : i ∈ B} over consecutive coordinate blocks B.

    d = 2n and the xor-sum is 0, yet the walk transfers 0 → 1̄ at π/4
    when every |B| ≡ 2 (mod 4): one block's code is self-orthogonal but
    not doubly even (Cheung & Godsil, LAA 2011), and the graph is the
    Cartesian product of its blocks' graphs.
    """
    labels = set()
    offset = 0
    for size in blocks:
        block = ((1 << size) - 1) << offset
        for i in range(offset, offset + size):
            labels |= {1 << i, block ^ (1 << i)}
        offset += size
    return tuple(sorted(labels))


def _random_labels(rng: random.Random, n: int, d: int,
                   u_zero: bool) -> tuple[int, ...]:
    """A set of d labels; u = 0 forced by toggling label u (so d ± 1)."""
    labels = set(rng.sample(range(1, 1 << n), d))
    if u_zero:
        u = 0
        for label in labels:
            u ^= label
        if u:
            labels ^= {u}
    return tuple(sorted(labels))


class Query(Workload):
    """One request asks every single-set question of one set.

    A cycle is ten requests: one set at each of four degrees spread over
    [n, 3n], then the π/4 witness set, and the same again with sets of
    xor-sum 0 (toggling label u moves their degree by one).  Fixed
    degrees keep the cost of a cycle, which grows with d, the same for
    every seed.
    """

    name = "query"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        # n = 18 would give only 5 requests in a 30 s run, too few for a
        # steady median on a machine whose speed drifts.
        self.n = 10 if quick else 16
        self.witness = (10,) if quick else (6, 10)
        self.per_degree = 2 if quick else 4
        n = self.n
        self.degrees = [n + 1 + (2 * n - 2) * i // 3 for i in range(4)]
        self.entries = self._build_pool()

    def _build_pool(self) -> dict[str, tuple]:
        n = self.n
        rng = random.Random(POOL_SEED + n)
        entries = {}
        for d in self.degrees:
            for u_zero in (False, True):
                for k in range(self.per_degree):
                    labels = _random_labels(rng, n, d, u_zero)
                    entries[f"query:n={n}:d{d}:u{int(not u_zero)}:{k}"] = \
                        (n, labels, rng.randrange(1, 1 << n),
                         rng.randrange(1, 1 << n))
        for k in range(self.per_degree):
            entries[f"query:n={n}:fixed:{k}"] = (
                n, witness_labels(self.witness), rng.randrange(1, 1 << n),
                rng.randrange(1, 1 << n))
        return entries

    def setup(self) -> None:
        import cubewalk  # noqa: F401  (the import is part of set-up)
        self.execute(Request(key="warm-up",
                             inputs=(6, witness_labels((6,)), 5, 9)))

    def _request(self, key: str) -> Request:
        return Request(key=key, inputs=self.entries[key])

    def cycle(self) -> list[Request]:
        reqs = []
        for u_bit in (1, 0):
            for d in self.degrees + [None]:
                k = self.rng.randrange(self.per_degree)
                if d is None:
                    key = f"query:n={self.n}:fixed:{k}"
                else:
                    key = f"query:n={self.n}:d{d}:u{u_bit}:{k}"
                reqs.append(self._request(key))
        return reqs

    def pool(self) -> list[Request]:
        return [self._request(key) for key in self.entries]

    def execute(self, req: Request, tracer=None):
        import cubewalk as cw
        from cubewalk.dynamics import HALF_PI, RationalAngle
        n, labels, delta_bits, target = req.inputs
        omega = cw.bitspace.ConnectionSet(n, labels)
        zero = cw.bitspace.GroupElement.zero(n)
        out = {
            "omega": omega,
            "spectrum": cw.spectral.spectrum(omega),
            "classes": cw.spectral.classify_set(omega),
            "fid_half": cw.dynamics.all_fidelities(omega, HALF_PI),
            "fid_third": cw.dynamics.all_fidelities(omega,
                                                    RationalAngle(1, 3)),
            "measure": cw.dynamics.measurement_distribution(omega, zero,
                                                            HALF_PI),
            "half_pi": cw.pst.pst_at_half_pi(omega),
        }
        first = omega.u if omega.u.bits else \
            cw.bitspace.GroupElement((1 << n) - 1, n)
        decisions = []
        for delta in (first, cw.bitspace.GroupElement(delta_bits, n)):
            when = cw.pst.decide_pst_exact(omega, delta)
            cert = None if when is None else cw.pst.certify(omega, delta,
                                                            when)
            decisions.append((delta, when, cert))
        out["decisions"] = decisions
        out["profile"] = cw.graphwalk.bfs_profile(omega, zero)
        out["bipartite"] = cw.graphwalk.bipartite_functional(omega)
        out["route"] = cw.pst.plan_route(n, target)
        return out

    def digests(self, req: Request, out) -> dict[str, str]:
        import numpy as np
        classes = out["classes"]
        ks = np.array([-1 if e.k is None else e.k for e in classes.entries],
                      dtype=np.int64)
        half = out["half_pi"]
        prof = out["profile"]
        plan = out["route"]
        return {
            f"{req.key}:spectrum": digest({
                "values": array_digest(out["spectrum"].values),
                "case": classes.case, "all_pass": classes.all_pass,
                "k": array_digest(ks)}),
            f"{req.key}:fidelity": digest({
                "half": array_digest(out["fid_half"]),
                "third": digest(out["fid_third"].tolist()),
                "measure": array_digest(out["measure"]),
                "half_pi": None if half is None else
                [half.delta.bits, str(half.time)],
                "decisions": [[d.bits, None if t is None else str(t)]
                              for d, t, _ in out["decisions"]]}),
            f"{req.key}:distance": digest({
                "dist": array_digest(prof.dist), "diameter": prof.diameter,
                "connected": prof.connected,
                "bipartite": None if out["bipartite"] is None
                else out["bipartite"].bits}),
            f"{req.key}:route": digest({
                "total": str(plan.total_time),
                "stages": [[list(s.omega.elements), s.hop.bits, str(s.time)]
                           for s in plan.stages]}),
        }

    def invariants(self, req: Request, out) -> list[str]:
        import numpy as np
        omega = out["omega"]
        n, d, u = omega.n, omega.d, omega.u.bits
        values = out["spectrum"].values
        found = []
        if int(values[0]) != d:
            found.append(f"values[0] = {int(values[0])} != d = {d}")
        if int(values.sum()) != 0:
            found.append("eigenvalues do not sum to 0")
        if int((values * values).sum()) != (1 << n) * d:
            found.append("eigenvalue squares do not sum to 2^n d")
        if not out["classes"].all_pass:
            found.append("a congruence class check failed")
        fid = out["fid_half"]
        if fid[u] != 1.0 or np.count_nonzero(fid) != 1:
            found.append("pi/2 fidelity is not exactly 1 at u and 0 "
                         "elsewhere")
        if abs(float(out["measure"].sum()) - 1.0) > 1e-12:
            found.append("measurement distribution does not sum to 1")
        for delta, when, cert in out["decisions"]:
            if when is not None and abs(abs(complex(cert.phase)) - 1) > 1e-9:
                found.append(f"certificate phase for {delta} is not a unit")
        acc = 0
        for stage in out["route"].stages:
            acc ^= stage.hop.bits
        if acc != req.inputs[3]:
            found.append("route hops do not xor to the target")
        return found


# ── cli ───────────────────────────────────────────────────────────────────

SMALL_COMMANDS = ("spectrum", "evolve", "fidelity", "measure", "graph",
                  "pst-check", "pst-search", "route")
LARGE_COMMANDS = ("spectrum", "evolve", "graph")


def _set_argv(command: str, n: int, labels, delta: int,
              target: int) -> list[str]:
    omega = ",".join(format(e, f"0{n}b") for e in labels)
    if command == "route":
        return ["route", "--n", str(n), "--target", format(target, f"0{n}b")]
    argv = [command, "--n", str(n), "--omega", omega]
    if command in ("fidelity", "pst-search"):
        argv += ["--delta", format(delta, f"0{n}b")]
    if command in ("evolve", "measure"):
        argv += ["--t-pi", "1/2"]
    if command == "fidelity":
        argv += ["--t-pi", "1/4"]
    return argv


class Cli(Workload):
    """One request is one fresh ``python -m cubewalk.cli`` process.

    A cycle is one round of the small commands on one pooled set at
    n ≤ 8, the n = 3 surveys, oracle-verify at its defaults, and the three
    large-output commands on one pooled set at n = 16.
    """

    name = "cli"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        rng = random.Random(POOL_SEED)
        self.small = []
        for i in range(4 if quick else 8):
            n = (2 + i % 3) if quick else (3 + i % 6)
            d = rng.randint(1, min(2 * n, (1 << n) - 1))
            self.small.append((n, tuple(sorted(rng.sample(range(1, 1 << n),
                                                         d))),
                               rng.randrange(1, 1 << n),
                               rng.randrange(1, 1 << n)))
        self.large_n = 8 if quick else 16
        self.large = [tuple(sorted(rng.sample(range(1, 1 << self.large_n),
                                              2 * self.large_n)))
                      for _ in range(2 if quick else 4)]
        survey_n = "2" if quick else "3"
        self.fixed = [["scan", "--n", survey_n],
                      ["audit-antipodal", "--n", survey_n],
                      ["oracle-verify"] + (["--trials", "10", "--pairs", "5"]
                                           if quick else [])]

    @staticmethod
    def _request(argv: list[str]) -> Request:
        return Request(key="cli:" + " ".join(argv), inputs=argv)

    def _round(self, small, large) -> list[Request]:
        argvs = [_set_argv(c, *small) for c in SMALL_COMMANDS]
        argvs += self.fixed
        argvs += [_set_argv(c, self.large_n, large, 1, 1)
                  for c in LARGE_COMMANDS]
        return [self._request(a) for a in argvs]

    def setup(self) -> None:
        run_cli(["--version"])

    def cycle(self) -> list[Request]:
        return self._round(self.rng.choice(self.small),
                           self.rng.choice(self.large))

    def pool(self) -> list[Request]:
        reqs = {}
        for i, small in enumerate(self.small):
            for req in self._round(small, self.large[i % len(self.large)]):
                reqs[req.key] = req
        return list(reqs.values())

    def execute(self, req: Request, tracer=None):
        if tracer is None:
            return run_cli(req.inputs)
        return run_traced_cli(req.inputs, tracer)

    def digests(self, req: Request, out) -> dict[str, str]:
        code, stdout = out
        try:
            doc = json.loads(stdout)
        except ValueError:
            return {req.key: "unparsable output"}
        doc.pop("manifest", None)
        return {req.key: digest(doc)}

    def invariants(self, req: Request, out) -> list[str]:
        code, _ = out
        return [] if code == 0 else [f"{req.key}: exit code {code}"]


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "cubewalk.cli", *argv],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_traced_cli(argv: list[str], tracer) -> tuple[int, bytes]:
    """Run the command under cli_child.py and adopt the child's spans."""
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"cli-child-{os.getpid()}.json"
    proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"),
                           str(spans_path), *argv],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    try:
        child = json.loads(spans_path.read_text())
    finally:
        spans_path.unlink(missing_ok=True)
    tracer.adopt(child["spans"], tracer.current)
    for key, value in child["counters"].items():
        tracer.counters[key] += value
    tracer.counters["cli.output_bytes"] += len(proc.stdout)
    return proc.returncode, proc.stdout


WORKLOADS = {cls.name: cls for cls in (Survey, Query, Cli)}
