#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hierknn CLI.

    python3 perfbench/run.py --workload scaled --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, and every file the benchmark makes lives under
``.perfbench_work/`` there. Each user command runs as its own
``python3 -m hierknn`` child process, one after another (one client, a
closed loop), with BLAS left at its default thread count. Every input
comes from ``--seed``. See README.md beside this file for the workloads
and the metrics.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
command once plain and once under the tracer (see tracer.py), and prints
the per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Every op is one child
command, set-up probe or lookup; an op fails when it exits non-zero or
when its output disagrees with a check. Exits 2 without a result when
the checkout holds no hierknn source.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
from statistics import fmean, median
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from oracle import Oracle, macro_f1  # noqa: E402

STOCK_COUNTS = (60, 76, 50, 220, 600, 140, 56, 36, 72, 440, 44, 32, 100)
DRIFT = ("--rot", "0.3", "--bias", "0.1", "--noise", "0.1")
CLASSIFY_K = 15  # classify and the lookups; the README's quick start

# A child still running this long after the run began is killed, so that a
# hung command cannot hold the run past its time limit.
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    why: str
    dim: int
    counts: tuple[int, ...]
    queries: int | None  # classify/ensemble query sample; None: all queries
    oracle_queries: int | None  # oracle-checked share of that sample
    ensemble_k: int
    members: int  # 0: ensemble and ablate over the two ingested halves
    lookups_per_round: int
    classify_per_round: int  # classify and classify --flat runs per round


WORKLOADS = {
    "scaled": Workload(
        why="30,816-entry dim-64 bank: retrieval (top_k) dominates classify, "
            "ensemble and ablate; ingest is bank-layer I/O with no retrieval",
        dim=64, counts=tuple(20 * c for c in STOCK_COUNTS), queries=200,
        oracle_queries=64, ensemble_k=15, members=0,
        lookups_per_round=250, classify_per_round=1),
    "stock": Workload(
        why="1,537-entry dim-10 banks: cheap retrieval, so voting, member "
            "generation and process start-up dominate; 7-member ablate and ensemble",
        dim=10, counts=STOCK_COUNTS, queries=None, oracle_queries=None,
        ensemble_k=35, members=7,
        lookups_per_round=1000, classify_per_round=2),
}

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ingest_s": "s", "classify_qps": "1/s",
    "classify_flat_qps": "1/s", "lookup_p50_ms": "ms",
    "ensemble_qps": "1/s", "ablate_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not go on (not a failed op)."""


# ------------------------------------------------------------ environment


def _blas_threads():
    try:
        import numpy
    except ImportError:
        return None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = None
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ------------------------------------------------------------ child processes


@dataclass
class Child:
    kind: str
    code: int
    out: str
    err: str
    spawn: float
    reaped: float
    maxrss_kb: int
    trace: dict | None

    @property
    def wall(self) -> float:
        return self.reaped - self.spawn


class Runner:
    """Starts one child at a time and waits for it; records wall and RSS."""

    def __init__(self, root: Path, logs: Path, started: float):
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.logs = logs
        self.started = started
        self.count = 0

    def run(self, kind, argv, cwd, trace=False) -> Child:
        self.count += 1
        argv = [str(a) for a in argv]
        stem = self.logs / f"{self.count:04d}-{kind}"
        trace_path = f"{stem}.trace.json"
        if trace and argv[:3] == [sys.executable, "-m", "hierknn"]:
            argv = [sys.executable, str(HERE / "child.py"), "--trace", trace_path, "cli"] + argv[3:]
        elif trace:
            argv = argv[:2] + ["--trace", trace_path] + argv[2:]
        budget = DEADLINE_S - (time.perf_counter() - self.started)
        if budget <= 0:
            raise BenchError("out of time before starting " + kind)
        with open(f"{stem}.out", "w+", encoding="utf-8") as fo, \
                open(f"{stem}.err", "w+", encoding="utf-8") as fe:
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            reaped = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            out, err = fo.read(), fe.read()
        doc = None
        if trace and proc.returncode == 0:
            with open(trace_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            with open(f"{trace_path}.done", encoding="utf-8") as fh:
                doc["marks"]["dumped"] = float(fh.read())
        if proc.returncode < 0:
            raise BenchError(f"{kind} killed after {reaped - spawn:.1f} s (time limit)")
        return Child(kind, proc.returncode, out, err, spawn, reaped, usage.ru_maxrss, doc)


# ------------------------------------------------------------ helpers


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def stride_sample(n_total: int, n: int | None, rng: random.Random) -> list[int]:
    """n indices spread evenly over range(n_total) from a seeded offset.

    Query files are sorted by leaf, so a stride reaches every leaf with
    enough queries; a prefix would cover only the first few.
    """
    if n is None or n >= n_total:
        return list(range(n_total))
    stride = n_total / n
    offset = rng.random() * stride
    return [int(offset + i * stride) for i in range(n)]


def percentile(xs, p):
    """The p-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(xs, n=100)[p - 1]


def synth_config(spec: Workload, seed: int) -> str:
    counts = ", ".join(str(c) for c in spec.counts)
    return f"dim = {spec.dim}\nper_leaf_counts = {counts}\nseed = {seed}\n"


# ------------------------------------------------------------ one pass


class Session:
    """The ops of one workload run, their samples, and their checks."""

    def __init__(self, root: Path, spec: Workload, seed: int, work: Path, started: float):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.runner = Runner(root, work / "logs", started)
        (work / "logs").mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.peak_kb = 0
        self.children: list[Child] = []  # user-facing children, for traces
        self.extra: dict[str, float] = {}

    # -- op bookkeeping

    def fail(self, what, why, count=1):
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def op(self, kind, argv, cwd, trace=False, check=None, sample=None) -> Child:
        child = self.runner.run(kind, argv, cwd, trace)
        self.attempted += 1
        self.peak_kb = max(self.peak_kb, child.maxrss_kb)
        self.children.append(child)
        self.samples.setdefault(sample or kind, []).append(child.wall)
        if child.code != 0:
            self.fail(kind, f"exit {child.code}: {child.err.strip()[-300:]}")
        elif check is not None:
            try:
                problem = check(child)
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                problem = f"unreadable output ({exc!r})"
            if problem:
                self.fail(kind, problem)
        return child

    def helper(self, kind, *args, cwd):
        child = self.runner.run(kind, [sys.executable, str(HERE / "child.py"), kind,
                                       *map(str, args)], cwd)
        if child.code != 0:
            raise BenchError(f"helper {kind} failed: {child.err.strip()[-500:]}")
        return child

    def cli(self, *args):
        return [sys.executable, "-m", "hierknn", *map(str, args)]

    # -- phases

    def ingest(self, d: Path, trace=False, export=True):
        """synth, then bank build of two exported halves, merge, and info."""
        spec, seed = self.spec, self.seed
        (d / "synth.cfg").write_text(synth_config(spec, seed), encoding="utf-8")
        n = {}

        def synth_check(c):
            try:
                n["synth"] = int(c.out.split("(")[1].split()[0])
            except (IndexError, ValueError):
                return f"unreadable synth output {c.out.strip()!r}"
            return None

        def built(name):
            def check(c):
                want = sum(1 for _ in open(d / f"{name}.jsonl", encoding="utf-8"))
                got = _entries(c.out)
                n[name] = got
                return None if got == want else f"{name}: {got} entries built from {want} records"
            return check

        def merge_check(c):
            got = _entries(c.out)
            want = n.get("a", -1) + n.get("b", -1)
            return None if got == want else f"merged {got} entries, a + b = {want}"

        def info_check(c):
            lines = c.out.splitlines()
            try:
                entries = int(next(l for l in lines if l.startswith("entries:")).split()[1])
                hist = sum(int(l.rsplit(":", 1)[1]) for l in lines if l.startswith("  "))
            except (StopIteration, IndexError, ValueError):
                return f"unreadable bank info output {c.out.strip()[:200]!r}"
            if entries != n.get("synth") or entries != n.get("a", -1) + n.get("b", -1):
                return f"info reports {entries} entries; synth wrote {n.get('synth')}, " \
                       f"a + b = {n.get('a', -1) + n.get('b', -1)}"
            if hist != entries:
                return f"leaf histogram sums to {hist}, not {entries}"
            return None

        start = len(self.children)
        self.op("synth", self.cli("synth", "--config", "synth.cfg", "--out", "bank.hbnk",
                                  "--queries", "queries.jsonl", *DRIFT,
                                  "--shift-seed", seed), d, trace, synth_check)
        if export:  # the same seed writes the same bank, so once is enough
            self.helper("export", "bank.hbnk", "a.jsonl", "b.jsonl", cwd=d)
        self.op("build", self.cli("bank", "build", "--manifest", "a.jsonl", "--out", "a.hbnk"),
                d, trace, built("a"))
        self.op("build", self.cli("bank", "build", "--manifest", "b.jsonl", "--out", "b.hbnk"),
                d, trace, built("b"))
        self.op("merge", self.cli("bank", "merge", "a.hbnk", "b.hbnk", "--out", "merged.hbnk"),
                d, trace, merge_check)
        self.op("info", self.cli("bank", "info", "merged.hbnk"), d, trace, info_check)
        self.samples.setdefault("ingest", []).append(sum(c.wall for c in self.children[start:]))

    def prepare(self, d: Path) -> dict:
        """Benchmark-side inputs: query sample, oracle arrays, member banks."""
        spec = self.spec
        rng = random.Random(f"{self.seed}/queries")
        queries = read_jsonl(d / "queries.jsonl")
        picked = [queries[i] for i in stride_sample(len(queries), spec.queries, rng)]
        missing = {q["label"] for q in queries} - {q["label"] for q in picked}
        if missing:
            raise BenchError(f"query sample misses leaves {sorted(missing)}")
        write_jsonl(picked, d / "sample.jsonl")
        checked = stride_sample(len(picked), spec.oracle_queries, rng)
        self.helper("dump", "merged.hbnk", "oracle.npz", cwd=d)
        if spec.members:
            self.helper("members", "synth.cfg", spec.members, self.seed, ".", cwd=d)
            banks = ",".join(f"member{m}.hbnk" for m in range(spec.members))
            ens_queries = "member_queries.jsonl"
        else:
            banks = "a.hbnk,b.hbnk"
            ens_queries = "sample.jsonl"
        n_ens = len(read_jsonl(d / ens_queries))
        return {"sample": picked, "checked": checked, "banks": banks,
                "ens_queries": ens_queries, "n_ens": n_ens,
                "members": spec.members or 2}

    def setup_probe(self, d: Path, trace=False):
        def check(c):
            try:
                self.samples.setdefault("setup_s", []).append(
                    json.loads(c.out.strip().splitlines()[-1])["setup_s"])
            except (IndexError, KeyError, ValueError):
                return f"unreadable setup output {c.out.strip()[-200:]!r}"
            return None
        self.op("setup", [sys.executable, str(HERE / "child.py"), "setup", "merged.hbnk",
                          "sample.jsonl", CLASSIFY_K], d, trace, check, "setup_wall")

    def lookup(self, d: Path, n: int, trace=False) -> dict | None:
        child = self.op("lookup", [sys.executable, str(HERE / "child.py"), "lookup",
                                   "merged.hbnk", "sample.jsonl", CLASSIFY_K, n,
                                   "lookup.json"], d, trace)
        self.attempted += n - 1  # one op per lookup; the child counted once
        if child.code != 0:
            self.fail("lookup", "child failed; every lookup counts", n - 1)
            return None
        with open(d / "lookup.json", encoding="utf-8") as fh:
            return json.load(fh)

    def query_ops(self, d: Path, inp: dict, oracle, trace=False, reps=1):
        """classify, classify --flat, evaluate, ensemble, ablate; checked."""
        spec = self.spec
        sample = inp["sample"]
        ids = [q["id"] for q in sample]
        results = {}

        def preds_check(flat):
            def check(c):
                out = read_jsonl(d / ("flat.jsonl" if flat else "preds.jsonl"))
                results["flat" if flat else "hier"] = out
                if [r.get("id") for r in out] != ids:
                    return "prediction ids differ from the query ids"
                for i in inp["checked"]:
                    q = sample[i]["vector"]
                    if flat:
                        want, got = oracle.classify_flat(q, CLASSIFY_K), out[i]["y3"]
                    else:
                        names, fb = oracle.classify(q, CLASSIFY_K)
                        want = names + [fb]
                        got = [out[i]["y1"], out[i]["y2"], out[i]["y3"], out[i]["fallback"]]
                    if want != got:
                        return f"{ids[i]}: oracle says {want}, hierknn says {got}"
                return None
            return check

        def evaluate_check(c):
            truth = [q["label"] for q in sample]
            pred = [r["y3"] for r in results.get("hier", [])]
            if len(pred) != len(truth):
                return "no classify output to recount"
            exact = macro_f1_of(truth, pred, oracle.names[3])
            try:
                printed = float(c.out.split("macro_f1:")[1].split()[0])
                report = json.loads((d / "report.json").read_text(encoding="utf-8"))
            except (IndexError, ValueError, OSError):
                return f"unreadable evaluate output {c.out.strip()!r}"
            self.extra["classify_macro_f1"] = float(exact)
            for value in (printed, report.get("macro_f1")):
                if not isinstance(value, float) or abs(value - float(exact)) > 1e-12:
                    return f"macro F1 {value!r}, recount gives {float(exact)!r}"
            if report.get("n_samples") != len(truth):
                return f"evaluate scored {report.get('n_samples')} samples, not {len(truth)}"
            return None

        def ensemble_check(c):
            queries = read_jsonl(d / inp["ens_queries"])
            out = read_jsonl(d / "ensemble.jsonl")
            if [r.get("id") for r in out] != [q["id"] for q in queries]:
                return "ensemble ids differ from the query ids"
            if any(r.get("label") not in oracle.names[3] for r in out):
                return "ensemble output names an unknown leaf"
            self.extra["ensemble_macro_f1"] = float(macro_f1_of(
                [q["label"] for q in queries], [r["label"] for r in out], oracle.names[3]))
            return None

        def ablate_check(c):
            lines = (d / "grid.csv").read_text(encoding="utf-8").splitlines()
            want = [str(m) for m in range(1, inp["members"] + 1)]
            rows = [l.split(",") for l in lines[1:]]
            if [r[0] for r in rows] != want:
                return f"grid rows {[r[0] for r in rows]}, expected members {want}"
            if not all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:]):
                return "grid macro F1 outside [0, 1]"
            return None

        k, ek = CLASSIFY_K, spec.ensemble_k
        for _ in range(reps):
            self.op("classify", self.cli("classify", "--bank", "merged.hbnk", "--queries",
                                         "sample.jsonl", "--out", "preds.jsonl", "--k", k),
                    d, trace, preds_check(False))
            self.op("classify_flat", self.cli("classify", "--bank", "merged.hbnk", "--queries",
                                              "sample.jsonl", "--out", "flat.jsonl", "--k", k,
                                              "--flat"), d, trace, preds_check(True))
        self.op("evaluate", self.cli("evaluate", "--preds", "preds.jsonl", "--truth",
                                     "sample.jsonl", "--report", "report.json"),
                d, trace, evaluate_check)
        self.op("ensemble", self.cli("ensemble", "--banks", inp["banks"], "--queries",
                                     inp["ens_queries"], "--out", "ensemble.jsonl", "--k", ek),
                d, trace, ensemble_check)
        if spec.members:
            ablate = ("ablate", "--banks", spec.members, "--config", "synth.cfg", "--k", ek,
                      *DRIFT, "--shift-seed", self.seed, "--out", "grid.csv")
        else:
            ablate = ("ablate", "--banks", inp["banks"], "--queries", "sample.jsonl",
                      "--k", ek, "--out", "grid.csv")
        self.op("ablate", self.cli(*ablate), d, trace, ablate_check)
        return results.get("hier")

    def check_lookups(self, looked: dict | None, hier: list | None):
        """Each lookup must give the path classify gave the same query."""
        if looked is None:
            return
        want = {r["id"]: [r["y1"], r["y2"], r["y3"]] for r in hier or []}
        for qid, path in looked["preds"].items():
            if path is None or want.get(qid) != path:
                self.fail("lookup", f"{qid}: lookup gives {path}, classify gives "
                          f"{want.get(qid)}", looked["counts"][qid])


def _entries(out: str) -> int:
    """N from ``wrote FILE: N entries``; -1 when the line is not there."""
    try:
        return int(out.split(":", 1)[1].split()[0])
    except (IndexError, ValueError):
        return -1


def macro_f1_of(truth_names, pred_names, classes) -> Fraction:
    index = {name: i for i, name in enumerate(classes)}
    return macro_f1([index[t] for t in truth_names], [index.get(p, -1) for p in pred_names],
                    range(len(classes)))


# ------------------------------------------------------------ modes


MIN_ROUNDS = 2
SETUP_PER_ROUND = 2


def end_to_end(s: Session, seconds: float) -> dict:
    """Rounds of ingest, set-up probes, lookups and query commands for about
    ``seconds`` (and at least MIN_ROUNDS), so that every timing is sampled
    across the whole run.

    On a shared 2-vCPU VM a command's wall time is often bimodal (a fast
    and a slow mode, each lasting seconds), so a median of a few samples
    jumps between the modes from run to run. Each timing metric is
    therefore the mean of its samples, and each lookup percentile the mean
    of the per-round percentiles. setup_s stays a median."""
    spec = s.spec
    d = s.work / "pass"
    d.mkdir()
    start = time.perf_counter()
    s.ingest(d)
    inp = s.prepare(d)
    oracle = Oracle(d / "oracle.npz")
    latencies = []
    rounds = 0
    last = 0.0
    # another round starts only if ending it (as long as the last round)
    # lands nearer to ``seconds`` than stopping now
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last / 2 < seconds:
        if time.perf_counter() + last > s.runner.started + DEADLINE_S - 5:
            break
        t0 = time.perf_counter()
        if rounds:  # round 0 uses the ingest that made the data
            s.ingest(d, export=False)
        for _ in range(SETUP_PER_ROUND):
            s.setup_probe(d)
        looked = s.lookup(d, spec.lookups_per_round)
        if looked is None:
            raise BenchError("the lookup phase failed: " + "; ".join(s.failures))
        latencies += looked["latency_s"]
        for p in (50, 90):
            s.samples.setdefault(f"lookup_p{p}", []).append(percentile(looked["latency_s"], p))
        s.check_lookups(looked, s.query_ops(d, inp, oracle, reps=spec.classify_per_round))
        last = time.perf_counter() - t0
        rounds += 1
    s.extra["rounds"] = rounds
    s.extra["lookups"] = len(latencies)
    # p90 and p99 are printed but not metrics: host jitter moves them by
    # more than any bound allows (see README.md)
    s.extra["lookup_p90_ms"] = 1e3 * fmean(s.samples["lookup_p90"])
    s.extra["lookup_p99_ms"] = 1e3 * percentile(latencies, 99)

    n_sample = len(inp["sample"])
    return {
        "setup_s": median(s.samples["setup_s"]),
        "peak_rss_mb": s.peak_kb / 1024.0,
        "ingest_s": fmean(s.samples["ingest"]),
        "classify_qps": n_sample / fmean(s.samples["classify"]),
        "classify_flat_qps": n_sample / fmean(s.samples["classify_flat"]),
        "lookup_p50_ms": 1e3 * fmean(s.samples["lookup_p50"]),
        "ensemble_qps": inp["n_ens"] / fmean(s.samples["ensemble"]),
        "ablate_s": fmean(s.samples["ablate"]),
    }


TRACE_LOOKUPS = 200


def traced(s: Session, seconds: float):
    """Pairs of passes, plain then traced; per-layer metrics and overhead."""
    per_pass, overheads, tables = [], [], []
    start = time.perf_counter()
    pairs = 0
    while pairs < 1 or time.perf_counter() - start < seconds:
        walls = {}
        for trace in ((False, True) if pairs % 2 == 0 else (True, False)):
            d = s.work / f"pass{pairs}-{'traced' if trace else 'plain'}"
            d.mkdir()
            first = len(s.children)
            s.ingest(d, trace)
            inp = s.prepare(d)
            oracle = Oracle(d / "oracle.npz")
            s.setup_probe(d, trace)
            looked = s.lookup(d, TRACE_LOOKUPS, trace)
            hier = s.query_ops(d, inp, oracle, trace)
            s.check_lookups(looked, hier)
            runs = s.children[first:]
            walls[trace] = sum(c.wall for c in runs)
            if trace:
                traces = [c for c in runs if c.trace is not None]
                wrapped = set(traces[0].trace["wrapped"]) if traces else set()
                query_pairs = 2 * len(inp["sample"]) + TRACE_LOOKUPS + 1
                grid_pairs = inp["members"] * (inp["n_ens"] if s.spec.members
                                               else len(inp["sample"]))
                metrics, absent, table = tracer.summarize(traces, wrapped, query_pairs,
                                                          grid_pairs)
                per_pass.append(metrics)
                tables.append(table)
        overheads.append(100.0 * (walls[True] / walls[False] - 1.0))
        pairs += 1
        if time.perf_counter() - s.runner.started > DEADLINE_S / 2:
            break
    metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_pct"] = median(overheads)
    return metrics, absent, tables[-1]


def print_table(table, absent):
    print("# per-command accounting of the last traced pass (seconds):")
    cols = ["startup"] + list(tracer.LAYERS) + ["exit", "tracing"]
    print("#   " + f"{'command':<14}{'wall':>8}" + "".join(f"{c:>9}" for c in cols))
    for row in table:
        vals = [row["startup_s"]] + [row["layers"].get(l, 0.0) for l in tracer.LAYERS] + \
               [row["exit_s"], row["tracing_s"]]
        print("#   " + f"{row['kind']:<14}{row['wall_s']:>8.3f}" +
              "".join(f"{v:>9.3f}" for v in vals))
    for name in absent:
        print(f"# absent: {name} (its function is no longer in hierknn; reported as 0)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "hierknn" / "__init__.py").is_file():
        print(f"error: no hierknn source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    base = root / ".perfbench_work"
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = base / name
    shutil.rmtree(work, ignore_errors=True)
    env = environment(root, args.seed)
    print("# env: " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload}: {spec.why}")
    session = Session(root, spec, args.seed, work, started)
    try:
        # compiles the package and pages in numpy before anything is timed
        session.helper("warm", cwd=work)
        if args.trace:
            metrics, absent, table = traced(session, args.seconds)
            units = {n: u for n, (u, _b, _f) in tracer.PER_LAYER.items()}
        else:
            metrics = end_to_end(session, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in session.failures:
            print(f"error: {line}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, samples in sorted(session.samples.items()):
        print(f"# {key}: mean {fmean(samples):.4f} s, median {median(samples):.4f} s "
              f"over {len(samples)} samples")
    for key, value in sorted(session.extra.items()):
        print(f"# {key}: {value!r}")
    if args.trace:
        print_table(table, absent)
    for line in session.failures:
        print(f"# FAILED {line}")
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {units[key]}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, env=env, workload=args.workload, trace=args.trace,
                  samples=session.samples, extra=session.extra, failures=session.failures)
    (base / "results").mkdir(parents=True, exist_ok=True)
    (base / "results" / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                   encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
