"""Span tracing for hierknn from outside the package.

``install()`` wraps every public module-level function of the ``hierknn``
package at each name it is bound to, so a call made through
``hierknn.infer.top_k`` or ``hierknn.cli.bank_load`` is recorded exactly
as its caller makes it. The package itself is not edited. Spans stay in
memory until ``Tracer.dump`` writes them out at the end of the process.

A span is ``[name, start, end, parent, extra]``: ``name`` is
``<module>.<function>``, times come from ``time.perf_counter`` (a
system-wide monotonic clock on Linux, so the parent process can line
child spans up with its own spawn and reap times), ``parent`` is the
index of the enclosing span or -1, and ``extra`` holds the counters a
probe measured at that boundary.

``summarize()`` turns the spans of one or more processes into the
per-layer metrics; it runs in the benchmark process and does not import
hierknn.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

# Functions whose work belongs to another layer than their defining module:
# manifest reading and writing are the CLI's query parse and output write.
LAYER_OF = {"bank.read_manifest": "io", "bank.write_manifest": "io"}

# Layers of the table, in the order of a call's path through the program.
LAYERS = ("cli", "io", "taxonomy", "bank", "synth", "knn", "infer", "ensemble",
          "metrics", "bench")


def _tell(f):
    try:
        return f.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _io_bytes(args, kwargs, before, result):
    after = _tell(args[0]) if args else None
    if before is None or after is None:
        return None
    return {"bytes": after - before}


def _rows_top_k(args, kwargs, before, result):
    bank = args[0]
    return {"rows": len(bank), "dim": bank.dim}


def _rows_top_k_filtered(args, kwargs, before, result):
    import numpy as np

    bank, _q, _k, level, allowed = args[:5]
    col = bank.labels[:, level - 1].astype(np.int64)
    rows = int(np.isin(col, np.fromiter((int(a) for a in allowed), dtype=np.int64)).sum())
    return {"rows": rows, "dim": bank.dim}


def _fallbacks(args, kwargs, before, result):
    flags = getattr(result, "fallback_used", None)
    if flags is None:
        return None
    return {"fb2": int(bool(flags[1])), "fb3": int(bool(flags[2]))}


# name -> (before(args, kwargs), after(args, kwargs, before, result))
PROBES = {
    "bank.bank_load": (lambda a, kw: _tell(a[0]) if a else None, _io_bytes),
    "bank.bank_save": (lambda a, kw: _tell(a[1]) if len(a) > 1 else None,
                       lambda a, kw, b, r: _io_bytes(a[1:], kw, b, r)),
    "knn.top_k": (None, _rows_top_k),
    "knn.top_k_filtered": (None, _rows_top_k_filtered),
    "infer.predict_hierarchical": (None, _fallbacks),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.wrapped: set[str] = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before, after = PROBES.get(name, (None, None))

        if inspect.isgeneratorfunction(fn):
            # One span from the first resumption to exhaustion; every caller
            # in the package drains the generator with list().
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                inner = fn(*args, **kwargs)
                rec = None
                while True:
                    if rec is None:
                        index = len(spans)
                        rec = [name, clock(), 0.0, parent, None]
                        spans.append(rec)
                    stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec[2] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        def probe(step, *probe_args):
            # a probe that no longer fits the function's signature must not
            # break the traced command; the span records why it has no counts
            try:
                return step(*probe_args)
            except Exception as exc:  # noqa: BLE001
                return {"probe_error": repr(exc)}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = probe(before, args, kwargs) if before else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[4] = probe(after, args, kwargs, state, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public hierknn function at every module binding."""
        import hierknn  # noqa: F401  (imports every submodule)
        import hierknn.cli  # noqa: F401

        wrappers: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hierknn" or n.startswith("hierknn."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("hierknn.") or obj.__name__.startswith("_"):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self.wrapped.add(name)
                setattr(module, attr, wrappers[id(obj)])

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def dump(self, path, marks: dict) -> None:
        """Write the spans to ``path``, then the time writing them ended to
        ``path.done``, so that the dump counts as tracing, not as exit."""
        doc = {"marks": dict(marks, end=time.perf_counter()),
               "wrapped": sorted(self.wrapped), "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open(f"{path}.done", "w", encoding="utf-8") as fh:
            fh.write(repr(time.perf_counter()))


# ------------------------------------------------------------ aggregation


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans, names) -> float:
    """Summed duration of spans in ``names`` not nested inside another one."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


# Metrics summed from the outermost spans of these functions.
INCLUSIVE = {
    "knn.top_k_s": ("knn.top_k",),
    "ensemble.member_outputs_s": ("ensemble.member_outputs",),
    "ensemble.combine_members_s": ("ensemble.combine_members",),
    "bank.load_s": ("bank.bank_load",),
    "bank.save_s": ("bank.bank_save",),
    "bank.build_s": ("bank.bank_build",),
    "bank.merge_s": ("bank.bank_merge",),
    "cli.read_manifest_s": ("bank.read_manifest",),
    "cli.write_manifest_s": ("bank.write_manifest",),
    "synth.generate_s": ("synth.generate",),
    "synth.generate_member_banks_s": ("synth.generate_member_banks",),
    "synth.apply_shift_s": ("synth.apply_shift",),
    "metrics.score_predictions_s": ("metrics.score_predictions",),
    "taxonomy.load_s": ("taxonomy.load_taxonomy", "taxonomy.default_taxonomy"),
}
# Metrics summed from the self time of one function's spans.
SELF = {
    "infer.predict_hierarchical_self_s": "infer.predict_hierarchical",
    "infer.flat_vote_self_s": "infer.flat_vote",
}
# Metrics counting one function's calls.
CALLS = {
    "knn.top_k_calls": "knn.top_k",
    "knn.top_k_filtered_calls": "knn.top_k_filtered",
    "infer.vote_calls": "infer.vote_mode",
    "metrics.macro_f1_calls": "metrics.macro_f1",
}
SELF_LAYERS = ("knn", "infer", "ensemble", "bank", "synth", "metrics", "taxonomy", "cli", "bench")

# metric name -> (unit, better, the wrapped functions it needs)
PER_LAYER = {
    "knn.top_k_calls": ("count", "lower", ("knn.top_k",)),
    "knn.top_k_s": ("s", "lower", ("knn.top_k",)),
    "knn.top_k_filtered_calls": ("count", "lower", ("knn.top_k_filtered",)),
    "knn.rows_scored": ("count", "lower", ("knn.top_k",)),
    "knn.bytes_scanned": ("bytes", "lower", ("knn.top_k",)),
    "knn.retrievals_per_query": ("ratio", "lower", ("knn.top_k",)),
    "knn.self_s": ("s", "lower", ()),
    "infer.predict_hierarchical_self_s": ("s", "lower", ("infer.predict_hierarchical",)),
    "infer.flat_vote_self_s": ("s", "lower", ("infer.flat_vote",)),
    "infer.vote_calls": ("count", "lower", ("infer.vote_mode",)),
    "infer.fallback_rate.l2": ("ratio", "lower", ("infer.predict_hierarchical",)),
    "infer.fallback_rate.l3": ("ratio", "lower", ("infer.predict_hierarchical",)),
    "infer.self_s": ("s", "lower", ()),
    "ensemble.member_outputs_s": ("s", "lower", ("ensemble.member_outputs",)),
    "ensemble.combine_members_s": ("s", "lower", ("ensemble.combine_members",)),
    "ensemble.retrievals_per_member_query": ("ratio", "lower", ("knn.top_k",)),
    "ensemble.self_s": ("s", "lower", ()),
    "bank.load_s": ("s", "lower", ("bank.bank_load",)),
    "bank.save_s": ("s", "lower", ("bank.bank_save",)),
    "bank.build_s": ("s", "lower", ("bank.bank_build",)),
    "bank.merge_s": ("s", "lower", ("bank.bank_merge",)),
    "bank.bytes_read": ("bytes", "lower", ("bank.bank_load",)),
    "bank.bytes_written": ("bytes", "lower", ("bank.bank_save",)),
    "bank.self_s": ("s", "lower", ()),
    "cli.read_manifest_s": ("s", "lower", ("bank.read_manifest",)),
    "cli.write_manifest_s": ("s", "lower", ("bank.write_manifest",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "synth.generate_s": ("s", "lower", ("synth.generate",)),
    "synth.generate_member_banks_s": ("s", "lower", ("synth.generate_member_banks",)),
    "synth.apply_shift_s": ("s", "lower", ("synth.apply_shift",)),
    "synth.self_s": ("s", "lower", ()),
    "metrics.score_predictions_s": ("s", "lower", ("metrics.score_predictions",)),
    "metrics.macro_f1_calls": ("count", "lower", ("metrics.macro_f1",)),
    "metrics.self_s": ("s", "lower", ()),
    "taxonomy.load_s": ("s", "lower", ("taxonomy.load_taxonomy",)),
    "taxonomy.self_s": ("s", "lower", ()),
    "process.startup_s": ("s", "lower", ()),
    "process.exit_s": ("s", "lower", ()),
    "bench.self_s": ("s", "lower", ()),
    "trace.self_s": ("s", "lower", ()),
    "trace.overhead_pct": ("%", "lower", ()),
}

RETRIEVALS = ("knn.top_k", "knn.top_k_filtered")


def summarize(runs, wrapped, query_pairs, grid_pairs):
    """Per-layer metrics over traced child processes.

    ``runs`` are objects with the attributes ``kind`` (the op kind),
    ``spawn`` and ``reaped`` (parent clock) and ``trace`` (a dumped trace).
    ``query_pairs`` is the number of (bank, query) classifications the
    benchmark asked for in classify, classify --flat and lookup runs;
    ``grid_pairs`` the member-query pairs of the ablate runs. Returns
    ``(metrics, absent, table)``: metric values (all but
    ``trace.overhead_pct``), the metrics whose functions the package no
    longer has, and one accounting row per run.
    """
    m = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_pct"}
    layer_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    ph_calls = fb2 = fb3 = query_retrievals = grid_retrievals = 0
    table = []
    for run in runs:
        spans, marks = run.trace["spans"], run.trace["marks"]
        own = self_times(spans)
        row = {"kind": run.kind, "wall_s": run.reaped - run.spawn,
               "startup_s": marks["imported"] - run.spawn,
               "exit_s": run.reaped - marks["dumped"], "layers": {}}
        root = sum(s[2] - s[1] for s in spans if s[3] < 0)
        # patching, writing the trace, and gaps between top-level spans
        row["tracing_s"] = (marks["ready"] - marks["imported"]) + \
            (marks["dumped"] - marks["end"]) + (marks["end"] - marks["ready"] - root)
        for s, t in zip(spans, own):
            name, extra = s[0], s[4] or {}
            layer = layer_of(name)
            row["layers"][layer] = row["layers"].get(layer, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            if name in RETRIEVALS:
                m["knn.rows_scored"] += extra.get("rows", 0)
                m["knn.bytes_scanned"] += extra.get("rows", 0) * extra.get("dim", 0) * 8
                query_retrievals += run.kind in ("classify", "classify_flat", "lookup")
                grid_retrievals += run.kind == "ablate"
            elif name == "bank.bank_load":
                m["bank.bytes_read"] += extra.get("bytes", 0)
            elif name == "bank.bank_save":
                m["bank.bytes_written"] += extra.get("bytes", 0)
            elif name == "infer.predict_hierarchical":
                ph_calls += 1
                fb2 += extra.get("fb2", 0)
                fb3 += extra.get("fb3", 0)
            for metric, fn in SELF.items():
                if name == fn:
                    m[metric] += t
        for layer, t in row["layers"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + t
        for metric, fns in INCLUSIVE.items():
            m[metric] += _outermost(spans, set(fns))
        m["process.startup_s"] += row["startup_s"]
        m["process.exit_s"] += row["exit_s"]
        m["trace.self_s"] += row["tracing_s"]
        table.append(row)

    for metric, fn in CALLS.items():
        m[metric] = calls.get(fn, 0)
    m["infer.fallback_rate.l2"] = fb2 / ph_calls if ph_calls else 0.0
    m["infer.fallback_rate.l3"] = fb3 / ph_calls if ph_calls else 0.0
    m["knn.retrievals_per_query"] = query_retrievals / query_pairs if query_pairs else 0.0
    m["ensemble.retrievals_per_member_query"] = (
        grid_retrievals / grid_pairs if grid_pairs else 0.0)
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    absent = sorted(name for name, (_u, _b, needs) in PER_LAYER.items()
                    if any(fn not in wrapped for fn in needs))
    for name in absent:
        m[name] = 0.0
    return m, absent, table
