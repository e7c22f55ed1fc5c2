"""Child-process entry points of the benchmark.

    python3 perfbench/child.py [--trace FILE] KIND ARGS...

KIND is one of:

- ``cli ARGS...``: run ``hierknn`` in-process, as ``python -m hierknn
  ARGS`` would. Only used with ``--trace``; untraced commands run as
  ``python3 -m hierknn`` itself.
- ``setup BANK QUERIES K``: time taxonomy load, bank load and the first
  hierarchical query; print ``{"setup_s": ...}``.
- ``lookup BANK QUERIES K N OUT``: closed loop of N one-query
  ``predict_hierarchical`` calls cycling through QUERIES; write the
  latencies and predictions to OUT.
- ``export BANK A B``: write the bank's even rows to manifest A and its
  odd rows to manifest B (the two halves ``bank build`` ingests).
- ``dump BANK OUT``: save the bank's vectors, labels and the tree's
  parent tables to OUT (.npz) for the benchmark's oracle.
- ``warm``: import the package once, before anything is timed.
- ``members CONFIG N SHIFT_SEED DIR``: save the N member banks
  ``ablate --banks N --config CONFIG`` generates, plus their shifted
  query set, under DIR.

With ``--trace FILE`` every public hierknn function is wrapped (see
tracer.py) and the spans are written to FILE when the process ends.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _query_vectors(path):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    return [(r["id"], np.asarray(r["vector"], dtype=np.float64)) for r in recs]


def setup(bank_path, queries, k):
    import hierknn

    q = _query_vectors(queries)[0][1]
    t0 = time.perf_counter()
    tax = hierknn.default_taxonomy()
    with open(bank_path, "rb") as fh:
        bank = hierknn.bank_load(fh, tax)
    hierknn.predict_hierarchical(bank, q, int(k), tax)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def lookup(bank_path, queries, k, n, out):
    import hierknn

    tax = hierknn.default_taxonomy()
    with open(bank_path, "rb") as fh:
        bank = hierknn.bank_load(fh, tax)
    items = _query_vectors(queries)
    k, n = int(k), int(n)
    hierknn.predict_hierarchical(bank, items[0][1], k, tax)  # set-up is setup_s's share
    clock = time.perf_counter
    lat = []
    preds, counts = {}, {}
    for i in range(n):
        qid, q = items[i % len(items)]
        t0 = clock()
        pred = hierknn.predict_hierarchical(bank, q, k, tax)
        lat.append(clock() - t0)
        path = [tax.name_of(1, pred.y1), tax.name_of(2, pred.y2), tax.name_of(3, pred.y3)]
        counts[qid] = counts.get(qid, 0) + 1
        seen = preds.setdefault(qid, path)
        if seen != path:
            preds[qid] = None  # the same query answered two ways
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"latency_s": lat, "preds": preds, "counts": counts}, fh)


def export(bank_path, a_path, b_path):
    import hierknn

    tax = hierknn.default_taxonomy()
    with open(bank_path, "rb") as fh:
        bank = hierknn.bank_load(fh, tax)
    leaves = tax.names(3)
    rows = zip(bank.ids, bank.labels[:, 2].tolist(), bank.vectors.tolist())
    with open(a_path, "w", encoding="utf-8") as fa, open(b_path, "w", encoding="utf-8") as fb:
        for i, (rid, leaf, vec) in enumerate(rows):
            rec = {"id": rid, "label": leaves[leaf], "vector": vec}
            (fa if i % 2 == 0 else fb).write(json.dumps(rec) + "\n")


def dump(bank_path, out):
    import numpy as np

    import hierknn

    tax = hierknn.default_taxonomy()
    with open(bank_path, "rb") as fh:
        bank = hierknn.bank_load(fh, tax)
    parent2 = [tax.parent_of(2, i) for i in range(tax.node_count(2))]
    parent3 = [tax.parent_of(3, i) for i in range(tax.node_count(3))]
    np.savez(out, vectors=bank.vectors, labels=bank.labels,
             parent2=np.asarray(parent2), parent3=np.asarray(parent3),
             names3=np.asarray(tax.names(3)), names2=np.asarray(tax.names(2)),
             names1=np.asarray(tax.names(1)))


def members(config, n, shift_seed, out_dir):
    import hierknn

    tax = hierknn.default_taxonomy()
    cfg = hierknn.parse_synth_config(Path(config).read_text(encoding="utf-8"))
    banks, queries = hierknn.generate_member_banks(cfg, int(n), tax)
    queries = hierknn.apply_shift(queries, hierknn.MODERATE_SHIFT, int(shift_seed))
    out = Path(out_dir)
    for m, bank in enumerate(banks):
        with open(out / f"member{m}.hbnk", "wb") as fh:
            hierknn.bank_save(bank, fh)
    with open(out / "member_queries.jsonl", "w", encoding="utf-8") as fh:
        hierknn.write_manifest(queries, fh)


def warm():
    import hierknn.cli  # noqa: F401


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    tracer = None
    if trace_path:
        import hierknn.cli  # noqa: F401

        from tracer import Tracer

        imported = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        marks = {"imported": imported, "ready": time.perf_counter()}
    code = 0
    if kind == "cli":
        import hierknn.cli

        code = hierknn.cli.main(args)
    else:
        fn = {"setup": setup, "lookup": lookup, "export": export, "dump": dump,
              "members": members, "warm": warm}[kind]
        if tracer:
            with tracer.span(f"bench.{kind}"):
                fn(*args)
        else:
            fn(*args)
    if tracer:
        tracer.dump(trace_path, marks)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
