"""Command-line front end: bank lifecycle, classification, ensembling,
ablation grids, evaluation, synthetic data, toy training, gradient checks.

Exit codes: 0 success, 1 usage error, 2 data error. Every command that
writes files also writes a run manifest beside its first output,
``<out>.manifest.json``, recording the command, its flags, sha256 digests
of the files it read, and the tool version. Manifests carry no timestamps,
so identical inputs and seeds give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .bank import (
    FeatureBank,
    QuerySet,
    bank_build,
    bank_load,
    bank_merge,
    bank_save,
    leaf_indices,
    read_manifest,
    write_manifest,
)
from .ensemble import TIE_POLICIES, EnsembleConfig, ablation_grid, run_ensemble
from .errors import HierknnError, ManifestError
from .infer import classify_batch
from .knn import DEFAULT_K
from .metrics import score_predictions
from .synth import (
    ShiftSpec,
    SynthConfig,
    apply_shift,
    generate,
    generate_member_banks,
    parse_synth_config,
)
from .taxonomy import Taxonomy, default_taxonomy, load_taxonomy
from .toytrain import (
    LossConfig,
    grad_check_report,
    make_toy_dataset,
    train_toy,
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _HashedFile(io.FileIO):
    """A file opened for reading that hashes each byte as it is read."""

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n

    def readall(self):
        data = super().readall()
        self.sha256.update(data)
        return data


def _first_bad_byte(path) -> str:
    """Where a regular file's first byte that is not UTF-8 sits, as `` (line N, byte B)``.

    Read again on this error path only, so that text inputs stream; a pipe
    cannot be read again, and gives ``""``.
    """
    if not os.path.isfile(path):
        return ""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f" (line {line}, byte {exc.start})"
    return ""


class _Files:
    """Every file a command opens: each file read is a run input, each written an output."""

    def __init__(self):
        self.inputs: dict[str, str] = {}  # path: SHA-256 of the bytes read from it
        self.outputs: list[str] = []

    @contextlib.contextmanager
    def open(self, path, mode="r"):
        """``open(path, mode)``, UTF-8 in text mode; text that does not decode names the file."""
        if "w" in mode:
            self.outputs.append(path)
            with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
                yield fh
            return
        raw = _HashedFile(path)
        fh = io.BufferedReader(raw)
        with fh if "b" in mode else io.TextIOWrapper(fh, encoding="utf-8") as fh:
            try:
                yield fh
            except UnicodeDecodeError:
                raise HierknnError(f"{path}: not UTF-8 text{_first_bad_byte(path)}") from None
            while raw.readinto(bytearray(1 << 16)):  # what the reader left is hashed too
                pass
            self.inputs[str(path)] = raw.sha256.hexdigest()

    def read_text(self, path) -> str:
        with self.open(path) as fh:
            return fh.read()

    def read_bank(self, path, tax: Taxonomy) -> FeatureBank:
        with self.open(path, "rb") as fh:
            return bank_load(fh, tax)

    def read_records(self, path) -> list[dict]:
        with self.open(path) as fh:
            return list(read_manifest(fh))

    def write_text(self, path, text: str) -> None:
        """Write ``text`` and a final newline."""
        with self.open(path, "w") as fh:
            fh.write(text + "\n")

    def write_bank(self, path, bank: FeatureBank) -> None:
        with self.open(path, "wb") as fh:
            bank_save(bank, fh)

    def write_records(self, path, records) -> None:
        with self.open(path, "w") as fh:
            write_manifest(records, fh)


_INTERNAL_ARGS = ("func", "command", "bank_command", "taxonomy_command")


def _write_run_manifest(files: _Files, args) -> None:
    flags = {}
    for key, value in vars(args).items():
        if key in _INTERNAL_ARGS or value is None:
            continue
        flags[key] = value if isinstance(value, (bool, int, float)) else str(value)
    doc = {
        "command": args.command if args.command != "bank" else f"bank {args.bank_command}",
        "flags": flags,
        "inputs": files.inputs,
        "version": __version__,
    }
    path = f"{files.outputs[0]}.manifest.json"
    files.write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def _load_tax(args, files: _Files) -> Taxonomy:
    return load_taxonomy(files.read_text(args.taxonomy)) if args.taxonomy else default_taxonomy()


def _synth_config(args, files: _Files) -> SynthConfig:
    return parse_synth_config(files.read_text(args.config)) if args.config else SynthConfig()


def _record_leaves(records: list[dict], tax: Taxonomy) -> list[int]:
    """Leaf index of each prediction or truth record, from its 'label', else its 'y3'."""
    labels = [rec.get("label", rec.get("y3")) for rec in records]
    return leaf_indices([rec["id"] for rec in records], labels, tax)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------- commands


def cmd_taxonomy_validate(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    print(f"digest: {tax.digest.hex()}")
    for level in (1, 2, 3):
        names = ", ".join(tax.names(level))
        print(f"level {level}: {tax.node_count(level)} nodes ({names})")
    print("ok")


def cmd_bank_build(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    bank = bank_build(files.read_records(args.manifest), tax)
    files.write_bank(args.out, bank)
    print(f"wrote {args.out}: {len(bank)} entries, dim {bank.dim}")


def cmd_bank_info(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    bank = files.read_bank(args.bank_file, tax)
    print(f"dim: {bank.dim}")
    print(f"entries: {len(bank)}")
    print(f"taxonomy digest: {bank.taxonomy_digest.hex()}")
    hist = bank.leaf_histogram()
    for leaf in range(tax.leaf_count):
        print(f"  {tax.name_of(3, leaf)}: {hist.get(leaf, 0)}")


def cmd_bank_merge(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    merged = bank_merge(files.read_bank(args.bank_a, tax), files.read_bank(args.bank_b, tax))
    files.write_bank(args.out, merged)
    print(f"wrote {args.out}: {len(merged)} entries")


def cmd_classify(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    bank = files.read_bank(args.bank, tax)
    queries = QuerySet.from_records(files.read_records(args.queries), bank.dim)

    res = classify_batch(bank, queries.vectors, args.k, None if args.flat else tax)
    if args.flat:
        paths = tax.paths[res.flat_leaf].T
        fallback = [[False, False, False]] * len(queries)
    else:
        paths = (res.y1, res.y2, res.y3)
        fallback = res.fallback.tolist()
    names = [np.array(tax.names(lv), dtype=object)[col] for lv, col in zip((1, 2, 3), paths)]
    out_records = [
        {"id": qid, "y1": y1, "y2": y2, "y3": y3, "fallback": fb}
        for qid, y1, y2, y3, fb in zip(queries.ids, *names, fallback)
    ]
    files.write_records(args.out, out_records)
    print(f"wrote {args.out}: {len(out_records)} predictions")


def cmd_ensemble(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    banks = tuple(files.read_bank(p, tax) for p in args.banks.split(","))
    cfg = EnsembleConfig(banks, k=args.k, tie_policy=args.tie_policy)
    queries = QuerySet.from_records(files.read_records(args.queries), banks[0].dim)
    voted = run_ensemble(cfg, queries, tax, flat=args.flat)
    labels = np.array(tax.leaf_names, dtype=object)[[leaf for _, leaf in voted]]
    out_records = [{"id": qid, "label": label} for (qid, _), label in zip(voted, labels)]
    files.write_records(args.out, out_records)
    print(f"wrote {args.out}: {len(out_records)} predictions from {len(banks)} members")


def _maybe_shift(queries: QuerySet, args) -> QuerySet:
    if args.rot or args.bias or args.noise:
        spec = ShiftSpec(rotation_angle=args.rot, bias=args.bias, extra_noise=args.noise)
        return apply_shift(queries, spec, args.shift_seed)
    return queries


def cmd_ablate(args, files: _Files, parser: _Parser) -> None:
    tax = _load_tax(args, files)
    try:
        n_members = int(args.banks)
    except ValueError:
        n_members = None

    if n_members is not None:
        # synthetic mode: generate member banks sharing one geometry
        if n_members < 1:
            parser.error(f"--banks count must be >= 1, got {n_members}")
        if args.queries:
            parser.error("--queries only applies when --banks lists bank files")
        banks, queries = generate_member_banks(_synth_config(args, files), n_members, tax)
        queries = _maybe_shift(queries, args)
    else:
        if not args.queries:
            parser.error("--queries is required when --banks lists bank files")
        banks = [files.read_bank(p, tax) for p in args.banks.split(",")]
        records = files.read_records(args.queries)
        queries = QuerySet.from_records(records, banks[0].dim, labelled=True)

    truth = leaf_indices(queries.ids, queries.labels, tax)
    rows = ablation_grid(banks, queries.vectors, truth, args.k, tax, policy=args.tie_policy)

    lines = ["members,without_hierarchy_mf1,with_hierarchy_mf1"]
    for row in rows:
        lines.append(f"{row.members},{row.without_hierarchy_mf1!r},{row.with_hierarchy_mf1!r}")
    files.write_text(args.out, "\n".join(lines))
    print(f"wrote {args.out}: {len(rows)} ensemble sizes")


def cmd_evaluate(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    records = files.read_records(args.preds)
    by_id = {}
    for rec, leaf in zip(records, _record_leaves(records, tax)):
        if rec["id"] in by_id:
            raise ManifestError(f"duplicate prediction id {rec['id']!r}")
        by_id[rec["id"]] = leaf
    records = files.read_records(args.truth)
    truth = _record_leaves(records, tax)
    try:
        preds = [by_id[rec["id"]] for rec in records]
    except KeyError as exc:
        raise ManifestError(f"no prediction for id {exc.args[0]!r}") from None

    cm, mf1, report = score_predictions(truth, preds, tax.leaf_count)
    for entry in report["classes"]:
        entry["leaf"] = tax.name_of(3, entry["index"])
    print(f"macro_f1: {mf1!r} over {len(truth)} samples")

    if args.report:
        files.write_text(args.report, json.dumps(report, indent=2, sort_keys=True))
    if args.cm:
        names = tax.names(3)
        lines = ["true," + ",".join(names)]
        for c in range(tax.leaf_count):
            counts = ",".join(str(int(v)) for v in cm.counts[c])
            lines.append(f"{names[c]},{counts}")
        files.write_text(args.cm, "\n".join(lines))


def cmd_synth(args, files: _Files) -> None:
    tax = _load_tax(args, files)
    bank, queries = generate(_synth_config(args, files), tax)
    queries = _maybe_shift(queries, args)

    files.write_bank(args.out, bank)
    files.write_records(args.queries, queries)
    print(f"wrote {args.out} ({len(bank)} entries) and {args.queries} ({len(queries)} queries)")


def cmd_traintoy(args, files: _Files) -> None:
    cfg = LossConfig(
        lambda_dino=args.lambda_dino,
        lambda_sup=args.lambda_sup,
        tau_teacher=args.tau_t,
        tau_student=args.tau_s,
    )
    train, eval_pairs = make_toy_dataset(
        args.classes, args.dim, args.per_class, args.separation, args.view_sigma, args.seed
    )
    _best, trace = train_toy(
        train,
        eval_pairs,
        epochs=args.epochs,
        lr=args.lr,
        cfg=cfg,
        proj_dim=args.proj_dim,
        n_classes=args.classes,
        seed=args.seed,
        momentum=args.momentum,
    )
    lines = ["epoch,dino_loss,sup_loss,total_loss,eval_mf1"]
    for row in trace:
        lines.append(f"{row.epoch},{row.dino!r},{row.sup!r},{row.total!r},{row.eval_mf1!r}")
    files.write_text(args.out, "\n".join(lines))
    best_mf1 = max(row.eval_mf1 for row in trace)
    print(f"wrote {args.out}: {len(trace)} epochs, best eval_mf1 {best_mf1!r}")


def cmd_grad_check(args, files: _Files) -> None:
    worst = grad_check_report(seed=args.seed, trials=args.trials)
    for name in ("dino", "balanced_ce", "total"):
        print(f"{name}: max relative error {worst[name]!r}")
    if args.out:
        files.write_text(args.out, json.dumps(worst, indent=2, sort_keys=True))


# ---------------------------------------------------------------- wiring


def _add_taxonomy_flag(p) -> None:
    p.add_argument("--taxonomy", metavar="FILE", help="taxonomy config (default: built-in)")


def _add_shift_flags(p) -> None:
    p.add_argument("--rot", type=float, default=0.0, help="shift rotation angle, radians")
    p.add_argument("--bias", type=float, default=0.0, help="shift bias magnitude")
    p.add_argument("--noise", type=float, default=0.0, help="shift extra noise sigma")
    p.add_argument("--shift-seed", type=int, default=0, dest="shift_seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="hierknn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("taxonomy", help="taxonomy tools")
    tax_sub = p.add_subparsers(dest="taxonomy_command", required=True, metavar="SUBCOMMAND")
    pv = tax_sub.add_parser("validate", help="check a taxonomy config and print its digest")
    pv.add_argument("--config", dest="taxonomy", metavar="FILE", help="taxonomy config file")
    pv.set_defaults(func=cmd_taxonomy_validate)

    p = sub.add_parser("bank", help="feature bank lifecycle")
    bank_sub = p.add_subparsers(dest="bank_command", required=True, metavar="SUBCOMMAND")
    pb = bank_sub.add_parser("build", help="build a bank from a manifest")
    pb.add_argument("--manifest", required=True)
    pb.add_argument("--out", required=True)
    _add_taxonomy_flag(pb)
    pb.set_defaults(func=cmd_bank_build)
    pi = bank_sub.add_parser("info", help="describe a saved bank")
    pi.add_argument("bank_file")
    _add_taxonomy_flag(pi)
    pi.set_defaults(func=cmd_bank_info)
    pm = bank_sub.add_parser("merge", help="concatenate two banks")
    pm.add_argument("bank_a")
    pm.add_argument("bank_b")
    pm.add_argument("--out", required=True)
    _add_taxonomy_flag(pm)
    pm.set_defaults(func=cmd_bank_merge)

    p = sub.add_parser("classify", help="classify queries against one bank")
    p.add_argument("--bank", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K)
    p.add_argument("--flat", action="store_true", help="leaf vote without level constraints")
    _add_taxonomy_flag(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ensemble", help="majority-vote several banks")
    p.add_argument("--banks", required=True, help="comma-separated bank files")
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K)
    p.add_argument("--flat", action="store_true")
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default="similarity-margin",
                   dest="tie_policy")
    _add_taxonomy_flag(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser(
        "ablate",
        help="macro F1 grid over ensemble size x {flat, hierarchical}",
        description="Pass --banks a,b,c with --queries to score saved banks, or "
        "--banks N to generate N synthetic members (optionally from --config).",
    )
    p.add_argument("--banks", required=True, help="bank files, or a member count")
    p.add_argument("--queries")
    p.add_argument("--config", help="synthetic dataset config (member-count mode)")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K)
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default="similarity-margin",
                   dest="tie_policy")
    _add_shift_flags(p)
    _add_taxonomy_flag(p)
    p.set_defaults(func=lambda a, f, _p=p: cmd_ablate(a, f, _p))

    p = sub.add_parser("evaluate", help="score predictions against truth labels")
    p.add_argument("--preds", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--cm", help="write a CSV confusion matrix here")
    _add_taxonomy_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic bank and query set")
    p.add_argument("--config", help="dataset config file (default: built-in config)")
    p.add_argument("--out", required=True, help="output bank file")
    p.add_argument("--queries", required=True, help="output query manifest")
    _add_shift_flags(p)
    _add_taxonomy_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("traintoy", help="train the two linear heads on toy data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=_positive_int, default=60)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--lambda-dino", type=float, default=1.0, dest="lambda_dino")
    p.add_argument("--lambda-sup", type=float, default=1.0, dest="lambda_sup")
    p.add_argument("--tau-t", type=float, default=0.04, dest="tau_t")
    p.add_argument("--tau-s", type=float, default=0.1, dest="tau_s")
    p.add_argument("--momentum", type=float, default=0.999)
    p.add_argument("--classes", type=_positive_int, default=3)
    p.add_argument("--dim", type=_positive_int, default=8)
    p.add_argument("--per-class", type=_positive_int, default=40, dest="per_class")
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--view-sigma", type=float, default=0.5, dest="view_sigma")
    p.add_argument("--proj-dim", type=_positive_int, default=6, dest="proj_dim")
    p.add_argument("--out", required=True, help="output CSV trace")
    p.set_defaults(func=cmd_traintoy)

    p = sub.add_parser("grad-check", help="compare analytic gradients to finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--out", help="also write the errors as JSON")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    files = _Files()
    try:
        args.func(args, files)
        if files.outputs:
            _write_run_manifest(files, args)
    except (HierknnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
