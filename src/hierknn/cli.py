"""Command-line front end: bank lifecycle, classification, ensembling,
ablation grids, evaluation, synthetic data, toy training, gradient checks.

Exit codes: 0 success, 1 usage error, 2 data error. Every command that
writes files also writes a run manifest ``<out>.manifest.json`` recording
the command, its flags, sha256 digests of the input files, and the tool
version. Manifests carry no timestamps, so identical inputs and seeds give
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .bank import (
    FeatureBank,
    QuerySet,
    bank_build,
    bank_load,
    bank_merge,
    bank_save,
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


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


_INTERNAL_ARGS = ("func", "command", "bank_command", "taxonomy_command")


def _write_run_manifest(primary_out, args, inputs) -> None:
    flags = {}
    for key, value in vars(args).items():
        if key in _INTERNAL_ARGS or value is None:
            continue
        flags[key] = value if isinstance(value, (bool, int, float)) else str(value)
    doc = {
        "command": args.command if args.command != "bank" else f"bank {args.bank_command}",
        "flags": flags,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
    }
    path = Path(str(primary_out) + ".manifest.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_tax(args) -> tuple[Taxonomy, list]:
    """Taxonomy plus the list of input files it adds to the run manifest."""
    if getattr(args, "taxonomy", None):
        text = Path(args.taxonomy).read_text(encoding="utf-8")
        return load_taxonomy(text), [args.taxonomy]
    return default_taxonomy(), []


def _synth_config(args, tax_inputs: list) -> tuple[SynthConfig, list]:
    """Synthetic dataset config plus the input files it adds to the run manifest."""
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        return parse_synth_config(text), [args.config] + tax_inputs
    return SynthConfig(), tax_inputs


def _load_bank(path, tax: Taxonomy) -> FeatureBank:
    with open(path, "rb") as fh:
        return bank_load(fh, tax)


def _load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(read_manifest(fh))


def _write_records(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_manifest(records, fh)


def _leaf_of_record(rec: dict, what: str) -> str:
    leaf = rec.get("label", rec.get("y3"))
    if not isinstance(leaf, str):
        raise ManifestError(f"{what} {rec['id']!r}: 'label' or 'y3' must be a leaf, not {leaf!r}")
    return leaf


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------- commands


def cmd_taxonomy_validate(args) -> int:
    tax, _ = _load_tax(args)
    print(f"digest: {tax.digest.hex()}")
    for level in (1, 2, 3):
        names = ", ".join(tax.names(level))
        print(f"level {level}: {tax.node_count(level)} nodes ({names})")
    print("ok")
    return 0


def cmd_bank_build(args) -> int:
    tax, tax_inputs = _load_tax(args)
    bank = bank_build(_load_records(args.manifest), tax)
    with open(args.out, "wb") as fh:
        bank_save(bank, fh)
    _write_run_manifest(args.out, args, [args.manifest] + tax_inputs)
    print(f"wrote {args.out}: {len(bank)} entries, dim {bank.dim}")
    return 0


def cmd_bank_info(args) -> int:
    tax, _ = _load_tax(args)
    bank = _load_bank(args.bank_file, tax)
    print(f"dim: {bank.dim}")
    print(f"entries: {len(bank)}")
    print(f"taxonomy digest: {bank.taxonomy_digest.hex()}")
    hist = bank.leaf_histogram()
    for leaf in range(tax.leaf_count):
        print(f"  {tax.name_of(3, leaf)}: {hist.get(leaf, 0)}")
    return 0


def cmd_bank_merge(args) -> int:
    tax, tax_inputs = _load_tax(args)
    merged = bank_merge(_load_bank(args.bank_a, tax), _load_bank(args.bank_b, tax))
    with open(args.out, "wb") as fh:
        bank_save(merged, fh)
    _write_run_manifest(args.out, args, [args.bank_a, args.bank_b] + tax_inputs)
    print(f"wrote {args.out}: {len(merged)} entries")
    return 0


def cmd_classify(args) -> int:
    tax, tax_inputs = _load_tax(args)
    bank = _load_bank(args.bank, tax)
    queries = QuerySet.from_records(_load_records(args.queries), bank.dim)

    res = classify_batch(bank, queries.vectors, args.k, None if args.flat else tax)
    if args.flat:
        paths = [tax.path_of(leaf).as_tuple() for leaf in res.flat_leaf.tolist()]
        fallback = [[False, False, False]] * len(queries)
    else:
        paths = zip(res.y1.tolist(), res.y2.tolist(), res.y3.tolist())
        fallback = res.fallback.tolist()
    out_records = [
        {
            "id": qid,
            "y1": tax.name_of(1, y1),
            "y2": tax.name_of(2, y2),
            "y3": tax.name_of(3, y3),
            "fallback": fb,
        }
        for qid, (y1, y2, y3), fb in zip(queries.ids, paths, fallback)
    ]
    _write_records(out_records, args.out)
    _write_run_manifest(args.out, args, [args.bank, args.queries] + tax_inputs)
    print(f"wrote {args.out}: {len(out_records)} predictions")
    return 0


def cmd_ensemble(args) -> int:
    tax, tax_inputs = _load_tax(args)
    bank_paths = args.banks.split(",")
    banks = tuple(_load_bank(p, tax) for p in bank_paths)
    cfg = EnsembleConfig(banks, k=args.k, tie_policy=args.tie_policy)
    queries = QuerySet.from_records(_load_records(args.queries), banks[0].dim)
    out_records = [
        {"id": qid, "label": tax.name_of(3, leaf)}
        for qid, leaf in run_ensemble(cfg, queries, tax, flat=args.flat)
    ]
    _write_records(out_records, args.out)
    _write_run_manifest(args.out, args, bank_paths + [args.queries] + tax_inputs)
    print(f"wrote {args.out}: {len(out_records)} predictions from {len(banks)} members")
    return 0


def _maybe_shift(queries: QuerySet, args) -> QuerySet:
    if args.rot or args.bias or args.noise:
        spec = ShiftSpec(rotation_angle=args.rot, bias=args.bias, extra_noise=args.noise)
        return apply_shift(queries, spec, args.shift_seed)
    return queries


def cmd_ablate(args, parser: _Parser) -> int:
    tax, tax_inputs = _load_tax(args)
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
        cfg, inputs = _synth_config(args, tax_inputs)
        banks, queries = generate_member_banks(cfg, n_members, tax)
        queries = _maybe_shift(queries, args)
    else:
        if not args.queries:
            parser.error("--queries is required when --banks lists bank files")
        bank_paths = args.banks.split(",")
        banks = [_load_bank(p, tax) for p in bank_paths]
        queries = QuerySet.from_records(_load_records(args.queries), banks[0].dim, labelled=True)
        inputs = bank_paths + [args.queries] + tax_inputs

    truth = [tax.index_of(3, label) for label in queries.labels]
    rows = ablation_grid(banks, queries.vectors, truth, args.k, tax, policy=args.tie_policy)

    lines = ["members,without_hierarchy_mf1,with_hierarchy_mf1"]
    for row in rows:
        lines.append(f"{row.members},{row.without_hierarchy_mf1!r},{row.with_hierarchy_mf1!r}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_manifest(args.out, args, inputs)
    print(f"wrote {args.out}: {len(rows)} ensemble sizes")
    return 0


def cmd_evaluate(args) -> int:
    tax, tax_inputs = _load_tax(args)
    by_id = {}
    for rec in _load_records(args.preds):
        if rec["id"] in by_id:
            raise ManifestError(f"duplicate prediction id {rec['id']!r}")
        by_id[rec["id"]] = tax.index_of(3, _leaf_of_record(rec, "prediction"))
    truth, preds = [], []
    for rec in _load_records(args.truth):
        if rec["id"] not in by_id:
            raise ManifestError(f"no prediction for id {rec['id']!r}")
        truth.append(tax.index_of(3, _leaf_of_record(rec, "truth")))
        preds.append(by_id[rec["id"]])

    cm, mf1, report = score_predictions(truth, preds, tax.leaf_count)
    for entry in report["classes"]:
        entry["leaf"] = tax.name_of(3, entry["index"])
    print(f"macro_f1: {mf1!r} over {len(truth)} samples")

    outputs = []
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        outputs.append(args.report)
    if args.cm:
        names = [tax.name_of(3, c) for c in range(tax.leaf_count)]
        lines = ["true," + ",".join(names)]
        for c in range(tax.leaf_count):
            counts = ",".join(str(int(v)) for v in cm.counts[c])
            lines.append(f"{names[c]},{counts}")
        Path(args.cm).write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append(args.cm)
    if outputs:
        _write_run_manifest(outputs[0], args, [args.preds, args.truth] + tax_inputs)
    return 0


def cmd_synth(args) -> int:
    tax, tax_inputs = _load_tax(args)
    cfg, inputs = _synth_config(args, tax_inputs)
    bank, queries = generate(cfg, tax)
    queries = _maybe_shift(queries, args)

    with open(args.out, "wb") as fh:
        bank_save(bank, fh)
    _write_records(queries, args.queries)
    _write_run_manifest(args.out, args, inputs)
    print(f"wrote {args.out} ({len(bank)} entries) and {args.queries} ({len(queries)} queries)")
    return 0


def cmd_traintoy(args) -> int:
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
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_manifest(args.out, args, [])
    best_mf1 = max(row.eval_mf1 for row in trace)
    print(f"wrote {args.out}: {len(trace)} epochs, best eval_mf1 {best_mf1!r}")
    return 0


def cmd_grad_check(args) -> int:
    worst = grad_check_report(seed=args.seed, trials=args.trials)
    for name in ("dino", "balanced_ce", "total"):
        print(f"{name}: max relative error {worst[name]!r}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(worst, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _write_run_manifest(args.out, args, [])
    return 0


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
    p.set_defaults(func=lambda a, _p=p: cmd_ablate(a, _p))

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
    try:
        return args.func(args)
    except (HierknnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
