"""Command-line entry points for dataset generation, training, and reports."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .adapter import AdapterConfig, adapter_param_count, attach_decoder_adapter
from .config import default_config, load_config
from .data import generate_dataset
from .engine import emit_report, evaluate_checkpoint, run_ablation, run_ttda, train_supervised
from .errors import ContractError, DimensionError, FormatError, IntegrityError, ValidationError
from .model import SegmentationModel

# The figure the reference implementation reports for its decoder adapter.
PUBLISHED_ADAPTER_PARAMS = "0.66M"
PUBLISHED_ADAPTER_DIMS = AdapterConfig(
    num_prompts=2, prompt_dim=512, key_dim=256, value_dim=256, placement="decoder"
)
PUBLISHED_TOKEN_DIM = 256
PUBLISHED_LAYER_COUNT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 (EX_USAGE): argparse's 2 is the integrity-error code here
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="segadapt",
        description="Prompted segmentation with lightweight domain adapters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the two-domain synthetic dataset")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="dataset output directory")

    p = sub.add_parser("train", help="train or adapt a model on the source domain")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")

    p = sub.add_parser("eval", help="evaluate a checkpoint on one domain split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the eval fragment JSON here")

    p = sub.add_parser("ttda", help="test-time adaptation over a target split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--report", help="write the adaptation fragment JSON here")

    p = sub.add_parser("ablate", help="run the adapter size or placement matrix")
    p.add_argument("--axis", required=True, choices=("size", "placement"))
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="aggregate run fragments into a report")
    p.add_argument("--run", required=True, help="directory holding run fragments")
    p.add_argument("--format", default="table", choices=("table", "json"))

    p = sub.add_parser("paramcount", help="adapter parameter accounting")
    p.add_argument("--config", help="run config JSON (defaults apply when omitted)")

    return parser


def _cmd_gen_data(args) -> None:
    cfg = load_config(args.config)
    manifest = generate_dataset(args.out, cfg.data.source, cfg.data.target, cfg.data.sizes)
    total = sum(split["count"] for split in manifest["splits"].values())
    print(f"wrote {total} slices across {len(manifest['splits'])} splits to {args.out}")


def _cmd_train(args) -> None:
    cfg = load_config(args.config)
    fragment = train_supervised(cfg, args.data, args.out)
    print(
        f"{fragment['method']} seed {fragment['seed']}: best val IoU "
        f"{fragment['best_val_iou']:.4f}, {fragment['trainable_params']:,} of "
        f"{fragment['total_params']:,} params trained -> {fragment['checkpoint']}"
    )


def _cmd_eval(args) -> None:
    fragment = evaluate_checkpoint(
        args.checkpoint, args.data, args.domain, args.split,
        seed=args.seed, report_path=args.report,
    )
    print(
        f"{fragment['method']} on {args.domain}_{args.split}: IoU "
        f"{fragment['mean']:.4f} ± {fragment['std']:.4f} over {fragment['count']} images"
    )


def _cmd_ttda(args) -> None:
    cfg = load_config(args.config)
    fragment = run_ttda(args.checkpoint, args.data, cfg, report_path=args.report)
    print(
        f"{fragment['method']} adapted on {fragment['split']}: IoU "
        f"{fragment['mean_iou_before']:.4f} -> {fragment['mean_iou_after']:.4f}, "
        f"entropy down on {100 * fragment['entropy_improved_fraction']:.0f}% of "
        f"{fragment['count']} samples"
    )


def _cmd_ablate(args) -> None:
    cfg = load_config(args.config)
    report = run_ablation(cfg, args.data, args.axis, args.out)
    for name, row in report["summary"].items():
        print(
            f"{name}: source {row['source_iou_mean']:.4f} ± {row['source_iou_std']:.4f}, "
            f"target {row['target_iou_mean']:.4f} ± {row['target_iou_std']:.4f} "
            f"({row['trainable_params']:,} trainable)"
        )


def _cmd_report(args) -> None:
    print(emit_report(args.run, fmt=args.format))


def _cmd_paramcount(args) -> None:
    cfg = load_config(args.config) if args.config else default_config()
    model = SegmentationModel(cfg.model, draw=False)  # counted, never run
    before = model.registry.param_count()
    adapter_cfg = replace(cfg.adapter, placement="decoder")
    attach_decoder_adapter(model, adapter_cfg)
    measured = model.registry.param_count() - before
    formula = adapter_param_count(adapter_cfg, cfg.model.dec_dim, cfg.model.dec_depth)
    print(f"model parameters (no adapter): {before:,}")
    print(
        f"decoder adapter at configured dims (N={adapter_cfg.num_prompts}, "
        f"D_a={adapter_cfg.prompt_dim}, D_k={adapter_cfg.key_dim}, "
        f"D_v={adapter_cfg.value_dim}, {cfg.model.dec_depth} layers):"
    )
    print(f"  closed form: {formula:,}")
    print(f"  registry:    {measured:,}")
    if formula != measured:
        raise ContractError("closed-form adapter count disagrees with the registry")
    published = adapter_param_count(
        PUBLISHED_ADAPTER_DIMS, PUBLISHED_TOKEN_DIM, PUBLISHED_LAYER_COUNT
    )
    print(
        f"at the published dims (D_a=512, D_k=D_v=256, token dim 256, 2 layers): "
        f"{published:,} parameters; the reference implementation reports "
        f"{PUBLISHED_ADAPTER_PARAMS}."
    )


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ttda": _cmd_ttda,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
    "paramcount": _cmd_paramcount,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, FormatError, DimensionError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
