"""Command-line interface.

Subcommands: generate-data, train, fisher, evaluate, run-experiment,
plot, report.  Every config key can be overridden as ``--key value``;
``--config`` loads a key=value file first, flags win.

Exit codes: 0 success, 2 configuration error, 3 missing prerequisite,
4 training divergence, 1 any other package error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from . import harness, metrics, network
from .continual import build_regime, canonical_regime, load_task_a_checkpoint
from .errors import ConfigError, DivergenceError, EwcLabError, PrerequisiteError
from .harness import (
    ExperimentConfig,
    _ATTR_TO_KEY,
    config_digest,
    emit_plots,
    load_data,
    parse_config,
    run_id,
)
from .synthtasks import TASKS, SampleBank, manifest_text, write_dataset


def _config_keys() -> list[str]:
    return [_ATTR_TO_KEY.get(f.name, f.name) for f in dataclass_fields(ExperimentConfig)]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output directory (same as --out-dir)")
    parser.add_argument("--seed", type=int, help="single seed (same as --seeds N)")
    for key in _config_keys():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")


def _gather_config(args) -> ExperimentConfig:
    overrides: dict[str, str] = {}
    for key in _config_keys():
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            overrides[key] = value
    for flag, key in (("out", "out_dir"), ("seed", "seeds")):  # a second spelling of a key
        value = getattr(args, flag)
        if value is not None:
            if key in overrides:
                raise ConfigError(f"--{flag} and --{key.replace('_', '-')} both given; pass one")
            overrides[key] = str(value)
    return parse_config(args.config, overrides)


def _load_groups(out_dir: Path) -> harness.RowGroups:
    path = out_dir / "curves.csv"
    if not path.exists():
        raise PrerequisiteError(f"no curves.csv under {out_dir}; run an experiment first")
    return harness.group_rows(harness.read_metric_rows(path)[0])


def _print_utf8(data: bytes) -> None:
    """Standard output gets the UTF-8 bytes of a report (its method labels
    hold 'λ') whatever the locale's encoding."""
    sys.stdout.flush()
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def cmd_generate_data(args) -> int:
    config = _gather_config(args)
    manifest, gen_config = load_data(config)
    out = Path(config.out_dir) / "data"
    write_dataset(out, manifest, gen_config, images=args.images)
    print(f"wrote dataset under {out}")
    return 0


def cmd_train(args) -> int:
    config = _gather_config(args)
    if len(config.regimes) != 1:
        raise ConfigError("train needs exactly one regime (e.g. --regime ewc)")
    kind = canonical_regime(config.regimes[0])
    lam = config.grid_for(kind)[0]
    seed = config.seeds[0]
    data = load_data(config)
    plan = build_regime(kind, lam, seed, config.checkpoint or None, trunk=tuple(config.trunk))
    rid = run_id(kind, lam, seed, config_digest(config, manifest_text(*data)))
    record = harness.train(plan, config, SampleBank(*data), Path(config.out_dir) / "runs" / rid)
    print(f"run {record.run_id} done in {record.duration_s:.1f}s; outputs under "
          f"{Path(config.out_dir) / 'runs' / rid}")
    for (task, class_name), value in sorted(record.final_dice().items()):
        print(f"full task {task} {class_name}: {100.0 * value:.1f}")
    return 0


def cmd_fisher(args) -> int:
    config = _gather_config(args)
    if not config.checkpoint:
        raise ConfigError("fisher needs --checkpoint pointing at a task-A checkpoint")
    ckpt = load_task_a_checkpoint(config.checkpoint, "fisher")
    manifest, gen_config = load_data(config)
    bank = SampleBank(manifest, gen_config)
    fisher = harness.task_a_fisher(ckpt.params, bank.split("train_a"), config)
    out_path = args.out_checkpoint or config.checkpoint
    network.save_checkpoint(ckpt.params, out_path, metadata=ckpt.metadata, fisher=fisher)
    print(f"embedded fisher ({config.fisher_mode}, {fisher.provenance.samples} samples) into {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    config = _gather_config(args)
    if not config.checkpoint:
        raise ConfigError("evaluate needs --checkpoint")
    ckpt = network.load_checkpoint(config.checkpoint)
    manifest, gen_config = load_data(config)
    bank = SampleBank(manifest, gen_config)
    tasks = [task for task in TASKS.values() if task.head in ckpt.params.spec.heads]
    scores = metrics.evaluate_full(ckpt.params, tasks, bank.split("validation"), tile=config.tile)
    for task in tasks:
        for class_name, value in scores[task.task_id].items():
            print(f"task {task.task_id} {class_name}: {100.0 * value:.1f}")
    return 0


def cmd_run_experiment(args) -> int:
    config = _gather_config(args)
    records = harness.run_experiment(config, progress=print)
    print(f"\n{len(records)} runs complete; outputs under {config.out_dir}")
    _print_utf8((Path(config.out_dir) / "summary.txt").read_bytes() + b"\n")
    return 0


def cmd_plot(args) -> int:
    config = _gather_config(args)
    out = Path(config.out_dir)
    written = emit_plots(_load_groups(out), out / "plots")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    config = _gather_config(args)
    out = Path(config.out_dir)
    text = harness.write_summary(_load_groups(out), out)
    _print_utf8(text.encode("utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewclab",
        description="continual-learning lab: sequential segmentation tasks with "
        "fine-tune / L2 / EWC / multi-task regimes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate-data": ("write the dataset manifest (samples regenerate from its seeds)", cmd_generate_data),
        "train": ("execute a single training run", cmd_train),
        "fisher": ("estimate the Fisher diagonal and embed it into a checkpoint", cmd_fisher),
        "evaluate": ("full-image validation scores for a checkpoint", cmd_evaluate),
        "run-experiment": ("execute the full regime x lambda x seed grid", cmd_run_experiment),
        "plot": ("re-render SVG curves from curves.csv", cmd_plot),
        "report": ("re-render the summary table from curves.csv", cmd_report),
    }
    for name, (help_text, fn) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "generate-data":
            p.add_argument("--images", action="store_true", help="also export PGM/PPM previews")
        if name == "fisher":
            p.add_argument("--out-checkpoint", help="write the augmented checkpoint here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PrerequisiteError as exc:
        print(f"prerequisite error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except EwcLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
