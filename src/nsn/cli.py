"""Command-line front door.

Commands: train, train-ref, eval, detach-eval, verify.
Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical divergence.

The train flags default to the experimental protocol as
:class:`nsn.train.TrainConfig` and :class:`nsn.optim.Schedule` state it,
each run's L2 weight included (:data:`nsn.train.PROTOCOL_L2`); --seed is
the run's one seed. A flat ``key=value`` file passed via --config
overrides these defaults, each key a train flag's own name; explicit flags
override the file.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import load_checkpoint
from .errors import ConfigError, DivergenceError, NsnError
from .family import detach, param_count
from .mnist import TEST_IMAGES, TEST_LABELS, load_dataset
from .optim import Schedule
from .train import (TrainConfig, evaluate, family_from_checkpoint, train,
                    train_reference)
from .verify import run_all

# Per training command: its run mode and its help.
TRAIN_COMMANDS = {"train": ("nsn", "train a detachable family on MNIST"),
                  "train-ref": ("reference", "train a single baseline model")}

# Each train flag that sets a TrainConfig or Schedule field: the flag, the
# field, and the flag's help, which says what a default of None means. The
# field's default is the flag's, and a value the field's check rejects is
# reported under the flag.
TRAIN_FLAGS = (
    ("--n-hidden", "n_hidden", "hidden layers of the base model"),
    ("--epochs", "epochs", "training epochs"),
    ("--batch", "batch_size", "minibatch size"),
    ("--lr", "base_lr", "initial learning rate"),
    ("--alpha", "alpha", "momentum coefficient"),
    ("--decay-every", "decay_every", "epochs between learning-rate steps"),
    ("--decay-factor", "decay_factor",
     "learning-rate multiplier at each step"),
    ("--l2", "l2_lambda", "L2 penalty weight (default: the paper's for the "
                          "run, in nsn.train.PROTOCOL_L2)"),
    ("--input-keep", "input_keep", "input dropout keep probability"),
    ("--hidden-keep", "hidden_keep", "hidden dropout keep probability"),
    ("--seed", "seed", "base seed; the init, shuffle and dropout streams "
                       "use seed, seed + 1 and seed + 2"))
DEFAULTS = {f.name: f.default for f in fields(TrainConfig) + fields(Schedule)}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsn",
        description="Train an MLP whose leading layers can be detached at "
                    "inference, leaving smaller classifiers that stay "
                    "accurate.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, help_text) in TRAIN_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value file; flags override it")
        # Required, but checked by cmd_train: a --config file may give
        # them, and the first parse runs before the file is read.
        p.add_argument("--data-dir", type=Path, default=None,
                       help="directory with the four uncompressed MNIST IDX "
                            "files (required, here or in --config)")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="directory for metrics.csv, best.csv, and "
                            "checkpoints (required, here or in --config)")
        for flag, name, text in TRAIN_FLAGS:
            default = DEFAULTS[name]
            p.add_argument(flag, type=int if isinstance(default, int)
                           else float, default=default,
                           help=text if default is None
                           else f"{text} (default %(default)s)")
        p.add_argument("--resume", type=Path, default=None,
                       help="checkpoint to resume from")
        p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report every model's test accuracy "
                                    "from a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data-dir", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detach-eval",
                       help="drop the base model's first k layers and report "
                            "accuracy and parameter count")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data-dir", type=Path, required=True)
    p.add_argument("--drop-layers", type=int, required=True, metavar="K")
    p.set_defaults(func=cmd_detach_eval)

    p = sub.add_parser("verify", help="run every property suite on "
                                      "synthetic data")
    p.set_defaults(func=cmd_verify)
    return parser


def load_config_file(path: Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not a UTF-8 text file") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_with_config_file(parser: argparse.ArgumentParser,
                            argv: list[str],
                            args: argparse.Namespace) -> argparse.Namespace:
    """Parse again with the file's entries as ``--key=value`` flags ahead of
    the command line's own, so that the command line wins. A key is a train
    flag's whole name: argparse would take ``epoch`` for ``--epochs``."""
    values = load_config_file(args.config)
    keys = set(vars(args)) - {"command", "config", "func"}  # the flags' dests
    unknown = [key.replace("_", "-") for key in values if key not in keys]
    if unknown:
        raise ConfigError(f"{args.config}: unknown config keys: "
                          f"{', '.join(unknown)}")
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in values.items()]
    return parser.parse_args(argv[:1] + flags + argv[1:])


def cmd_train(args: argparse.Namespace) -> int:
    mode, _ = TRAIN_COMMANDS[args.command]
    missing = [flag for flag, value in (("--data-dir", args.data_dir),
                                        ("--out-dir", args.out_dir))
               if value is None]
    if missing:
        raise ConfigError(f"{', '.join(missing)} must be given on the "
                          f"command line or in the --config file")
    flags = {name: flag for flag, name, _ in TRAIN_FLAGS}
    values = {name: getattr(args, flag[2:].replace("-", "_"))
              for name, flag in flags.items()}
    try:
        schedule = Schedule(**{f.name: values.pop(f.name)
                               for f in fields(Schedule)})
        config = TrainConfig(mode=mode, schedule=schedule, **values,
                             data_dir=args.data_dir, out_dir=args.out_dir)
    except ConfigError as exc:
        if exc.field not in flags:
            raise
        # every field the message names, under its flag
        raise ConfigError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]),
                                 str(exc))) from None
    run = train if mode == "nsn" else train_reference
    result = run(config, resume_from=args.resume, log=print)
    if result.best_accuracies:
        accs = " ".join(f"m{i}={v:.4f}"
                        for i, v in enumerate(result.best_accuracies))
        print(f"best epoch {result.best_epoch + 1}: {accs}")
    else:  # resumed, with no epoch to run, from a file without the best
        print("best epoch unknown")
    print(f"final checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _load_test_set(data_dir: Path):
    return load_dataset(Path(data_dir) / TEST_IMAGES,
                        Path(data_dir) / TEST_LABELS)


def _load_trained(path: Path):
    """(family, the indices of the views its run trained) from a checkpoint.

    The last views are the models the run trained: all of a family's, a
    baseline's base view. A version 1 file does not say; [-0:] is all.
    """
    ckpt = load_checkpoint(path)
    family, _ = family_from_checkpoint(ckpt)
    return family, range(family.n + 1)[-len(ckpt.best_accuracies):]


def cmd_eval(args: argparse.Namespace) -> int:
    family, trained = _load_trained(args.checkpoint)
    test_ds = _load_test_set(args.data_dir)
    for m in trained:
        acc = evaluate(family.view(m), test_ds)
        print(f"model m{m}: accuracy {acc:.6f} "
              f"parameters {param_count(family, m)}")
    return EXIT_OK


def cmd_detach_eval(args: argparse.Namespace) -> int:
    family, trained = _load_trained(args.checkpoint)
    k = args.drop_layers
    view = detach(family, k)  # IndexError (exit 2) when k is out of range
    if family.n - k not in trained:
        raise ConfigError(f"dropping {k} layers leaves model "
                          f"m{family.n - k}, which {args.checkpoint} "
                          f"did not train")
    test_ds = _load_test_set(args.data_dir)
    acc = evaluate(view, test_ds)
    print(f"dropped {k} layers -> model m{family.n - k}: "
          f"accuracy {acc:.6f} parameters {param_count(family, family.n - k)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"failed: {', '.join(failed)}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            args = _parse_with_config_file(parser, argv, args)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (NsnError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
