"""Command-line front door.

Commands: train, train-ref, eval, detach-eval, gradcheck, verify.
Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical divergence.

Defaults reproduce the experimental protocol: 600 epochs, batch 128,
initial learning rate 0.3 stepped down by one third every 200 epochs,
momentum 0.9, input/hidden dropout keep probabilities 0.8/0.5 (none for
the 0-hidden-layer model). A flat ``key=value`` file passed via --config
overrides these defaults; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .errors import ConfigError, DivergenceError, FormatError, NsnError
from .family import detach, param_count
from .mnist import TEST_IMAGES, TEST_LABELS, load_dataset
from .optim import Schedule
from .train import (TrainConfig, echo_fields, evaluate,
                    family_from_checkpoint, train, train_reference)
from .verify import check_gradcheck, run_all

# Per training command: its run mode, its help, the help of --n-hidden, and
# the default --l2 per --n-hidden, from the experiment grid.
TRAIN_COMMANDS = {
    "train": ("nsn", "train a detachable family on MNIST",
              "hidden layers of the base model (1 or 2 in the reference "
              "experiments)", {1: 9e-6, 2: 9e-5}),
    "train-ref": ("reference", "train a single baseline model",
                  "hidden layers of the baseline model (0, 1, or 2)",
                  {0: 9e-5, 1: 5e-6, 2: 1e-5}),
}

# The train flag that fills each range-checked TrainConfig and Schedule
# field; a value the field's check rejects is reported under the flag.
FIELD_FLAGS = {"n_hidden": "--n-hidden", "epochs": "--epochs",
               "batch_size": "--batch", "base_lr": "--lr",
               "alpha": "--alpha", "decay_every": "--decay-every",
               "decay_factor": "--decay-factor", "l2_lambda": "--l2",
               "input_keep": "--input-keep", "hidden_keep": "--hidden-keep"}

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

    for command, (_, help_text, n_hidden_help, _) in TRAIN_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value file; flags override it")
        p.add_argument("--n-hidden", type=int, default=2, help=n_hidden_help)
        # Required, but checked by cmd_train: a --config file may give
        # them, and the first parse runs before the file is read.
        p.add_argument("--data-dir", type=Path, default=None,
                       help="directory with the four uncompressed MNIST IDX "
                            "files (required, here or in --config)")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="directory for metrics.csv, best.csv, and "
                            "checkpoints (required, here or in --config)")
        p.add_argument("--epochs", type=int, default=600,
                       help="training epochs (default 600)")
        p.add_argument("--batch", type=int, default=128,
                       help="minibatch size (default 128)")
        p.add_argument("--lr", type=float, default=0.3,
                       help="initial learning rate (default 0.3)")
        p.add_argument("--alpha", type=float, default=0.9,
                       help="momentum coefficient (default 0.9)")
        p.add_argument("--decay-every", type=int, default=200,
                       help="epochs between learning-rate steps (default 200)")
        p.add_argument("--decay-factor", type=float, default=1.0 / 3.0,
                       help="learning-rate multiplier at each step "
                            "(default 1/3)")
        p.add_argument("--l2", type=float, default=None,
                       help="L2 penalty weight; defaults depend on --n-hidden")
        p.add_argument("--input-keep", type=float, default=0.8,
                       help="input dropout keep probability (default 0.8)")
        p.add_argument("--hidden-keep", type=float, default=0.5,
                       help="hidden dropout keep probability (default 0.5)")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed; init/shuffle/dropout streams use "
                            "seed, seed+1, seed+2")
        p.add_argument("--no-shuffle", dest="shuffle", action="store_false",
                       help="disable per-epoch shuffling (debugging only)")
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

    p = sub.add_parser("gradcheck", help="check analytic gradients against "
                                         "the finite-difference oracle")
    p.set_defaults(func=cmd_gradcheck)

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
                            argv: list[str], path: Path) -> argparse.Namespace:
    """Parse again with the file's entries as flags ahead of the command
    line's own, so that the command line wins: ``key=true`` is the bare
    switch ``--key``, any other ``key=value`` is ``--key=value``."""
    flags = [f"--{key.replace('_', '-')}"
             + ("" if value.lower() == "true" else f"={value}")
             for key, value in load_config_file(path).items()]
    args, unparsed = parser.parse_known_args(argv[:1] + flags + argv[1:])
    if unparsed:  # the command line parsed alone, so these are the file's
        keys = ", ".join(token.lstrip("-").split("=", 1)[0]
                         for token in unparsed)
        raise ConfigError(f"{path}: unknown config keys: {keys}")
    return args


def cmd_train(args: argparse.Namespace) -> int:
    mode, _, _, l2_defaults = TRAIN_COMMANDS[args.command]
    missing = [flag for flag, value in (("--data-dir", args.data_dir),
                                        ("--out-dir", args.out_dir))
               if value is None]
    if missing:
        raise ConfigError(f"{', '.join(missing)} must be given on the "
                          f"command line or in the --config file")
    # the three streams take seed, seed + 1 and seed + 2, each a
    # checkpoint's u64
    if not 0 <= args.seed <= 2**64 - 3:
        raise ConfigError(f"--seed must be in [0, 2**64 - 3], "
                          f"got {args.seed}")
    # 0 stands in for a missing default, so that TrainConfig checks
    # --n-hidden before the missing --l2 is reported
    l2 = args.l2 if args.l2 is not None else l2_defaults.get(args.n_hidden, 0)
    try:
        config = TrainConfig(
            mode=mode, n_hidden=args.n_hidden, epochs=args.epochs,
            batch_size=args.batch,
            schedule=Schedule(base_lr=args.lr, decay_every=args.decay_every,
                              decay_factor=args.decay_factor,
                              alpha=args.alpha),
            l2_lambda=l2, input_keep=args.input_keep,
            hidden_keep=args.hidden_keep, shuffle=args.shuffle,
            data_dir=args.data_dir, out_dir=args.out_dir,
            init_seed=args.seed, shuffle_seed=args.seed + 1,
            dropout_seed=args.seed + 2)
    except ConfigError as exc:
        if exc.field not in FIELD_FLAGS:
            raise
        raise ConfigError(str(exc).replace(exc.field, FIELD_FLAGS[exc.field],
                                           1)) from None
    if args.l2 is None and args.n_hidden not in l2_defaults:
        raise ConfigError(f"no default --l2 for --n-hidden {args.n_hidden}; "
                          f"pass --l2 explicitly")
    run = train if mode == "nsn" else train_reference
    result = run(config, resume_from=args.resume, log=print)
    accs = " ".join(f"m{i}={v:.4f}"
                    for i, v in enumerate(result.best_accuracies))
    print(f"best epoch {result.best_epoch + 1}: {accs}")
    print(f"final checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _load_test_set(data_dir: Path):
    return load_dataset(Path(data_dir) / TEST_IMAGES,
                        Path(data_dir) / TEST_LABELS)


def _load_trained(path: Path):
    """(family, the indices of the views its run trained) from a checkpoint.

    The last views are the models the run trained: all of a family's, a
    baseline's base view. A version 1 file does not say; [-0:] is all. A
    head whose rows are not the classes the config echo names is a
    :class:`FormatError`.
    """
    ckpt = load_checkpoint(path)
    family, _ = family_from_checkpoint(ckpt)
    classes = (echo_fields(ckpt.config_echo) or {}).get("classes")
    if classes is not None and classes != family.classes:
        raise FormatError(f"{path} has a head of {family.classes} rows, "
                          f"its config echo names {classes} classes")
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


def cmd_gradcheck(args: argparse.Namespace) -> int:
    result = check_gradcheck()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


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
            args = _parse_with_config_file(parser, argv, args.config)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (NsnError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
