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
from .errors import ConfigError, DivergenceError, NsnError
from .family import detach, param_count
from .mnist import TEST_IMAGES, TEST_LABELS, load_dataset
from .optim import Schedule
from .train import (TrainConfig, evaluate, family_from_checkpoint, train,
                    train_reference)
from .verify import check_gradcheck, run_all

# Regularization defaults per hidden-layer count, from the experiment grid.
NSN_L2_DEFAULTS = {1: 9e-6, 2: 9e-5}
REFERENCE_L2_DEFAULTS = {0: 9e-5, 1: 5e-6, 2: 1e-5}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", type=Path, required=True,
                   help="directory with the four uncompressed MNIST IDX files")
    p.add_argument("--out-dir", type=Path, required=True,
                   help="directory for metrics.csv, best.csv, and checkpoints")
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
                   help="learning-rate multiplier at each step (default 1/3)")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsn",
        description="Train an MLP whose leading layers can be detached at "
                    "inference, leaving smaller classifiers that stay "
                    "accurate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a detachable family on MNIST")
    p.add_argument("--config", type=Path, default=None,
                   help="flat key=value file; flags override it")
    p.add_argument("--n-hidden", type=int, default=2,
                   help="hidden layers of the base model (1 or 2 in the "
                        "reference experiments)")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-ref", help="train a single baseline model")
    p.add_argument("--config", type=Path, default=None,
                   help="flat key=value file; flags override it")
    p.add_argument("--n-hidden", type=int, default=2,
                   help="hidden layers of the baseline model (0, 1, or 2)")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_train_ref)

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
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(action: argparse.Action, value: str):
    if isinstance(action, (argparse._StoreTrueAction,
                           argparse._StoreFalseAction)):
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return isinstance(action, argparse._StoreTrueAction)
        if lowered in ("false", "0", "no"):
            return not isinstance(action, argparse._StoreTrueAction)
        raise ConfigError(f"{action.dest}: expected a boolean, got {value!r}")
    if action.type is not None:
        try:
            return action.type(value)
        except ValueError as exc:
            raise ConfigError(f"{action.dest}: {exc}") from exc
    return value


def _apply_config_file(parser: argparse.ArgumentParser,
                       argv: list[str]) -> None:
    """Install file values as parser defaults for the chosen subcommand."""
    if "--config" not in " ".join(argv):
        return
    sub_actions = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    if not sub_actions or not argv:
        return
    command = argv[0]
    subparser = sub_actions[0].choices.get(command)
    if subparser is None:
        return
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return
    file_values = load_config_file(Path(config_path))
    by_dest = {a.dest: a for a in subparser._actions}
    overrides = {}
    for key, value in file_values.items():
        if key not in by_dest:
            raise ConfigError(f"unknown config key {key!r} for "
                              f"command {command!r}")
        overrides[key] = _coerce(by_dest[key], value)
    subparser.set_defaults(**overrides)


def _seeds(base: int) -> dict:
    return {"init_seed": base, "shuffle_seed": base + 1,
            "dropout_seed": base + 2}


def _config_from_args(args: argparse.Namespace, mode: str) -> TrainConfig:
    defaults = NSN_L2_DEFAULTS if mode == "nsn" else REFERENCE_L2_DEFAULTS
    l2 = args.l2
    if l2 is None:
        if args.n_hidden not in defaults:
            raise ConfigError(f"no default --l2 for n_hidden="
                              f"{args.n_hidden}; pass --l2 explicitly")
        l2 = defaults[args.n_hidden]
    return TrainConfig(
        mode=mode, n_hidden=args.n_hidden, epochs=args.epochs,
        batch_size=args.batch,
        schedule=Schedule(base_lr=args.lr, decay_every=args.decay_every,
                          decay_factor=args.decay_factor, alpha=args.alpha),
        l2_lambda=l2, input_keep=args.input_keep,
        hidden_keep=args.hidden_keep, shuffle=args.shuffle,
        data_dir=args.data_dir, out_dir=args.out_dir, **_seeds(args.seed))


def _print_result(result) -> None:
    accs = " ".join(f"m{i}={v:.4f}"
                    for i, v in enumerate(result.best_accuracies))
    print(f"best epoch {result.best_epoch + 1}: {accs}")
    if result.checkpoint_path is not None:
        print(f"final checkpoint: {result.checkpoint_path}")


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args, "nsn")
    result = train(config, resume_from=args.resume, log=print)
    _print_result(result)
    return EXIT_OK


def cmd_train_ref(args: argparse.Namespace) -> int:
    config = _config_from_args(args, "reference")
    result = train_reference(config, resume_from=args.resume, log=print)
    _print_result(result)
    return EXIT_OK


def _load_test_set(data_dir: Path):
    return load_dataset(Path(data_dir) / TEST_IMAGES,
                        Path(data_dir) / TEST_LABELS)


def cmd_eval(args: argparse.Namespace) -> int:
    family, _ = family_from_checkpoint(load_checkpoint(args.checkpoint))
    test_ds = _load_test_set(args.data_dir)
    for m in range(family.n + 1):
        acc = evaluate(family.view(m), test_ds)
        print(f"model m{m}: accuracy {acc:.6f} "
              f"parameters {param_count(family, m)}")
    return EXIT_OK


def cmd_detach_eval(args: argparse.Namespace) -> int:
    family, _ = family_from_checkpoint(load_checkpoint(args.checkpoint))
    k = args.drop_layers
    view = detach(family, k)  # IndexError (exit 2) when k is out of range
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
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (NsnError, FileNotFoundError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
