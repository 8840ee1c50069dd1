import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsn
from conftest import PAPER_L2, array_bytes, idx_label_bytes, write_idx_dir
from nsn.checkpoint import load_checkpoint, save_checkpoint
from nsn.cli import build_parser, load_config_file, main
from nsn.mnist import TEST_IMAGES, TEST_LABELS
from nsn.nn import DenseLayer
from nsn.optim import MomentumState
from nsn.train import TrainConfig, TrainResult


def run_tiny_train(tmp_path, *extra):
    """One-epoch run on synthetic IDX files; returns the out dir."""
    data = write_idx_dir(tmp_path / "data", train_count=96, test_count=64)
    out = tmp_path / "run"
    code = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                 "--n-hidden", "1", "--epochs", "1", "--batch", "32",
                 "--lr", "0.05", *extra])
    assert code == 0
    return data, out


class TestHelp:
    @pytest.mark.parametrize("cmd", ["train", "train-ref", "eval",
                                     "detach-eval", "gradcheck", "verify"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out or cmd in ("gradcheck", "verify")

    def test_defaults_documented(self, capsys):
        for cmd in ("train", "train-ref"):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            out = capsys.readouterr().out
            for token in ("600", "128", "0.3", "0.9", "200", "0.8", "0.5",
                          "PROTOCOL_L2"):
                assert token in out

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus-flag", "1"])
        assert exc.value.code == 2


class TestTrainCommand:
    def test_tiny_run_produces_artifacts(self, tmp_path, capsys):
        _, out = run_tiny_train(tmp_path)
        assert (out / "metrics.csv").exists()
        assert (out / "best.csv").exists()
        assert (out / "checkpoint_final.nsn").exists()
        stdout = capsys.readouterr().out
        assert "epoch 1/1" in stdout
        assert "best epoch" in stdout

    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data")
        code = main(["train", "--data-dir", str(data),
                     "--out-dir", str(tmp_path / "out"), "--epochs", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_data_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--data-dir", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "out"), "--epochs", "1"])
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        code = main(["train", "--data-dir", str(data),
                     "--out-dir", str(tmp_path / "out"), "--n-hidden", "1",
                     "--epochs", "1", "--batch", "32", "--lr", "1e30"])
        assert code == 3
        assert "loss" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "out"
        out.write_text("")
        code = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                     "--n-hidden", "1", "--epochs", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_a_batch_larger_than_the_training_set_writes_no_out_dir(
            self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "out"
        code = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                     "--n-hidden", "1", "--epochs", "1", "--batch", "100"])
        assert code == 2
        assert "batch_size 100 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--lr", "nan", "base_lr"),
        ("--decay-factor", "nan", "decay_factor"),
        ("--l2", "inf", "l2_lambda")])
    def test_a_non_finite_hyperparameter_writes_no_out_dir(
            self, tmp_path, capsys, flag, value, name):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "out"
        code = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                     "--n-hidden", "1", "--epochs", "2", "--decay-every",
                     "1", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err
        assert name not in err
        assert not out.exists()

    def test_train_ref_runs(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "ref"
        code = main(["train-ref", "--data-dir", str(data),
                     "--out-dir", str(out), "--n-hidden", "0",
                     "--epochs", "1", "--batch", "32"])
        assert code == 0
        assert (out / "checkpoint_final.nsn").exists()


class TestResume:
    def train(self, data, out, epochs, *extra):
        return main(["train", "--data-dir", str(data), "--out-dir", str(out),
                     "--n-hidden", "1", "--epochs", str(epochs),
                     "--batch", "32", "--lr", "0.05", *extra])

    def test_resume_matches_an_uninterrupted_run(self, tmp_path):
        data = write_idx_dir(tmp_path / "data")
        full, resumed = tmp_path / "full", tmp_path / "resumed"
        assert self.train(data, full, 2) == 0
        assert self.train(data, resumed, 1) == 0
        assert self.train(data, resumed, 2, "--resume",
                          str(resumed / "checkpoint_final.nsn")) == 0
        for name in ("metrics.csv", "best.csv"):
            assert (resumed / name).read_bytes() == (full / name).read_bytes()
        # Not the checkpoint bytes: the config echo records the out dir.
        for name in ("checkpoint_final.nsn", "checkpoint_best.nsn"):
            a, b = load_checkpoint(full / name), load_checkpoint(resumed / name)
            assert array_bytes(a.groups) == array_bytes(b.groups)
            assert array_bytes(a.momentum) == array_bytes(b.momentum)
            assert (a.epoch, a.best_epoch) == (b.epoch, b.best_epoch)

    def test_resume_with_a_changed_l2_is_usage_error(self, tmp_path,
                                                     capsys):
        data = write_idx_dir(tmp_path / "data")
        out = tmp_path / "run"
        assert self.train(data, out, 1) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert self.train(data, out, 2, "--l2", "0.1", "--resume",
                          str(out / "checkpoint_final.nsn")) == 2
        assert "l2_lambda" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_stray_metrics_file_does_not_stop_a_fresh_run(self, tmp_path):
        data = write_idx_dir(tmp_path / "data")
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.csv").write_text("epoch\nnot-a-row\n")
        assert self.train(data, out, 1) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["epoch", "0"]

    def resume_from_an_altered_checkpoint(self, tmp_path, alter) -> int:
        """Exit code of resuming a 2-epoch run to 2 epochs from its final
        checkpoint set back to epoch 1 and changed by ``alter``. Asserts
        the out dir is left as it was; a resume that got as far as opening
        it would cut its metrics.csv to one row."""
        data = write_idx_dir(tmp_path / "data")
        out = tmp_path / "run"
        assert self.train(data, out, 2) == 0
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        ckpt.epoch = 1
        alter(ckpt)
        altered = tmp_path / "altered.nsn"
        save_checkpoint(altered, ckpt)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = self.train(data, out, 2, "--resume", str(altered))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        return code

    def test_resume_from_a_bias_momentum_of_another_length_is_usage_error(
            self, tmp_path, capsys):
        def shorten(ckpt):
            ckpt.momentum[0].v_bias = ckpt.momentum[0].v_bias[:9]

        assert self.resume_from_an_altered_checkpoint(tmp_path, shorten) == 2
        assert "10 biases and 9 bias momenta" in capsys.readouterr().err

    def test_resume_from_a_head_the_config_does_not_build_is_usage_error(
            self, tmp_path, capsys):
        def cut_head(ckpt):
            layer, state = ckpt.groups[0], ckpt.momentum[0]
            ckpt.groups[0] = DenseLayer(layer.weight[:7], layer.bias[:7])
            ckpt.momentum[0] = MomentumState(state.v_weight[:7],
                                             state.v_bias[:7])

        assert self.resume_from_an_altered_checkpoint(tmp_path, cut_head) == 2
        assert ("shapes [(7, 784), (784, 784)], the config builds "
                "[(10, 784), (784, 784)]") in capsys.readouterr().err

    @pytest.mark.parametrize("echo", ["{not json", "[1, 2]"],
                             ids=["not-json", "not-an-object"])
    def test_resume_from_an_unreadable_echo_is_usage_error(
            self, tmp_path, capsys, echo):
        data = write_idx_dir(tmp_path / "data")
        assert self.train(data, tmp_path / "first", 1) == 0
        ckpt = load_checkpoint(tmp_path / "first" / "checkpoint_final.nsn")
        ckpt.config_echo = echo
        altered = tmp_path / "altered.nsn"
        save_checkpoint(altered, ckpt)
        out = tmp_path / "run"
        capsys.readouterr()
        assert self.train(data, out, 2, "--resume", str(altered)) == 2
        assert "no readable config echo" in capsys.readouterr().err
        assert not out.exists()
        # eval reads no echo it cannot parse, and reports every model
        assert main(["eval", "--checkpoint", str(altered),
                     "--data-dir", str(data)]) == 0
        stdout = capsys.readouterr().out
        assert "model m0" in stdout and "model m1" in stdout

    def test_resume_onto_too_few_samples_for_a_batch_leaves_the_out_dir(
            self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data")
        out = tmp_path / "run"
        assert self.train(data, out, 3) == 0
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        ckpt.epoch = 1
        resume_from = tmp_path / "epoch1.nsn"
        save_checkpoint(resume_from, ckpt)
        small = write_idx_dir(tmp_path / "small", train_count=16,
                              test_count=16)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert self.train(small, out, 3, "--resume", str(resume_from)) == 2
        assert "batch_size 32 exceeds" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("row", [b"x\n", b"0,\xff\n"],
                             ids=["not-an-epoch", "not-utf8"])
    def test_resume_over_a_malformed_metrics_row_is_usage_error(
            self, tmp_path, capsys, row):
        data = write_idx_dir(tmp_path / "data")
        out = tmp_path / "run"
        assert self.train(data, out, 1) == 0
        with open(out / "metrics.csv", "ab") as fh:
            fh.write(row)
        before = (out / "metrics.csv").read_bytes()
        assert self.train(data, out, 2, "--resume",
                          str(out / "checkpoint_final.nsn")) == 2
        assert "metrics.csv line 3" in capsys.readouterr().err
        assert (out / "metrics.csv").read_bytes() == before


class TestEvalCommands:
    def test_eval_reports_every_model(self, tmp_path, capsys):
        data, out = run_tiny_train(tmp_path)
        capsys.readouterr()
        code = main(["eval", "--checkpoint",
                     str(out / "checkpoint_final.nsn"),
                     "--data-dir", str(data)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "model m0" in stdout and "model m1" in stdout
        assert "7850" in stdout

    def test_eval_of_a_baseline_reports_its_base_model_only(self, tmp_path,
                                                            capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "ref"
        assert main(["train-ref", "--data-dir", str(data),
                     "--out-dir", str(out), "--n-hidden", "1",
                     "--epochs", "1", "--batch", "32"]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint",
                     str(out / "checkpoint_final.nsn"),
                     "--data-dir", str(data)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "model m1" in stdout and "model m0" not in stdout

    def test_detach_eval_prints_accuracy_and_params(self, tmp_path, capsys):
        data, out = run_tiny_train(tmp_path)
        capsys.readouterr()
        code = main(["detach-eval", "--checkpoint",
                     str(out / "checkpoint_final.nsn"),
                     "--data-dir", str(data), "--drop-layers", "1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        assert "7850" in stdout  # softmax-regression size

    def test_detach_eval_matches_eval(self, tmp_path, capsys):
        data, out = run_tiny_train(tmp_path)
        capsys.readouterr()
        main(["eval", "--checkpoint", str(out / "checkpoint_final.nsn"),
              "--data-dir", str(data)])
        eval_out = capsys.readouterr().out
        main(["detach-eval", "--checkpoint",
              str(out / "checkpoint_final.nsn"),
              "--data-dir", str(data), "--drop-layers", "0"])
        detach_out = capsys.readouterr().out
        base_acc = [line for line in eval_out.splitlines()
                    if "model m1" in line][0].split("accuracy ")[1].split()[0]
        assert base_acc in detach_out

    def test_detach_eval_of_a_baseline_rejects_models_it_did_not_train(
            self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "ref"
        assert main(["train-ref", "--data-dir", str(data),
                     "--out-dir", str(out), "--n-hidden", "2",
                     "--epochs", "1", "--batch", "32"]) == 0
        detach_eval = ["detach-eval", "--checkpoint",
                       str(out / "checkpoint_final.nsn"),
                       "--data-dir", str(data), "--drop-layers"]
        capsys.readouterr()
        assert main(detach_eval + ["1"]) == 2
        assert "m1, which" in capsys.readouterr().err
        assert main(detach_eval + ["0"]) == 0
        assert "model m2" in capsys.readouterr().out

    def test_label_byte_above_nine_is_usage_error(self, tmp_path, capsys):
        data, out = run_tiny_train(tmp_path)
        labels = data / TEST_LABELS
        raw = bytearray(labels.read_bytes())
        raw[8] = 12
        labels.write_bytes(bytes(raw))
        capsys.readouterr()
        code = main(["eval", "--checkpoint",
                     str(out / "checkpoint_final.nsn"),
                     "--data-dir", str(data)])
        assert code == 2
        assert "12" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"],
                                         ["detach-eval", "--drop-layers", "1"]])
    def test_a_head_short_of_the_echoed_classes_is_usage_error(
            self, tmp_path, capsys, command):
        data, out = run_tiny_train(tmp_path)
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        layer, state = ckpt.groups[0], ckpt.momentum[0]
        ckpt.groups[0] = DenseLayer(layer.weight[:7], layer.bias[:7])
        ckpt.momentum[0] = MomentumState(state.v_weight[:7], state.v_bias[:7])
        cut = tmp_path / "cut.nsn"
        save_checkpoint(cut, ckpt)
        capsys.readouterr()
        code = main(command[:1] + ["--checkpoint", str(cut), "--data-dir",
                                   str(data)] + command[1:])
        assert code == 2
        captured = capsys.readouterr()
        assert "head of 7 rows, its config echo names 10 classes" in (
            captured.err)
        assert "accuracy" not in captured.out

    def test_drop_too_many_layers_is_usage_error(self, tmp_path, capsys):
        data, out = run_tiny_train(tmp_path)
        code = main(["detach-eval", "--checkpoint",
                     str(out / "checkpoint_final.nsn"),
                     "--data-dir", str(data), "--drop-layers", "2"])
        assert code == 2

    def test_a_best_record_of_another_model_count_is_usage_error(
            self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "run"
        assert main(["train", "--data-dir", str(data), "--out-dir", str(out),
                     "--n-hidden", "2", "--epochs", "1",
                     "--batch", "32"]) == 0
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        ckpt.best_accuracies = ckpt.best_accuracies[1:]  # m1 and m2 only
        altered = tmp_path / "altered.nsn"
        save_checkpoint(altered, ckpt)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(altered),
                     "--data-dir", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "records 2 models' accuracies but has 3 groups" in captured.err

    def test_corrupt_checkpoint_is_usage_error(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data")
        bad = tmp_path / "bad.nsn"
        bad.write_bytes(b"not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad),
                     "--data-dir", str(data)])
        assert code == 2


def assert_usage_error(tmp_path, capsys, argv, *wanted):
    """``nsn ARGV --out-dir tmp/run`` exits 2, its error says each of
    ``wanted``, and no out dir is made."""
    out = tmp_path / "run"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    for text in wanted:
        assert text in err
    assert not out.exists()
    return err


class TestBadFlagValues:
    # the value each flag's field rejects, and the field's name, which the
    # error shows only as part of the flag
    @pytest.mark.parametrize("command", ["train", "train-ref"])
    @pytest.mark.parametrize("flag,value,field", [
        ("--batch", "0", "batch_size"), ("--l2", "-1", "l2_lambda"),
        ("--lr", "nan", "base_lr"), ("--n-hidden", "-1", "n_hidden"),
        ("--epochs", "0", "epochs"), ("--input-keep", "0", "input_keep"),
        ("--hidden-keep", "1.5", "hidden_keep"),
        ("--alpha", "1", "alpha"), ("--decay-every", "0", "decay_every"),
        ("--decay-factor", "inf", "decay_factor")])
    def test_the_error_names_the_flag(self, tmp_path, capsys, command, flag,
                                      value, field):
        data = write_idx_dir(tmp_path / "data")
        err = assert_usage_error(
            tmp_path, capsys, [command, "--data-dir", str(data),
                               "--n-hidden", "1", flag, value],
            f"error: {flag} must be")
        assert field not in err.replace(flag, "")

    def test_a_family_of_no_hidden_layer_names_n_hidden_not_l2(
            self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data")
        for extra in ([], ["--l2", "1e-4"]):
            err = assert_usage_error(
                tmp_path, capsys, ["train", "--data-dir", str(data),
                                   "--n-hidden", "0", *extra],
                "error: --n-hidden must be >= 1 in nsn mode, got 0")
            assert "--l2" not in err

    def test_a_depth_with_no_default_l2_asks_for_it(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data")
        for command, mode in (("train", "nsn"), ("train-ref", "reference")):
            err = assert_usage_error(
                tmp_path, capsys, [command, "--data-dir", str(data),
                                   "--n-hidden", "3"],
                f"error: --l2 must be given: the protocol has no {mode} run "
                f"at --n-hidden 3")
            assert "l2_lambda" not in err and "n_hidden" not in err

    def test_more_test_images_than_labels(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data", test_count=64)
        (data / TEST_LABELS).write_bytes(idx_label_bytes(np.zeros(63, np.uint8)))
        assert_usage_error(
            tmp_path, capsys, ["train", "--data-dir", str(data),
                               "--n-hidden", "1", "--epochs", "1"],
            f"{data / TEST_IMAGES}: 64 images but 63 labels")


class TestProtocol:
    @pytest.mark.parametrize("mode,n_hidden", list(PAPER_L2))
    def test_required_flags_alone_train_the_configs_run(
            self, tmp_path, monkeypatch, mode, n_hidden):
        # the config cmd_train hands the trainer, which writes its echo
        trained = []

        def run(config, resume_from=None, log=None):
            trained.append(config)
            return TrainResult([], 0, [], [], tmp_path / "ckpt")

        monkeypatch.setattr(nsn.cli, "train" if mode == "nsn"
                            else "train_reference", run)
        command = "train" if mode == "nsn" else "train-ref"
        data, out = tmp_path / "data", tmp_path / "out"
        assert main([command, "--n-hidden", str(n_hidden), "--data-dir",
                     str(data), "--out-dir", str(out)]) == 0
        (config,) = trained
        assert config.echo() == TrainConfig(
            mode=mode, n_hidden=n_hidden, data_dir=data,
            out_dir=out).echo()
        assert json.loads(config.echo())["l2_lambda"] == PAPER_L2[mode,
                                                                  n_hidden]


class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path,
                                                         capsys):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\nbatch=32\nlr=0.05\nn-hidden=1\n")
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(data), "--out-dir", str(out),
                     "--epochs", "1"])  # flag beats file
        assert code == 0
        stdout = capsys.readouterr().out
        assert "epoch 1/1" in stdout  # epochs from flag, not file
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        assert len(ckpt.groups) == 2  # n-hidden from file

    def test_file_may_give_the_data_and_out_dirs(self, tmp_path):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data-dir={data}\nout-dir={out}\nepochs=1\n"
                       f"batch=32\nn-hidden=1\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert load_checkpoint(out / "checkpoint_final.nsn").epoch == 1

    @pytest.mark.parametrize("command", ["train", "train-ref"])
    def test_dirs_given_nowhere_are_usage_errors(self, tmp_path, capsys,
                                                  command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "--data-dir, --out-dir must be given" in err
        assert main([command, "--out-dir", str(tmp_path / "out")]) == 2
        assert "error: --data-dir must be given" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(tmp_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_debug_checks_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("debug-checks=true\n")
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(tmp_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown config keys: debug-checks" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["train", "--debug-checks", "--data-dir", str(tmp_path),
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("form", ["--config FILE", "--config=FILE",
                                      "--conf FILE"])
    def test_every_spelling_of_the_flag_applies_the_file(self, tmp_path,
                                                          form):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nbatch=32\nn-hidden=1\nseed=41\n")
        out = tmp_path / "out"
        code = main(["train", *form.replace("FILE", str(cfg)).split(),
                     "--data-dir", str(data), "--out-dir", str(out)])
        assert code == 0
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        assert len(ckpt.groups) == 2
        assert (ckpt.init_seed, ckpt.shuffle_seed,
                ckpt.dropout_seed) == (41, 42, 43)
        assert json.loads(ckpt.config_echo)["seed"] == 41

    @pytest.mark.parametrize("line", ["epoch=7", "hidden=0.3", "config=x"])
    def test_a_key_is_a_flags_whole_name(self, tmp_path, capsys, line):
        # argparse would take the first two for --epochs and --hidden-keep
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(tmp_path), "--out-dir", str(out)])
        assert code == 2
        key = line.split("=")[0]
        assert (f"unknown config keys: {key}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_internal_name_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shuffle=false\n")
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(tmp_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown config keys: shuffle" in capsys.readouterr().err

    def test_a_file_that_is_not_utf8_is_usage_error(self, tmp_path,
                                                    capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs=1\n\xff\xfe=2\n")
        code = main(["train", "--config", str(cfg),
                     "--data-dir", str(tmp_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"{cfg} is not a UTF-8 text file" in capsys.readouterr().err

    def test_a_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\n# comment\nbatch 32\n")
        assert_usage_error(
            tmp_path, capsys, ["train", "--config", str(cfg),
                               "--data-dir", str(tmp_path)],
            f"{cfg}:3: expected key=value, got 'batch 32'")

    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nepochs = 3\nn-hidden=1\n")
        values = load_config_file(cfg)
        assert values == {"epochs": "3", "n_hidden": "1"}


class TestSeedDerivation:
    def test_seed_streams_recorded_in_checkpoint(self, tmp_path):
        _, out = run_tiny_train(tmp_path, "--seed", "41")
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        assert (ckpt.init_seed, ckpt.shuffle_seed,
                ckpt.dropout_seed) == (41, 42, 43)

    def test_same_seed_reproduces_bitwise(self, tmp_path):
        _, out_a = run_tiny_train(tmp_path / "a", "--seed", "9")
        _, out_b = run_tiny_train(tmp_path / "b", "--seed", "9")
        a = load_checkpoint(out_a / "checkpoint_final.nsn")
        b = load_checkpoint(out_b / "checkpoint_final.nsn")
        for ga, gb in zip(a.groups, b.groups):
            assert ga.weight.tobytes() == gb.weight.tobytes()

    def test_seed_the_checkpoint_cannot_store_is_usage_error(self, tmp_path,
                                                              capsys):
        self.assert_seed_is_usage_error(tmp_path, capsys, 2**64 - 1)

    def assert_seed_is_usage_error(self, tmp_path, capsys, seed):
        data = write_idx_dir(tmp_path / "data", train_count=64,
                             test_count=32)
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                     "--n-hidden", "1", "--epochs", "1",
                     "--seed", str(seed)])
        assert code == 2
        # the error names the flag, not a config field derived from it
        err = capsys.readouterr().err
        assert f"--seed must be in [0, 2**64 - 3], got {seed}" in err
        assert "_seed" not in err
        assert not out.exists()

    def test_largest_seed_the_checkpoint_can_store_trains(self, tmp_path):
        _, out = run_tiny_train(tmp_path, "--seed", str(2**64 - 3))
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        assert ckpt.dropout_seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [2**64 - 2, -1, -5])
    def test_a_seed_out_of_range_names_the_flag(self, tmp_path, capsys,
                                                seed):
        self.assert_seed_is_usage_error(tmp_path, capsys, seed)

    def test_parser_builds(self):
        assert build_parser() is not None


def test_import_pins_blas_to_one_thread():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, **{name: "2" for name in names})
    src = str(Path(nsn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import os, nsn; "
            f"print(*(os.environ[name] for name in {names!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["1", "1", "1"]
