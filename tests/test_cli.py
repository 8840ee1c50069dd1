import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsn
from conftest import array_bytes, write_idx_dir
from nsn.checkpoint import load_checkpoint, save_checkpoint
from nsn.cli import build_parser, load_config_file, main
from nsn.mnist import TEST_LABELS
from nsn.nn import DenseLayer
from nsn.optim import MomentumState


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
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        for token in ("600", "128", "0.3", "0.9", "200"):
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
        assert f"{name} must be finite" in capsys.readouterr().err
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

    def test_corrupt_checkpoint_is_usage_error(self, tmp_path, capsys):
        data = write_idx_dir(tmp_path / "data")
        bad = tmp_path / "bad.nsn"
        bad.write_bytes(b"not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad),
                     "--data-dir", str(data)])
        assert code == 2


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
        cfg.write_text("epochs=1\nbatch=32\nn-hidden=1\nno-shuffle=true\n")
        out = tmp_path / "out"
        code = main(["train", *form.replace("FILE", str(cfg)).split(),
                     "--data-dir", str(data), "--out-dir", str(out)])
        assert code == 0
        ckpt = load_checkpoint(out / "checkpoint_final.nsn")
        assert len(ckpt.groups) == 2
        assert json.loads(ckpt.config_echo)["shuffle"] is False

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

    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nepochs = 3\nno_shuffle=true\n")
        values = load_config_file(cfg)
        assert values == {"epochs": "3", "no_shuffle": "true"}


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
