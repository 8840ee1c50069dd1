import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsn
from conftest import write_idx_dir
from nsn import blas
from nsn.cli import main
from nsn.errors import ConfigError


@pytest.fixture
def unpinned():
    """The process as if BLAS had not been pinned yet, and again after."""
    blas.one_blas_thread.cache_clear()
    yield
    blas.one_blas_thread.cache_clear()


def fake_openblas(monkeypatch, keeps):
    """Stand in an OpenBLAS that reports ``keeps`` threads whatever it is
    set to; returns the list of counts it was set to."""
    set_to = []
    monkeypatch.setattr(blas, "_openblas",
                        lambda: (lambda: keeps, set_to.append))
    return set_to


def python_output(code: str, **env_vars: str | None) -> str:
    """Standard output of ``code`` run by a fresh Python on these sources,
    with ``env_vars`` set (or removed where None)."""
    env = dict(os.environ)
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    src = str(Path(nsn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_the_kernel_record_names_the_version_and_the_core_picked():
    code = """
import numpy
from nsn.blas import kernels
found = kernels()
print("none" if found is None else f"{found.version} {found.core}")
"""
    default = python_output(code, OPENBLAS_CORETYPE=None).split()
    if default == ["none"]:
        pytest.skip("numpy loaded no OpenBLAS")
    version, core = default
    assert all(part.isdigit() for part in version.split("."))
    assert core
    forced = python_output(code, OPENBLAS_CORETYPE="Haswell").split()
    assert forced == [version, "Haswell"]


def test_numpy_loaded_before_nsn_still_evaluates_on_one_thread():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = """
import numpy as np
from nsn.blas import _openblas
from nsn.family import build_family
from nsn.mnist import Dataset
import nsn.train
from nsn.train import evaluate

found = _openblas()
if found is None:
    print("none")
else:
    get, _ = found
    before = get()
    nsn.train.EVAL_BATCH = 128  # three chunks, so both lanes run
    rng = np.random.default_rng(0)
    ds = Dataset(pixels=rng.integers(0, 256, (300, 8), np.uint8),
                 labels=rng.integers(0, 4, 300))
    evaluate(build_family(1, input_dim=8, classes=4, init_seed=1).view(1),
             ds)
    print(before, get())
"""
    out = python_output(code, **{name: "2" for name in names})
    if out.split() == ["none"]:
        pytest.skip("numpy loaded no OpenBLAS")
    before, after = map(int, out.split())
    assert after == 1, f"{before} threads before the evaluation"


def test_the_count_is_set_to_one_once(monkeypatch, unpinned):
    set_to = fake_openblas(monkeypatch, keeps=1)
    blas.one_blas_thread()
    blas.one_blas_thread()
    assert set_to == [1]


def test_no_openblas_loaded_is_left_to_the_variables(monkeypatch, unpinned):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    blas.one_blas_thread()


def test_an_openblas_that_keeps_two_threads_is_a_config_error(monkeypatch,
                                                               unpinned):
    fake_openblas(monkeypatch, keeps=2)
    with pytest.raises(ConfigError, match="OpenBLAS runs 2 threads"):
        blas.one_blas_thread()


def test_train_and_eval_exit_2_when_blas_keeps_two_threads(
        monkeypatch, unpinned, tmp_path, capsys):
    data = write_idx_dir(tmp_path / "data", train_count=64, test_count=32)
    trained = tmp_path / "trained"
    assert main(["train", "--data-dir", str(data), "--out-dir", str(trained),
                 "--n-hidden", "1", "--epochs", "1", "--batch", "32"]) == 0
    blas.one_blas_thread.cache_clear()
    fake_openblas(monkeypatch, keeps=2)
    out = tmp_path / "out"
    assert main(["train", "--data-dir", str(data), "--out-dir", str(out),
                 "--n-hidden", "1", "--epochs", "1", "--batch", "32"]) == 2
    assert not out.exists()
    assert main(["eval", "--data-dir", str(data), "--checkpoint",
                 str(trained / "checkpoint_final.nsn")]) == 2
    assert "OpenBLAS runs 2 threads" in capsys.readouterr().err
