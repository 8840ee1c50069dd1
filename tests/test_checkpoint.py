import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (array_bytes, checkpoint_arrays, new_family,
                      rewrite_seeds, traced_peak)
from nsn.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from nsn.errors import FormatError, LengthError, NsnError
from nsn.nn import DenseLayer
from nsn.optim import MomentumState
from nsn.train import family_from_checkpoint


def sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    groups, momentum = [], []
    for shape in ((10, 4), (4, 4), (4, 4)):
        arrays = [rng.standard_normal(s).astype(np.float32)
                  for s in (shape, shape[0], shape, shape[0])]
        groups.append(DenseLayer(*arrays[:2]))
        momentum.append(MomentumState(*arrays[2:]))
    return Checkpoint(groups=groups, momentum=momentum, epoch=17,
                      seed=1,
                      config_echo='{"n_hidden": 2}', best_epoch=12,
                      best_accuracies=[0.9, 1 / 3, 0.97])


def version1_bytes() -> bytes:
    """A one-group version 1 file, laid out by hand from the format."""
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.array([0.5, -0.5], np.float32)
    group = (struct.pack("<II", 2, 3) + w.tobytes() + struct.pack("<I", 2)
             + b.tobytes() + (2 * w).tobytes() + struct.pack("<I", 2)
             + (2 * b).tobytes())
    return (b"NSN1" + struct.pack("<III", 1, 0, 1) + group
            + struct.pack("<IQQQ", 4, 7, 8, 9) + struct.pack("<I", 2) + b"{}")


class TestRoundTrip:
    def test_bitwise(self, tmp_path):
        path = tmp_path / "model.nsn"
        original = sample_checkpoint()
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert len(loaded.groups) == len(original.groups)
        assert loaded.epoch == original.epoch
        assert loaded.seed == 1
        assert struct.pack("<QQQ", 1, 2, 3) in path.read_bytes()
        assert loaded.config_echo == original.config_echo
        assert loaded.best_epoch == 12
        assert loaded.best_accuracies == [0.9, 1 / 3, 0.97]
        assert array_bytes(loaded.groups) == array_bytes(original.groups)
        assert (array_bytes(loaded.momentum)
                == array_bytes(original.momentum))

    def test_save_load_save_is_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.nsn", tmp_path / "b.nsn"
        save_checkpoint(p1, sample_checkpoint())
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_every_model_count_a_run_writes_loads_and_saves_back_bitwise(
            self, tmp_path, count):
        # 0: best unknown; 1: a baseline's base model; 3: every model of
        # a family of 3 groups
        p1, p2 = tmp_path / "a.nsn", tmp_path / "b.nsn"
        ckpt = sample_checkpoint()
        ckpt.best_accuracies = [0.25] * count
        save_checkpoint(p1, ckpt)
        assert load_checkpoint(p1).best_accuracies == [0.25] * count
        save_checkpoint(p2, load_checkpoint(p1))
        assert p2.read_bytes() == p1.read_bytes()

    def test_large_seeds_survive(self, tmp_path):
        ckpt = sample_checkpoint()
        ckpt.seed = 2**63 + 5
        path = tmp_path / "model.nsn"
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).seed == 2**63 + 5

    @pytest.mark.parametrize("seed", [0, 2**64 - 3])
    def test_the_end_seeds_load_and_save_back_bitwise(self, tmp_path, seed):
        # 2**64 - 3 is the largest seed whose seed + 2 fits the u64
        p1, p2 = tmp_path / "a.nsn", tmp_path / "b.nsn"
        ckpt = sample_checkpoint()
        ckpt.seed = seed
        save_checkpoint(p1, ckpt)
        assert struct.pack("<QQQ", seed, seed + 1, seed + 2) in p1.read_bytes()
        assert load_checkpoint(p1).seed == seed
        save_checkpoint(p2, load_checkpoint(p1))
        assert p2.read_bytes() == p1.read_bytes()


class TestVersion1:
    def test_loads_with_best_unknown(self, tmp_path):
        path = tmp_path / "v1.nsn"
        path.write_bytes(version1_bytes())
        ckpt = load_checkpoint(path)
        assert (ckpt.version, len(ckpt.groups), ckpt.epoch) == (1, 1, 4)
        assert (ckpt.best_epoch, ckpt.best_accuracies) == (-1, [])
        assert ckpt.momentum[0].v_weight[1, 2] == 10.0

    def test_load_save_is_bitwise(self, tmp_path):
        p1, p2 = tmp_path / "a.nsn", tmp_path / "b.nsn"
        p1.write_bytes(version1_bytes())
        save_checkpoint(p2, load_checkpoint(p1))
        assert p2.read_bytes() == p1.read_bytes()


def nsn2_checkpoint() -> Checkpoint:
    family = new_family(2)  # the benchmark's nsn2 shapes
    return Checkpoint(
        groups=family.groups,
        momentum=[MomentumState.zeros_like(g) for g in family.groups],
        epoch=1, seed=0,
        config_echo="{}")


class TestSaveMemory:
    def test_save_copies_no_array(self, tmp_path):
        path = tmp_path / "nsn2.nsn"
        ckpt = nsn2_checkpoint()
        peak = traced_peak(lambda: save_checkpoint(path, ckpt))
        assert peak < 0.25 * path.stat().st_size


class TestLoadMemory:
    def test_load_copies_no_array(self, tmp_path):
        path = tmp_path / "nsn2.nsn"
        save_checkpoint(path, nsn2_checkpoint())
        size = path.stat().st_size
        assert size > 9_900_000
        peak = traced_peak(lambda: family_from_checkpoint(
            load_checkpoint(path)))
        assert peak < 0.01 * size

    def test_huge_group_header_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.nsn"
        path.write_bytes(b"NSN1" + struct.pack("<IIIII", 2, 0, 1, 65535,
                                              65535) + bytes(64))

        def load():
            with pytest.raises(LengthError, match="truncated"):
                load_checkpoint(path)

        assert traced_peak(load) < 1_000_000


class TestMappedLoad:
    def test_loaded_arrays_cannot_be_written(self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        before = path.read_bytes()
        for array in checkpoint_arrays(load_checkpoint(path)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert path.read_bytes() == before

    def test_a_checkpoint_renamed_over_the_file_leaves_the_loaded_values(
            self, tmp_path):
        path = tmp_path / "model.nsn"
        first = sample_checkpoint(seed=0)
        save_checkpoint(path, first)
        loaded = load_checkpoint(path)
        save_checkpoint(path, sample_checkpoint(seed=1))
        assert array_bytes(loaded.groups) == array_bytes(first.groups)
        assert array_bytes(loaded.momentum) == array_bytes(first.momentum)
        assert (array_bytes(load_checkpoint(path).groups)
                == array_bytes(sample_checkpoint(seed=1).groups))


class TestAtomicWrite:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint(seed=0))
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, sample_checkpoint(seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.nsn"]


class TestCorruption:
    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_n_other_than_the_group_count_less_one_is_format_error(
            self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        data = bytearray(path.read_bytes())
        data[8] = 1  # n; the sample has 3 groups
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="n=1 but has 3 groups"):
            load_checkpoint(path)

    def test_truncation_is_length_error(self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        whole = path.read_bytes()
        for cut in (0, 3, 50):  # an empty file cannot be mapped
            path.write_bytes(whole[:cut])
            with pytest.raises(LengthError, match=f"^{re.escape(str(path))}"
                                                  f": checkpoint truncated"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(LengthError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("count", [2, 4])
    def test_a_model_count_of_neither_one_nor_the_group_count_is_format_error(
            self, tmp_path, count):
        path = tmp_path / "model.nsn"
        ckpt = sample_checkpoint()  # 3 groups
        ckpt.best_accuracies = [0.5] * count
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError, match=f"records {count} models' "
                                              f"accuracies but has 3 groups"):
            load_checkpoint(path)

    @pytest.mark.parametrize("seeds", [(1, 2, 9), (1, 1, 1), (3, 2, 1)])
    def test_seeds_of_no_one_seed_are_format_error(self, tmp_path, seeds):
        # only an API run of an older version, which took the three streams'
        # seeds apart, could write them
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        rewrite_seeds(path, seeds)
        with pytest.raises(FormatError, match=rf"seeds \({seeds[0]}, "
                                              rf"{seeds[1]}, {seeds[2]}\), "
                                              rf"not a run's"):
            load_checkpoint(path)

    def test_config_echo_that_is_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "model.nsn"
        save_checkpoint(path, sample_checkpoint())
        data = bytearray(path.read_bytes())
        data[-1] = 0xFF  # the echo's last byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A version 2 and a version 1 checkpoint file's bytes."""
    path = tmp_path_factory.mktemp("valid") / "model.nsn"
    save_checkpoint(path, sample_checkpoint())
    return [path.read_bytes(), version1_bytes()]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_any_bytes_load_or_raise_an_nsn_error(valid_files, tmp_path_factory,
                                              data):
    """Random bytes, or a valid file with bytes overwritten (often in the
    config echo at its end), cut short or extended, either load or raise
    an NsnError, which the CLI reports with exit 2."""
    if data.draw(st.booleans()):
        raw = data.draw(st.binary(max_size=64))
    else:
        base = bytearray(data.draw(st.sampled_from(valid_files)))
        end = len(base) - 1
        positions = st.one_of(st.integers(0, end),
                              st.integers(end - 15, end))
        for i, value in data.draw(st.lists(
                st.tuples(positions, st.integers(0, 255)), max_size=4)):
            base[i] = value
        cut = data.draw(st.one_of(st.just(len(base)),
                                  st.integers(0, len(base))))
        raw = bytes(base[:cut]) + data.draw(st.binary(max_size=8))
    path = tmp_path_factory.getbasetemp() / "any.nsn"
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except NsnError:
        pass
