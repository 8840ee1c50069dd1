import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (REAL_DATA, idx_image_bytes, idx_label_bytes,
                      requires_mnist, write_idx_dir)
from nsn.errors import ConfigError, FormatError, LengthError, NsnError
from nsn import mnist


def small_images(count=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)


class TestParseImages:
    def test_round_trip(self):
        images = small_images()
        got = mnist.parse_idx_images(idx_image_bytes(images))
        np.testing.assert_array_equal(got, images)

    def test_wrong_magic_is_format_error(self):
        data = struct.pack(">IIII", 2049, 1, 28, 28) + bytes(784)
        with pytest.raises(FormatError, match="magic"):
            mnist.parse_idx_images(data)

    def test_truncation_reports_expected_vs_actual(self):
        data = idx_image_bytes(small_images(count=2))[:-10]
        with pytest.raises(LengthError, match="expected"):
            mnist.parse_idx_images(data)

    def test_unexpected_geometry_rejected(self):
        data = struct.pack(">IIII", 2051, 1, 14, 14) + bytes(196)
        with pytest.raises(FormatError):
            mnist.parse_idx_images(data)

    def test_header_round_trips_bitwise(self):
        original = idx_image_bytes(small_images(count=3))
        parsed = mnist.parse_idx_images(original)
        rebuilt = struct.pack(">IIII", mnist.IMAGE_MAGIC, *parsed.shape)
        assert rebuilt == original[:16]


class TestParseLabels:
    def test_round_trip(self):
        labels = np.array([0, 3, 9, 1], dtype=np.uint8)
        got = mnist.parse_idx_labels(idx_label_bytes(labels))
        np.testing.assert_array_equal(got, labels)

    def test_empty_file_is_valid(self):
        got = mnist.parse_idx_labels(struct.pack(">II", 2049, 0))
        assert got.shape == (0,)

    def test_wrong_magic(self):
        with pytest.raises(FormatError):
            mnist.parse_idx_labels(struct.pack(">II", 2051, 0))

    def test_label_above_nine_is_value_error(self):
        data = struct.pack(">II", 2049, 2) + bytes([3, 12])
        with pytest.raises(ValueError, match="12"):
            mnist.parse_idx_labels(data)

    def test_truncation(self):
        data = struct.pack(">II", 2049, 5) + bytes([1, 2])
        with pytest.raises(LengthError):
            mnist.parse_idx_labels(data)

    def test_header_round_trips_bitwise(self):
        original = idx_label_bytes(np.array([5, 0, 4], dtype=np.uint8))
        parsed = mnist.parse_idx_labels(original)
        rebuilt = struct.pack(">II", mnist.LABEL_MAGIC, parsed.shape[0])
        assert rebuilt == original[:8]


class TestNormalize:
    def test_extremes_are_exact(self):
        raw = np.array([[[0, 255]]], dtype=np.uint8).reshape(1, 1, 2)
        out = mnist.normalize(raw)
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_midpoint(self):
        raw = np.full((1, 1, 1), 128, dtype=np.uint8)
        np.testing.assert_allclose(mnist.normalize(raw), 128 / 255,
                                   rtol=1e-6)

    def test_monotone_with_256_distinct_values(self):
        raw = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        out = mnist.normalize(raw).ravel()
        assert np.all(np.diff(out) > 0)
        assert len(np.unique(out)) == 256
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_flattens_to_pixel_rows(self):
        out = mnist.normalize(small_images(count=4))
        assert out.shape == (4, 784) and out.dtype == np.float32


def dataset_of(count, pixels=4, seed=0):
    rng = np.random.default_rng(seed)
    return mnist.Dataset(
        pixels=rng.random((count, pixels)).astype(np.float32),
        labels=rng.integers(0, 10, size=count).astype(np.int64))


class TestBatches:
    def test_full_scale_partition(self):
        ds = mnist.Dataset(pixels=np.zeros((60000, 1), np.float32),
                           labels=np.zeros(60000, np.int64))
        sizes = [b.shape[0] for b, _ in
                 mnist.batches(ds, 128, epoch=0, seed=0)]
        assert len(sizes) == 469
        assert sizes[-1] == 96
        assert all(s == 128 for s in sizes[:-1])

    def test_same_seed_epoch_is_identical(self):
        ds = dataset_of(50)
        a = [x.copy() for x, _ in mnist.batches(ds, 7, epoch=2, seed=9)]
        b = [x.copy() for x, _ in mnist.batches(ds, 7, epoch=2, seed=9)]
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_different_epochs_differ(self):
        ds = dataset_of(50)
        (x0, _), = mnist.batches(ds, 50, epoch=0, seed=9)
        (x1, _), = mnist.batches(ds, 50, epoch=1, seed=9)
        assert not np.array_equal(x0, x1)

    @settings(deadline=None, max_examples=25)
    @given(count=st.integers(1, 40), batch=st.integers(1, 40),
           epoch=st.integers(0, 5), seed=st.integers(0, 1000))
    def test_epoch_covers_dataset_exactly_once(self, count, batch, epoch,
                                               seed):
        if batch > count:
            return
        ds = dataset_of(count, seed=seed)
        seen = np.concatenate([x[:, 0] for x, _ in
                               mnist.batches(ds, batch, epoch, seed)])
        np.testing.assert_array_equal(np.sort(seen),
                                      np.sort(ds.images[:, 0]))

    def test_zero_batch_size_is_config_error(self):
        with pytest.raises(ConfigError):
            list(mnist.batches(dataset_of(3), 0, 0, seed=0))

    def test_batch_larger_than_dataset_is_config_error(self):
        ds = dataset_of(3)
        with pytest.raises(ConfigError):
            list(mnist.batches(ds, 4, 0, seed=0))


class TestByteBackedDataset:
    def test_loader_holds_the_idx_bytes(self, synth_data_dir):
        train, test = mnist.load_data_dir(synth_data_dir)
        for ds in (train, test):
            assert ds.pixels.dtype == np.uint8
            assert ds.pixels.nbytes == ds.count * mnist.PIXELS

    def test_an_empty_image_file_is_rejected_at_load(self, tmp_path):
        data = write_idx_dir(tmp_path, train_count=8, test_count=0)
        with pytest.raises(LengthError, match="no images"):
            mnist.load_data_dir(data)

    def test_batches_equal_those_of_rows_scaled_up_front(self,
                                                         synth_data_dir):
        train, _ = mnist.load_data_dir(synth_data_dir)
        scaled = mnist.Dataset(
            pixels=train.pixels.astype(np.float32) / np.float32(255.0),
            labels=train.labels)
        got = list(mnist.batches(train, 20, epoch=3, seed=4))
        want = list(mnist.batches(scaled, 20, epoch=3, seed=4))
        assert len(got) == len(want) == 5
        for (x, labels), (x_want, labels_want) in zip(got, want):
            assert x.dtype == np.float32
            assert x.tobytes() == x_want.tobytes()
            np.testing.assert_array_equal(labels, labels_want)
        assert "images" not in train.__dict__

    @pytest.mark.parametrize("images, labels", [(3, 2), (2, 3), (0, 1)])
    def test_images_and_labels_of_other_counts_are_a_config_error(
            self, images, labels):
        with pytest.raises(ConfigError, match=f"images/labels counts "
                                              f"differ: {images} vs {labels}"):
            mnist.Dataset(pixels=np.zeros((images, 4), np.float32),
                          labels=np.zeros(labels, np.int64))

    def test_images_are_every_row_scaled_once(self, synth_data_dir):
        train, _ = mnist.load_data_dir(synth_data_dir)
        order = np.arange(train.count)[::-1]
        scaled_rows = train.rows(order)
        images = train.images
        assert images is train.images
        assert train.pixels is images  # the bytes are let go
        assert train.rows(order).tobytes() == scaled_rows.tobytes()
        assert images[order].tobytes() == scaled_rows.tobytes()


@st.composite
def idx_files(draw, magic: int, dims: int):
    """Random bytes, or an IDX header (of the right magic or not, with a
    count and geometry that may or may not fit) and a random payload."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    payload = draw(st.binary(max_size=3 * mnist.PIXELS))
    side = st.one_of(st.just(mnist.IMAGE_SIDE), st.integers(0, 2 ** 32 - 1))
    geometry = [draw(side) for _ in range(dims - 1)]
    cells = math.prod(geometry)
    count = draw(st.one_of(st.just(len(payload) // max(cells, 1)),
                           st.integers(0, 2 ** 32 - 1)))
    header = [draw(st.one_of(st.just(magic), st.integers(0, 2 ** 32 - 1))),
              count] + geometry
    return struct.pack(f">{len(header)}I", *header) + payload


class TestAnyBytes:
    """For any bytes, the IDX parsers either return or raise an NsnError,
    which the CLI reports with exit 2."""

    @settings(deadline=None, max_examples=300)
    @given(data=idx_files(mnist.IMAGE_MAGIC, dims=3))
    def test_images(self, data):
        try:
            mnist.parse_idx_images(data)
        except NsnError:
            pass

    @settings(deadline=None, max_examples=300)
    @given(data=idx_files(mnist.LABEL_MAGIC, dims=1))
    def test_labels(self, data):
        try:
            mnist.parse_idx_labels(data)
        except NsnError:
            pass


@requires_mnist
class TestRealFiles:
    def test_train_counts(self):
        train, test = mnist.load_data_dir(REAL_DATA)
        assert train.count == 60000
        assert test.count == 10000

    def test_labels_in_range(self):
        train, test = mnist.load_data_dir(REAL_DATA)
        for ds in (train, test):
            assert ds.labels.min() >= 0 and ds.labels.max() <= 9

    def test_first_label_matches_independent_reader(self):
        raw = (REAL_DATA / mnist.TRAIN_LABELS).read_bytes()
        magic, count = struct.unpack(">II", raw[:8])
        assert magic == 2049 and count == 60000
        first_label = raw[8]
        train, _ = mnist.load_data_dir(REAL_DATA)
        assert train.labels[0] == first_label
