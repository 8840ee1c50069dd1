"""Tests of the benchmark's own arithmetic, generator and wrappers.

Run with: python3 -m pytest perfbench/tests
"""

import numpy as np
import pytest

import layers
import measure
import run
import synth
from nsn.mnist import load_data_dir
from spans import Tracer, covered, self_times


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9), (100000, 99.99), (10 ** 7, 99.99),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert measure.tail_percentile(count) == expected


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert covered([(1, 9), (2, 3)], 0, 10) == pytest.approx(8.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 1, None),
        ("a", 1.0, 4.0, 0, 1, None),
        ("a.inner", 2.0, 3.5, 1, 1, None),
        ("b", 5.0, 9.0, 0, 2, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])


def test_tracer_records_parents_ops_and_failed_checks():
    t = Tracer()
    inner = t.wrap(lambda x: x + 1, "inner", info=lambda a, k, r: r)
    step = t.wrap(lambda x: inner(x) * 2, "step", starts_op=True,
                  check=lambda r: r < 5)
    with t.span("main", starts_op=True):
        assert step(1) == 4
        assert step(2) == 6
    names = [s[0] for s in t.spans]
    assert names == ["main", "step", "inner", "step", "inner"]
    parents = [s[3] for s in t.spans]
    assert parents == [-1, 0, 1, 0, 3]
    ops = [s[4] for s in t.spans]
    assert ops[1] == ops[2] != ops[3] == ops[4] != ops[0]
    assert [s[5] for s in t.spans if s[0] == "inner"] == [2, 3]
    assert t.checked == 2 and len(t.failures) == 1
    assert all(s[1] <= s[2] for s in t.spans)


def test_generator_wrapper_times_each_item_and_restores_patches():
    import types
    mod = types.SimpleNamespace(gen=lambda n: iter(range(n)))
    t = Tracer()
    original = mod.gen
    t.patch(mod, "gen", t.wrap_generator(mod.gen, "gen"))
    assert list(mod.gen(3)) == [0, 1, 2]
    assert [s[0] for s in t.spans] == ["gen"] * 4   # 3 items + exhaustion
    t.unpatch()
    assert mod.gen is original


def test_generator_is_deterministic_per_seed():
    a = synth.make_split(5, 300, 1)
    b = synth.make_split(5, 300, 1)
    c = synth.make_split(6, 300, 1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_generated_pixels_look_like_mnist():
    images, labels = synth.make_split(1, 3000, 1)
    scaled = images / 255.0
    assert images.dtype == np.uint8 and images.shape == (3000, 28, 28)
    assert 0.15 < (images > 0).mean() < 0.25
    assert 0.10 < scaled.mean() < 0.16
    assert set(np.unique(labels)) == set(range(10))


def test_train_and_test_share_class_structure():
    train, train_labels = synth.make_split(1, 3000, 1)
    test, test_labels = synth.make_split(1, 3000, 2)
    means = [np.stack([x[y == c].mean(axis=0).ravel() for c in range(10)])
             for x, y in ((train, train_labels), (test, test_labels))]
    corr = np.corrcoef(means[0], means[1])[:10, 10:]
    assert np.all(np.argmax(corr, axis=1) == np.arange(10))
    assert not np.array_equal(train[:100], test[:100])


def test_idx_round_trip_through_nsn_mnist(tmp_path):
    synth.write_idx_dir(tmp_path, seed=3, train=200, test=50)
    train, test = load_data_dir(tmp_path)
    images, labels = synth.make_split(3, 200, 1)
    assert np.array_equal(train.images,
                          images.reshape(200, -1).astype(np.float32) / 255)
    assert np.array_equal(train.labels, labels.astype(np.int64))
    assert test.count == 50


@pytest.mark.parametrize("workload, family_calls", [
    ("train-nsn2", True), ("train-ref2", False)])
def test_traced_training_reports_layers_it_calls_and_zero_elsewhere(
        tmp_path, workload, family_calls):
    data = synth.write_idx_dir(tmp_path / "data", seed=2, train=256, test=64)
    bench = run.Bench(workload, seed=2, seconds=0.0, trace=True,
                      work=tmp_path)
    bench.install()
    try:
        bench.command([
            "train" if family_calls else "train-ref", "--n-hidden", "2",
            "--epochs", "1", "--data-dir", str(data),
            "--out-dir", str(tmp_path / "out")])
    finally:
        bench.tracer.unpatch()
    assert not bench.tracer.failures
    values = layers.per_layer(bench.tracer.spans, floor={})
    assert values["nn.dense_forward.calls"] == (6 if family_calls else 3)
    assert values["nn.dropout_mask.calls"] == (5 if family_calls else 3)
    assert values["checkpoint.save_checkpoint.calls"] == 2
    assert values["mnist.load_dataset.bytes"] == sum(
        f.stat().st_size for f in data.iterdir())
    family = [k for k in values if k.startswith("family.")]
    assert all((values[k] > 0) == family_calls for k in family)
    assert (values["optim.momentum_nsn.ms_per_step"] > 0) == family_calls
    assert (values["optim.momentum_standard.ms_per_step"] > 0) != family_calls


def test_setup_only_stops_at_the_first_step_and_restores_it(tmp_path):
    data = synth.write_idx_dir(tmp_path / "data", seed=2, train=256, test=64)
    bench = run.Bench("train-ref2", seed=2, seconds=0.0, trace=False,
                      work=tmp_path)
    bench.install()
    try:
        step = bench.m.train.reference_step
        seconds = bench.setup_only([
            "train-ref", "--n-hidden", "2", "--epochs", "1",
            "--data-dir", str(data)])
        assert bench.m.train.reference_step is step
        assert not (tmp_path / "setup" / "checkpoint_final.nsn").exists()
    finally:
        bench.tracer.unpatch()
    assert seconds > 0 and not bench.tracer.failures
    assert [s[0] for s in bench.tracer.spans] == [
        "cli.main", "train.train_reference"]
