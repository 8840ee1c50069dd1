import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import new_family
from nsn.errors import ConfigError, ConsistencyError, ShapeError
from nsn import blas, nn


def layer_of(weight, bias=None):
    w = np.asarray(weight, dtype=np.float32)
    b = (np.zeros(w.shape[0], np.float32) if bias is None
         else np.asarray(bias, dtype=np.float32))
    return nn.DenseLayer(w, b)


def random_layers(dims, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(len(dims) - 1):
        bound = 1.0 / math.sqrt(dims[i])
        w = rng.uniform(-bound, bound, (dims[i + 1], dims[i])).astype(dtype)
        b = rng.uniform(-0.1, 0.1, dims[i + 1]).astype(dtype)
        out.append(nn.DenseLayer(w, b))
    return out


class TestDenseForward:
    def test_identity_layer(self):
        x = np.random.default_rng(0).random((4, 3)).astype(np.float32)
        layer = layer_of(np.eye(3))
        assert np.array_equal(nn.dense_forward(x, layer), x)

    def test_zero_input_gives_bias_rows(self):
        layer = layer_of([[1, 2], [3, 4]], [0.5, -0.5])
        out = nn.dense_forward(np.zeros((3, 2), np.float32), layer)
        np.testing.assert_array_equal(out, np.tile([0.5, -0.5], (3, 1)))

    def test_matches_double_precision_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.random((6, 5)).astype(np.float32)
        layer = layer_of(rng.random((4, 5)), rng.random(4))
        oracle = (x.astype(np.float64) @ layer.weight.astype(np.float64).T
                  + layer.bias.astype(np.float64))
        np.testing.assert_allclose(nn.dense_forward(x, layer), oracle,
                                   atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.dense_forward(np.zeros((2, 3), np.float32),
                             layer_of(np.eye(2)))

    @pytest.mark.parametrize("rows", [1, 5, 64])
    def test_a_fresh_output_is_row_major_with_the_bytes_of_x_at_w_t(self,
                                                                   rows):
        x = np.random.default_rng(3).random((rows, 40), dtype=np.float32)
        (layer,) = random_layers((40, 30), seed=4)
        got = nn.dense_forward(x, layer)
        assert got.flags.c_contiguous and got.dtype == np.float32
        assert got.tobytes() == (x @ layer.weight.T + layer.bias).tobytes()


class TestRelu:
    def test_forward(self):
        z = np.array([[-1.0, 0.0, 2.0]], np.float32)
        np.testing.assert_array_equal(nn.relu(z), [[0, 0, 2]])

    def test_backward_identity_when_positive(self):
        z = np.ones((2, 3), np.float32)
        d = np.random.default_rng(2).random((2, 3)).astype(np.float32)
        assert np.array_equal(nn.relu_backward(d, z), d)

    def test_zero_preactivation_gets_zero_gradient(self):
        d = np.ones((1, 3), np.float32)
        z = np.array([[-1.0, 0.0, 1.0]], np.float32)
        np.testing.assert_array_equal(nn.relu_backward(d, z), [[0, 0, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.relu_backward(np.ones((2, 2), np.float32),
                             np.ones((2, 3), np.float32))


class TestDropoutMask:
    def test_keep_one_is_identity_mask(self):
        mask = nn.dropout_mask((3, 4), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(mask, np.ones((3, 4), np.float32))

    def test_values_are_zero_or_inverse_keep(self):
        mask = nn.dropout_mask((100, 100), 0.8, np.random.default_rng(1))
        assert set(np.unique(mask)) <= {np.float32(0.0), np.float32(1 / 0.8)}

    def test_empirical_keep_fraction(self):
        mask = nn.dropout_mask((1000, 1000), 0.5, np.random.default_rng(2))
        kept = float(np.mean(mask > 0))
        assert abs(kept - 0.5) < 0.002  # ~4 sigma over 1e6 draws

    def test_masking_is_unbiased(self):
        # E[mask * x] == x: Monte-Carlo mean over many masks.
        rng = np.random.default_rng(3)
        x = rng.random(50).astype(np.float32) + 0.5
        total = np.zeros(50)
        draws = 20000
        for _ in range(draws):
            total += nn.dropout_mask((50,), 0.5, rng) * x
        np.testing.assert_allclose(total / draws, x, atol=0.04)

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.5])
    def test_invalid_keep_rejected(self, bad):
        with pytest.raises(ConfigError):
            nn.dropout_mask((2, 2), bad, np.random.default_rng(0))


class TestLogSoftmax:
    def test_uniform_row(self):
        out = nn.log_softmax(np.zeros((2, 10), np.float32))
        np.testing.assert_allclose(out, -math.log(10), rtol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.random((3, 10)).astype(np.float32)
        shifted = z + np.float32(7.5)
        np.testing.assert_allclose(nn.log_softmax(z),
                                   nn.log_softmax(shifted), atol=1e-6)

    def test_huge_logit_stays_finite(self):
        z = np.zeros((1, 10), np.float32)
        z[0, 0] = 1000.0
        out = nn.log_softmax(z)
        oracle = nn.log_softmax(z.astype(np.float64))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, oracle, atol=1e-5)
        assert abs(out[0, 0]) < 1e-5

    @settings(deadline=None, max_examples=30)
    @given(arrays(np.float32, (4, 10),
                  elements=st.floats(-50, 50, width=32)))
    def test_rows_exponentiate_to_one(self, z):
        out = nn.log_softmax(z)
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-6)


class TestNllLoss:
    def test_uniform_prediction(self):
        logp = np.full((3, 10), -math.log(10), np.float32)
        got = nn.nll_loss(logp, np.array([0, 5, 9]))
        assert abs(got - math.log(10)) < 1e-6

    def test_perfect_prediction_approaches_zero(self):
        logp = np.full((2, 10), -40.0, np.float32)
        logp[0, 3] = -1e-6
        logp[1, 7] = -1e-6
        assert nn.nll_loss(logp, np.array([3, 7])) < 1e-5

    def test_hand_case_two_samples(self):
        rng = np.random.default_rng(5)
        z = rng.random((2, 4)).astype(np.float32)
        logp = nn.log_softmax(z)
        labels = np.array([2, 0])
        # independent float64 computation
        z64 = z.astype(np.float64)
        p = np.exp(z64) / np.exp(z64).sum(axis=1, keepdims=True)
        oracle = -(math.log(p[0, 2]) + math.log(p[1, 0])) / 2
        assert abs(nn.nll_loss(logp, labels) - oracle) < 1e-6

    def test_label_out_of_range(self):
        logp = np.zeros((1, 10), np.float32)
        with pytest.raises(ConfigError, match="label out of range"):
            nn.nll_loss(logp, np.array([10]))


class TestModelForward:
    def test_eval_is_deterministic(self):
        params = random_layers((6, 5, 10))
        spec = nn.spec_for_params(params)
        x = np.random.default_rng(6).random((4, 6)).astype(np.float32)
        a, _ = nn.model_forward(spec, params, x, "eval")
        b, _ = nn.model_forward(spec, params, x, "eval")
        assert np.array_equal(a, b)

    def test_train_without_dropout_equals_eval_bitwise(self):
        params = random_layers((6, 5, 10))
        spec = nn.spec_for_params(params)  # keeps default to 1
        x = np.random.default_rng(7).random((4, 6)).astype(np.float32)
        train_out, _ = nn.model_forward(spec, params, x, "train")
        eval_out, _ = nn.model_forward(spec, params, x, "eval")
        assert np.array_equal(train_out, eval_out)

    def test_zero_hidden_composition(self):
        params = random_layers((6, 10))
        spec = nn.spec_for_params(params)
        x = np.random.default_rng(8).random((4, 6)).astype(np.float32)
        got, _ = nn.model_forward(spec, params, x, "eval")
        want = nn.log_softmax(nn.dense_forward(x, params[0]))
        assert np.array_equal(got, want)

    def test_train_with_dropout_requires_rng(self):
        params = random_layers((6, 5, 10))
        spec = nn.ModelSpec(nn.spec_for_params(params).dims, 0.8)
        x = np.zeros((2, 6), np.float32)
        with pytest.raises(ConfigError):
            nn.model_forward(spec, params, x, "train")

    def test_dropout_only_in_train_mode(self):
        params = random_layers((6, 5, 10))
        spec = nn.ModelSpec(nn.spec_for_params(params).dims, 0.5, 0.5)
        x = np.random.default_rng(9).random((4, 6)).astype(np.float32)
        eval_a, _ = nn.model_forward(spec, params, x, "eval")
        eval_b, _ = nn.model_forward(spec, params, x, "eval")
        assert np.array_equal(eval_a, eval_b)
        train_out, buffers = nn.model_forward(spec, params, x, "train",
                                              np.random.default_rng(0))
        assert buffers.masks[0] is not None
        assert not np.array_equal(train_out, eval_a)

    def test_spec_params_mismatch(self):
        params = random_layers((6, 5, 10))
        with pytest.raises(ConsistencyError):
            nn.model_forward(nn.ModelSpec((6, 10)), params,
                             np.zeros((1, 6), np.float32), "eval")


class TestModelBackward:
    def test_softmax_regression_closed_form(self):
        rng = np.random.default_rng(10)
        params = random_layers((5, 4), seed=11)
        spec = nn.spec_for_params(params)
        x = rng.random((8, 5)).astype(np.float32)
        labels = rng.integers(0, 4, size=8)
        logp, buffers = nn.model_forward(spec, params, x, "train")
        grads = nn.model_backward(spec, params, buffers, labels)
        # closed form: dW = (p - y)^T x / b, db = column sums of (p - y) / b
        p = np.exp(logp.astype(np.float64))
        y = np.zeros_like(p)
        y[np.arange(8), labels] = 1
        dz = (p - y) / 8
        np.testing.assert_allclose(grads[0].d_weight, dz.T @ x, atol=1e-7)
        np.testing.assert_allclose(grads[0].d_bias, dz.sum(axis=0),
                                   atol=1e-7)

    def test_zero_input_kills_first_weight_gradient(self):
        params = random_layers((5, 4), seed=12)
        spec = nn.spec_for_params(params)
        x = np.zeros((3, 5), np.float32)
        _, buffers = nn.model_forward(spec, params, x, "train")
        grads = nn.model_backward(spec, params, buffers,
                                  np.array([0, 1, 2]))
        assert np.all(grads[0].d_weight == 0)
        assert np.any(grads[0].d_bias != 0)

    def test_matches_finite_differences(self):
        params = [nn.DenseLayer(p.weight.astype(np.float64),
                                p.bias.astype(np.float64))
                  for p in random_layers((32, 16, 10), seed=13)]
        spec = nn.spec_for_params(params)
        rng = np.random.default_rng(14)
        x = rng.random((4, 32))
        labels = rng.integers(0, 10, size=4)
        _, buffers = nn.model_forward(spec, params, x, "train")
        analytic = nn.model_backward(spec, params, buffers, labels)
        numeric = nn.numerical_gradient(spec, params, x, labels)
        for a, n in zip(analytic, numeric):
            for av, nv in ((a.d_weight, n.d_weight), (a.d_bias, n.d_bias)):
                denom = np.maximum(np.maximum(np.abs(av), np.abs(nv)), 1e-6)
                assert np.max(np.abs(av - nv) / denom) <= 1e-4

    def test_eval_cache_rejected(self):
        params = random_layers((5, 4))
        spec = nn.spec_for_params(params)
        _, buffers = nn.model_forward(spec, params,
                                      np.zeros((2, 5), np.float32), "eval")
        with pytest.raises(ConsistencyError):
            nn.model_backward(spec, params, buffers, np.array([0, 1]))

    def test_buffers_no_train_pass_wrote_last_are_rejected(self):
        params = random_layers((5, 4, 3))
        spec = nn.ModelSpec(nn.spec_for_params(params).dims, 0.8, 0.5)
        x = np.random.default_rng(18).random((2, 5)).astype(np.float32)
        labels = np.array([0, 1])
        buffers = nn.ModelBuffers(spec, 2)
        with pytest.raises(ConsistencyError):
            nn.model_backward(spec, params, buffers, labels)
        nn.model_forward(spec, params, x, "train", np.random.default_rng(19),
                         out=buffers)
        nn.model_forward(spec, params, x, "eval", out=buffers)
        with pytest.raises(ConsistencyError):
            nn.model_backward(spec, params, buffers, labels)

    def test_fixed_masks_match_masked_finite_differences(self):
        params = [nn.DenseLayer(p.weight.astype(np.float64),
                                p.bias.astype(np.float64))
                  for p in random_layers((8, 6, 5), seed=15)]
        spec = nn.ModelSpec((8, 6, 5), input_keep=0.8, hidden_keep=0.5)
        rng = np.random.default_rng(16)
        x = rng.random((4, 8))
        labels = rng.integers(0, 5, size=4)
        _, buffers = nn.model_forward(spec, params, x, "train",
                                      np.random.default_rng(17))
        analytic = nn.model_backward(spec, params, buffers, labels)
        numeric = nn.numerical_gradient(
            nn.ModelSpec((8, 6, 5)), params, x, labels,
            input_mask=buffers.masks[0], hidden_masks=buffers.masks[1:])
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a.d_weight, n.d_weight, atol=1e-7)
            np.testing.assert_allclose(a.d_bias, n.d_bias, atol=1e-7)


def literal_passes(params, x, labels, keep, rng):
    """A forward and backward written out with a separate masked array per
    hidden layer; returns each hidden layer's (mask, ReLU output), the
    log-probabilities and the gradients."""
    h = x * nn.dropout_mask(x.shape, keep, rng)
    inputs, hidden = [h], []
    for layer in params[:-1]:
        a = np.maximum(h @ layer.weight.T + layer.bias, 0)
        mask = nn.dropout_mask(a.shape, keep, rng)
        hidden.append((mask, a))
        h = a * mask
        inputs.append(h)
    logp = nn.log_softmax(h @ params[-1].weight.T + params[-1].bias)
    batch = x.shape[0]
    dz = np.exp(logp)
    dz[np.arange(batch), labels] -= 1
    dz /= batch
    grads = []
    for i in reversed(range(len(params))):
        grads.append((dz.T @ inputs[i], dz.sum(axis=0)))
        if i > 0:
            mask, a = hidden[i - 1]
            dz = (dz @ params[i].weight * mask) * (a > 0)
    return hidden, logp, grads[::-1]


def arrays_in(value):
    """Every array in ``value``, looking into lists and gradients."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, nn.LayerGrads):
        yield from (value.d_weight, value.d_bias)


class TestInPlaceMasks:
    """A hidden layer's mask is applied to its ReLU output in place, and
    the backward takes the ReLU's sign from that masked output. Where the
    mask keeps a unit it is 1/keep >= 1, so the sign is the ReLU's; where
    it drops one, the error is already zero. So the passes equal, bitwise,
    ones that keep the unmasked output apart."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keep", [0.5, 0.8, 1 / 3])
    def test_equals_a_separate_masked_array_per_layer(self, keep, dtype):
        dims = (12, 16, 16, 5)
        params = random_layers(dims, seed=40, dtype=dtype)
        spec = nn.ModelSpec(nn.spec_for_params(params).dims, keep, keep)
        rng = np.random.default_rng(41)
        x = (rng.random((24, 12)) - 0.5).astype(dtype)
        labels = rng.integers(0, 5, size=24)
        hidden, want_logp, want = literal_passes(
            params, x, labels, keep, np.random.default_rng(42))
        for mask, a in hidden:
            assert np.any((mask > 0) & (a == 0))  # kept but dead
            assert np.any((mask == 0) & (a > 0))  # live but dropped
        logp, buffers = nn.model_forward(spec, params, x, "train",
                                         np.random.default_rng(42))
        grads = nn.model_backward(spec, params, buffers, labels)
        assert logp.dtype == dtype
        assert logp.tobytes() == want_logp.tobytes()
        for g, (d_weight, d_bias) in zip(grads, want, strict=True):
            assert g.d_weight.tobytes() == d_weight.tobytes()
            assert g.d_bias.tobytes() == d_bias.tobytes()

    def test_only_the_input_has_a_masked_copy(self):
        spec = nn.ModelSpec((6, 5, 5, 4), input_keep=0.8, hidden_keep=0.5)
        buffers = nn.ModelBuffers(spec, 3, dtype=np.float64)
        rows = sorted(a.shape for a in arrays_in(list(vars(buffers).values()))
                      if a.dtype == np.float64 and a.ndim == 2
                      and a.shape[0] == 3)
        # per layer its pre-activation and error, then the log-probabilities
        # and the masked input
        assert rows == sorted([(3, 5), (3, 5), (3, 4)] * 2
                              + [(3, 4), (3, 6)])
        assert buffers.x_masked.shape == (3, 6)


class TestModelBuffers:
    """Passes written into preallocated buffers, for up to more rows than
    the batch holds, equal bitwise the passes that allocate."""

    @pytest.mark.parametrize("keep", [0.5, 0.8, 0.3, 1 / 3])
    def test_mask_into_buffers_is_the_same_draw(self, keep):
        want = nn.dropout_mask((6, 5), keep, np.random.default_rng(31))
        out = np.empty((6, 5), np.float32)
        got = nn.dropout_mask((6, 5), keep, np.random.default_rng(31),
                              out=out, draw=np.empty((6, 5)))
        assert got is out and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [7, 3])
    def test_passes_into_buffers_equal_fresh_ones_bitwise(self, rows):
        params = random_layers((6, 6, 6, 4), seed=32)
        spec = nn.ModelSpec(nn.spec_for_params(params).dims, 0.8, 0.5)
        rng = np.random.default_rng(33)
        x = rng.random((rows, 6)).astype(np.float32)
        labels = rng.integers(0, 4, size=rows)
        buffers = nn.ModelBuffers(spec, 7)
        results = []
        for out in (None, buffers):
            logp, written = nn.model_forward(spec, params, x, "train",
                                             np.random.default_rng(34),
                                             out=out)
            grads = nn.model_backward(spec, params, written, labels)
            results.append([logp] + [a for g in grads
                                     for a in (g.d_weight, g.d_bias)])
        assert results[1][1] is buffers.grads[0].d_weight
        for want, got in zip(*results, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_a_draw_array_only_where_a_mask_is_drawn(self):
        dropout = nn.ModelSpec((6, 5, 4), input_keep=0.8, hidden_keep=0.5)
        assert nn.ModelBuffers(dropout, 3).draw.shape == (3 * 6,)
        assert nn.ModelBuffers(dropout, 3, "eval").draw is None
        assert nn.ModelBuffers(nn.ModelSpec((6, 5, 4)), 3).draw is None
        # a hidden keep with no hidden layer masks nothing
        no_hidden = nn.ModelSpec((6, 4), hidden_keep=0.5)
        assert nn.ModelBuffers(no_hidden, 3).draw is None

    def test_buffers_too_small_for_the_batch_are_rejected(self):
        params = random_layers((6, 4))
        spec = nn.spec_for_params(params)
        with pytest.raises(ShapeError):
            nn.model_forward(spec, params, np.zeros((3, 6), np.float32),
                             "eval", out=nn.ModelBuffers(spec, 2, "eval"))


def runs_skylakex_kernels() -> bool:
    found = blas.kernels()
    return found is not None and found.core == "SkylakeX"


def row_major_chain(params, x):
    """The hidden ReLU outputs and the log-probabilities of ``x`` through
    ``params`` as plain row-major products, x @ W.T + b per layer."""
    hidden, h = [], x
    for layer in params[:-1]:
        h = np.maximum(h @ layer.weight.T + layer.bias, 0)
        hidden.append(h)
    return hidden, nn.log_softmax(h @ params[-1].weight.T + params[-1].bias)


# every count to 33, around the multiples of 16 and 32 above it, the
# 128-row edge of the head's bytes, and the feature-major bound
ROW_COUNTS = sorted({*range(1, 34), 47, 48, 49, 63, 64, 65, 95, 96, 97, 100,
                     127, 128, 129, 150, 191, 192, 193, 200,
                     nn.FEATURE_MAJOR_ROWS - 1, nn.FEATURE_MAJOR_ROWS,
                     nn.FEATURE_MAJOR_ROWS + 1, 299, 300})


class TestFeatureMajorPasses:
    """Eval passes of at most FEATURE_MAJOR_ROWS rows run their hidden
    layers feature-major. With OpenBLAS's SkylakeX kernels a 784-wide
    hidden layer then gives the row-major bytes, and the head reading a
    feature-major input gives them at 1 row and from 128 rows on, at
    rounding level apart between. Other kernel sets (Haswell's differ from
    4 rows up) keep only the rounding-level agreement."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_passes_against_a_row_major_chain(self, n):
        view = new_family(3, seed=50).view(n)
        spec = nn.spec_for_params(view)
        x = np.random.default_rng(51).random((300, 784), dtype=np.float32)
        skylakex = runs_skylakex_kernels()
        for rows in ROW_COUNTS:
            logp, buffers = nn.model_forward(spec, view, x[:rows], "eval")
            hidden, want = row_major_chain(view, x[:rows])
            feature_major = rows <= nn.FEATURE_MAJOR_ROWS
            assert all((a.strides[0] == a.itemsize) == feature_major
                       for a in buffers.pre_acts[:-1])
            assert buffers.pre_acts[-1].flags.c_contiguous
            assert logp.flags.c_contiguous
            np.testing.assert_allclose(logp, want, rtol=1e-5, atol=1e-5)
            bitwise_hidden = skylakex or not feature_major
            for a, b in zip(buffers.pre_acts, hidden):
                assert (a.tobytes() == b.tobytes()) or not bitwise_hidden, rows
            if not feature_major or skylakex and (rows == 1 or rows >= 128):
                assert logp.tobytes() == want.tobytes(), rows

    def test_buffers_used_for_fewer_rows_give_fresh_buffers_logits(self):
        view = new_family(2, seed=52).view(2)
        spec = nn.spec_for_params(view)
        x = np.random.default_rng(53).random((300, 784), dtype=np.float32)
        bound = nn.FEATURE_MAJOR_ROWS
        for held, counts in ((bound, (1, 2, 17, 100, 128, bound - 1)),
                             (300, (bound + 1, 299))):
            buffers = nn.ModelBuffers(spec, held, "eval")
            for rows in counts:
                got, _ = nn.model_forward(spec, view, x[:rows], "eval",
                                          out=buffers)
                want, _ = nn.model_forward(spec, view, x[:rows], "eval")
                assert got.tobytes() == want.tobytes(), (held, rows)

    def test_only_short_eval_buffers_are_feature_major(self):
        spec = nn.ModelSpec((6, 5, 5, 4), input_keep=0.8, hidden_keep=0.5)
        bound = nn.FEATURE_MAJOR_ROWS
        for rows, mode, feature_major in ((bound, "eval", True),
                                          (bound + 1, "eval", False),
                                          (8, "train", False)):
            buffers = nn.ModelBuffers(spec, rows, mode)
            assert [a.flags.f_contiguous for a in buffers.pre_acts] == [
                feature_major, feature_major, False]
            assert all(a.flags.c_contiguous for a in
                       (buffers.pre_acts[-1], buffers.logp, *buffers.d_pre,
                        *(m for m in buffers.masks if m is not None)))


class TestNumericalGradient:
    def test_hand_derived_softmax_gradient(self):
        # one sample, one feature, two classes: dW = (p - y) * x, db = p - y
        w = np.array([[0.3], [-0.2]], np.float64)
        b = np.array([0.1, 0.0], np.float64)
        params = [nn.DenseLayer(w, b)]
        spec = nn.spec_for_params(params)
        x = np.array([[0.7]], np.float64)
        labels = np.array([0])
        z = (x @ w.T + b)[0]
        p = np.exp(z) / np.exp(z).sum()
        hand_dw = ((p - [1, 0]) * 0.7).reshape(2, 1)
        hand_db = p - [1, 0]
        numeric = nn.numerical_gradient(spec, params, x, labels)
        np.testing.assert_allclose(numeric[0].d_weight, hand_dw, atol=1e-8)
        np.testing.assert_allclose(numeric[0].d_bias, hand_db, atol=1e-8)

    def test_quadratic_sanity(self):
        grads = nn.central_difference(
            lambda arrays: float(arrays[0][0, 0] ** 2),
            [np.array([[3.0]])], epsilon=1e-4)
        assert abs(grads[0][0, 0] - 6.0) < 1e-6

    def test_requires_dropout_off(self):
        params = random_layers((4, 3))
        spec = nn.ModelSpec(nn.spec_for_params(params).dims, 0.5)
        with pytest.raises(ConfigError):
            nn.numerical_gradient(spec, params, np.zeros((1, 4)),
                                  np.array([0]))


SPEC = nn.ModelSpec((4, 3, 2))
OTHER_SPEC = nn.ModelSpec((4, 5, 2))


def spec_layers():
    return random_layers(SPEC.dims)


def backward_into_other_buffers():
    _, buffers = nn.model_forward(OTHER_SPEC, random_layers(OTHER_SPEC.dims),
                                  np.zeros((2, 4), np.float32), "train")
    nn.model_backward(SPEC, spec_layers(), buffers, np.zeros(2, np.int64))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: nn.DenseLayer(np.zeros(3, np.float32),
                                       np.zeros(3, np.float32)),
                 ShapeError, "weight must be 2-D", id="weight-not-2d"),
    pytest.param(lambda: nn.DenseLayer(np.zeros((3, 4), np.float32),
                                       np.zeros(4, np.float32)),
                 ShapeError, "bias shape", id="bias-shape"),
    pytest.param(lambda: nn.ModelSpec((4,)), ConfigError,
                 "dims must be >= 2 positive widths", id="spec-one-dim"),
    pytest.param(lambda: nn.ModelSpec((4, 0, 2)), ConfigError,
                 "dims must be >= 2 positive widths", id="spec-zero-width"),
    pytest.param(lambda: nn.ModelSpec((4, 2), input_keep=0.0), ConfigError,
                 "input_keep must be in", id="spec-input-keep"),
    pytest.param(lambda: nn.ModelSpec((4, 2), hidden_keep=1.5), ConfigError,
                 "hidden_keep must be in", id="spec-hidden-keep"),
    pytest.param(lambda: nn.ModelBuffers(SPEC, 2, "test"), ConfigError,
                 "mode must be 'train' or 'eval'", id="buffers-mode"),
    pytest.param(lambda: nn.nll_loss(np.zeros((2, 3)), np.zeros(3, np.int64)),
                 ShapeError, "labels shape", id="nll-label-shape"),
    pytest.param(lambda: nn.model_forward(
        SPEC, random_layers((4, 5, 2)), np.zeros((2, 4), np.float32)),
                 ConsistencyError, "spec expects", id="unexpected-weight"),
    pytest.param(lambda: nn.model_forward(
        SPEC, spec_layers(), np.zeros((2, 4), np.float32),
        out=nn.ModelBuffers(OTHER_SPEC, 2, "eval")),
                 ConsistencyError, "buffers are for", id="forward-other-spec"),
    pytest.param(lambda: nn.model_forward(
        SPEC, spec_layers(), np.zeros((2, 4), np.float32), "train",
        out=nn.ModelBuffers(SPEC, 2, "eval")),
                 ConsistencyError, "needs train-mode buffers",
                 id="train-into-eval-buffers"),
    pytest.param(lambda: nn.model_forward(
        SPEC, spec_layers(), np.zeros((2, 4), np.float32), "test"),
                 ConfigError, "mode must be 'train' or 'eval'",
                 id="forward-mode"),
    pytest.param(lambda: nn.model_forward(
        SPEC, spec_layers(), np.zeros((2, 5), np.float32)),
                 ShapeError, "does not match spec dims", id="input-width"),
    pytest.param(backward_into_other_buffers, ConsistencyError,
                 "buffers are for", id="backward-other-spec"),
])
def test_an_input_the_passes_do_not_fit_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
