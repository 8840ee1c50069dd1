import numpy as np
import pytest

from conftest import new_family, traced_peak
from nsn.errors import ConsistencyError
from nsn.family import (INIT_ROWS, ModelFamily, copy_up, detach,
                        group_sources, init_layer, paired_average_gradients,
                        param_count)
from nsn.nn import LayerGrads, model_forward, spec_for_params
from nsn.train import TrainConfig, init_family
from nsn.verify import LiteralFamily, _toy_config


def grads_of(value, shape=(1, 1)):
    arr = np.full(shape, value, dtype=np.float32)
    return LayerGrads(d_weight=arr, d_bias=np.full(shape[0], value,
                                                   dtype=np.float32))


class TestBuildFamily:
    """The family a run starts from, as ``train.init_family`` builds it."""

    def test_standard_shapes_n2(self):
        family = new_family(2)
        assert [l.weight.shape for l in family.view(2)] == [
            (784, 784), (784, 784), (10, 784)]
        assert [l.weight.shape for l in family.view(1)] == [
            (784, 784), (10, 784)]
        assert [l.weight.shape for l in family.view(0)] == [(10, 784)]

    def test_smallest_family_shares_head(self):
        family = new_family(1, width=4, classes=10)
        assert family.view(1)[-1] is family.view(0)[0]

    def test_view_layer_counts(self):
        family = new_family(3, width=4)
        for m in range(4):
            assert len(family.view(m)) == m + 1

    def test_removing_first_layer_yields_previous_view(self):
        family = new_family(3, width=4)
        for m in range(1, 4):
            assert family.view(m)[1:] == family.view(m - 1)

    def test_ownership_covers_each_group_once_per_view(self):
        family = new_family(3, width=4)
        assert len({id(g) for g in family.groups}) == 4
        for m in range(4):
            seen = [id(layer) for layer in family.view(m)]
            expected = [id(family.groups[g]) for g in range(m, -1, -1)]
            assert seen == expected

    def test_init_is_seeded_and_bounded(self):
        a = new_family(2, width=8, seed=42)
        b = new_family(2, width=8, seed=42)
        for ga, gb in zip(a.groups, b.groups):
            assert np.array_equal(ga.weight, gb.weight)
            assert np.all(np.abs(ga.weight) <= 1 / np.sqrt(8))
            assert np.all(ga.bias == 0)

    def test_invalid_configs(self):
        head = init_layer(10, 784, np.random.default_rng())
        narrow = init_layer(512, 784, np.random.default_rng())
        with pytest.raises(ConsistencyError, match="tying"):
            ModelFamily([head, narrow])
        with pytest.raises(ConsistencyError):
            ModelFamily([])

    def test_model_index_out_of_range(self):
        family = new_family(1, width=4)
        with pytest.raises(IndexError):
            family.view(2)


class TestParamCount:
    def test_table_values(self):
        family = new_family(2)
        assert param_count(family, 0) == 7850
        assert param_count(family, 1) == 623290
        # 2*(784*784 + 784) + 784*10 + 10
        assert param_count(family, 2) == 1238730

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            param_count(new_family(1, width=4), 2)


class TestCopyUp:
    def test_the_copy_moves_nothing_under_shared_storage(self):
        family = new_family(2, width=4)
        before = [(g.weight.copy(), g.bias.copy()) for g in family.groups]
        copy_up(family)
        for m in range(1, family.n + 1):
            assert all(up is lo for up, lo in zip(family.view(m)[1:],
                                                  family.view(m - 1)))
        for group, (weight, bias) in zip(family.groups, before):
            assert group.weight.tobytes() == weight.tobytes()
            assert group.bias.tobytes() == bias.tobytes()

    def test_literal_double_erases_perturbation(self):
        config = _toy_config(n=2, width=4, classes=3, dropout=False)
        family = new_family(2, 4, 3, seed=1)
        literal = LiteralFamily(family, config)
        # perturb the biggest model's second layer; the lesser model's
        # first layer must win
        literal.models[2][1].weight += 5.0
        literal.copy_up()
        np.testing.assert_array_equal(literal.models[2][1].weight,
                                      literal.models[1][0].weight)

    def test_literal_double_ties_all_views_after_copy(self):
        config = _toy_config(n=2, width=4, classes=3, dropout=False)
        family = new_family(2, 4, 3, seed=2)
        literal = LiteralFamily(family, config)
        for model in literal.models:
            for layer in model:
                layer.weight = layer.weight + np.float32(1.0)
        literal.copy_up()
        for m in range(1, 3):
            for i in range(1, m + 1):
                np.testing.assert_array_equal(
                    literal.models[m][i].weight,
                    literal.models[m - 1][i - 1].weight)


class TestGroupSources:
    def test_the_pairing_rule_for_n_1_to_3(self):
        assert group_sources(1) == [[(0, 0), (1, 1)], [(1, 0)]]
        assert group_sources(2) == [[(0, 0), (1, 1)], [(1, 0), (2, 1)],
                                    [(2, 0)]]
        assert group_sources(3) == [[(0, 0), (1, 1)], [(1, 0), (2, 1)],
                                    [(2, 0), (3, 1)], [(3, 0)]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_source_is_a_layer_that_multiplies_by_its_group(self, n):
        family = new_family(n, width=4)
        for g, sources in enumerate(group_sources(n)):
            for m, layer in sources:
                assert family.view(m)[layer] is family.groups[g]


class TestPairedAverageGradients:
    def test_hand_scalars_on_tied_head(self):
        pair = [grads_of(0.2), grads_of(0.4)]
        out = paired_average_gradients(pair)
        np.testing.assert_allclose(out[0].d_weight, [[0.3]], rtol=1e-6)
        # in place, into the first gradient; the second is only read
        assert out == [pair[0]]
        np.testing.assert_allclose(pair[1].d_weight, [[0.4]], rtol=1e-6)

    def test_identical_pair_is_fixed_point(self):
        out = paired_average_gradients([grads_of(0.5), grads_of(0.5)])
        np.testing.assert_allclose(out[0].d_weight, [[0.5]], rtol=1e-6)

    def test_biases_averaged_like_weights(self):
        out = paired_average_gradients([grads_of(0.2), grads_of(0.4)])
        np.testing.assert_allclose(out[0].d_bias, [0.3], rtol=1e-6)

    def test_rows_in_any_split_give_the_bytes_of_the_whole(self):
        rng = np.random.default_rng(9)
        whole = [LayerGrads(rng.random((6, 3), dtype=np.float32),
                            rng.random(6, dtype=np.float32))
                 for _ in range(2)]
        split = [LayerGrads(g.d_weight.copy(), g.d_bias.copy())
                 for g in whole]
        (want,) = paired_average_gradients(whole)
        for rows, bias_rows in ((slice(0, 4), slice(0, 0)),
                                (slice(4, 6), slice(0, 0)),
                                (slice(0, 0), slice(0, 6))):
            (got,) = paired_average_gradients(
                [LayerGrads(g.d_weight[rows], g.d_bias[bias_rows])
                 for g in split])
            assert got.d_weight.tobytes() == want.d_weight[rows].tobytes()
            assert np.shares_memory(got.d_weight, split[0].d_weight) \
                or not got.d_weight.size
        for mine, theirs in zip(split, whole):
            assert mine.d_weight.tobytes() == theirs.d_weight.tobytes()
            assert mine.d_bias.tobytes() == theirs.d_bias.tobytes()

    @pytest.mark.parametrize("other", [grads_of(0.4, (2, 1)),
                                       LayerGrads(np.full((1, 1), 0.4,
                                                          np.float32),
                                                  np.full(2, 0.4,
                                                          np.float32))])
    def test_a_pair_of_other_shapes_is_rejected_untouched(self, other):
        own = grads_of(0.2)
        with pytest.raises(ConsistencyError, match="shapes differ"):
            paired_average_gradients([own, other])
        np.testing.assert_allclose(own.d_weight, [[0.2]], rtol=1e-6)
        np.testing.assert_allclose(own.d_bias, [0.2], rtol=1e-6)


class TestDetach:
    def test_zero_drop_is_base_model(self):
        family = new_family(2, width=4)
        assert detach(family, 0) == family.view(2)

    def test_drop_one_matches_next_view_bitwise(self):
        family = new_family(2, width=4, seed=3)
        x = np.random.default_rng(4).random((5, 4)).astype(np.float32)
        view = family.view(1)
        spec = spec_for_params(view)
        got, _ = model_forward(spec, detach(family, 1), x, "eval")
        want, _ = model_forward(spec, view, x, "eval")
        assert np.array_equal(got, want)

    def test_drop_all_is_softmax_regression(self):
        family = new_family(2, width=4)
        assert detach(family, 2) == family.view(0)
        assert len(detach(family, 2)) == 1

    def test_drop_too_many_rejected(self):
        family = new_family(2, width=4)
        with pytest.raises(IndexError):
            detach(family, 3)


class TestInitLayer:
    def test_shapes_and_bounds(self):
        layer = init_layer(3, 16, np.random.default_rng(5))
        assert layer.weight.shape == (3, 16)
        assert layer.bias.shape == (3,)
        assert np.all(np.abs(layer.weight) <= 0.25)
        assert layer.weight.dtype == np.float32

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_blocks_give_the_bytes_of_one_whole_draw(self, seed):
        # two whole blocks of INIT_ROWS rows and a short one
        rows, cols = 2 * INIT_ROWS + 22, 40
        layer = init_layer(rows, cols, np.random.default_rng(seed))
        bound = 1.0 / np.sqrt(cols)
        want = np.random.default_rng(seed).uniform(
            -bound, bound, size=(rows, cols)).astype(np.float32)
        assert layer.weight.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode, n", [("nsn", 1), ("nsn", 2),
                                         ("reference", 0),
                                         ("reference", 1),
                                         ("reference", 2)])
    def test_init_family_bytes_equal_the_whole_array_formula(self, mode, n):
        # a family's group g draws from [seed, g]; a baseline's from
        # [seed, n - g], its layer's position in the base model
        width, classes = 3 * INIT_ROWS + 5, 7
        family, momentum = init_family(TrainConfig(
            mode=mode, n_hidden=n, input_dim=width, classes=classes,
            seed=11, l2_lambda=0.0))
        bound = 1.0 / np.sqrt(width)
        assert len(family.groups) == len(momentum) == n + 1
        for g, (group, state) in enumerate(zip(family.groups, momentum)):
            stream = g if mode == "nsn" else n - g
            rng = np.random.default_rng([11, stream])
            shape = (classes if g == 0 else width, width)
            want = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            assert group.weight.tobytes() == want.tobytes()
            assert not group.bias.any()
            assert not state.v_weight.any() and not state.v_bias.any()
            assert state.v_weight.shape == shape

    def test_a_784_square_layer_peaks_below_its_weight_plus_1mb(self):
        peak = traced_peak(lambda: init_layer(784, 784,
                                              np.random.default_rng(3)))
        assert peak < 784 * 784 * 4 + 2**20
