from dataclasses import replace

import numpy as np
import pytest

import nsn.nn
import nsn.train
from nsn import verify
from nsn.cli import main
from nsn.nn import DenseLayer
from nsn.train import init_family, train_step


class TestChecks:
    def test_all_pass_on_healthy_build(self):
        results = verify.run_all()
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert {r.name for r in results} == {
            "gradcheck", "tie-invariant", "detach-exactness",
            "momentum-equivalence", "canonical-vs-literal"}

    def test_broken_relu_backward_is_caught(self, monkeypatch):
        # harness self-test: a wrong activation gradient must fail the
        # gradient check by name
        def broken(d_out, z, out=None):
            return d_out * (z > 0.1)

        monkeypatch.setattr(nsn.nn, "relu_backward", broken)
        result = verify.check_gradcheck(dims_list=[(8, 6, 4)])
        assert result.name == "gradcheck"
        assert not result.passed

    def test_unpaired_gradients_are_caught_by_the_literal_scheme(
            self, monkeypatch):
        # each group updated from its own model's gradient alone, not the
        # pair's average
        monkeypatch.setattr(nsn.train, "group_sources",
                            lambda n: [[(g, 0)] for g in range(n + 1)])
        result = verify.check_canonical_vs_literal()
        assert result.name == "canonical-vs-literal"
        assert not result.passed
        assert result.detail.startswith("diverged at step 0: ")

    def test_a_detach_that_moves_the_biases_is_caught(self, monkeypatch):
        def shifted(family, k):
            return [DenseLayer(layer.weight, layer.bias + np.float32(1e-3))
                    for layer in family.view(family.n - k)]

        monkeypatch.setattr(verify, "detach", shifted)
        result = verify.check_detach_exactness()
        assert result.name == "detach-exactness"
        assert not result.passed
        assert result.detail == "logits differ at k=0"

    def test_max_relative_error_metric(self):
        from nsn.nn import LayerGrads
        a = [LayerGrads(np.array([[1.0]]), np.array([2.0]))]
        b = [LayerGrads(np.array([[1.1]]), np.array([2.0]))]
        err = verify.max_relative_error(a, b)
        assert err == pytest.approx(0.1 / 1.1, rel=1e-6)


class TestCanonicalVsLiteralAtEveryDepth:
    # check_canonical_vs_literal runs at n = 2; these depths pair other
    # group counts, and at n = 1 the base model's input layer is the only
    # square group
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_step_matches_the_literal_owner_values(self, n):
        config = verify._toy_config(n=n)
        family, momentum = init_family(replace(config, seed=13))
        literal = verify.LiteralFamily(family, config)
        batches = verify._toy_batches(config, 20, seed=17)
        for step, batch in enumerate(batches):
            train_step(family, momentum, batch, config, epoch=0, step=step)
            literal.step(batch, epoch=0, step=step)
            for g, group in enumerate(family.groups):
                owner = literal.owner_layer(g)
                for got, want in ((group.weight, owner.weight),
                                  (group.bias, owner.bias)):
                    assert np.max(np.abs(got - want)) <= 1e-6, (step, g)


class TestVerifyCommand:
    def test_exit_zero_and_table(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "gradcheck" in out and "canonical-vs-literal" in out

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        def broken(d_out, z, out=None):
            return d_out * 1.01 * (z > 0)

        monkeypatch.setattr(nsn.nn, "relu_backward", broken)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "failed: " in out

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS gradcheck" in capsys.readouterr().out
