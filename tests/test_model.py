import struct
import tracemalloc

import numpy as np
import pytest

from rml_lab.data import make_blobs
from rml_lab.model import (
    ModelState,
    NumericalFailure,
    accuracy,
    cosine_lr,
    ema_update,
    forward,
    init_model,
    init_optimizer,
    load_checkpoint,
    loss_and_grad,
    per_sample_ce,
    save_checkpoint,
    sgd_step,
)
from rml_lab.numerics import LOSS_FLOOR, RngStream, softmax
from rml_lab.trainer import RunConfig, train_ce


def finite_difference_grads(model, x, y, weights, step=1e-5):
    """Central finite differences of the weighted batch-mean loss."""
    def objective():
        losses = per_sample_ce(forward(model, x), y)
        return float(np.mean(weights * losses))

    grads = []
    for p in model.params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for j in range(flat_p.size):
            original = flat_p[j]
            flat_p[j] = original + step
            up = objective()
            flat_p[j] = original - step
            down = objective()
            flat_p[j] = original
            flat_g[j] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_case(arch, rng, batch=6, dim=5, classes=4, hidden=6):
    model = init_model(arch, dim, classes, rng, hidden=hidden)
    x = rng.normal(size=(batch, dim))
    y = rng.integers(0, classes, size=batch)
    w = rng.uniform(0.0, 1.5, size=batch)
    return model, x, np.asarray(y), w


def busy_case(arch, rows, rng, dim=8, classes=10, hidden=256):
    """A model with every param (biases too) away from zero, and a batch."""
    model = init_model(arch, dim, classes, rng, hidden=hidden)
    for i, p in enumerate(model.params):
        p += rng.child(i).normal(0.0, 0.3, size=p.shape)
    x = rng.child(10).normal(size=(rows, dim))
    y = np.asarray(rng.child(11).integers(0, classes, size=rows))
    return model, x, y


def reference_logits(model, x):
    """The out-of-place forward: logits and the hidden activation."""
    if model.arch == "linear":
        w, b = model.params
        return x @ w + b, None
    w1, b1, w2, b2 = model.params
    h = np.tanh(x @ w1 + b1)
    return h @ w2 + b2, h


def reference_loss_and_grad(model, x, y, weights):
    """The out-of-place forward and backward pass, expression by expression."""
    logits, h = reference_logits(model, x)
    probs = softmax(logits, axis=1)
    losses = per_sample_ce(probs, y)
    batch = y.size
    weights = np.ones(batch) if weights is None else weights
    picked = probs[np.arange(batch), y]
    scale = weights * (picked / (picked + LOSS_FLOOR)) / batch
    dlogits = probs * scale[:, None]
    dlogits[np.arange(batch), y] -= scale
    if model.arch == "linear":
        return weights * losses, [x.T @ dlogits, dlogits.sum(axis=0)]
    dh = (dlogits @ model.params[2].T) * (1.0 - h ** 2)
    return weights * losses, [x.T @ dh, dh.sum(axis=0), h.T @ dlogits, dlogits.sum(axis=0)]


class TestBufferRule:
    """One (rows, hidden) buffer per pass, written in place: the bytes of the
    out-of-place expressions, with inputs and params never written."""

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("rows", [7, 4000])
    def test_forward_matches_out_of_place(self, arch, rows):
        model, x, _ = busy_case(arch, rows, RngStream(20))
        expected = softmax(reference_logits(model, x)[0], axis=1)
        assert np.array_equal(forward(model, x), expected)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("rows", [7, 4000])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_loss_and_grad_matches_out_of_place(self, arch, rows, weighted):
        model, x, y = busy_case(arch, rows, RngStream(21))
        weights = RngStream(21).child(12).uniform(0.0, 1.0, size=rows) if weighted else None
        losses, grads = loss_and_grad(model, x, y, weights)
        ref_losses, ref_grads = reference_loss_and_grad(model, x, y, weights)
        assert np.array_equal(losses, ref_losses)
        assert len(grads) == len(ref_grads)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("layout", ["float64", "fortran", "float32"])
    def test_inputs_and_params_untouched_and_unaliased(self, arch, layout):
        model, x, y = busy_case(arch, 9, RngStream(22))
        # C-contiguous float64 is the case np.asarray hands back uncopied.
        x = {"float64": x, "fortran": np.asfortranarray(x),
             "float32": x.astype(np.float32)}[layout]
        weights = np.linspace(0.0, 1.0, y.size)
        params_before = [p.tobytes() for p in model.params]
        x_before, weights_before = x.tobytes(), weights.tobytes()
        outputs = [forward(model, x)]
        losses, grads = loss_and_grad(model, x, y, weights)
        outputs += [losses, *grads]
        assert [p.tobytes() for p in model.params] == params_before
        assert x.tobytes() == x_before and weights.tobytes() == weights_before
        for out in outputs:
            for held in [x, weights, *model.params]:
                assert not np.shares_memory(out, held)

    @staticmethod
    def _peak_bytes(call):
        call()   # warm-up, untraced
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_allocates_one_hidden_buffer(self):
        model, x, _ = busy_case("mlp", 4000, RngStream(23))
        peak = self._peak_bytes(lambda: forward(model, x))
        assert peak < 1.5 * 4000 * 256 * 8

    def test_loss_and_grad_allocation_budget(self):
        model, x, y = busy_case("mlp", 128, RngStream(24))
        peak = self._peak_bytes(lambda: loss_and_grad(model, x, y))
        assert peak < 3.0 * 128 * 256 * 8


class TestForward:
    def test_zero_weights_uniform(self):
        model = ModelState("linear", [np.zeros((3, 4)), np.zeros(4)], 3, 4)
        out = forward(model, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(out, 0.25)

    def test_hand_set_linear(self):
        model = ModelState("linear", [np.array([[1.0, -1.0]]), np.zeros(2)], 1, 2)
        out = forward(model, np.array([[1.0]]))
        np.testing.assert_allclose(out[0], softmax([1.0, -1.0]))

    def test_batch_shape(self):
        model = init_model("mlp", 4, 3, RngStream(0), hidden=5)
        out = forward(model, np.zeros((7, 4)))
        assert out.shape == (7, 3)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)

    def test_dimension_mismatch(self):
        model = init_model("linear", 4, 3, RngStream(1))
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 5)))


class TestPerSampleCe:
    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="label -1"):
            per_sample_ce(np.full((2, 3), 1 / 3), np.array([0, -1]))

    def test_label_past_last_class_rejected(self):
        with pytest.raises(ValueError, match="label 3"):
            per_sample_ce(np.full((2, 3), 1 / 3), np.array([3, 0]))


class TestLossAndGrad:
    def test_unit_weights_match_mean_ce(self):
        rng = RngStream(2)
        model, x, y, _ = random_case("linear", rng)
        ones = np.ones(y.size)
        _, g_default = loss_and_grad(model, x, y)
        _, g_ones = loss_and_grad(model, x, y, ones)
        for a, b in zip(g_default, g_ones):
            np.testing.assert_array_equal(a, b)

    def test_zero_weight_silences_sample(self):
        rng = RngStream(3)
        model, x, y, _ = random_case("linear", rng, batch=4)
        w = np.array([1.0, 0.0, 1.0, 1.0])
        _, grads = loss_and_grad(model, x, y, w)
        # Gradient must equal the one computed with sample 1 removed
        # (weights rescaled by batch size ratio).
        keep = [0, 2, 3]
        _, grads_subset = loss_and_grad(model, x[keep], y[keep], w[keep] * 3 / 4)
        for a, b in zip(grads, grads_subset):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_finite_difference_check(self, arch):
        rng = RngStream(4)
        worst = 0.0
        for trial in range(10):
            model, x, y, w = random_case(arch, rng.child(trial))
            _, analytic = loss_and_grad(model, x, y, w)
            numeric = finite_difference_grads(model, x, y, w)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_rejects_negative_weights(self):
        model, x, y, _ = random_case("linear", RngStream(5))
        with pytest.raises(ValueError, match="finite and >= 0"):
            loss_and_grad(model, x, y, np.array([-1.0, 1, 1, 1, 1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        model, x, y, _ = random_case("linear", RngStream(5))
        with pytest.raises(ValueError, match="finite and >= 0"):
            loss_and_grad(model, x, y, np.array([1, 1, bad, 1, 1, 1]))

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), (1, 6), ()])
    def test_rejects_wrong_shape_weights(self, shape):
        model, x, y, _ = random_case("linear", RngStream(5))
        with pytest.raises(ValueError, match=r"weights must be \(6,\), finite and >= 0"):
            loss_and_grad(model, x, y, np.ones(shape))

    def test_weights_apply_as_given(self):
        # The returned losses are w_i * ce_i for the given w, and the
        # unweighted pass returns the plain CE.
        model, x, y, w = random_case("mlp", RngStream(7))
        plain = per_sample_ce(forward(model, x), y)
        losses, _ = loss_and_grad(model, x, y, w)
        np.testing.assert_array_equal(losses, w * plain)
        unweighted, _ = loss_and_grad(model, x, y)
        np.testing.assert_array_equal(unweighted, plain)

    def test_numerical_failure_carries_index(self):
        model = init_model("linear", 2, 2, RngStream(6))
        model.params[0][0, 0] = np.inf
        with pytest.raises(NumericalFailure) as info:
            loss_and_grad(model, np.ones((3, 2)), np.zeros(3, dtype=int))
        assert info.value.sample_index == 0


class TestSgdStep:
    def _scalar_setup(self, momentum, lr):
        model = ModelState("linear", [np.zeros((1, 1)), np.zeros(1)], 1, 1)
        opt = init_optimizer(model, lr, total_epochs=10, lr_min=lr,
                             momentum=momentum, weight_decay=0.0)
        return model, opt

    def test_plain_step(self):
        model, opt = self._scalar_setup(momentum=0.0, lr=0.1)
        sgd_step(model, opt, [np.ones((1, 1)), np.zeros(1)], epoch=0)
        assert model.params[0][0, 0] == pytest.approx(-0.1)

    def test_momentum_two_steps(self):
        # v1 = 1, p1 = -0.1; v2 = 1.9, p2 = -0.29.
        model, opt = self._scalar_setup(momentum=0.9, lr=0.1)
        for _ in range(2):
            sgd_step(model, opt, [np.ones((1, 1)), np.zeros(1)], epoch=0)
        assert model.params[0][0, 0] == pytest.approx(-0.29)

    def test_cosine_endpoints(self):
        model = init_model("linear", 2, 2, RngStream(7))
        opt = init_optimizer(model, 0.1, total_epochs=100, lr_min=1e-4)
        assert cosine_lr(opt, 0) == pytest.approx(0.1)
        assert cosine_lr(opt, 100) == pytest.approx(1e-4)
        assert cosine_lr(opt, 50) == pytest.approx((0.1 + 1e-4) / 2)

    @pytest.mark.parametrize("overrides, message", [
        ({"lr_init": -0.1}, "lr_init must be > 0"),
        ({"lr_init": 0.0, "lr_min": 0.0}, "lr_init must be > 0"),
        ({"lr_min": 5.0}, r"lr_min must be in \[0, lr_init\]"),
        ({"lr_min": -1e-4}, r"lr_min must be in \[0, lr_init\]"),
        ({"weight_decay": -1.0}, "weight_decay must be >= 0"),
        ({"momentum": 1.0}, r"momentum must be in \[0, 1\)"),
    ])
    def test_bad_optimizer_values_rejected(self, overrides, message):
        model = init_model("linear", 2, 2, RngStream(7))
        values = {"lr_init": 0.1, "total_epochs": 10, **overrides}
        with pytest.raises(ValueError, match=message):
            init_optimizer(model, **values)


class TestEmaUpdate:
    def test_paper_setting(self):
        teacher = ModelState("linear", [np.zeros((1, 1)), np.zeros(1)], 1, 1)
        student = ModelState("linear", [np.ones((1, 1)), np.ones(1)], 1, 1)
        ema_update(teacher, student, 0.999)
        assert teacher.params[0][0, 0] == pytest.approx(0.001)

    def test_lambda_one_fixed_point(self):
        teacher = ModelState("linear", [np.full((1, 1), 3.0), np.zeros(1)], 1, 1)
        student = ModelState("linear", [np.ones((1, 1)), np.ones(1)], 1, 1)
        ema_update(teacher, student, 1.0)
        assert teacher.params[0][0, 0] == 3.0

    def test_lambda_zero_copies(self):
        teacher = ModelState("linear", [np.full((1, 1), 3.0), np.zeros(1)], 1, 1)
        student = ModelState("linear", [np.ones((1, 1)), np.ones(1)], 1, 1)
        ema_update(teacher, student, 0.0)
        assert teacher.params[0][0, 0] == 1.0

    def test_convex_combination(self):
        rng = RngStream(8)
        teacher = init_model("mlp", 3, 2, rng, hidden=4)
        student = init_model("mlp", 3, 2, rng.child(1), hidden=4)
        lows = [np.minimum(t, s) for t, s in zip(teacher.params, student.params)]
        highs = [np.maximum(t, s) for t, s in zip(teacher.params, student.params)]
        ema_update(teacher, student, 0.7)
        for p, lo, hi in zip(teacher.params, lows, highs):
            assert (p >= lo - 1e-15).all() and (p <= hi + 1e-15).all()

    def test_architecture_mismatch(self):
        teacher = init_model("linear", 3, 2, RngStream(9))
        student = init_model("mlp", 3, 2, RngStream(9), hidden=4)
        with pytest.raises(ValueError):
            ema_update(teacher, student, 0.5)


class TestTrainingSanity:
    def test_clean_blobs_reach_high_accuracy(self):
        ds = make_blobs(4, 100, 4, 6.0, RngStream(10))
        from rml_lab.data import feature_stats, standardize

        mean, std = feature_stats(ds.features)
        ds = standardize(ds, mean, std)
        model = init_model("mlp", ds.dim, 4, RngStream(10, 4), hidden=16)
        opt = init_optimizer(model, 0.3, 200)
        config = RunConfig(mode="ce", total_epochs=200, batch_size=64, seed=0)
        model, _ = train_ce(ds, model, opt, config)
        assert accuracy(model, ds) >= 0.99


class TestCheckpoint:
    @pytest.mark.parametrize("arch,hidden", [("linear", 0), ("mlp", 7)])
    def test_roundtrip_exact(self, tmp_path, arch, hidden):
        model = init_model(arch, 5, 3, RngStream(11), hidden=hidden)
        save_checkpoint(model, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.arch == model.arch
        assert (back.dim, back.num_classes, back.hidden) == (5, 3, hidden)
        for a, b in zip(back.params, model.params):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_unknown_arch_tag_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model("linear", 5, 3, RngStream(12)), path)
        whole = bytearray(path.read_bytes())
        whole[8] = 7   # the tag byte, right after the 8-byte magic
        path.write_bytes(bytes(whole))
        with pytest.raises(ValueError, match="architecture tag 7 in .*m.ckpt"):
            load_checkpoint(path)

    def test_truncated_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model("mlp", 5, 3, RngStream(12), hidden=4), path)
        whole = path.read_bytes()
        for keep in (len(whole) - 1, len(whole) // 2, 12):
            path.write_bytes(whole[:keep])
            with pytest.raises(ValueError, match="truncated file .*m.ckpt"):
                load_checkpoint(path)

    def test_header_shape_mismatch_names_file(self, tmp_path):
        # The header's dim (bytes 9-12) says 8 over a (4, 16) w1.
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model("mlp", 4, 3, RngStream(12), hidden=16), path)
        whole = bytearray(path.read_bytes())
        whole[9:13] = struct.pack("<I", 8)
        path.write_bytes(bytes(whole))
        with pytest.raises(ValueError, match=r"array 0 of .*m.ckpt has shape \(4, 16\), its "
                                             r"header \(dim 8, .*\) gives \(8, 16\)"):
            load_checkpoint(path)

    def test_array_count_mismatch_names_file(self, tmp_path):
        # A linear tag over an mlp's four arrays.
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model("mlp", 4, 3, RngStream(12), hidden=16), path)
        whole = bytearray(path.read_bytes())
        whole[8] = 0
        path.write_bytes(bytes(whole))
        with pytest.raises(ValueError, match="m.ckpt holds 4 arrays, its linear header gives 2"):
            load_checkpoint(path)

    def test_trailing_bytes_name_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model("linear", 5, 3, RngStream(12)), path)
        path.write_bytes(path.read_bytes() + b"\0\0")
        with pytest.raises(ValueError, match="trailing bytes in .*m.ckpt: 2 past"):
            load_checkpoint(path)
