import numpy as np
import pytest

from gradflip import tensor as tz
from gradflip.rng import RngStream
from helpers import check_gradients

RNG = np.random.default_rng(20260301)


def test_sigmoid_symmetry_point():
    assert tz.sigmoid(tz.Tensor(0.0)).item() == 0.5


def test_logsumexp_equal_inputs():
    out = tz.logsumexp(tz.Tensor([0.0, 0.0]), axis=0)
    assert out.item() == pytest.approx(np.log(2.0), abs=1e-15)


def test_logsumexp_large_inputs_no_overflow():
    # reference: shift by the max, evaluate directly
    vals = np.array([1000.0, 1000.0])
    ref = vals.max() + np.log(np.sum(np.exp(vals - vals.max())))
    out = tz.logsumexp(tz.Tensor(vals), axis=0)
    assert out.item() == pytest.approx(ref, abs=1e-12)


def test_logsumexp_empty_axis_errors():
    with pytest.raises(tz.ShapeMismatch):
        tz.logsumexp(tz.Tensor(np.zeros((0, 3))), axis=0)


def test_shape_mismatch_names_op_and_shapes():
    a = tz.Tensor(np.zeros((2, 3)))
    b = tz.Tensor(np.zeros((4, 5)))
    with pytest.raises(tz.ShapeMismatch, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        tz.matmul(a, b)
    with pytest.raises(tz.ShapeMismatch, match="add"):
        tz.add(a, b)


def test_overflow_is_an_error_not_a_value():
    with pytest.raises(tz.NumericOverflow, match="exp"):
        tz.exp(tz.Tensor([1000.0]))
    with pytest.raises(tz.NumericOverflow):
        tz.Tensor([np.inf])


def test_backward_square():
    w = tz.Tensor([3.0], grad_tracked=True)
    loss = tz.sum_reduce(tz.mul(w, w))
    (g,) = tz.backward(loss, [w])
    assert g == pytest.approx([6.0])


def test_backward_sigmoid_at_zero():
    w = tz.Tensor(np.zeros(4), grad_tracked=True)
    loss = tz.sum_reduce(tz.sigmoid(w))
    (g,) = tz.backward(loss, [w])
    np.testing.assert_allclose(g, 0.25)


def test_backward_requires_scalar_loss():
    w = tz.Tensor(np.ones(3), grad_tracked=True)
    with pytest.raises(tz.ShapeMismatch, match="scalar"):
        tz.backward(tz.mul(w, w), [w])


def test_backward_untouched_parameter_gets_zero():
    store = tz.ParamStore()
    a = store.add("a", tz.Tensor([2.0]), "main")
    store.add("b", tz.Tensor([5.0]), "speaker")
    grads = tz.backward(tz.sum_reduce(tz.mul(a, a)), store)
    assert grads["a"] == pytest.approx([4.0])
    assert grads["b"] == pytest.approx([0.0])


def test_backward_returns_accumulated_gradients_and_zeros_only_for_absent_ones(monkeypatch):
    store = tz.ParamStore()
    a = store.add("a", tz.Tensor(np.array([2.0, 3.0])), "main")
    b = store.add("b", tz.Tensor(np.ones((2, 3))), "speaker")
    c = store.add("c", tz.Tensor(np.array([1.5, -1.0])), "main")
    loss = lambda: tz.sum_reduce(tz.add(tz.mul(a, a), tz.mul(a, c)))  # a reached twice, b never
    accumulated, acc = {}, tz._acc

    def spy(grads, t, val):
        acc(grads, t, val)
        accumulated[id(t)] = grads.get(id(t))

    zeros, zeros_like = [], np.zeros_like

    def counted(arr, *args, **kwargs):
        zeros.append(arr.shape)
        return zeros_like(arr, *args, **kwargs)

    monkeypatch.setattr(tz, "_acc", spy)
    monkeypatch.setattr(np, "zeros_like", counted)
    by_name = tz.backward(loss(), store)
    assert by_name["a"] is accumulated[id(a)] and by_name["c"] is accumulated[id(c)]
    np.testing.assert_array_equal(by_name["a"], [5.5, 5.0])
    np.testing.assert_array_equal(by_name["c"], [2.0, 3.0])
    assert by_name["b"].shape == (2, 3) and by_name["b"].dtype == np.float64 and not by_name["b"].any()
    in_order = tz.backward(loss(), [b, c])
    assert in_order[1] is accumulated[id(c)] and in_order[0].shape == (2, 3) and not in_order[0].any()
    assert zeros == [(2, 3), (2, 3)]  # one zero array per call, for b alone


def test_backward_composite_matches_finite_differences():
    # random 3-layer composite: matmul -> sigmoid -> matmul -> logsumexp
    w1 = RNG.normal(size=(3, 4))
    w2 = RNG.normal(size=(4, 2))
    x = RNG.normal(size=(2, 3))

    def build(w1t, w2t, xt):
        h = tz.sigmoid(tz.matmul(xt, w1t))
        out = tz.matmul(h, w2t)
        return tz.logsumexp(tz.reshape(out, (out.size,)), axis=0)

    check_gradients(build, [w1, w2, x], tol=1e-6)


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: tz.sum_reduce(tz.mul(tz.add(a, b), tz.add(a, b)))),
        ("sub", lambda a, b: tz.sum_reduce(tz.mul(tz.sub(a, b), tz.sub(a, b)))),
        ("mul", lambda a, b: tz.sum_reduce(tz.mul(a, b))),
        ("matmul", lambda a, b: tz.sum_reduce(tz.mul(tz.matmul(a, b), tz.matmul(a, b)))),
    ],
)
def test_gradcheck_binary_ops(name, build):
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3)) if name != "matmul" else rng.normal(size=(3, 2))
        check_gradients(build, [a, b], tol=1e-6)


@pytest.mark.parametrize(
    "name,build",
    [
        ("smul", lambda a: tz.sum_reduce(tz.smul(a, 2.5))),
        ("sigmoid", lambda a: tz.sum_reduce(tz.mul(tz.sigmoid(a), tz.sigmoid(a)))),
        ("exp", lambda a: tz.sum_reduce(tz.exp(a))),
        ("log", lambda a: tz.sum_reduce(tz.log(tz.add(tz.mul(a, a), tz.Tensor(1.0))))),
        ("pow", lambda a: tz.sum_reduce(tz.pow_scalar(tz.add(tz.mul(a, a), tz.Tensor(1.0)), -0.5))),
        ("sum_axis", lambda a: tz.sum_reduce(tz.mul(tz.sum_reduce(a, axis=0), tz.sum_reduce(a, axis=0)))),
        ("max", lambda a: tz.sum_reduce(tz.max_reduce(a, axis=1))),
        ("lse", lambda a: tz.sum_reduce(tz.logsumexp(a, axis=0))),
        ("slice", lambda a: tz.sum_reduce(tz.mul(tz.slice_axis(a, 1, 1, 3), tz.slice_axis(a, 1, 0, 2)))),
        ("concat", lambda a: tz.sum_reduce(tz.mul(tz.concat([a, a], axis=0), tz.concat([a, a], axis=0)))),
        ("reshape", lambda a: tz.sum_reduce(tz.mul(tz.reshape(a, (3, 2)), tz.reshape(a, (3, 2))))),
        # grad_scale only passes a finite-difference check at factor 1,
        # where its backward coincides with the true derivative
        ("grad_scale", lambda a: tz.sum_reduce(tz.mul(tz.grad_scale(a, 1.0), tz.grad_scale(a, 1.0)))),
    ],
)
def test_gradcheck_unary_ops(name, build):
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        a = rng.normal(size=(2, 3))
        check_gradients(build, [a], tol=1e-6)


def test_backward_linearity():
    rng = np.random.default_rng(7)
    x = tz.Tensor(rng.normal(size=(3, 3)), grad_tracked=True)
    l1 = tz.sum_reduce(tz.sigmoid(x))
    l2 = tz.logsumexp(tz.reshape(x, (9,)), axis=0)
    a, b = 1.7, -0.4
    combined = tz.add(tz.smul(l1, a), tz.smul(l2, b))
    (gc,) = tz.backward(combined, [x])
    (g1,) = tz.backward(l1, [x])
    (g2,) = tz.backward(l2, [x])
    np.testing.assert_allclose(gc, a * g1 + b * g2, atol=1e-12)


def test_forward_determinism_bit_identical():
    def run():
        rng = RngStream(99, "det")
        x = tz.Tensor(rng.normal(size=(4, 4)), grad_tracked=True)
        y = tz.logsumexp(tz.sigmoid(tz.matmul(x, x)), axis=1)
        loss = tz.sum_reduce(y)
        (g,) = tz.backward(loss, [x])
        return loss.item(), g

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_max_reduce_tie_lowest_index():
    a = tz.Tensor(np.array([[1.0, 1.0, 0.0]]), grad_tracked=True)
    out = tz.max_reduce(a, axis=1)
    (g,) = tz.backward(tz.sum_reduce(out), [a])
    np.testing.assert_array_equal(g, [[1.0, 0.0, 0.0]])


def test_grad_scale_forward_identity_backward_scaled():
    x = tz.Tensor(np.array([1.0, 2.0]), grad_tracked=True)
    y = tz.grad_scale(x, -0.2)
    np.testing.assert_array_equal(y.data, x.data)
    (g,) = tz.backward(tz.sum_reduce(y), [x])
    np.testing.assert_array_equal(g, [-0.2, -0.2])


def test_grad_scale_zero_factor_records_no_parent():
    # a zero factor passes no gradient, so backward stops at the junction
    x = tz.Tensor(np.array([1.0, 2.0]), grad_tracked=True)
    for factor in (0.0, -0.0):
        y = tz.grad_scale(x, factor)
        assert not y.grad_tracked and y._parents == () and y._backward is None


def test_no_grad_suppresses_recording():
    w = tz.Tensor([1.0], grad_tracked=True)
    with tz.no_grad():
        y = tz.mul(w, w)
    assert not y.grad_tracked
    assert y._backward is None


# --- SGD ---


def _store_with(w, group):
    store = tz.ParamStore()
    store.add("w", tz.Tensor(np.array([w])), group)
    return store


def test_sgd_main_learning_rate():
    store = _store_with(0.0, "main")
    tz.sgd_step(store, {"w": np.array([1.0])}, lr_main=1.4, lr_speaker=0.1)
    assert store.get("w").data == pytest.approx([-1.4])


def test_sgd_zero_gradient_no_change():
    store = _store_with(3.25, "main")
    tz.sgd_step(store, {"w": np.array([0.0])}, lr_main=1.4, lr_speaker=0.1)
    assert store.get("w").data == pytest.approx([3.25])


def test_sgd_speaker_learning_rate():
    store = _store_with(1.0, "speaker")
    tz.sgd_step(store, {"w": np.array([2.0])}, lr_main=1.4, lr_speaker=0.1)
    assert store.get("w").data == pytest.approx([0.8])


def test_sgd_missing_gradient_errors():
    store = _store_with(1.0, "main")
    with pytest.raises(ValueError, match="missing gradient"):
        tz.sgd_step(store, {}, 1.4, 0.1)


def _two_group_store():
    store = tz.ParamStore()
    for name, group in (("a", "main"), ("b", "main"), ("s", "speaker")):
        store.add(name, tz.Tensor(np.array([1.0, -2.0])), group)
    store.get("b").grad_tracked = False  # a previous value other than True
    return store


def _tracking(store):
    return {name: t.grad_tracked for name, t, _ in store.items()}


def test_frozen_restores_tracking_after_the_block_raises():
    store = _two_group_store()
    before = _tracking(store)
    with pytest.raises(RuntimeError, match="inside"):
        with store.frozen(("speaker",)):
            assert _tracking(store) == {"a": False, "b": False, "s": True}
            raise RuntimeError("inside")
    assert _tracking(store) == before


def test_frozen_blocks_nest():
    store = _two_group_store()
    before = _tracking(store)
    with store.frozen(("main",)):
        assert _tracking(store) == {"a": True, "b": False, "s": False}
        with store.frozen(("speaker",)):
            assert _tracking(store) == {"a": False, "b": False, "s": False}
        assert _tracking(store) == {"a": True, "b": False, "s": False}
        with store.frozen(("main", "speaker")):
            assert _tracking(store) == {"a": True, "b": False, "s": False}
    assert _tracking(store) == before


def test_sgd_step_leaves_frozen_parameters_bit_identical():
    store = tz.ParamStore()
    for name, group in (("a", "main"), ("s", "speaker")):
        store.add(name, tz.Tensor(np.array([0.3, -1.7])), group)
    frozen_bytes = store.get("a").data.tobytes()
    grads = {"a": np.array([1.0, 2.0]), "s": np.array([1.0, 2.0])}
    with store.frozen(("speaker",)):
        tz.sgd_step(store, grads, lr_main=1.4, lr_speaker=0.1)
        with pytest.raises(ValueError, match="missing gradient for parameter 'a'"):
            tz.sgd_step(store, {"s": grads["s"]}, 1.4, 0.1)
    assert store.get("a").data.tobytes() == frozen_bytes
    np.testing.assert_array_equal(store.get("s").data, np.array([0.3, -1.7]) - 0.1 * grads["s"])


def test_param_store_rejects_duplicates_and_bad_groups():
    store = tz.ParamStore()
    store.add("w", tz.Tensor([1.0]), "main")
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", tz.Tensor([1.0]), "main")
    with pytest.raises(ValueError, match="group"):
        store.add("v", tz.Tensor([1.0]), "other")


def test_param_store_iteration_sorted():
    store = tz.ParamStore()
    for name in ["b.z", "a.k", "b.a"]:
        store.add(name, tz.Tensor([0.0]), "main")
    assert [n for n, _, _ in store.items()] == ["a.k", "b.a", "b.z"]


def test_rng_stream_determinism_and_independence():
    a1 = RngStream(5, "x").normal(size=8)
    a2 = RngStream(5, "x").normal(size=8)
    b = RngStream(5, "y").normal(size=8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def blockwise_product(a, b):
    """The earlier form of `_row_blocked_product`: one matmul call per
    ROW_BLOCK-row block, then the zero-padded tail block."""
    rows = a.shape[0]
    full = rows - rows % tz.ROW_BLOCK
    out = np.empty((rows, b.shape[1]))
    for i in range(0, full, tz.ROW_BLOCK):
        np.matmul(a[i : i + tz.ROW_BLOCK], b, out=out[i : i + tz.ROW_BLOCK])
    if full < rows:
        tail = np.zeros((tz.ROW_BLOCK, a.shape[1]))
        tail[: rows - full] = a[full:]
        out[full:] = (tail @ b)[: rows - full]
    return out


@pytest.mark.parametrize("rows", [1, 127, 128, 129, 256, 4099])
@pytest.mark.parametrize("cols", [7, 32, 64])
def test_row_blocked_product_matches_blockwise_calls(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    a, b = rng.normal(size=(rows, 48)), rng.normal(size=(48, cols))
    want = blockwise_product(a, b)
    # also a strided (non-contiguous) left operand, as a slice of a wider array
    for left in (a, np.repeat(a, 2, axis=1)[:, ::2]):
        assert tz._row_blocked_product(left, b).tobytes() == want.tobytes()
