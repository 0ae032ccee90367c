import math

import numpy as np
import pytest

from gradflip import layers, tensor as tz
from gradflip.layers import PoolingConfig
from gradflip.rng import RngStream
from gradflip.tensor import Tensor
from helpers import check_gradients


# --- conv1d ---


def test_conv1d_width1_identity():
    x = Tensor(np.arange(8.0).reshape(4, 2))
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    out = layers.conv1d(x, w, b, kernel_width=1)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_box_kernel_hand_values():
    # kernel [1,1,1] over [1,2,3], zero padded: [0+1+2, 1+2+3, 2+3+0]
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    w = Tensor(np.ones((3, 1)))
    b = Tensor(np.zeros(1))
    out = layers.conv1d(x, w, b, kernel_width=3)
    np.testing.assert_allclose(out.data[:, 0], [3.0, 6.0, 5.0])


def test_conv1d_empty_input_errors():
    with pytest.raises(tz.ShapeMismatch):
        layers.conv1d(Tensor(np.zeros((0, 2))), Tensor(np.zeros((6, 3))), Tensor(np.zeros(3)), 3)


def test_conv1d_gradient_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 2))
    w = rng.normal(size=(3 * 2, 3))
    b = rng.normal(size=3)

    def build(xt, wt, bt):
        out = layers.conv1d(xt, wt, bt, kernel_width=3)
        return tz.sum_reduce(tz.mul(out, out))

    check_gradients(build, [x, w, b], tol=1e-6)


# --- glu ---


def test_glu_zero_gate_halves_input():
    a = np.array([[2.0, -4.0], [6.0, 0.5]])
    x = Tensor(np.concatenate([a, np.zeros_like(a)], axis=1))
    np.testing.assert_allclose(layers.glu(x).data, a / 2.0)


def test_glu_saturated_gate_passes_input():
    a = np.array([[2.0, -4.0], [6.0, 0.5]])
    x = Tensor(np.concatenate([a, np.full_like(a, 50.0)], axis=1))
    np.testing.assert_allclose(layers.glu(x).data, a, rtol=1e-12)


def test_glu_matches_direct_formula():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    x = Tensor(np.concatenate([a, b], axis=1))
    expected = a * (1.0 / (1.0 + np.exp(-b)))
    np.testing.assert_allclose(layers.glu(x).data, expected, atol=1e-14)


def test_glu_odd_channels_error():
    with pytest.raises(tz.ShapeMismatch):
        layers.glu(Tensor(np.zeros((2, 3))))


def test_glu_gradient():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 4))
    check_gradients(lambda t: tz.sum_reduce(tz.mul(layers.glu(t), layers.glu(t))), [x], tol=1e-6)


# --- weight norm ---


def test_weight_norm_345():
    v = Tensor(np.array([[3.0], [4.0]]))
    g = Tensor(np.array([10.0]))
    np.testing.assert_allclose(layers.weight_norm(v, g).data[:, 0], [6.0, 8.0])


def test_weight_norm_zero_gain():
    v = Tensor(np.array([[3.0], [4.0]]))
    g = Tensor(np.array([0.0]))
    np.testing.assert_allclose(layers.weight_norm(v, g).data, 0.0)


def test_weight_norm_non_finite_norm_raises():
    # an overflowing norm would scale its column to zero; a zero norm to NaN
    g = Tensor(np.ones(2))
    for column in ([1e200, 1.0], [0.0, 0.0]):
        v = Tensor(np.array([column, [1.0, 2.0]]).T)
        with pytest.raises(tz.NumericOverflow, match="^weight_norm: "):
            layers.weight_norm(v, g)


def test_weight_norm_gradient():
    rng = np.random.default_rng(14)
    v = rng.normal(size=(4, 3))
    g = rng.normal(size=3)

    def build(vt, gt):
        w = layers.weight_norm(vt, gt)
        return tz.sum_reduce(tz.mul(w, w))

    check_gradients(build, [v, g], tol=1e-6)


# --- dropout ---


def test_dropout_rate_zero_identity_both_modes():
    x = Tensor(np.ones((3, 2)))
    for rngs in ([RngStream(1, "d")], None):  # train mode, eval mode
        out = layers.dropout(x, 0.0, rngs)
        np.testing.assert_array_equal(out.data, x.data)


def test_dropout_eval_identity_at_paper_rate():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    out = layers.dropout(x, 0.25)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_train_preserves_mean():
    rng = RngStream(42, "dropout-mc")
    x = Tensor(np.ones(100_000))
    out = layers.dropout(x, 0.25, [rng])
    assert abs(out.data.mean() - 1.0) < 0.01


def test_dropout_invalid_rate():
    with pytest.raises(ValueError):
        layers.dropout(Tensor(np.ones(2)), 1.0, [RngStream(1, "d")])


# --- pooling ---


def test_pool_logsumexp_constant_sequence_exact():
    for c in (0.0, 0.3, -2.7):
        r = Tensor(np.full((5, 3), c))
        out = layers.pool(r, PoolingConfig("logsumexp", tau=1.0))
        assert np.all(out.data == c)


def test_pool_logsumexp_two_zero_frames():
    out = layers.pool(Tensor(np.zeros((2, 1))), PoolingConfig("logsumexp", tau=1.0))
    assert out.data[0] == 0.0


def test_pool_logsumexp_high_tau_oracle():
    # tau=100, r=[0,1]: high-precision direct evaluation of
    # (1/tau) * log((1/L) * sum exp(tau r))
    import mpmath

    mpmath.mp.dps = 60
    ref = float(mpmath.log((mpmath.e**0 + mpmath.e**100) / 2) / 100)
    out = layers.pool(Tensor(np.array([[0.0], [1.0]])), PoolingConfig("logsumexp", tau=100.0))
    assert out.data[0] == pytest.approx(ref, abs=1e-12)
    assert out.data[0] == pytest.approx(1.0 - math.log(2.0) / 100.0, abs=1e-12)


def test_pool_sum_and_max():
    r = Tensor(np.array([[1.0, -2.0], [3.0, 5.0]]))
    np.testing.assert_allclose(layers.pool(r, PoolingConfig("sum", 1.0)).data, [4.0, 3.0])
    np.testing.assert_allclose(layers.pool(r, PoolingConfig("max", 1.0)).data, [3.0, 5.0])


def test_pool_empty_errors():
    with pytest.raises(tz.ShapeMismatch):
        layers.pool(Tensor(np.zeros((0, 2))), PoolingConfig("sum", 1.0))


def test_pool_logsumexp_bounds_property():
    rng = np.random.default_rng(15)
    for _ in range(100):
        length = int(rng.integers(1, 8))
        tau = float(rng.uniform(0.1, 20.0))
        r = rng.normal(size=(length, 3)) * rng.uniform(0.1, 5.0)
        s = layers.pool(Tensor(r), PoolingConfig("logsumexp", tau=tau)).data
        top = r.max(axis=0)
        assert np.all(s <= top)
        assert np.all(s >= top - math.log(length) / tau - 1e-12)


def test_pool_logsumexp_monotone_in_tau():
    rng = np.random.default_rng(16)
    r = rng.normal(size=(6, 2))
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
    vals = [layers.pool(Tensor(r), PoolingConfig("logsumexp", tau=t)).data for t in grid]
    for lo, hi in zip(vals, vals[1:]):
        assert np.all(hi >= lo - 1e-12)


def test_pool_gradients():
    rng = np.random.default_rng(17)
    r = rng.normal(size=(4, 3))
    for cfg in (PoolingConfig("sum", 1.0), PoolingConfig("max", 1.0), PoolingConfig("logsumexp", tau=1.0)):
        def build(t, cfg=cfg):
            p = layers.pool(t, cfg)
            return tz.sum_reduce(tz.mul(p, p))

        check_gradients(build, [r], tol=1e-6)


# --- grad_scale ---


def test_grad_scale_forward_identity_any_factor():
    x = Tensor(np.arange(4.0))
    for factor in (-1.0, 0.0, 0.5, 3.0):
        np.testing.assert_array_equal(layers.grad_scale(x, factor).data, x.data)


def _junction_grad(factor):
    # upstream gradient [1, 2] arrives at the junction
    x = Tensor(np.array([7.0, -3.0]), grad_tracked=True)
    out = tz.mul(layers.grad_scale(x, factor), Tensor(np.array([1.0, 2.0])))
    (g,) = tz.backward(tz.sum_reduce(out), [x])
    return g


def test_grad_scale_adversarial_factor():
    np.testing.assert_allclose(_junction_grad(-0.2), [-0.2, -0.4])


def test_grad_scale_multitask_factor():
    np.testing.assert_allclose(_junction_grad(0.5), [0.5, 1.0])


def test_grad_scale_unit_factor_bit_equal_to_noop():
    rng = np.random.default_rng(18)
    xv = rng.normal(size=(3, 3))

    def grads_through(junction):
        x = Tensor(xv.copy(), grad_tracked=True)
        h = junction(x)
        loss = tz.sum_reduce(tz.mul(tz.sigmoid(h), h))
        (g,) = tz.backward(loss, [x])
        return g

    g_scaled = grads_through(lambda x: layers.grad_scale(x, 1.0))
    g_plain = grads_through(lambda x: x)
    assert np.array_equal(g_scaled, g_plain)


# --- layer classes ---


def test_gated_conv_block_shapes_and_gradcheck():
    store = tz.ParamStore()
    blk = layers.GatedConv(store, "l0", "main", 3, 4, 5, 0.0, RngStream(3, "init"))
    x = Tensor(np.random.default_rng(19).normal(size=(6, 3)))
    out = blk.forward(x)
    assert out.shape == (6, 4)

    xv = np.random.default_rng(20).normal(size=(4, 3))

    def build(xt):
        h = blk.forward(xt)
        return tz.sum_reduce(tz.mul(h, h))

    check_gradients(build, [xv], tol=1e-6)


def test_linear_initially_equals_plain_matmul():
    # g starts at ||v||, so weight_norm(v, g) == v at initialization
    store = tz.ParamStore()
    lin = layers.Linear(store, "out", "main", 4, 2, RngStream(4, "init"))
    x = np.random.default_rng(21).normal(size=(3, 4))
    out = lin.forward(Tensor(x))
    np.testing.assert_allclose(out.data, x @ lin.v.data, atol=1e-12)


def test_layer_spec_validation():
    def gated_conv(in_ch=2, out_ch=2, width=5, rate=0.0):
        return layers.GatedConv(tz.ParamStore(), "l0", "main", in_ch, out_ch, width, rate, RngStream(1, "init"))

    with pytest.raises(ValueError, match="odd"):
        gated_conv(width=4)
    with pytest.raises(ValueError):
        gated_conv(rate=1.0)
    with pytest.raises(ValueError):
        gated_conv(out_ch=0)
    with pytest.raises(ValueError):
        layers.PoolingConfig("logsumexp", tau=0.0)
    with pytest.raises(ValueError):
        layers.PoolingConfig("mean", 1.0)


def test_gated_conv_init_gain_independent_of_dropout():
    # inverted dropout raises the train-mode second moment by 1/(1-rate); the
    # init scales weight variance by 1-rate, so the block's gain stays put
    x = Tensor(np.random.default_rng(23).normal(size=(400, 16)))

    def gain(rate):
        blk = layers.GatedConv(tz.ParamStore(), "l0", "main", 16, 16, 5, rate, RngStream(5, "init"))
        return blk.forward(x, [RngStream(6, "drop")]).data.std() / x.data.std()

    g0 = gain(0.0)
    for rate in (0.25, 0.5):
        ratio = gain(rate) / g0
        assert abs(ratio - 1.0) <= 0.10, (rate, ratio)


# --- packed batches ---

LENGTHS = (3, 1, 6, 2)


def test_packed_conv_and_pool_equal_per_utterance():
    rng = np.random.default_rng(31)
    packing = layers.Packing(LENGTHS)
    x = rng.normal(size=(packing.rows, 2))
    w, b = Tensor(rng.normal(size=(10, 3))), Tensor(rng.normal(size=3))
    out = layers.conv1d(Tensor(x), w, b, 5, packing).data
    for got, block in zip(packing.split(out), packing.split(x)):
        assert np.array_equal(got, layers.conv1d(Tensor(block), w, b, 5).data)
    for kind in ("sum", "max", "logsumexp"):
        cfg = PoolingConfig(kind, 1.3)
        pooled = layers.pool(Tensor(x), cfg, packing).data
        for got, block in zip(pooled, packing.split(x)):
            assert np.array_equal(got, layers.pool(Tensor(block), cfg).data)


def test_packed_conv_and_pool_gradients():
    rng = np.random.default_rng(32)
    packing = layers.Packing(LENGTHS)
    x, w, b = rng.normal(size=(packing.rows, 2)), rng.normal(size=(6, 3)), rng.normal(size=3)
    check_gradients(
        lambda xt, wt, bt: tz.sum_reduce(tz.mul(layers.conv1d(xt, wt, bt, 3, packing),
                                                layers.conv1d(xt, wt, bt, 3, packing))), [x, w, b], tol=1e-6
    )
    for kind in ("sum", "max", "logsumexp"):
        cfg = PoolingConfig(kind, 1.3)
        check_gradients(lambda t: tz.sum_reduce(tz.mul(layers.pool(t, cfg, packing), layers.pool(t, cfg, packing))),
                        [x], tol=1e-6)


def test_packed_dropout_masks_are_the_per_utterance_draws():
    packing = layers.Packing(LENGTHS)
    x = Tensor(np.ones((packing.rows, 4)))
    # one stream per utterance, as in training
    out = layers.dropout(x, 0.25, [RngStream(8, f"u{i}") for i in range(len(LENGTHS))], packing)
    alone = [layers.dropout(Tensor(np.ones((n, 4))), 0.25, [RngStream(8, f"u{i}")]).data
             for i, n in enumerate(LENGTHS)]
    assert np.array_equal(out.data, np.concatenate(alone))
    # one stream shared in utterance order, as in probe training
    out = layers.dropout(x, 0.25, [RngStream(9, "p")] * len(LENGTHS), packing)
    shared = RngStream(9, "p")
    alone = [layers.dropout(Tensor(np.ones((n, 4))), 0.25, [shared]).data for n in LENGTHS]
    assert np.array_equal(out.data, np.concatenate(alone))


# --- fused layers against their former tape compositions, bit for bit ---
#
# conv1d, glu, weight_norm and pool each record one tape node. The
# references below are the primitive-op compositions they replaced, with
# the row gather the tape used to provide; forward values and gradients
# must agree exactly, not within a tolerance.


def ref_take_rows(a, index):
    """out[i, ...] = a[index[i, ...]]; an index equal to a's row count reads zeros."""
    index = np.asarray(index)
    n, rest = a.shape[0], a.shape[1:]

    def bw(g, grads):
        width = int(np.prod(rest))
        bins = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        full = np.bincount(bins, weights=g.reshape(-1), minlength=(n + 1) * width)
        tz._acc(grads, a, full[: n * width].reshape(a.shape))

    rows = np.concatenate([a.data, np.zeros((1,) + rest)])
    return tz._node(rows[index], "take_rows", (a,), bw, check=False)


def ref_grid(packing, repeat_first=False):
    fill = packing.starts[:, None] if repeat_first else packing.rows
    idx = np.broadcast_to(fill, (len(packing), int(packing.lengths.max()))).copy()
    idx[packing.segment, packing.offset] = np.arange(packing.rows)
    return idx


def ref_conv1d(x, weight, bias, kernel_width, packing=None):
    t_len, c_in = x.shape
    taps = (packing or layers.Packing((t_len,))).taps(kernel_width)
    unfolded = tz.reshape(ref_take_rows(x, taps), (t_len, kernel_width * c_in))
    return tz.add(tz.matmul(unfolded, weight), bias)


def ref_glu(x):
    half = x.shape[1] // 2
    return tz.mul(tz.slice_axis(x, 1, 0, half), tz.sigmoid(tz.slice_axis(x, 1, half, 2 * half)))


def ref_weight_norm(v, g):
    sumsq = tz.sum_reduce(tz.mul(v, v), axis=0)
    return tz.mul(v, tz.mul(g, tz.pow_scalar(sumsq, -0.5)))


def ref_pool(r, cfg, packing=None):
    seg = packing or layers.Packing((r.shape[0],))
    if cfg.kind == "sum":
        out = tz.sum_reduce(ref_take_rows(r, ref_grid(seg)), axis=1)
    elif cfg.kind == "max":
        out = tz.max_reduce(ref_take_rows(r, ref_grid(seg, repeat_first=True)), axis=1)
    else:
        m = tz.max_reduce(ref_take_rows(r, ref_grid(seg, repeat_first=True)), axis=1)
        z = tz.smul(tz.sub(r, ref_take_rows(m, seg.segment)), cfg.tau)
        total = tz.sum_reduce(ref_take_rows(tz.exp(z), ref_grid(seg)), axis=1)
        mean_exp = tz.mul(total, Tensor(1.0 / seg.lengths[:, None]))
        out = tz.add(m, tz.smul(tz.log(mean_exp), 1.0 / cfg.tau))
    return out if packing is not None else tz.reshape(out, (r.shape[1],))


FUSED = (layers.conv1d, layers.glu, layers.weight_norm, layers.pool)
REFERENCE = (ref_conv1d, ref_glu, ref_weight_norm, ref_pool)


def run_block(fns, arrays, cfg, packing, x_tracked=True):
    """Weight norm -> conv1d -> GLU -> pool -> weighted sum, as one tape;
    returns every intermediate value and the gradients of all leaves."""
    conv1d, glu, weight_norm, pool = fns
    x, v, g, b, weights = arrays
    leaves = [Tensor(x.copy(), grad_tracked=x_tracked)] + [Tensor(a.copy(), grad_tracked=True) for a in (v, g, b)]
    w = weight_norm(leaves[1], leaves[2])
    h = conv1d(leaves[0], w, leaves[3], 3, packing)
    y = glu(h)
    p = pool(y, cfg, packing)
    loss = tz.sum_reduce(tz.mul(p, Tensor(weights[: p.shape[0]] if p.data.ndim == 2 else weights[0])))
    return [w.data, h.data, y.data, p.data], tz.backward(loss, leaves)


def block_arrays(rows, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rows, 3)), rng.normal(size=(9, 8)), rng.uniform(0.5, 2.0, size=8), rng.normal(size=8),
            rng.normal(size=(len(LENGTHS), 4))]


@pytest.mark.parametrize("kind", layers.POOL_KINDS)
@pytest.mark.parametrize("packed", [True, False], ids=["packed", "lone"])
@pytest.mark.parametrize("x_tracked", [True, False], ids=["tracked-input", "untracked-input"])
def test_fused_layers_equal_tape_composition_bitwise(kind, packed, x_tracked):
    packing = layers.Packing(LENGTHS) if packed else None
    arrays = block_arrays(sum(LENGTHS) if packed else 7, seed=41)
    cfg = PoolingConfig(kind, 1.7)
    got_values, got_grads = run_block(FUSED, arrays, cfg, packing, x_tracked)
    ref_values, ref_grads = run_block(REFERENCE, arrays, cfg, packing, x_tracked)
    for name, got, ref in zip(("weight_norm", "conv1d", "glu", "pool"), got_values, ref_values):
        assert got.shape == ref.shape and np.array_equal(got, ref), name
    for name, got, ref in zip(("x", "v", "g", "b"), got_grads, ref_grads):
        assert np.array_equal(got, ref), name
    if not x_tracked:
        assert not np.any(got_grads[0])


@pytest.mark.parametrize("kind", layers.POOL_KINDS)
def test_fused_pool_ties_equal_tape_composition_bitwise(kind):
    # constant utterances, and a maximum repeated later in its utterance:
    # the gradient of a max goes to the first frame holding it
    packing = layers.Packing((3, 4, 1, 5))
    rng = np.random.default_rng(42)
    r = rng.normal(size=(packing.rows, 3))
    r[0:3] = 0.5
    r[3:7, 1] = [1.0, 3.0, 2.0, 3.0]
    r[8:13] = r[10]
    weights = Tensor(rng.normal(size=(4, 3)))
    grads = []
    for pool in (layers.pool, ref_pool):
        t = Tensor(r.copy(), grad_tracked=True)
        out = pool(t, PoolingConfig(kind, 0.8), packing)
        grads.append((out.data, tz.backward(tz.sum_reduce(tz.mul(out, weights)), [t])[0]))
    (got, got_grad), (ref, ref_grad) = grads
    assert np.array_equal(got, ref) and np.array_equal(got_grad, ref_grad)
    if kind == "max":
        assert got_grad[4, 1] == weights.data[1, 1] and got_grad[6, 1] == 0.0


def test_packed_one_channel_sum_pool_equals_per_utterance():
    # sums run per utterance, so a long one-channel utterance adds its frames
    # in the same order alone and in a batch
    packing = layers.Packing((37, 5, 130))
    r = np.random.default_rng(43).normal(size=(packing.rows, 1))
    pooled = layers.pool(Tensor(r), PoolingConfig("sum", 1.0), packing).data
    for got, block in zip(pooled, packing.split(r)):
        assert np.array_equal(got, layers.pool(Tensor(block), PoolingConfig("sum", 1.0)).data)
