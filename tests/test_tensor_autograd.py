"""Engine tests: op semantics, finite-difference oracle, Adam, checkpoints."""

import sys
import threading

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.checkpoint import load_checkpoint, save_checkpoint
from bevkit.errors import ConfigError, ContractError, NumericError, ShapeError
from bevkit.optim import Adam
from bevkit.tensor import Parameter, Tensor, backward

from helpers import check_grads
from naive_reference import bilinear_scalar, softmax_naive, softmax_vjp_naive

SEEDS = list(range(20))


def rnd(rng, *shape):
    return rng.standard_normal(shape)


class TestLinear:
    def test_identity_weights(self):
        out = T.linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_hand_matmul(self):
        # [1,1] @ [[2,3],[4,5]] + [1,1] = [7,9]
        out = T.linear(Tensor([1.0, 1.0]), Tensor([[2.0, 3.0], [4.0, 5.0]]), Tensor([1.0, 1.0]))
        assert np.allclose(out.data, [7.0, 9.0])

    def test_bias_grad_is_ones(self):
        x = Tensor([[0.3, -0.2], [1.0, 2.0]])
        w = Tensor(np.eye(2) * 2.0)
        b = Tensor([0.0, 0.0], requires_grad=True)
        backward(T.tsum(T.linear(x, w, b)))
        assert np.array_equal(b.grad, [2.0, 2.0])  # summed over the 2 rows

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError) as e:
            T.linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert "(3,)" in str(e.value) and "(2, 2)" in str(e.value)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax_lastaxis(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_single_element(self):
        assert np.allclose(T.softmax_lastaxis(Tensor([3.7])).data, [1.0])

    def test_scalar_oracle(self):
        # frozen from a 50-digit mpmath evaluation of exp(i)/(exp(1)+exp(2))
        out = T.softmax_lastaxis(Tensor([1.0, 2.0])).data
        assert abs(out[0] - 0.2689414213699951) < 1e-5
        assert abs(out[1] - 0.7310585786300049) < 1e-5

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            T.softmax_lastaxis(Tensor([np.inf, 0.0]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sums_to_one_and_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 5)) * 3
        y = T.softmax_lastaxis(Tensor(x)).data
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) < 1e-6)
        y2 = T.softmax_lastaxis(Tensor(x + 7.5)).data
        assert np.all(np.abs(y - y2) < 1e-6)


def sample(feats: Tensor, pts: Tensor, map_idx=None) -> Tensor:
    """Bilinear samples [P,C] of feats [B,H,W,C] at points pts [P,2] on maps
    map_idx (all 0 by default): deform_attend with one head, one point per
    head, attention 1 and the points as offsets from base points at 0."""
    p, ch = pts.shape[0], feats.shape[-1]
    map_idx = np.zeros(p, dtype=np.intp) if map_idx is None else map_idx
    out = T.deform_attend(feats, map_idx, np.zeros((p, 2)), T.reshape(pts, (p, 1, 1, 2)),
                          Tensor(np.ones((p, 1, 1))), np.arange(p))
    return T.reshape(out, (p, ch))


class TestBilinear:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.f = rng.standard_normal((4, 5, 3))

    def sample(self, pts):
        return sample(Tensor(self.f[None]), Tensor(pts)).data

    def test_on_grid_exact(self):
        out = self.sample([[1.0, 1.0]])
        assert np.array_equal(out[0], self.f[1, 1])

    def test_center_of_2x2_is_mean(self):
        f = np.arange(4.0).reshape(1, 2, 2, 1)
        out = sample(Tensor(f), Tensor([[0.5, 0.5]]))
        assert np.allclose(out.data[0], f.mean())

    def test_far_outside_is_zero(self):
        assert np.array_equal(self.sample([[-5.0, -5.0]])[0], np.zeros(3))

    def test_border_decays_linearly(self):
        # half a cell past the edge blends 50% zero padding
        assert np.allclose(self.sample([[-0.5, 2.0]])[0], 0.5 * self.f[0, 2])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lipschitz_continuity(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1.5, 4.5, size=(10, 2))
        d = rng.standard_normal((10, 2)) * 1e-4
        a = self.sample(p)
        b = self.sample(p + d)
        lip = 4.0 * np.abs(self.f).max()  # coarse bound for this map
        assert np.all(np.abs(a - b) <= lip * np.abs(d).max(axis=1, keepdims=True) + 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, seed):
        # on, between, at the border of and beyond the map, over a stack of maps
        rng = np.random.default_rng(seed + 900)
        f = rnd(rng, 3, 4, 5, 2)
        pts = np.concatenate([rng.uniform(-2, 6, (20, 2)), rng.integers(-1, 6, (8, 2)),
                              [[0.0, 0.0], [3.0, 4.0], [-1.0, 2.0], [2.0, 5.0]]])
        idx = rng.integers(0, 3, pts.shape[0])
        out = sample(Tensor(f), Tensor(pts), idx).data
        want = [bilinear_scalar(f[i], r, c) for i, (r, c) in zip(idx, pts)]
        assert np.array_equal(out, want)


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 6, 1))
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        out = T.conv2d_3x3(Tensor(x), Tensor(k), Tensor([0.0]))
        assert np.allclose(out.data, x)

    def test_ones_kernel_interior(self):
        x = np.full((1, 5, 5, 1), 2.0)
        k = np.ones((3, 3, 1, 1))
        out = T.conv2d_3x3(Tensor(x), Tensor(k), Tensor([0.0]))
        assert np.allclose(out.data[0, 2, 2, 0], 18.0)  # 9 cells * 2

    def test_against_loop_oracle(self):
        # two maps: no tap reaches across from one map into the next
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 4, 2))
        k = rng.standard_normal((3, 3, 2, 3))
        b = rng.standard_normal(3)
        out = T.conv2d_3x3(Tensor(x), Tensor(k), Tensor(b)).data
        ref = np.zeros((2, 4, 4, 3))
        for n in range(2):
            for i in range(4):
                for j in range(4):
                    for di in range(3):
                        for dj in range(3):
                            si, sj = i + di - 1, j + dj - 1
                            if 0 <= si < 4 and 0 <= sj < 4:
                                for ci in range(2):
                                    ref[n, i, j] += x[n, si, sj, ci] * k[di, dj, ci]
                    ref[n, i, j] += b
        assert np.allclose(out, ref, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d_3x3(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))),
                         Tensor([0.0]))

    @pytest.mark.parametrize("shape", [(4, 4, 2), (1, 1, 4, 4, 2), (2,)])
    def test_input_rank_not_four(self, shape):
        with pytest.raises(ShapeError):
            T.conv2d_3x3(Tensor(np.zeros(shape)), Tensor(np.zeros((3, 3, 2, 1))), Tensor([0.0]))


@pytest.mark.parametrize("shape", [(4, 6, 2), (1, 1, 4, 6, 2), (2, 5, 6, 2), (2, 4, 3, 2)],
                         ids=["rank3", "rank5", "odd_h", "odd_w"])
def test_avgpool_shape_errors(shape):
    with pytest.raises(ShapeError):
        T.avgpool2x2(Tensor(np.zeros(shape)))


@pytest.mark.parametrize("shape", [(5,), (2, 4), (-1, 5), (-1, -1)])
def test_reshape_to_another_size_is_shape_error(shape):
    with pytest.raises(ShapeError):
        T.reshape(Tensor(np.zeros((2, 3))), shape)


@pytest.mark.parametrize("op", ["conv", "avgpool"])
def test_batch_equals_per_map_calls(op):
    """Over B=3 maps, forward equals B one-map calls byte for byte, and so
    does the input grad; the kernel and bias grads, which one product now sums
    over all B maps' cells, agree to 1e-12 relative with the per-map sums."""
    rng = np.random.default_rng(1300)
    x = rnd(rng, 3, 6, 4, 2)
    params = [rnd(rng, 3, 3, 2, 5), rnd(rng, 5)] if op == "conv" else []
    g = rnd(rng, *((3, 6, 4, 5) if op == "conv" else (3, 3, 2, 2)))

    def run(x, g):
        leaves = [Tensor(a, requires_grad=True) for a in [x, *params]]
        out = T.conv2d_3x3(*leaves) if op == "conv" else T.avgpool2x2(leaves[0])
        backward(T.tsum(T.mul(out, Tensor(g))))
        return out.data, [t.grad for t in leaves]

    out, grads = run(x, g)
    per_map = [run(x[i : i + 1], g[i : i + 1]) for i in range(3)]
    assert out.tobytes() == np.concatenate([o for o, _ in per_map]).tobytes()
    assert grads[0].tobytes() == np.concatenate([gs[0] for _, gs in per_map]).tobytes()
    for i, got in enumerate(grads[1:], start=1):
        want = sum(gs[i] for _, gs in per_map)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_relu_signed_zero_and_nan(self):
        x = Tensor([-0.0, 0.0, np.nan, -np.inf, np.inf, -3.5, 1e-300], requires_grad=True)
        out = T.relu(x)
        # -0.0 comes out +0.0; NaN propagates instead of becoming 0
        assert np.array_equal(out.data, [0.0, 0.0, np.nan, 0.0, np.inf, 0.0, 1e-300],
                              equal_nan=True)
        assert not np.signbit(out.data).any()
        backward(T.tsum(T.mul(out, Tensor(np.arange(1.0, 8.0)))))
        assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 7.0])

    def test_layernorm_constant_vector_gives_shift(self):
        shift = np.array([0.3, -0.7, 1.1])
        out = T.residual_layer_norm(Tensor([2.0, 4.5, 5.0]), Tensor([3.0, 0.5, 0.0]),
                                    Tensor(np.ones(3)), Tensor(shift))
        assert np.all(np.abs(out.data - shift) < 1e-3)

    def test_concat_lastaxis(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 2)))
        out = T.concat_lastaxis([a, b])
        assert out.shape == (2, 4)
        assert np.array_equal(out.data[:, :2], np.ones((2, 2)))
        assert np.array_equal(out.data[:, 2:], np.zeros((2, 2)))

    def test_mul_broadcast_unbroadcast_grad(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        v = Tensor(np.arange(4.0), requires_grad=True)
        backward(T.tsum(T.mul(x, v)))
        assert np.array_equal(v.grad, [3.0, 3.0, 3.0, 3.0])
        assert np.array_equal(x.grad, np.tile(np.arange(4.0), (3, 1)))


class TestBackward:
    def test_x_squared(self):
        x = Tensor([3.0], requires_grad=True)
        backward(T.tsum(T.mul(x, x)))
        assert np.allclose(x.grad, [6.0])

    def test_softmax_sum_constant(self):
        x = Tensor([0.2, -1.0, 0.5], requires_grad=True)
        backward(T.tsum(T.softmax_lastaxis(x)))
        assert np.all(np.abs(x.grad) < 1e-12)

    def test_nonscalar_loss_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.mul(x, x))

    def test_reuse_doubles_gradient(self):
        x = Tensor([1.5], requires_grad=True)
        y = Tensor([1.5], requires_grad=True)
        backward(T.tsum(T.add(x, x)))
        backward(T.tsum(y))
        assert np.allclose(x.grad, 2.0 * y.grad)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4))
        outs = []
        for _ in range(2):
            t = Tensor(x, requires_grad=True)
            loss = T.tsum(T.softmax_lastaxis(T.relu(T.mul(t, t))))
            backward(loss)
            outs.append((loss.data.copy(), t.grad.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])


# finite-difference sweep over every differentiable op, 20 random cases each
FD_CASES = {
    "add": lambda ts: T.tsum(T.sigmoid(T.add(ts[0], ts[1]))),
    "sub": lambda ts: T.tsum(T.sigmoid(T.sub(ts[0], ts[1]))),
    "mul": lambda ts: T.tsum(T.sigmoid(T.mul(ts[0], ts[1]))),
    "relu": lambda ts: T.tsum(T.mul(T.relu(ts[0]), ts[0])),
    "sigmoid": lambda ts: T.tsum(T.mul(T.sigmoid(ts[0]), ts[0])),
    "exp": lambda ts: T.tsum(T.exp(ts[0])),
    "abs": lambda ts: T.tsum(T.absval(ts[0])),
    # a mean as the package takes one: a sum scaled by 1/n
    "mean": lambda ts: T.mul(T.tsum(T.mul(ts[0], ts[0])), Tensor(1.0 / ts[0].data.size)),
    # a sum over axis 0 as the package takes one: a ones row times the rows
    "sum_axis": lambda ts: T.tsum(T.sigmoid(T.matmul(
        Tensor(np.ones((1, ts[0].shape[0]))), T.reshape(ts[0], (ts[0].shape[0], -1))))),
    "softmax": lambda ts: T.tsum(T.mul(T.softmax_lastaxis(ts[0]), ts[1])),
    "log_softmax": lambda ts: T.tsum(T.mul(T.log_softmax_lastaxis(ts[0]), ts[1])),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_fd_elementwise(name, seed):
    rng = np.random.default_rng(seed + 100)
    dims = tuple(rng.integers(1, 6, size=rng.integers(1, 3)))
    arrays = [rng.standard_normal(dims), rng.standard_normal(dims)]
    check_grads(lambda ts: FD_CASES[name](ts), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_linear(seed):
    rng = np.random.default_rng(seed + 200)
    i, o = rng.integers(1, 5), rng.integers(1, 5)
    arrays = [rnd(rng, 3, i), rnd(rng, i, o), rnd(rng, o)]
    check_grads(lambda ts: T.tsum(T.sigmoid(T.linear(*ts))), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_layernorm(seed):
    rng = np.random.default_rng(seed + 300)
    c = int(rng.integers(2, 6))
    x, gain, shift = rnd(rng, 4, c), rnd(rng, c), rnd(rng, c)
    # the residual at zero: the sum is x, and both addends' grads are checked
    arrays = [x, np.zeros_like(x), gain, shift]
    check_grads(lambda ts: T.tsum(T.sigmoid(T.residual_layer_norm(*ts))), arrays)


@pytest.mark.parametrize("seed", range(6))
def test_fd_ffn(seed):
    rng = np.random.default_rng(seed + 350)
    i, hid, o = (int(n) for n in rng.integers(1, 5, 3))
    arrays = [rnd(rng, 3, i), rnd(rng, i, hid), rnd(rng, hid), rnd(rng, hid, o), rnd(rng, o)]
    check_grads(lambda ts: T.tsum(T.sigmoid(T.ffn(*ts))), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_bilinear(seed):
    rng = np.random.default_rng(seed + 400)
    f = rnd(rng, 1, 5, 4, 3)
    # keep clear of integer grid lines where the interpolant has kinks
    pts = rng.integers(-1, 5, size=(6, 2)) + rng.uniform(0.2, 0.8, size=(6, 2))
    check_grads(lambda ts: T.tsum(T.sigmoid(sample(ts[0], ts[1]))), [f, pts])


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_bilinear_stacked(seed):
    rng = np.random.default_rng(seed + 450)
    f = rnd(rng, 2, 4, 4, 3)
    idx = rng.integers(0, 2, size=8)
    pts = rng.integers(-1, 4, size=(8, 2)) + rng.uniform(0.2, 0.8, size=(8, 2))
    check_grads(lambda ts: T.tsum(T.sigmoid(sample(ts[0], ts[1], idx))), [f, pts])


@pytest.mark.parametrize("seed", range(6))
def test_fd_deform_attend(seed):
    # several heads and points, queries seen by several pairs, attention not
    # normalized; every point kept clear of the grid lines; values [B,H,W,M*D]
    rng = np.random.default_rng(seed + 480)
    b, t, m, k = 2, 3, 2, 3
    f = rnd(rng, b, 4, 5, m * 3)
    qry_idx = np.array([0, 1, 2, 0, 2, 0])
    map_idx = rng.integers(0, b, qry_idx.size)
    base = rng.integers(-1, 4, (qry_idx.size, 2)).astype(np.float64)
    offsets = rng.integers(0, 2, (t, m, k, 2)) + rng.uniform(0.2, 0.8, (t, m, k, 2))
    attn = rng.uniform(-1, 1, (t, m, k))
    check_grads(lambda ts: T.tsum(T.sigmoid(T.deform_attend(ts[0], map_idx, base, ts[1],
                                                            ts[2], qry_idx))),
                [f, offsets, attn])


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_conv(seed):
    rng = np.random.default_rng(seed + 500)
    ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    arrays = [rnd(rng, 2, 4, 5, ci), rnd(rng, 3, 3, ci, co), rnd(rng, co)]
    check_grads(lambda ts: T.tsum(T.sigmoid(T.conv2d_3x3(*ts))), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_matmul_concat_split(seed):
    rng = np.random.default_rng(seed + 600)
    a, b = rnd(rng, 3, 4), rnd(rng, 4, 2)

    def build(ts):
        m = T.matmul(ts[0], ts[1])
        left, right = T.split_lastaxis(m, [1, 1])
        return T.tsum(T.sigmoid(T.concat_lastaxis([right, left])))

    check_grads(build, [a, b])


@pytest.mark.parametrize("sizes", [[3, -1], [2.5, -0.5], [1.0, 1.0], [1, 2], [], [True, 1]],
                         ids=["negative", "fractional", "floats", "short_sum", "none", "bool"])
def test_split_refuses_sizes_that_do_not_split_the_axis(sizes):
    """Only non-negative integers that sum to the axis split it: a negative
    size, which numpy's slices would read from the end, a fraction, a float
    or a bool raises ShapeError."""
    with pytest.raises(ShapeError, match="split_lastaxis"):
        T.split_lastaxis(Tensor(np.zeros((2, 2)), requires_grad=True), sizes)


def test_split_takes_numpy_integers_and_empty_blocks():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    left, mid, right = T.split_lastaxis(a, [np.int64(1), 0, 2])
    assert mid.shape == (2, 0) and np.array_equal(right.data, [[1.0, 2.0], [4.0, 5.0]])
    backward(T.tsum(T.add(T.tsum(left), T.tsum(right))))
    assert np.array_equal(a.grad, np.ones((2, 3)))


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_misc_ops(seed):
    rng = np.random.default_rng(seed + 700)
    a = rnd(rng, 4, 3)

    def build(ts):
        t = T.take_rows(ts[0], [0, 2, 2])
        s = T.concat_lastaxis([t, t])
        y = T.mul(T.sigmoid(s), T.exp(s))
        return T.tsum(T.reshape(y, (-1,)))

    check_grads(build, [a])


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_fd_avgpool(seed):
    rng = np.random.default_rng(seed + 800)
    a = rnd(rng, 2, 4, 6, 2)
    check_grads(lambda ts: T.tsum(T.sigmoid(T.avgpool2x2(ts[0]))), [a])


class TestAdam:
    def test_first_step_magnitude(self):
        # one step on f(x) = x^2 from x=1 with lr=0.1 moves to ~0.9
        p = Parameter("x", np.array([1.0]))
        opt = Adam([p], lr=0.1)
        backward(T.tsum(T.mul(p.tensor, p.tensor)))
        opt.step()
        assert abs(p.data[0] - 0.9) < 1e-6

    def test_zero_grad_no_move(self):
        p = Parameter("x", np.array([1.0]))
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == 1.0

    def test_identical_params_stay_identical(self):
        pa = Parameter("a", np.array([0.4, -0.2]))
        pb = Parameter("b", np.array([0.4, -0.2]))
        opt = Adam([pa, pb], lr=0.01)
        for _ in range(3):
            loss = T.tsum(T.add(T.mul(pa.tensor, pa.tensor), T.mul(pb.tensor, pb.tensor)))
            backward(loss)
            opt.step()
        assert np.array_equal(pa.data, pb.data)

    def test_grads_zeroed_after_step(self):
        p = Parameter("x", np.array([1.0]))
        opt = Adam([p], lr=0.1)
        backward(T.tsum(p.tensor))
        opt.step()
        assert p.tensor.grad is None

    def test_duplicate_names_are_contract_error(self):
        with pytest.raises(ContractError):
            Adam([Parameter("x", np.ones(2)), Parameter("x", np.ones(2))])

    @staticmethod
    def stepped(steps=2):
        pa, pb = Parameter("a", np.array([0.4, -0.2])), Parameter("b", np.ones((2, 3)))
        opt = Adam([pa, pb], lr=0.01)
        for _ in range(steps):
            backward(T.tsum(T.mul(pa.tensor, pa.tensor)))
            opt.step()
        return opt

    def test_state_round_trip(self):
        opt, fresh = self.stepped(), self.stepped(0)
        fresh.load_state_arrays(opt.state_arrays())
        assert fresh.t == 2
        for key, arr in opt.state_arrays().items():
            assert np.array_equal(fresh.state_arrays()[key], arr)

    BAD_STATE = {
        "missing_step": ("opt.step", None),
        "missing_v": ("opt.v.b", None),
        "wrong_shape": ("opt.v.b", np.zeros((3, 2))),
        "flat_shape": ("opt.m.b", np.zeros(6)),
        # step's in-place updates raise numpy's UFuncTypeError on integers
        "int64_m": ("opt.m.b", np.ones((2, 3), dtype=np.int64)),
        "int64_v": ("opt.v.a", np.ones(2, dtype=np.int64)),
        "bool_v": ("opt.v.a", np.ones(2, dtype=bool)),
        "complex_m": ("opt.m.a", np.ones(2, dtype=complex)),
        "nan_m": ("opt.m.a", np.array([0.1, np.nan])),
        "inf_v": ("opt.v.b", np.full((2, 3), np.inf)),
        # the square root of a negative second moment is NaN
        "negative_v": ("opt.v.a", np.array([0.1, -1e-12])),
    }

    @pytest.mark.parametrize("edit", BAD_STATE)
    def test_bad_state_is_config_error_and_changes_nothing(self, edit):
        opt = self.stepped()
        before = {k: v.copy() for k, v in opt.state_arrays().items()}
        arrays = {k: np.full_like(v, 7.0) for k, v in before.items()}
        key, value = self.BAD_STATE[edit]
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
        with pytest.raises(ConfigError):
            opt.load_state_arrays(arrays)
        after = opt.state_arrays()
        assert opt.t == 2 and set(after) == set(before)
        for key, arr in before.items():
            assert np.array_equal(after[key], arr)

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, -1.0, 2.5])
    def test_bad_step_is_config_error_and_changes_nothing(self, step):
        """A step that is not a finite non-negative integer is refused before
        t, m or v change: from -1 the next step would divide by zero, and 2.5
        names no step."""
        opt = self.stepped()
        before = {k: v.copy() for k, v in opt.state_arrays().items()}
        arrays = {k: np.full_like(v, 7.0) for k, v in before.items()}
        arrays["opt.step"] = np.array([step])
        with pytest.raises(ConfigError, match="step"):
            opt.load_state_arrays(arrays)
        assert opt.t == 2
        for key, arr in before.items():
            assert opt.state_arrays()[key].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("kw", [
        dict(lr=np.nan), dict(lr=np.inf), dict(lr=0.0), dict(lr=-1e-3), dict(lr="0.1"),
    ], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_bad_hyperparameter_is_config_error(self, kw):
        """An lr that is not a finite positive real would turn parameters to
        NaN, leave them where they are or move them the wrong way."""
        with pytest.raises(ConfigError):
            Adam([Parameter("x", np.array([1.0]))], **kw)

    def test_moments_load_as_float64_copies(self):
        """float32 moments and a negative zero second moment resume; the
        optimizer keeps float64 copies that later edits of the source do not
        reach, and steps as it would from the same values in float64."""
        state = self.stepped().state_arrays()
        state["opt.v.a"][0] = -0.0
        narrow = {k: v.astype(np.float32) for k, v in state.items()}
        opt, want = self.stepped(0), self.stepped(0)
        opt.load_state_arrays(narrow)
        want.load_state_arrays({k: v.astype(np.float64) for k, v in narrow.items()})
        for v in narrow.values():
            v[...] = 99.0
        for o in (opt, want):
            backward(T.tsum(T.mul(o.params[0].tensor, o.params[0].tensor)))
            o.step()
        for key, arr in want.state_arrays().items():
            got = opt.state_arrays()[key]
            assert got.dtype == np.float64 and got.tobytes() == arr.tobytes()
        assert opt.params[0].data.tobytes() == want.params[0].data.tobytes()

    def test_zero_step_loads(self):
        opt = self.stepped()
        opt.load_state_arrays(self.stepped(0).state_arrays())
        assert opt.t == 0


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        arrays = {
            "a.weight": rng.standard_normal((3, 4)),
            "a.bias": rng.standard_normal(4),
            "z": np.array([np.pi]),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert loaded[k].shape == arrays[k].shape
            assert loaded[k].tobytes() == arrays[k].astype("<f8").tobytes()

    def test_identical_dict_identical_bytes(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()


def test_no_grad_blocks_recording():
    x = Tensor([2.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y.node is None and not y.requires_grad


def test_constant_never_accumulates():
    c = Tensor([1.0, 2.0])
    x = Tensor([3.0, 4.0], requires_grad=True)
    backward(T.tsum(T.mul(c, x)))
    assert c.grad is None and np.array_equal(x.grad, [1.0, 2.0])


def _residual_layer_norm_op(a):
    """residual_layer_norm with a as x: x adopts the grad that y copies."""
    y = np.arange(12.0).reshape(4, 3)
    gain = np.array([0.5, -1.5, 2.0])
    out = T.residual_layer_norm(a, Tensor(y), Tensor(gain), Tensor(np.zeros(3)))

    def expected(g):
        s = a.data + y
        xc = s - s.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gx = g * gain
        return inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True))

    return out, expected


# op on a [4,3] parent -> (output, the parent's expected grad for output grad g)
OWNING_VJPS = {
    "residual_layer_norm": _residual_layer_norm_op,
    "neg": lambda a: (T.neg(a), lambda g: -g),
    "sub_second": lambda a: (T.sub(Tensor(np.ones((4, 3))), a), lambda g: -g),
    "sub_second_broadcast": lambda a: (T.sub(Tensor(np.ones((2, 4, 3))), a),
                                       lambda g: -g.sum(axis=0)),
    "abs": lambda a: (T.absval(a), lambda g: g * np.sign(a.data)),
}


@pytest.mark.parametrize("name", OWNING_VJPS)
def test_owned_vjp_grad_shares_no_memory_with_output_grad(name):
    """The vjps that hand _accum a fresh array give the parent a grad of its
    own, equal to the expected bits, however the output grad is reused."""
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out, expected = OWNING_VJPS[name](a)
    g = rng.standard_normal(out.shape)
    out.node.vjp(g)
    assert np.array_equal(a.grad, expected(g))
    assert not np.shares_memory(a.grad, g)
    want = a.grad.copy()
    g[:] = 0.0
    assert np.array_equal(a.grad, want)


def mixed_magnitudes(rng, *shape):
    """Normal draws scaled over 1e-300..1e150, with exact zeros and -0.0."""
    x = rnd(rng, *shape) * 10.0 ** rng.choice([-300.0, -150.0, -8.0, 0.0, 8.0, 150.0], shape)
    x.reshape(-1)[::7] = 0.0
    x.reshape(-1)[3::7] = -0.0
    return x


def linear_expr(x, w, b):
    return x @ w + b


def softmax_expr(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_expr(x, gain, shift, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + shift


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("op", ["linear", "softmax", "layer_norm"])
def test_in_place_forward_ops_equal_their_expressions(op, seed):
    """linear adds its bias, softmax divides and residual_layer_norm centres,
    scales and shifts in place: byte for byte the out-of-place expressions they replace,
    on inputs from 1e-300 to 1e150 with zeros and -0.0 among them."""
    rng = np.random.default_rng(seed + 900)
    x = mixed_magnitudes(rng, 5, 9)
    with np.errstate(all="ignore"):
        if op == "linear":
            w, b = mixed_magnitudes(rng, 9, 4), mixed_magnitudes(rng, 4)
            got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
            want = linear_expr(x, w, b)
        elif op == "softmax":
            got = T.softmax_lastaxis(Tensor(x)).data
            want = softmax_expr(x)
        else:
            y, gain, shift = (mixed_magnitudes(rng, 5, 9), mixed_magnitudes(rng, 9),
                              mixed_magnitudes(rng, 9))
            got = T.residual_layer_norm(Tensor(x), Tensor(y), Tensor(gain), Tensor(shift)).data
            want = layer_norm_expr(x + y, gain, shift)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def softmax_inputs(rng, k):
    """[6,3,k] logits over 1e-300..1e150 with ties, zeros and -0.0: a row of
    equal values, a repeated maximum, a row of -0.0 and a row mixing the
    signed zeros."""
    x = mixed_magnitudes(rng, 6, 3, k)
    x[0, 0] = 2.5
    x[0, 1, ::2] = x[0, 1].max()
    x[1, 0] = -0.0
    x[1, 1] = 0.0
    x[1, 2, ::2] = -0.0
    return x


def softmax_grads(rng, k):
    """Output grads over 1e-300..1e150, a row of -0.0 and a row of zeros among them."""
    g = mixed_magnitudes(rng, 6, 3, k)
    g[2, 0] = -0.0
    g[2, 1] = 0.0
    return g


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", range(1, 8))
def test_short_axis_softmax_matches_loop_oracle(k, seed):
    """Below 8 elements softmax reduces its last axis slice by slice: its
    output and its vjp equal, byte for byte, a per-row loop that takes the
    maximum, exps, and sums left to right from 0.0."""
    rng = np.random.default_rng(seed + 40 * k + 1100)
    x = Tensor(softmax_inputs(rng, k), requires_grad=True)
    y = T.softmax_lastaxis(x)
    assert y.data.tobytes() == softmax_naive(x.data).tobytes()
    g = softmax_grads(rng, k)
    y.node.vjp(g)
    assert x.grad.tobytes() == softmax_vjp_naive(y.data, g).tobytes()


@pytest.mark.parametrize("k", [8, 9, 33])
def test_long_axis_softmax_keeps_numpy_reductions(k):
    """From 8 elements up numpy sums pairwise, so softmax and its vjp keep
    numpy's reductions: byte for byte the plain expressions."""
    rng = np.random.default_rng(1200 + k)
    x = Tensor(softmax_inputs(rng, k), requires_grad=True)
    y = T.softmax_lastaxis(x)
    assert y.data.tobytes() == softmax_expr(x.data).tobytes()
    g = softmax_grads(rng, k)
    y.node.vjp(g)
    want = (g - (g * y.data).sum(axis=-1, keepdims=True)) * y.data
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [1, 4, 7, 8, 9])
def test_softmax_nonfinite_raises_on_either_path(k, bad):
    x = np.zeros((3, 2, k))
    x[1, 1, k - 1] = bad
    with pytest.raises(NumericError):
        T.softmax_lastaxis(Tensor(x))


def test_relu_vjp_keeps_no_mask():
    """relu's vjp reads its mask off its own output: grads equal g * (a > 0)
    byte for byte on NaN, +-0, +-inf and finite values, and the closure holds
    no boolean array."""
    a = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, -2.0, 3.0, 1e-300, -1e-300])
    x = Tensor(a, requires_grad=True)
    out = T.relu(x)
    held = [c.cell_contents for c in out.node.vjp.__closure__]
    assert not any(isinstance(v, np.ndarray) and v.dtype == bool for v in held)
    g = np.array([1.5, -0.0, 2.0, -3.0, 4.0, 5.0, -0.0, 7.0, 8.0])
    out.node.vjp(g)
    assert x.grad.tobytes() == (g * (a > 0.0)).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_deform_attend_no_grad_matches_grad_mode(seed):
    rng = np.random.default_rng(seed + 700)
    feats = Tensor(rnd(rng, 3, 5, 4, 6), requires_grad=True)
    offsets = Tensor(rnd(rng, 7, 2, 3, 2), requires_grad=True)
    attn = T.softmax_lastaxis(Tensor(rnd(rng, 7, 2, 3), requires_grad=True))
    qry_idx = np.concatenate([np.arange(7), np.nonzero(rng.random(7) > 0.5)[0]])
    map_idx = rng.integers(0, 3, qry_idx.size)
    base = rng.uniform(-1, 5, (qry_idx.size, 2))
    recorded = T.deform_attend(feats, map_idx, base, offsets, attn, qry_idx)
    with T.no_grad():
        plain = T.deform_attend(feats, map_idx, base, offsets, attn, qry_idx)
    assert recorded.node is not None and plain.node is None
    assert np.array_equal(recorded.data, plain.data)


class TestDeformAttendShapes:
    """deform_attend raises ShapeError, not numpy's errors, for inputs that
    break its [B,H,W,M*D] / [T,M,K,2] / [T,M,K] / [P] contract."""

    @staticmethod
    def args(**change):
        rng = np.random.default_rng(720)
        args = dict(feats=Tensor(rnd(rng, 3, 5, 4, 6)), map_idx=np.array([0, 2, 1]),
                    base_pts=rng.uniform(0, 4, (3, 2)), offsets=Tensor(rnd(rng, 4, 2, 3, 2)),
                    attn=Tensor(rnd(rng, 4, 2, 3)), qry_idx=np.array([0, 3, 3]))
        args.update(change)
        return args

    def test_valid_arguments_pass(self):
        # one [M, D] row per query: 4 queries, 2 heads of 3 channels
        assert T.deform_attend(**self.args()).shape == (4, 2, 3)
        assert T.deform_attend(**self.args(scale=np.ones(4))).shape == (4, 2, 3)

    @pytest.mark.parametrize("shape", [(2,), (3,), (4, 1)])
    def test_scale_not_t(self, shape):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(scale=np.ones(shape)))

    @pytest.mark.parametrize("shape", [(4, 2, 3), (4, 2, 3, 1), (4, 2, 3, 2, 1)])
    def test_offsets_not_tmk2(self, shape):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(offsets=Tensor(np.zeros(shape))))

    @pytest.mark.parametrize("shape", [(4, 2, 2), (4, 1, 3), (5, 2, 3), (4, 2, 3, 1)])
    def test_attn_not_tmk_of_offsets(self, shape):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(attn=Tensor(np.zeros(shape))))

    def test_value_channels_not_divisible_by_heads(self):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(feats=Tensor(np.zeros((3, 5, 4, 5)))))

    @pytest.mark.parametrize("change", [
        dict(map_idx=np.array([0, 2])),
        dict(base_pts=np.zeros((4, 2))),
        dict(base_pts=np.zeros((3, 3))),
        dict(qry_idx=np.array([0, 3, 3, 1])),
    ])
    def test_pair_arrays_disagree_in_length(self, change):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(**change))

    @pytest.mark.parametrize("map_idx", [[0, 3, 1], [0, -1, 1]])
    def test_map_idx_outside_maps(self, map_idx):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(map_idx=np.array(map_idx)))

    @pytest.mark.parametrize("qry_idx", [[0, 4, 3], [-1, 3, 3]])
    def test_qry_idx_outside_queries(self, qry_idx):
        with pytest.raises(ShapeError):
            T.deform_attend(**self.args(qry_idx=np.array(qry_idx)))

    @pytest.mark.parametrize("entry", ["deform_attend", "attend_blocks"])
    @pytest.mark.parametrize("change", [
        dict(qry_idx=[0.7, 1.2, 2.9]),
        dict(qry_idx=np.array([0.0, 3.0, 3.0])),
        dict(qry_idx=np.array([True, False, True])),
        dict(map_idx=np.array([0.0, 2.0, 1.0])),
        dict(map_idx=np.array([False, True, True])),
    ], ids=["qry_fractions", "qry_float", "qry_bool", "map_float", "map_bool"])
    def test_pair_indices_must_be_integers(self, change, entry):
        """A float index is not truncated and a bool one not read as 0 and 1."""
        args = self.args(**change)
        with pytest.raises(ShapeError, match="integers"):
            if entry == "deform_attend":
                T.deform_attend(**args)
            else:
                T.attend_blocks((3, 5, 4), *[args[n] for n in ("map_idx", "base_pts",
                                                             "offsets", "attn", "qry_idx")])

    def test_blocks_of_other_maps_are_refused(self):
        """Blocks built for maps of H x W, handed to a call on maps of W x H,
        have the call's matrix shapes but other columns, and blocks that do
        not say which maps they were built for may be either: both raise
        ContractError instead of sampling the wrong cells."""
        args = self.args()
        points = [args[n] for n in ("map_idx", "base_pts", "offsets", "attn", "qry_idx")]
        b, h, w, _ = args["feats"].shape
        own = T.attend_blocks((b, h, w), *points)
        assert T.deform_attend(**args, blocks=own).data.tobytes() == \
            T.deform_attend(**args).data.tobytes()
        swapped = T.attend_blocks((b, w, h), *points)
        assert [m.shape for m in swapped] == [m.shape for m in own]
        for blocks in (swapped, tuple(own)):
            with pytest.raises(ContractError, match="blocks"):
                T.deform_attend(**args, blocks=blocks)

    @pytest.mark.parametrize("entry", ["deform_attend", "attend_blocks"])
    def test_empty_pair_lists_pass(self, entry):
        args = self.args(map_idx=[], base_pts=np.zeros((0, 2)), qry_idx=[])
        if entry == "deform_attend":
            out = T.deform_attend(**args)
            assert out.shape == (4, 2, 3) and not np.any(out.data)
        else:
            assert T.attend_blocks((3, 5, 4), *[args[n] for n in (
                "map_idx", "base_pts", "offsets", "attn", "qry_idx")]) == ()

    @pytest.mark.parametrize("shape", [(4, 0, 3), (4, 2, 0)])
    def test_offsets_without_heads_or_points(self, shape):
        args = self.args(offsets=Tensor(np.zeros(shape + (2,))), attn=Tensor(np.zeros(shape)))
        with pytest.raises(ShapeError):
            T.deform_attend(**args)
        with pytest.raises(ShapeError):
            T.attend_blocks((3, 5, 4), *[args[n] for n in ("map_idx", "base_pts", "offsets",
                                                         "attn", "qry_idx")])


def test_no_grad_in_a_thread_leaves_other_threads_recording():
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with T.no_grad():
            entered.set()
            release.wait(timeout=10)
            x = Tensor([1.0], requires_grad=True)
            seen["node"] = T.mul(x, x).node

    th = threading.Thread(target=worker)
    th.start()
    try:
        assert entered.wait(timeout=10)
        x = Tensor([2.0], requires_grad=True)
        y = T.mul(x, x)
    finally:
        release.set()
        th.join(timeout=10)
    assert not th.is_alive()
    assert y.node is not None
    assert "node" in seen and seen["node"] is None


def test_no_grad_threads_stress():
    """More threads than cores, each alternating modes under frequent
    switches; every op must record exactly when its own thread allows."""
    errors = []

    def worker(n):
        x = Tensor([float(n)], requires_grad=True)
        for i in range(200):
            if (i + n) % 2:
                with T.no_grad():
                    ok = T.mul(x, x).node is None
            else:
                ok = T.mul(x, x).node is not None
            if not ok:
                errors.append((n, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


class TestDegenerateInputs:
    """Tensor ops raise ShapeError, not numpy's errors, for inputs with
    nothing to work on or indices outside their table, before recording
    anything."""

    @pytest.mark.parametrize("idx", [[-1, 0], [3], [0, -3], [0.0, 1.0], [True, False, True],
                                     [[0, 1]]], ids=str)
    def test_take_rows_refuses_indices_outside_the_rows(self, idx):
        # a -1 once read row 2 in forward and handed backward's sum a row of
        # -1, which wrote in front of its output buffer
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with pytest.raises(ShapeError, match="take_rows"):
            T.take_rows(a, idx)
        assert a.grad is None

    def test_take_rows_takes_no_rows(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        assert T.take_rows(a, []).shape == (0, 2)

    def test_concat_of_no_parts(self):
        with pytest.raises(ShapeError, match="concat_lastaxis"):
            T.concat_lastaxis([])

    @pytest.mark.parametrize("op", [T.softmax_lastaxis, T.log_softmax_lastaxis])
    @pytest.mark.parametrize("shape", [(0,), (3, 0), ()])
    def test_softmax_over_an_empty_last_axis(self, op, shape):
        with pytest.raises(ShapeError, match="last axis"):
            op(Tensor(np.zeros(shape), requires_grad=True))

    @pytest.mark.parametrize("shape", [(0,), (2,), (1, 2)])
    def test_item_of_other_than_one_element(self, shape):
        with pytest.raises(ShapeError, match="item"):
            Tensor(np.ones(shape)).item()

    def test_item_of_one_element(self):
        assert Tensor(np.full((1, 1), 2.5)).item() == 2.5


def copying_reshape(a: Tensor, shape) -> Tensor:
    """reshape whose vjp copies its grad into the parent, as it did before it
    handed the output grad's view on."""
    def vjp(g):
        T._accum(a, g.reshape(a.shape))

    return T._make(a.data.reshape(shape), "reshape", (a,), vjp)


def test_reshape_grad_adopts_the_view_and_keeps_the_bits(monkeypatch):
    """A parent's first grad from reshape is a view of the output grad, not a
    copy; a tensor that two reshapes and one other op read gets the grad's
    bytes that copying gives."""
    rng = np.random.default_rng(900)
    x0 = mixed_magnitudes(rng, 4, 6)
    consts = [rnd(rng, 3, 8), rnd(rng, 24), rnd(rng, 4, 6)]

    def run():
        x = Tensor(x0, requires_grad=True)
        reads = [T.reshape(x, (3, 8)), T.reshape(x, (24,)), T.sigmoid(x)]
        terms = [T.tsum(T.mul(r, Tensor(c))) for r, c in zip(reads, consts)]
        backward(T.add(T.add(terms[0], terms[1]), terms[2]))
        return x.grad

    got = run()
    monkeypatch.setattr(T, "reshape", copying_reshape)
    want = run()
    assert got.tobytes() == want.tobytes()

    monkeypatch.undo()
    x = Tensor(x0, requires_grad=True)
    out = T.reshape(x, (24,))
    g = rnd(rng, 24)
    out.node.vjp(g)
    assert np.shares_memory(x.grad, g) and x.grad.tobytes() == g.tobytes()


def test_accum_copies_a_view_of_part_of_an_array():
    """own=True adopts a whole-array view but copies a slice, whose base holds
    memory the grad must not alias."""
    base = np.arange(8.0)
    t = Tensor(np.zeros(4), requires_grad=True)
    T._accum(t, base[:4], own=True)
    assert not np.shares_memory(t.grad, base)
    u = Tensor(np.zeros((2, 4)), requires_grad=True)
    T._accum(u, base.reshape(2, 4), own=True)
    assert np.shares_memory(u.grad, base)
