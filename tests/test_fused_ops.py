"""The fused tape ops against the compositions they replaced, byte for byte:
residual_layer_norm against an add and a layer norm, ffn against linear,
relu and linear, and deform_attend's pair weight and per-query sum against
a per-pair loop. Each fused op keeps fewer arrays for backward than its
composition, and what its vjp rebuilds instead has the bytes forward
computed; none may change an output or a grad bit."""

import numpy as np
import pytest

import backward_reference as ref
import bevkit.tensor as T
from bevkit.errors import ShapeError
from bevkit.tensor import Tensor, backward
from naive_reference import scatter_rows_naive


def signed(rng, *shape):
    """Normal draws with exact zeros and -0.0 among them."""
    x = rng.standard_normal(shape)
    x.reshape(-1)[::5] = -0.0
    x.reshape(-1)[2::7] = 0.0
    return x


def run(build, arrays, requires, g):
    """build(leaves) -> output; backpropagate sum(output * g) through the whole
    graph and return the output and every leaf's grad (None if it got none)."""
    leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    out = build(leaves)
    backward(T.tsum(T.mul(out, Tensor(g))))
    return [out.data] + [x.grad for x in leaves]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def closure_arrays(out):
    """The numpy arrays that out's vjp closure holds."""
    return [c.cell_contents for c in out.node.vjp.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


def spy_calls(monkeypatch, name):
    """Replace T.<name> with a wrapper that keeps a copy of each result."""
    results = []
    real = getattr(T, name)

    def spy(*args):
        out = real(*args)
        results.append(out.copy())
        return out

    monkeypatch.setattr(T, name, spy)
    return results


LN_REQUIRES = [(True, True, True, True), (True, False, True, False), (False, True, False, True)]


@pytest.mark.parametrize("requires", LN_REQUIRES)
@pytest.mark.parametrize("seed", range(8))
def test_residual_layer_norm_matches_add_then_layer_norm(seed, requires):
    rng = np.random.default_rng(seed + 1500)
    lead = tuple(int(n) for n in rng.integers(1, 5, rng.integers(1, 4)))
    c = int(rng.integers(3, 10))
    arrays = [signed(rng, *lead, c) * 10.0 ** rng.integers(-3, 4), signed(rng, *lead, c),
              signed(rng, c), signed(rng, c)]
    g = signed(rng, *lead, c)
    got = run(lambda ts: T.residual_layer_norm(*ts), arrays, requires, g)
    want = run(lambda ts: ref.residual_layer_norm_reference(*ts), arrays, requires, g)
    assert_same_bytes(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_residual_layer_norm_of_x_plus_x(seed):
    """x is y: the grad it gets is the op's grad twice, as add's vjp gave it."""
    rng = np.random.default_rng(seed + 1520)
    arrays = [signed(rng, 6, 5), signed(rng, 5), signed(rng, 5)]
    g = signed(rng, 6, 5)

    def fused(ts):
        return T.residual_layer_norm(ts[0], ts[0], ts[1], ts[2])

    def composed(ts):
        return ref.residual_layer_norm_reference(ts[0], ts[0], ts[1], ts[2])

    got = run(fused, arrays, (True, True, True), g)
    want = run(composed, arrays, (True, True, True), g)
    assert_same_bytes(got, want)


@pytest.mark.parametrize("x_first", [True, False])
def test_residual_layer_norm_grads_stay_apart(x_first):
    """x adopts the op's grad and y copies it, so a later grad into x never
    shows in y's: x also feeds a second term, whose vjp runs before or after
    the op's."""
    rng = np.random.default_rng(1530)
    arrays = [signed(rng, 4, 5), signed(rng, 4, 5), signed(rng, 5), signed(rng, 5)]
    g, c = signed(rng, 4, 5), signed(rng, 4, 5)

    def grads(norm):
        x, y, gain, shift = (Tensor(a, requires_grad=True) for a in arrays)
        terms = [T.tsum(T.mul(x, Tensor(c))), T.tsum(T.mul(norm(x, y, gain, shift), Tensor(g)))]
        backward(T.add(*(terms if x_first else terms[::-1])))
        return x.grad, y.grad

    (gx, gy), want = grads(T.residual_layer_norm), grads(ref.residual_layer_norm_reference)
    assert not np.shares_memory(gx, gy)
    assert_same_bytes([gx, gy], list(want))


def test_residual_layer_norm_keeps_only_row_statistics():
    """Backward holds the per-row mean and inverse deviation [..., 1] only,
    not the normalized sum, which it rebuilds from x and y."""
    rng = np.random.default_rng(1540)
    x, y = (Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True) for _ in range(2))
    out = T.residual_layer_norm(x, y, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert sorted(a.shape for a in closure_arrays(out)) == [(2, 3, 1), (2, 3, 1)]


def test_residual_layer_norm_rebuilds_forwards_xhat(monkeypatch):
    """The normalized sum backward rebuilds has the bytes of forward's, on
    rows holding a NaN, +-0 only, +-inf and finite values. With gain 1 and
    shift -0.0 the output is forward's normalized sum itself: x * 1.0 and
    x + -0.0 are x for every x."""
    rng = np.random.default_rng(1550)
    x = signed(rng, 6, 5) * 1e3
    y = signed(rng, 6, 5)
    x[0, 2] = np.nan
    x[1], y[1] = [0.0, -0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0, -0.0]
    x[2, 1], y[2, 3] = np.inf, -np.inf
    x[3, 4] = np.inf
    x[4, 0] = -np.inf
    rebuilt = spy_calls(monkeypatch, "_normalized_sum")
    with np.errstate(invalid="ignore"):  # inf - inf in the rows that hold them
        out = T.residual_layer_norm(Tensor(x, requires_grad=True), Tensor(y), Tensor(np.ones(5)),
                                    Tensor(np.full(5, -0.0)))
        out.node.vjp(np.ones(out.shape))
    xhat, = rebuilt
    assert np.isnan(xhat[0]).all() and np.signbit(xhat[1]).any() and np.isnan(xhat[2:5]).all()
    assert xhat.tobytes() == out.data.tobytes()


def test_residual_layer_norm_rejects_mismatched_shapes():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        T.residual_layer_norm(x, Tensor(np.zeros((1, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.residual_layer_norm(x, x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


FFN_REQUIRES = [(True,) * 5, (False, True, True, True, True), (True, False, False, True, False)]


def ffn_arrays(rng):
    """x [...,I] with a dead row (every hidden unit of row 0 at or below
    zero, one of them exactly zero) and -0.0 entries, and the four weights."""
    lead = tuple(int(n) for n in rng.integers(1, 5, rng.integers(1, 3)))
    i, hid, o = (int(n) for n in rng.integers(1, 7, 3))
    x = signed(rng, *lead, i)
    w1, b1 = signed(rng, i, hid), rng.standard_normal(hid)
    x.reshape(-1, i)[0] = 0.0
    b1[:] = -np.abs(b1)
    b1[0] = 0.0
    return [x, w1, b1, signed(rng, hid, o), signed(rng, o)]


@pytest.mark.parametrize("requires", FFN_REQUIRES)
@pytest.mark.parametrize("seed", range(8))
def test_ffn_matches_linear_relu_linear(seed, requires):
    rng = np.random.default_rng(seed + 1600)
    arrays = ffn_arrays(rng)
    pre = arrays[0].reshape(-1, arrays[1].shape[0]) @ arrays[1] + arrays[2]
    assert np.all(pre[0] <= 0.0)  # the dead row
    g = signed(rng, *arrays[0].shape[:-1], arrays[3].shape[1])
    got = run(lambda ts: T.ffn(*ts), arrays, requires, g)
    want = run(lambda ts: ref.ffn_reference(*ts), arrays, requires, g)
    assert_same_bytes(got, want)


def test_ffn_keeps_only_the_input_view():
    """Backward holds x's [rows, I] view only: no pre-activation and no
    hidden, which it rebuilds."""
    rng = np.random.default_rng(1650)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    w1, b1 = Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal(8))
    out = T.ffn(x, w1, b1, Tensor(rng.standard_normal((8, 2))), Tensor(np.zeros(2)))
    arrays = closure_arrays(out)
    assert len(arrays) == 1 and np.shares_memory(arrays[0], x.data)


@pytest.mark.parametrize("seed", range(3))
def test_ffn_rebuilds_forwards_hidden(seed, monkeypatch):
    """The post-relu hidden that backward rebuilds has the bytes of the one
    forward multiplied out, a dead row and -0.0 entries included."""
    arrays = ffn_arrays(np.random.default_rng(seed + 1660))
    hidden = spy_calls(monkeypatch, "_ffn_hidden")
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = T.ffn(*leaves)
    out.node.vjp(np.ones(out.shape))
    fwd, bwd = hidden
    assert np.all(fwd[0] == 0.0)  # the dead row
    assert fwd.tobytes() == bwd.tobytes()


def test_ffn_rejects_mismatched_shapes():
    x = Tensor(np.zeros((3, 4)))
    w1, b1, w2, b2 = (Tensor(np.zeros(s)) for s in [(4, 6), (6,), (6, 2), (2,)])
    for args in [(x, w1, Tensor(np.zeros(5)), w2, b2), (x, w1, b1, Tensor(np.zeros((5, 2))), b2),
                 (x, w1, b1, w2, Tensor(np.zeros(3))), (Tensor(np.zeros((3, 5))), w1, b1, w2, b2)]:
        with pytest.raises(ShapeError):
            T.ffn(*args)


def scaled_case(rng, name):
    """(feats, map_idx, base, offsets, attn, qry_idx, scale) for T = 7 queries."""
    b, h, w, m, k, t = 3, 5, 4, 2, 3, 7
    feats = signed(rng, b, h, w, m * 2)
    offsets = rng.uniform(-1.5, 1.5, (t, m, k, 2))
    attn = rng.dirichlet(np.ones(k), (t, m))
    if name == "unordered_repeats":
        qry_idx = rng.integers(0, t, 20)
    elif name == "queries_without_pairs":
        qry_idx = rng.choice([0, 3, 5], 12)  # queries 1, 2, 4 and 6 get nothing
    else:  # in_order: pair p is query p, no sum taken
        qry_idx = np.arange(t)
    p = qry_idx.size
    scale = rng.integers(1, 5, t).astype(np.float64) * rng.choice([1.0, 0.37], t)
    return feats, rng.integers(0, b, p), rng.uniform(-1, 5, (p, 2)), offsets, attn, qry_idx, scale


@pytest.mark.parametrize("name", ["unordered_repeats", "queries_without_pairs", "in_order"])
@pytest.mark.parametrize("seed", range(3))
def test_deform_attend_scale_matches_per_pair_loop(seed, name):
    """The pairs' attended rows, summed per query by a per-pair loop from
    zeros, times the query's scale, are the output byte for byte; every grad
    equals the reference's (g times the scale, gathered at qry_idx, np.add.at
    scatters) byte for byte."""
    rng = np.random.default_rng(seed + 1700)
    feats, map_idx, base, offsets, attn, qry_idx, scale = scaled_case(rng, name)
    t, m = offsets.shape[:2]
    rows, _, _ = ref.pair_rows(Tensor(feats), map_idx, base, Tensor(offsets), Tensor(attn),
                               qry_idx)
    p, d = qry_idx.size, feats.shape[-1] // m
    want_out = scatter_rows_naive(rows.reshape(p, m * d), qry_idx, t) * scale[:, None]
    g = signed(rng, t, m, d)
    grads = []
    for attend in (T.deform_attend, ref.deform_attend_reference):
        leaves = [Tensor(a, requires_grad=True) for a in (feats, offsets, attn)]
        out = attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx, scale)
        out.node.vjp(g)
        grads.append([out.data] + [x.grad for x in leaves])
    assert grads[0][0].tobytes() == want_out.reshape(t, m, d).tobytes()
    assert_same_bytes(grads[0], grads[1])


@pytest.mark.parametrize("name", ["unordered_repeats", "in_order"])
def test_deform_attend_scale_under_no_grad(name):
    rng = np.random.default_rng(1750)
    feats, map_idx, base, offsets, attn, qry_idx, scale = scaled_case(rng, name)
    args = (Tensor(feats, requires_grad=True), map_idx, base, Tensor(offsets), Tensor(attn),
            qry_idx, scale)
    recorded = T.deform_attend(*args)
    with T.no_grad():
        plain = T.deform_attend(*args)
    assert plain.node is None and recorded.data.tobytes() == plain.data.tobytes()


def test_conv_keeps_no_array_of_its_own():
    """conv2d_3x3's backward rebuilds the padded input, and each tap's slice
    from it, instead of holding it or nine [B*H*W, Ci] copies."""
    rng = np.random.default_rng(1800)
    x = Tensor(rng.standard_normal((2, 4, 5, 3)), requires_grad=True)
    out = T.conv2d_3x3(x, Tensor(rng.standard_normal((3, 3, 3, 2)), requires_grad=True),
                       Tensor(np.zeros(2)))
    assert closure_arrays(out) == []


@pytest.mark.parametrize("kernel_grad", [True, False])
@pytest.mark.parametrize("b", [1, 4])
def test_conv_rebuilds_forwards_padded_input(b, kernel_grad, monkeypatch):
    """The padded input backward rebuilds for the kernel's grad has the bytes
    of forward's; with no kernel grad wanted, backward pads nothing."""
    rng = np.random.default_rng(1810 + b)
    x = Tensor(signed(rng, b, 4, 5, 3), requires_grad=True)
    padded = spy_calls(monkeypatch, "_pad1")
    out = T.conv2d_3x3(x, Tensor(signed(rng, 3, 3, 3, 2), requires_grad=kernel_grad),
                       Tensor(signed(rng, 2)))
    out.node.vjp(signed(rng, *out.shape))
    assert len(padded) == (2 if kernel_grad else 1) and x.grad is not None
    assert padded[0].shape == (b, 6, 7, 3)
    assert padded[-1].tobytes() == padded[0].tobytes()
