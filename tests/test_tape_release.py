"""backward consumes the graph it walks: once a node's vjp has run, the node,
its closure and its tensor's grad are released, leaves keep their grads, and
a second walk through any part of a consumed graph raises ContractError."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.dataset import generate_dataset
from bevkit.errors import ContractError
from bevkit.fusion import ModalityMask
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.synthscene import SceneParams
from bevkit.tensor import Tensor, backward

BOTH = ModalityMask(True, True)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    spec = BEVGridSpec(h=8, w=8, d=2)
    ds = generate_dataset(tmp_path_factory.mktemp("tape"), 1, 3, SceneParams(), spec,
                          lidar_shape=(8, 8), image_h=12, image_w=16, fx=6.0)
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=2, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, spec, np.random.default_rng(5))
    return det, ds.load(0)


def fresh_loss(setup):
    det, sample = setup
    for prm in det.parameters():
        prm.tensor.zero_grad()
    return det.loss(sample, BOTH)


def graph(loss, constants=False):
    """Every tensor reachable from loss that requires grad, and with
    constants=True every constant too."""
    seen, stack, out = {id(loss)}, [loss], []
    while stack:
        t = stack.pop()
        out.append(t)
        for p in t.node.parents if t.node is not None else ():
            if (constants or p.requires_grad) and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return out


def deform_attend_refs(loss):
    """Weak references to the arrays each deform_attend closure captured for
    its own use: per block of pairs, its plan's corner (0,0) indices and per
    axis the in-range masks and the fraction. The closure keeps no matrix,
    values, corner weights, other corners' indices or gathered attention:
    backward rebuilds them from these."""
    refs = []
    for t in graph(loss):
        if t.node is not None and t.node.op == "deform_attend":
            vjp = t.node.vjp
            cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
            plans = cells["plans"].cell_contents
            assert plans and "s_attn" not in cells and "attnp" not in cells
            for plan in plans:
                assert not hasattr(plan, "data") and plan.indices.size == plan.rows[0].size
                refs += [weakref.ref(a) for a in (plan.indices, *plan.rows, *plan.cols)]
    return refs


def test_closures_die_while_loss_is_held(setup):
    loss = fresh_loss(setup)
    refs = deform_attend_refs(loss)
    assert refs and all(r() is not None for r in refs)
    gc.disable()  # reference counting alone must release them
    try:
        backward(loss)
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
    assert loss.node is T._CONSUMED and np.isfinite(loss.item())


def test_only_leaves_keep_grads(setup):
    loss = fresh_loss(setup)
    tensors = graph(loss)
    inner = [t for t in tensors if t.node is not None]
    leaves = [t for t in tensors if t.node is None]
    assert inner and leaves
    backward(loss)
    assert all(t.grad is None and t.node is T._CONSUMED for t in inner)
    assert all(t.grad is not None and t.node is None for t in leaves)


def test_backward_peak_is_a_fraction_of_the_tape(setup):
    """Without release, every intermediate grad is live at the end of the
    walk and the peak rise exceeds the tape's own bytes."""
    tracemalloc.start()
    try:
        loss = fresh_loss(setup)
        tape = sum(t.data.nbytes for t in graph(loss, constants=True))
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < tape / 2


def test_second_backward_raises_before_any_grad_changes(setup):
    det, _ = setup
    loss = fresh_loss(setup)
    backward(loss)
    grads = [prm.tensor.grad.copy() for prm in det.parameters()]
    with pytest.raises(ContractError, match="consumed"):
        backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        loss.backward()
    for prm, g in zip(det.parameters(), grads):
        assert np.array_equal(prm.tensor.grad, g)


def test_graph_through_a_consumed_intermediate_raises():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = T.mul(x, x)
    backward(T.tsum(y))
    assert np.array_equal(x.grad, 2.0 * x.data)
    fresh = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError, match="consumed"):
        backward(T.tsum(T.mul(y, fresh)))
    assert fresh.grad is None and np.array_equal(x.grad, 2.0 * x.data)
    # a detached copy starts a graph of its own
    backward(T.tsum(T.mul(Tensor(y.data), fresh)))
    assert np.array_equal(fresh.grad, y.data)


def test_leaf_loss_keeps_its_grad():
    loss = Tensor(np.array(2.0), requires_grad=True)
    backward(loss)
    backward(loss)
    assert loss.grad == 2.0 and loss.node is None


# ---------------------------------------------------------------------------
# what a default-config train step records


@pytest.fixture(scope="module")
def default_setup(tmp_path_factory):
    """The default ModelConfig on the default 32 x 32 x 4 grid, and one scene
    (seed 0) seen by the default 4-camera rig."""
    spec = BEVGridSpec()
    ds = generate_dataset(tmp_path_factory.mktemp("default"), 1, 0, SceneParams(), spec)
    det = Detector(ModelConfig(), spec, np.random.default_rng(0))
    return det, ds.load(0)


# Data bytes of every tensor reachable from the both-sensor loss of
# default_setup, nodes and leaves, measured at 47,261,896 with each residual
# add and layer norm in one residual_layer_norm node, each relu MLP in one
# ffn node, each per-query sum inside deform_attend, the camera views' maps
# as one [V,H,W,C] tensor from the backbone on (no stacked copy) and one
# value weight per attention block (no concatenated copy). The bound is that
# value plus 2%: a change that puts intermediates back on the tape fails it.
TAPE_BYTES_BOUND = 48_207_134


def test_default_tape_bytes_stay_bounded(default_setup):
    det, sample = default_setup
    loss = det.loss(sample, BOTH)
    assert sum(t.data.nbytes for t in graph(loss, constants=True)) <= TAPE_BYTES_BOUND


# Bytes that tracemalloc sees held after the both-sensor forward of
# default_setup (its memo warm): tensors' data and everything closures keep,
# which TAPE_BYTES_BOUND does not count. Measured at 33,076,870 with each
# residual_layer_norm keeping its row statistics, each ffn x's view, each
# conv2d_3x3 nothing of its own and each deform_attend its corner (0,0)
# indices, masks and fractions (47,010,590 when they also kept the normalized
# sums, the FFN hiddens, the padded inputs and the other corners' indices).
# The bound is that value plus 2%.
HELD_BYTES_BOUND = 33_738_407

# Peak bytes above those held after that forward while backward walks its
# tape: the grads in flight and what the vjps rebuild. Measured at 1,842,272
# with deform_attend's backward working one block of (pair, head) rows at a
# time (5,627,436 when it built its corner weights, corner dots and point
# grads for the whole call at once; 3,362,576 when forward kept what the vjps
# now rebuild, at 13.9 MB more held through the step). The bound is that
# value plus 2%: a vjp that rebuilds a whole-tape array, keeps its rebuild
# past its own return, or builds a per-point table of a whole call that one
# block's would do, fails it.
BACKWARD_RISE_BOUND = 1_879_117


def held_and_peak_rise(forward, walk):
    """Bytes that tracemalloc sees held once forward() has returned, and the
    peak rise above them while walk(what forward returned) runs."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = forward()
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        walk(out)
        rise = tracemalloc.get_traced_memory()[1] - before - held
    finally:
        tracemalloc.stop()
    return held, rise


def held_and_backward_rise(default_setup):
    """Bytes held after the both-sensor forward (the memo warm), and the
    peak rise above them while backward consumes its tape."""
    det, sample = default_setup
    det.loss(sample, BOTH)  # fills the detector's memo, which outlives the step
    try:
        return held_and_peak_rise(lambda: det.loss(sample, BOTH), backward)
    finally:
        for prm in det.parameters():
            prm.tensor.zero_grad()


def test_default_forward_holds_bounded_bytes(default_setup):
    held, _ = held_and_backward_rise(default_setup)
    assert held <= HELD_BYTES_BOUND


def test_default_backward_peak_rise_stays_bounded(default_setup):
    _, rise = held_and_backward_rise(default_setup)
    assert rise <= BACKWARD_RISE_BOUND


def test_deform_attend_backward_rises_by_one_block_over_its_call_arrays():
    """One recorded deform_attend of the default camera encoder's size (4
    views of 24 x 32 cells, 2 heads of 16 channels, 4 points, 5008 pairs of
    1024 queries): its backward's peak rise is the arrays that span the call
    plus one block's worth. Those arrays are the rebuilt corner indices
    (int32) and attention-scaled values that the value grad's CSR matrix
    reads, each pair's row of the output grad, and the points' attention and
    offset grads before their sum per query. One block's worth is the
    gather buffer and eight [block rows, 4K] float arrays (corner weights,
    corner dots and point-grad temporaries): a backward that builds any of
    them for the whole call, about 1.3 MB each here, fails."""
    rng = np.random.default_rng(12)
    b, h, w, m, hd, t, k, p = 4, 24, 32, 2, 16, 1024, 4, 5008
    leaves = [Tensor(rng.standard_normal((b, h, w, m * hd)), requires_grad=True),
              Tensor(rng.uniform(-2.0, 2.0, (t, m, k, 2)), requires_grad=True),
              Tensor(rng.dirichlet(np.ones(k), (t, m)), requires_grad=True)]
    map_idx = np.sort(rng.integers(0, b, p))
    qry_idx = rng.integers(0, t, p)
    base = rng.uniform(-1.0, [h, w], (p, 2))
    g = rng.standard_normal((t, m, hd))

    def forward():
        return T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx,
                               np.ones(leaves[1].shape[0]))

    forward()  # imports what the first call imports
    _, rise = held_and_peak_rise(forward, lambda out: out.node.vjp(g))
    rows = p * m
    spans = rows * 4 * k * (4 + 8) + rows * hd * 8 + rows * k * (8 + 2 * 8)
    block_rows = max(1, T._BLOCK // (m * k)) * m  # pairs per block, times M
    one_block = T._GATHER_ROWS * 4 * k * hd * 8 + 8 * block_rows * 4 * k * 8
    assert rise <= spans + one_block


def test_default_tape_stacks_no_maps_and_concatenates_no_weights(default_setup):
    """The both-sensor tape holds no stack node, and its 2 concat nodes are
    set_loss's boxes6 and the CNW weights', none an attention block's value
    weight or a box field."""
    det, sample = default_setup
    ops = [t.node.op for t in graph(det.loss(sample, BOTH)) if t.node is not None]
    assert "stack" not in ops
    assert ops.count("concat") == 2


def reachable(roots, stop=frozenset()):
    """Every tensor reachable from roots through graph nodes, not passing
    through the ids in stop."""
    seen, stack, out = set(stop), list(roots), []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        out.append(t)
        stack.extend(t.node.parents if t.node is not None else ())
    return out


@pytest.mark.parametrize("normalize_by_hits", [False, True])
def test_default_encoder_layers_record_no_unfused_ops(default_setup, monkeypatch,
                                                      normalize_by_hits):
    """Every encoder layer of both sensors records its residual adds and
    norms as residual_layer_norm nodes, its FFN as one ffn node, and its
    attention sums and scales inside deform_attend: no add, layer_norm, relu,
    mul or scatter_rows node, with or without normalize_by_hits."""
    import bevkit.encoders as encoders

    det, sample = default_setup
    if normalize_by_hits:
        det = Detector(ModelConfig(normalize_by_hits=True), det.spec, np.random.default_rng(0))
    real_query, real_map = encoders.query_half, encoders.map_half
    layer_tokens, layer_ops = [], []

    def query_spy(tokens, *args):
        layer_tokens.append(tokens)
        return real_query(tokens, *args)

    def map_spy(x1, sampling, maps, pairs, params):
        before = {id(t) for t in reachable([layer_tokens[-1], maps])}
        out = real_map(x1, sampling, maps, pairs, params)
        ops = {}
        for t in reachable([out], before):
            if t.node is not None:
                ops[t.node.op] = ops.get(t.node.op, 0) + 1
        layer_ops.append(ops)
        return out

    monkeypatch.setattr(encoders, "query_half", query_spy)
    monkeypatch.setattr(encoders, "map_half", map_spy)
    det.loss(sample, BOTH)
    assert len(layer_ops) == len(layer_tokens) == 2 * det.cfg.enc_layers
    for ops in layer_ops:
        assert ops["deform_attend"] == 2
        assert ops["residual_layer_norm"] == 3 and ops["ffn"] == 1
        assert not {"add", "layer_norm", "relu", "mul", "scatter_rows", "stack",
                    "concat"} & set(ops)
