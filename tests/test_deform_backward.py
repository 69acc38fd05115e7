"""The corner-dot deform_attend backward and the run-wise row scatter,
checked bit for bit against the backward_reference oracles, at op level and
through a full Detector.loss, and to rounding against the three-product
backward the corner dots replaced. Through a full Detector.loss the
references also stand in for the fused residual_layer_norm and ffn with
the add, layer norm, linear and relu ops they replaced, and the
graph-consuming backward is checked bit for bit against a walk that keeps
the graph. The corner tables forward builds block by block are checked
against the reference's whole-call tables, at every block size and at offsets
far outside any index range; backward's corner gathers, through one buffer
per call, byte for byte at every gather size."""

import itertools
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import backward_reference as ref
import bevkit.tensor as T
from bevkit.attention import DeformAttnParams, deform_attn_multi
from bevkit.dataset import generate_dataset
from bevkit.errors import ContractError
from bevkit.evaluation import CONDITIONS
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.synthscene import SceneParams
from bevkit.tensor import Tensor, backward

from helpers import source_pairs

REQUIRES = list(itertools.product((False, True), repeat=3))


def attend_case(rng, case):
    """(feats [B,H,W,C], map_idx, base_pts, offsets, attn, qry_idx) arrays."""
    b, h, w, ch, t, m, k = 3, 5, 4, 6, 7, 2, 3
    feats = rng.standard_normal((b, h, w, ch))
    offsets = rng.uniform(-1.5, 1.5, (t, m, k, 2))
    attn = rng.dirichlet(np.ones(k), (t, m))
    if case == "sources":
        # one strictly increasing run per source; query 0 visible in all,
        # the third source holding every query twice over
        runs = [np.array([0, 2, 3, 6]), np.array([0, 1, 5]), np.arange(t), np.arange(t)]
        qry_idx = np.concatenate(runs)
        map_idx = np.concatenate([np.full(r.size, s % b) for s, r in enumerate(runs)])
        base = rng.uniform(-1, 5, (qry_idx.size, 2))
    elif case == "border":
        # sample points exactly on every border, one cell beyond, and far off
        offsets[:6] = 0.0
        qry_idx = np.array([0, 1, 2, 3, 4, 5, 6, 0, 3])
        base = np.array([[0.0, 0.0], [h - 1, w - 1], [-1.0, 2.0], [h, 1.0], [2.0, -1.0],
                         [3.0, w], [-7.5, 40.0], [h - 1, 0.0], [0.0, w - 1]])
        map_idx = np.arange(qry_idx.size) % b
    elif case == "unordered":
        qry_idx = rng.integers(0, t, 12)
        map_idx = rng.integers(0, b, 12)
        base = rng.uniform(-1, 5, (12, 2))
    else:  # empty
        qry_idx = np.zeros(0, dtype=np.intp)
        map_idx = np.zeros(0, dtype=np.intp)
        base = np.zeros((0, 2))
    return feats, map_idx, base, offsets, attn, qry_idx


def attend_grads(fn, arrays, requires):
    feats, map_idx, base, offsets, attn, qry_idx = arrays
    leaves = [Tensor(a, requires_grad=r) for a, r in zip((feats, offsets, attn), requires)]
    out = fn(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    if out.node is not None:
        out.node.vjp(np.random.default_rng(41).standard_normal(out.shape))
    return out.data, [x.grad for x in leaves]


@pytest.mark.parametrize("case", ["sources", "border", "unordered", "empty"])
@pytest.mark.parametrize("requires", REQUIRES)
def test_deform_attend_matches_reference(case, requires):
    arrays = attend_case(np.random.default_rng(40), case)
    out, grads = attend_grads(T.deform_attend, arrays, requires)
    want_out, want = attend_grads(ref.deform_attend_reference, arrays, requires)
    assert np.array_equal(out, want_out)
    for r, a, b in zip(requires, grads, want):
        assert (a is None) == (b is None) == (not r or arrays[5].size == 0)
        if a is not None:
            assert np.array_equal(a, b)


def test_border_case_samples_off_map():
    # the border case above really puts points on, beyond and far off the map
    feats, map_idx, base, offsets, attn, qry_idx = attend_case(np.random.default_rng(40), "border")
    pts = base[:, None, None, :] + offsets[qry_idx]
    assert np.any(pts[..., 0] == 4.0) and np.any(pts[..., 1] == 3.0)
    assert np.any(pts < -1.0) and np.any(pts[..., 1] > 4.0)


def test_plan_index_arrays_are_int32_and_shared(monkeypatch):
    """deform_attend builds one CSR matrix, in forward and none in backward,
    and it keeps the int32 index arrays it is given instead of copying them."""
    from scipy import sparse

    built = []
    csr_matrix = sparse.csr_matrix

    def spy(arg, **kw):
        m = csr_matrix(arg, **kw)
        built.append((arg[1], arg[2], m))
        return m

    monkeypatch.setattr(sparse, "csr_matrix", spy)
    feats, map_idx, base, offsets, attn, qry_idx = attend_case(np.random.default_rng(70),
                                                                "sources")
    leaves = [Tensor(a, requires_grad=True) for a in (feats, offsets, attn)]
    out = T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    assert len(built) == 1  # the attention-scaled weights
    out.node.vjp(np.ones(out.shape))
    assert len(built) == 1 and all(x.grad is not None for x in leaves)
    for indices, indptr, m in built:
        assert indices.dtype == np.int32 and indptr.dtype == np.int32
        # scipy slices indices to nnz (a view), so share, not identity, shows no copy
        assert np.shares_memory(m.indices, indices) and m.indptr is indptr


@pytest.fixture
def plans(monkeypatch):
    """Every _BilinearPlan that deform_attend builds during the test."""
    built = []

    class Spy(T._BilinearPlan):
        __slots__ = ()

        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    monkeypatch.setattr(T, "_BilinearPlan", Spy)
    return built


@pytest.mark.parametrize("requires", REQUIRES)
@pytest.mark.parametrize("record", [True, False])
def test_plan_keeps_backward_tables_only_for_offset_or_attention_grads(requires, record, plans):
    feats, map_idx, base, offsets, attn, qry_idx = attend_case(np.random.default_rng(40),
                                                                "sources")
    leaves = [Tensor(a, requires_grad=r) for a, r in zip((feats, offsets, attn), requires)]
    if record:
        T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    else:
        with T.no_grad():
            T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    plan, = plans
    kept = record and (requires[1] or requires[2])
    assert (plan.rows is not None, plan.cols is not None) == (kept, kept)
    # nor the unscaled corner weights: under no_grad only indices and data exist
    assert (plan.weights is not None) == kept
    assert plan.indices.size == plan.data.size == 4 * qry_idx.size * np.prod(offsets.shape[1:3])


BLOCKS = [1, 3, 7, "over"]


def set_block(monkeypatch, arrays, block):
    """Set deform_attend's block, in points; "over" is one block over the call."""
    if block == "over":
        _, _, _, offsets, _, qry_idx = arrays
        block = qry_idx.size * offsets.shape[1] * offsets.shape[2] + 1  # P*M*K + 1
    monkeypatch.setattr(T, "_BLOCK", block)


GATHERS = [1, 5, "over"]


def set_gather(monkeypatch, arrays, gather):
    """Set the (pair, head) rows of each corner gather of deform_attend's
    backward; "over" is one gather over the call."""
    if gather == "over":
        _, _, _, offsets, _, qry_idx = arrays
        gather = qry_idx.size * offsets.shape[1] + 1  # P*M + 1
    monkeypatch.setattr(T, "_GATHER_ROWS", gather)


@pytest.mark.parametrize("case", ["sources", "border", "unordered", "empty"])
@pytest.mark.parametrize("gather", GATHERS)
def test_backward_blocks_change_no_bits(case, gather, monkeypatch):
    """Corner gathers of one (pair, head) row, of 5 rows (the last gather
    partial: the cases have 42, 18 and 24 rows), or one gather over the whole
    call: the bytes of the unblocked reference."""
    arrays = attend_case(np.random.default_rng(40), case)
    rows = arrays[5].size * arrays[3].shape[1]
    assert gather != 5 or rows % 5 or not rows
    set_gather(monkeypatch, arrays, gather)
    out, grads = attend_grads(T.deform_attend, arrays, (True, True, True))
    want_out, want = attend_grads(ref.deform_attend_reference, arrays, (True, True, True))
    assert out.tobytes() == want_out.tobytes()
    for a, b in zip(grads, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


def in_order_case():
    """Pairs that are the queries in order (qry_idx = arange(T)) on positive
    values; every point of query 2 lies far off the maps, and query 3's
    first head samples at the border, so some of its corners are off."""
    rng = np.random.default_rng(45)
    b, h, w, ch, t, m, k = 2, 5, 4, 6, 5, 2, 3
    feats = rng.uniform(0.5, 1.5, (b, h, w, ch))
    offsets = rng.uniform(-1.5, 1.5, (t, m, k, 2))
    offsets[2] = 40.0
    offsets[3, 0] = 0.0
    attn = rng.dirichlet(np.ones(k), (t, m))
    base = rng.uniform(0.0, 3.0, (t, 2))
    base[3] = (h - 1, w - 0.5)
    return feats, np.arange(t) % b, base, offsets, attn, np.arange(t)


@pytest.mark.parametrize("gather", GATHERS)
def test_in_order_grads_have_the_reference_bytes(gather, monkeypatch):
    """On positive values a negative output grad makes the dots of masked
    corners -0.0, and so the attention grad of a point with no corner on the
    map. Pairs that are the queries in order take no sum, yet their grads
    have the bytes of the reference's sum from +0.0: +0.0 there."""
    arrays = in_order_case()
    set_gather(monkeypatch, arrays, gather)
    feats, map_idx, base, offsets, attn, qry_idx = arrays
    g = -np.random.default_rng(46).uniform(0.5, 1.5, (qry_idx.size, 2, 3))
    grads = []
    for fn in (T.deform_attend, ref.deform_attend_reference):
        leaves = [Tensor(a, requires_grad=True) for a in (feats, offsets, attn)]
        fn(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx).node.vjp(g)
        grads.append([x.grad for x in leaves])
    (_, d_off, d_attn), (_, want_off, want_attn) = grads
    assert np.all(want_attn[2] == 0.0) and not np.any(np.signbit(want_attn[2]))
    assert d_attn.tobytes() == want_attn.tobytes()
    assert d_off.tobytes() == want_off.tobytes()


def test_backward_gathers_into_one_buffer_per_call(monkeypatch):
    """Every corner gather of a call writes into the same buffer, not into a
    fresh array."""
    arrays = attend_case(np.random.default_rng(40), "sources")
    set_gather(monkeypatch, arrays, 5)
    feats, map_idx, base, offsets, attn, qry_idx = arrays
    leaves = [Tensor(a, requires_grad=True) for a in (feats, offsets, attn)]
    out = T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    outs = []
    take = np.take

    def spy(a, indices, axis=None, out=None, mode="raise"):
        if np.shares_memory(a, leaves[0].data):
            outs.append(out)
        return take(a, indices, axis=axis, out=out, mode=mode)

    monkeypatch.setattr(np, "take", spy)
    out.node.vjp(np.ones(out.shape))
    assert len(outs) == -(-qry_idx.size * offsets.shape[1] // 5)
    assert all(o is not None and o.base is not None and o.base is outs[0].base for o in outs)


@pytest.mark.parametrize("bad", ["negative", "past_end"])
def test_backward_refuses_a_corner_index_outside_the_table(bad, plans):
    """The gathers clip, so backward checks the indices of its plan first:
    one planted outside the value table raises ContractError instead of being
    clipped to a row inside it. feats needs no grad here, so the transposed
    product would not read the planted index either, should the check go."""
    feats, map_idx, base, offsets, attn, qry_idx = attend_case(np.random.default_rng(40),
                                                                "sources")
    leaves = [Tensor(feats), Tensor(offsets, requires_grad=True),
              Tensor(attn, requires_grad=True)]
    out = T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    plan, = plans
    n_rows = feats.size // feats.shape[-1] * offsets.shape[1]  # B*H*W*M
    plan.indices[7] = -1 if bad == "negative" else n_rows
    with pytest.raises(ContractError, match="outside"):
        out.node.vjp(np.ones(out.shape))
    assert leaves[1].grad is None and leaves[2].grad is None


@pytest.mark.parametrize("case", ["sources", "border", "unordered"])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("record", [True, False])
def test_forward_blocks_change_no_bits(case, block, record, plans, monkeypatch):
    """Forward builds its tables block by block: at every block size the
    output equals the reference's bit for bit, and the plan's tables equal
    the reference's whole-call corner tables (indices, attention-scaled
    weights and, when kept for backward, the weights, masks and fractions).
    Under no_grad each block of pairs gets its own plan, taken in order."""
    arrays = attend_case(np.random.default_rng(40), case)
    set_block(monkeypatch, arrays, block)
    feats, map_idx, base, offsets, attn, qry_idx = arrays
    leaves = [Tensor(a, requires_grad=True) for a in (feats, offsets, attn)]
    if record:
        out = T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    else:
        with T.no_grad():
            out = T.deform_attend(leaves[0], map_idx, base, leaves[1], leaves[2], qry_idx)
    want, _ = attend_grads(ref.deform_attend_reference, arrays, (False, False, False))
    assert np.array_equal(out.data, want)

    b, h, w, ch = feats.shape
    _, m, k, _ = offsets.shape
    p = qry_idx.size
    if record:
        plan, = plans
    else:
        step = max(1, T._BLOCK // (m * k))  # pairs per block
        assert len(plans) == -(-p // step)
        assert all(x.indices.size <= 4 * max(T._BLOCK, m * k) for x in plans)
        plan = types.SimpleNamespace(indices=np.concatenate([x.indices for x in plans]),
                                     data=np.concatenate([x.data for x in plans]))
    pts = (base[:, None, None, :] + offsets[qry_idx]).reshape(p * m * k, 2)
    head_base = (map_idx[:, None] * (h * w * m) + np.arange(m)).repeat(k, axis=1).reshape(-1)
    idx, inside, wgt, _, _, fr, fc = ref.corner_tables((h, w), head_base, pts, m)
    assert plan.indices.dtype == np.int32 and np.array_equal(plan.indices, idx.reshape(-1))
    assert np.array_equal(plan.data, (wgt * attn[qry_idx].reshape(-1, 1)).reshape(-1))
    if record:
        assert np.array_equal(plan.weights.reshape(-1, 4), wgt)
        (rin0, rin1, plan_fr), (cin0, cin1, plan_fc) = plan.rows, plan.cols
        assert np.array_equal(plan_fr.reshape(-1), fr) and np.array_equal(plan_fc.reshape(-1), fc)
        masks = [rin0 & cin0, rin0 & cin1, rin1 & cin0, rin1 & cin1]
        assert np.array_equal(np.stack([x.reshape(-1) for x in masks], axis=-1), inside)


EXTREME = [1e12, -1e12, 2.0**31 + 0.5, -(2.0**31 + 0.5), 2.0**32 + 1.25, -(2.0**32 + 1.25)]


def extreme_case():
    """Head 0 samples at offsets far beyond any int32 or uint32 range, every
    combination of them once; head 1 samples at the base points, which lie
    exactly on every border and corner of a 5 x 4 map, one cell beyond, and
    in between."""
    rng = np.random.default_rng(43)
    b, h, w, ch, t, m, k = 3, 5, 4, 6, 12, 2, 3
    feats = rng.standard_normal((b, h, w, ch))
    attn = rng.dirichlet(np.ones(k), (t, m))
    offsets = np.zeros((t, m, k, 2))
    offsets[:, 0] = np.array(list(itertools.product(EXTREME, EXTREME))).reshape(t, k, 2)
    borders = [-1.0, 0.0, 0.5, 3.0, 3.5, 4.0, 5.0]  # rows of 5, and 3.0 and 4.0 cols of 4
    base = np.array(list(itertools.product(borders, borders)))
    qry_idx = np.arange(base.shape[0]) % t
    map_idx = np.arange(base.shape[0]) % b
    return feats, map_idx, base, offsets, attn, qry_idx


@pytest.mark.parametrize("block", [1, "over"])
def test_extreme_offsets_cast_nothing_out_of_range(block, monkeypatch):
    """Outputs and all three grads equal the reference's for offsets of
    +-1e12, +-(2**31 + 0.5) and +-(2**32 + 1.25) and points on every border,
    with every warning an error: no float outside an index range reaches a
    cast to int32 or intp."""
    arrays = extreme_case()
    set_block(monkeypatch, arrays, block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, grads = attend_grads(T.deform_attend, arrays, (True, True, True))
        want_out, want = attend_grads(ref.deform_attend_reference, arrays, (True, True, True))
    assert np.all(np.isfinite(out)) and np.any(out != 0.0)
    assert np.array_equal(out, want_out)
    for a, b in zip(grads, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_offsets_keep_indices_in_range(bad, plans):
    """A non-finite offset makes its samples non-finite, but every corner index
    still lies inside the value table. A NaN warns nowhere, as no cast sees
    it; an infinity's fraction is inf - inf, which numpy warns about."""
    feats, map_idx, base, offsets, attn, qry_idx = attend_case(np.random.default_rng(44),
                                                                "sources")
    offsets = offsets.copy()
    offsets[0, 0, 0, 0] = offsets[1, 1, 2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error" if np.isnan(bad) else "ignore")
        out = T.deform_attend(Tensor(feats), map_idx, base, Tensor(offsets), Tensor(attn),
                              qry_idx)
    plan, = plans
    n_rows = feats.size // feats.shape[-1] * offsets.shape[1]
    assert plan.indices.min() >= 0 and plan.indices.max() < n_rows
    assert not np.all(np.isfinite(out.data))


JET_RTOL = 1e-12  # of each grad's max-abs; only the summation order differs


def assert_close_to_jet(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= JET_RTOL * np.abs(want).max(initial=0.0)


@pytest.mark.parametrize("case", ["sources", "border", "unordered"])
def test_deform_attend_matches_jet_reference(case):
    arrays = attend_case(np.random.default_rng(40), case)
    out, (dfeats, doff, dattn) = attend_grads(T.deform_attend, arrays, (True, True, True))
    want_out, (wfeats, woff, wattn) = attend_grads(ref.deform_attend_jet_reference, arrays,
                                                   (True, True, True))
    # forward and the value grad take the same products in both
    assert np.array_equal(out, want_out) and np.array_equal(dfeats, wfeats)
    assert_close_to_jet(doff, woff)
    assert_close_to_jet(dattn, wattn)


@pytest.mark.parametrize("seed", range(3))
def test_deform_attn_multi_matches_reference(seed, monkeypatch):
    """Several sources, one empty, one map sampled by two, queries seen by
    many, each query's sum scaled."""
    rng = np.random.default_rng(seed + 80)
    p = DeformAttnParams("t", 2, 2, 4, rng)
    p.offset_w.tensor.data[:] = rng.uniform(-0.5, 0.5, p.offset_w.tensor.shape)
    p.offset_b.tensor.data[:] = rng.uniform(-0.5, 0.5, p.offset_b.tensor.shape)
    p.weight_w.tensor.data[:] = rng.uniform(-1, 1, p.weight_w.tensor.shape)
    t = 6
    feats = Tensor(rng.standard_normal((3, 5, 5, 4)), requires_grad=True)
    pairs = source_pairs([
        (0, rng.uniform(-1, 5, (t, 2)), rng.random(t) > 0.3),
        (1, rng.uniform(-1, 5, (t, 2)), np.zeros(t, dtype=bool)),
        (2, rng.uniform(-1, 5, (t, 2)), rng.random(t) > 0.5),
        (0, rng.uniform(-1, 5, (t, 2)), None),
    ], 3, t, rng.integers(1, 5, t) * rng.choice([1.0, 0.37], t))
    q0 = rng.standard_normal((t, 4))

    def run():
        queries = Tensor(q0, requires_grad=True)
        for x in [feats] + [q.tensor for q in p.parameters()]:
            x.zero_grad()
        out = deform_attn_multi(queries, feats, pairs, p)
        backward(T.tsum(T.mul(out, out)))
        return [out.data, queries.grad, feats.grad] + [q.tensor.grad for q in p.parameters()]

    got = run()
    ref.install(monkeypatch)
    want = run()
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    spec = BEVGridSpec(h=8, w=8, d=2)
    ds = generate_dataset(tmp_path_factory.mktemp("bitexact"), 2, 3, SceneParams(), spec,
                          lidar_shape=(8, 8), image_h=12, image_w=16, fx=6.0)
    return spec, [ds.load(i) for i in range(len(ds))]


MODEL_CONFIGS = [
    dict(fusion="cnw", query_mode="shared"),
    dict(fusion="avg", query_mode="separate"),
    dict(fusion="concat", query_mode="shared"),
    dict(fusion="cnw", query_mode="shared", normalize_by_hits=True),
]


def compare_detector_loss_grads(scenes, kw, install, same):
    """Each loss and every parameter grad of a small Detector over both scenes
    and all three sensor masks, with production ops and then with install()
    in place; same(got, want) checks each pair."""
    spec, samples = scenes
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=2, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4), **kw)
    det = Detector(cfg, spec, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for prm in det.parameters():  # move offsets and attention off their zero init
        prm.data[:] += 0.1 * rng.standard_normal(prm.data.shape)

    def run():
        bits = []
        for sample in samples:
            for mask in CONDITIONS.values():
                for prm in det.parameters():
                    prm.tensor.zero_grad()
                loss = det.loss(sample, mask)
                T.backward(loss)
                bits.append(loss.data)
                bits += [prm.tensor.grad for prm in det.parameters()]
        return bits

    got = run()
    install()
    want = run()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            same(a, b)


def assert_equal_bits(a, b):
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kw", MODEL_CONFIGS, ids=lambda kw: "-".join(map(str, kw.values())))
def test_detector_loss_grads_match_reference(scenes, kw, monkeypatch):
    compare_detector_loss_grads(scenes, kw, lambda: ref.install(monkeypatch), assert_equal_bits)


@pytest.mark.parametrize("kw", MODEL_CONFIGS, ids=lambda kw: "-".join(map(str, kw.values())))
def test_detector_loss_grads_match_jet_reference(scenes, kw, monkeypatch):
    """Every parameter grad of a full Detector.loss, under every sensor mask,
    within rounding of the three-product backward."""
    compare_detector_loss_grads(
        scenes, kw, lambda: ref.install(monkeypatch, ref.deform_attend_jet_reference),
        assert_close_to_jet)


@pytest.mark.parametrize("kw", MODEL_CONFIGS, ids=lambda kw: "-".join(map(str, kw.values())))
def test_detector_loss_grads_match_retaining_walk(scenes, kw, monkeypatch):
    """Consuming the graph changes no grad: every parameter grad of a full
    Detector.loss, under every sensor mask, equals bit for bit the grad of a
    walk that keeps every node and grad."""
    compare_detector_loss_grads(
        scenes, kw, lambda: monkeypatch.setattr(T, "backward", ref.retaining_backward),
        assert_equal_bits)


@settings(max_examples=200, deadline=None)
@given(
    n_dst=st.integers(1, 6),
    idx=st.lists(st.integers(0, 5), max_size=30),
    trailing=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(0, 2**16),
)
def test_row_sums_equal_add_at_from_zeros(n_dst, idx, trailing, seed):
    """_sum_pairs, and take_rows' grad through it, give the bytes of
    np.add.at into zeros for unordered, repeated and empty indices."""
    rng = np.random.default_rng(seed)
    idx = np.array([i % n_dst for i in idx], dtype=np.intp)
    # magnitudes over 16 decades, so any change of summation order shows
    scale = 10.0 ** rng.integers(-8, 8, idx.size)
    src = rng.standard_normal((idx.size, *trailing)) * scale.reshape(-1, *[1] * len(trailing))
    want = np.zeros((n_dst, *trailing))
    np.add.at(want, idx, src)
    # both take [P,C] rows, as deform_attend's backward flattens its grads
    width = int(np.prod(trailing))
    src, want = src.reshape(idx.size, width), want.reshape(n_dst, width)
    assert T._sum_pairs(src, idx, n_dst).tobytes() == want.tobytes()

    a = Tensor(rng.standard_normal((n_dst, width)), requires_grad=True)
    T.backward(T.tsum(T.mul(T.take_rows(a, idx), Tensor(src))))
    assert a.grad.tobytes() == want.tobytes()
