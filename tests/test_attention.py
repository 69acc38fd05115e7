"""deform_attn_multi vs the naive loop oracle, the Pairs contract, plus
encoder layer tests."""

import numpy as np
import pytest

import bevkit.tensor as T
import bevkit.attention as attention
from bevkit.attention import (
    DeformAttnParams,
    EncoderLayerParams,
    Pairs,
    deform_attn_multi,
)
from bevkit.errors import ContractError, ShapeError
from bevkit.tensor import Tensor, backward

import backward_reference as ref
from helpers import check_grads, encoder_layer, grid_pairs, source_pairs
from naive_reference import bilinear_scalar, deform_attn_naive, scatter_rows_naive


def make_params(rng, heads=2, points=2, channels=4, randomize=True):
    p = DeformAttnParams("t", heads, points, channels, rng)
    if randomize:
        # exercise nontrivial offsets and weights
        p.offset_w.tensor.data[:] = rng.uniform(-0.5, 0.5, p.offset_w.tensor.shape)
        p.offset_b.tensor.data[:] = rng.uniform(-0.5, 0.5, p.offset_b.tensor.shape)
        p.weight_w.tensor.data[:] = rng.uniform(-1, 1, p.weight_w.tensor.shape)
        p.weight_b.tensor.data[:] = rng.uniform(-1, 1, p.weight_b.tensor.shape)
    return p


def run_naive(queries, refs, feat, p, valid=None):
    return deform_attn_naive(
        queries, refs, feat,
        p.offset_w.tensor.data, p.offset_b.tensor.data,
        p.weight_w.tensor.data, p.weight_b.tensor.data,
        np.hsplit(p.value_w.tensor.data, p.heads), p.out_w.tensor.data,
        valid=valid,
    )


def single(queries, refs, feat, p, valid=None):
    """deform_attn_multi over one map feat [H,W,C], one pair per valid query."""
    return deform_attn_multi(queries, T.reshape(feat, (1, *feat.shape)),
                             source_pairs([(0, refs, valid)], 1, len(refs)), p)


class TestDeformAttn:
    def test_degenerate_is_plain_sampling(self):
        rng = np.random.default_rng(0)
        p = DeformAttnParams("t", heads=1, points=1, channels=3, rng=rng)
        p.value_w.tensor.data[:] = np.eye(3)
        p.out_w.tensor.data[:] = np.eye(3)
        feat = rng.standard_normal((5, 5, 3))
        refs = rng.uniform(0, 4, (7, 2))
        out = single(Tensor(rng.standard_normal((7, 3))), refs, Tensor(feat), p)
        expected = [bilinear_scalar(feat, r, c) for r, c in refs]
        assert np.array_equal(out.data, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed + 40)
        p = make_params(rng)
        queries = rng.standard_normal((3, 4))
        refs = rng.uniform(-1, 5, (3, 2))
        feat = rng.standard_normal((4, 4, 4))
        out = single(Tensor(queries), refs, Tensor(feat), p)
        ref = run_naive(queries, refs, feat, p)
        assert np.max(np.abs(out.data - ref)) < 1e-10

    def test_all_invalid_gives_zero(self):
        rng = np.random.default_rng(1)
        p = make_params(rng)
        out = single(Tensor(rng.standard_normal((3, 4))), rng.uniform(0, 3, (3, 2)),
                     Tensor(rng.standard_normal((4, 4, 4))), p, valid=np.zeros(3, dtype=bool))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_partial_valid_matches_naive(self):
        rng = np.random.default_rng(2)
        p = make_params(rng)
        queries = rng.standard_normal((5, 4))
        refs = rng.uniform(0, 3, (5, 2))
        feat = rng.standard_normal((4, 4, 4))
        valid = np.array([True, False, True, True, False])
        out = single(Tensor(queries), refs, Tensor(feat), p, valid=valid)
        assert np.max(np.abs(out.data - run_naive(queries, refs, feat, p, valid))) < 1e-10

    def test_head_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        p = make_params(rng)
        from bevkit.attention import _query_offsets_weights
        _, attn = _query_offsets_weights(Tensor(rng.standard_normal((6, 4))), p)
        assert np.all(attn.data > 0)
        assert np.all(np.abs(attn.data.sum(axis=-1) - 1.0) < 1e-6)

    def test_value_width_mismatch(self):
        rng = np.random.default_rng(4)
        p = make_params(rng)
        with pytest.raises(ShapeError):
            single(Tensor(rng.standard_normal((3, 4))), rng.uniform(0, 3, (3, 2)),
                   Tensor(rng.standard_normal((4, 4, 5))), p)

    def test_value_width_mismatch_without_visible_pairs(self):
        rng = np.random.default_rng(4)
        p = make_params(rng)
        with pytest.raises(ShapeError):
            single(Tensor(rng.standard_normal((3, 4))), rng.uniform(0, 3, (3, 2)),
                   Tensor(rng.standard_normal((4, 4, 5))), p, valid=np.zeros(3, dtype=bool))

    def test_bad_ref_arity(self):
        rng = np.random.default_rng(5)
        p = make_params(rng)
        with pytest.raises(ShapeError):
            single(Tensor(rng.standard_normal((3, 4))), rng.uniform(0, 3, (3, 3)),
                   Tensor(rng.standard_normal((4, 4, 4))), p)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_equals_sum_of_singles(self, seed):
        rng = np.random.default_rng(seed + 60)
        p = make_params(rng)
        queries = rng.standard_normal((4, 4))
        maps, sources = [], []
        singles = np.zeros((4, 4))
        for i in range(3):
            feat = rng.standard_normal((5, 5, 4))
            refs = rng.uniform(-1, 5, (4, 2))
            valid = rng.random(4) > 0.3
            maps.append(feat)
            sources.append((i, refs, valid))
            singles += run_naive(queries, refs, feat, p, valid)
        multi = deform_attn_multi(Tensor(queries), Tensor(np.stack(maps)),
                                  source_pairs(sources, 3, 4), p)
        assert np.max(np.abs(multi.data - singles)) < 1e-10

    def test_duplicated_source_doubles(self):
        rng = np.random.default_rng(7)
        p = make_params(rng)
        queries = Tensor(rng.standard_normal((4, 4)))
        feat = Tensor(rng.standard_normal((1, 5, 5, 4)))
        refs = rng.uniform(0, 4, (4, 2))
        valid = np.ones(4, dtype=bool)
        one = deform_attn_multi(queries, feat, source_pairs([(0, refs, valid)], 1, 4), p)
        two = deform_attn_multi(queries, feat, source_pairs([(0, refs, valid)] * 2, 1, 4), p)
        assert np.array_equal(two.data, 2.0 * one.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_fd_gradients(self, seed):
        """Over two maps [2,H,W,C]: each query samples both, one with a
        visibility mask."""
        rng = np.random.default_rng(seed + 80)
        p = make_params(rng, heads=2, points=2, channels=4)
        feat0 = rng.standard_normal((2, 4, 4, 4))
        queries0 = rng.standard_normal((3, 4)) * 0.3
        pairs = source_pairs(
            [(0, rng.integers(0, 3, (3, 2)) + rng.uniform(0.25, 0.75, (3, 2)), None),
             (1, rng.integers(0, 3, (3, 2)) + rng.uniform(0.25, 0.75, (3, 2)),
              np.array([True, False, True]))], 2, 3)

        leaves = [queries0, feat0,
                  p.offset_w.tensor.data.copy(), p.weight_w.tensor.data.copy(),
                  p.value_w.tensor.data.copy(), p.out_w.tensor.data.copy()]

        def build(ts):
            q, f, ow, ww, vw, outw = ts
            p.offset_w.tensor = ow
            p.weight_w.tensor = ww
            p.value_w.tensor = vw
            p.out_w.tensor = outw
            p.offset_b.tensor = Tensor(p.offset_b.tensor.data)
            out = deform_attn_multi(q, f, pairs, p)
            return T.tsum(T.sigmoid(out))

        check_grads(build, leaves)


class TestValueProjectionBeforeSampling:
    """deform_attn_multi projects each map before sampling; the
    naive oracle samples first and projects after. Both orders are equal in
    real arithmetic and round differently, so they agree to 1e-12."""

    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sample_then_project(self, heads, seed):
        rng = np.random.default_rng(seed + 500)
        p = make_params(rng, heads=heads, points=3, channels=8)
        # distinct per head, and away from the init draw
        p.value_w.tensor.data[:] = rng.standard_normal(p.value_w.tensor.shape)
        head0, head1 = np.hsplit(p.value_w.tensor.data, heads)[:2]
        assert not np.allclose(head0, head1)
        t = 7
        queries = rng.standard_normal((t, 8))
        shared = rng.standard_normal((5, 6, 8))
        other = rng.standard_normal((5, 6, 8))
        # one map sampled by three sources with different refs and visibilities,
        # each query's sum scaled by its own scale
        sources = [
            (0, rng.uniform(-1, 6, (t, 2)), rng.random(t) > 0.3),
            (1, rng.uniform(-1, 6, (t, 2)), rng.random(t) > 0.4),
            (0, rng.uniform(-1, 6, (t, 2)), None),
            (0, rng.uniform(-1, 6, (t, 2)), rng.random(t) > 0.6),
        ]
        scale = rng.uniform(0.2, 3.0, t)
        want = np.zeros((t, 8))
        for m, refs, valid in sources:
            want += run_naive(queries, refs, [shared, other][m], p, valid)
        got = deform_attn_multi(Tensor(queries), Tensor(np.stack([shared, other])),
                                source_pairs(sources, 2, t, scale), p)
        want *= scale[:, None]
        np.testing.assert_allclose(got.data, want, rtol=1e-12)


def sum_pairs_add_at(rows, idx, n_out):
    """Reference per-query sum: one np.add.at over every pair."""
    out = np.zeros((n_out, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


class TestScatterRows:
    """The per-query sum of deform_attend's pair rows, ``T._sum_pairs``, and
    its vjp, the gather of each pair's query row of the output grad."""

    @staticmethod
    def source_indices(rng, t, n_sources):
        """Concatenated per-source query indices as camera_pairs builds
        them: each strictly increasing, sets overlapping, one source empty."""
        parts = [np.nonzero(rng.random(t) > 0.4)[0] for _ in range(n_sources)]
        parts[1] = np.zeros(0, dtype=np.intp)
        parts.append(np.arange(t))
        return np.concatenate(parts)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_add_at(self, seed):
        rng = np.random.default_rng(seed + 300)
        t = 9
        idx = self.source_indices(rng, t, 4)
        rows = rng.standard_normal((idx.size, 6))
        out = T._sum_pairs(rows, idx, t)
        assert np.array_equal(out, sum_pairs_add_at(rows, idx, t))

    def test_unordered_repeats_match_add_at(self):
        rng = np.random.default_rng(310)
        idx = rng.integers(0, 5, 40)
        rows = rng.standard_normal((40, 3))
        out = T._sum_pairs(rows, idx, 5)
        assert np.array_equal(out, sum_pairs_add_at(rows, idx, 5))

    @pytest.mark.parametrize("seed", range(3))
    def test_deform_attn_multi_bitexact_vs_add_at(self, seed, monkeypatch):
        rng = np.random.default_rng(seed + 320)
        p = make_params(rng)
        t = 6
        feats = Tensor(rng.standard_normal((3, 5, 5, 4)), requires_grad=True)
        pairs = source_pairs([
            (0, rng.uniform(-1, 5, (t, 2)), rng.random(t) > 0.3),
            (1, rng.uniform(-1, 5, (t, 2)), np.zeros(t, dtype=bool)),
            (2, rng.uniform(-1, 5, (t, 2)), rng.random(t) > 0.5),
            (0, rng.uniform(-1, 5, (t, 2)), None),
        ], 3, t, rng.uniform(0.5, 4.0, t))
        q0 = rng.standard_normal((t, 4))

        def run():
            queries = Tensor(q0, requires_grad=True)
            feats.zero_grad()
            out = deform_attn_multi(queries, feats, pairs, p)
            backward(T.tsum(T.mul(out, out)))
            return [out.data, queries.grad, feats.grad]

        got = run()
        monkeypatch.setattr(T, "_sum_pairs", sum_pairs_add_at)
        want = run()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @staticmethod
    def loop_case(name, rng):
        """(rows [P,3], idx, n_out) for one kind of index set."""
        if name == "unordered_repeats":
            idx = rng.integers(0, 7, 40)
        elif name == "queries_without_pairs":
            idx = rng.choice([0, 3, 5], 25)  # rows 1, 2, 4, 6 and 7 get nothing
        elif name == "no_pairs":
            idx = np.zeros(0, dtype=np.intp)
        else:  # negative_zero
            idx = np.array([4, 1, 4, 2, 1, 0, 2])
        n_out = 8
        rows = rng.standard_normal((idx.size, 3))
        if name == "negative_zero":
            rows[[0, 2]] = -0.0  # query 4: only -0.0 rows
            rows[1, 0] = -0.0  # query 1: -0.0 then a finite value, per channel
            rows[3] = -0.0
            rows[6] = 0.0  # query 2: -0.0 then +0.0
        return rows, idx, n_out

    @pytest.mark.parametrize(
        "name", ["unordered_repeats", "queries_without_pairs", "no_pairs", "negative_zero"])
    def test_matches_per_pair_loop(self, name):
        """The sum equals a per-pair loop byte for byte; and through
        deform_attend over the same index set, with a -0.0 row in the output
        grad, every grad equals the reference's, which gathers g[idx] and
        scatters with np.add.at."""
        rows, idx, n_out = self.loop_case(name, np.random.default_rng(330))
        out = T._sum_pairs(rows, idx, n_out)
        assert out.tobytes() == scatter_rows_naive(rows, idx, n_out).tobytes()

        rng = np.random.default_rng(331)
        m, k = 2, 2
        arrays = (rng.standard_normal((2, 4, 5, m * 3)), rng.uniform(-1.5, 1.5, (n_out, m, k, 2)),
                  rng.dirichlet(np.ones(k), (n_out, m)))
        map_idx = rng.integers(0, 2, idx.size)
        base = rng.uniform(-1, 4, (idx.size, 2))
        g = rng.standard_normal((n_out, m, 3))
        g[1] = -0.0
        grads = []
        for attend in (T.deform_attend, ref.deform_attend_reference):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            got = attend(leaves[0], map_idx, base, leaves[1], leaves[2], idx)
            if got.node is not None:
                got.node.vjp(g)
            grads.append([got.data] + [x.grad for x in leaves])
        for a, b in zip(*grads):
            assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


def summed_through_scatter(queries, feat, refs, mult, p):
    """deform_attn_multi over one map [1,H,W,C] with one pair per query, in
    order, each query's sum scaled by mult, with its rows summed and scaled
    per query by the reference deform_attend, which always takes the sum."""
    t = queries.shape[0]
    _, hf, wf, vd = feat.shape
    off, attn = attention._query_offsets_weights(queries, p)
    cells = T.reshape(feat, (hf * wf, vd))
    values = T.reshape(T.matmul(cells, p.value_w.tensor), (1, hf, wf, p.channels))
    scale = np.full(t, float(mult)) if mult != 1 else None
    summed = ref.deform_attend_reference(values, np.zeros(t, dtype=np.intp), refs, off, attn,
                                         np.arange(t), scale)
    return T.matmul(T.reshape(summed, (t, p.channels)), p.out_w.tensor)


@pytest.mark.parametrize("mult", [1, 4])
@pytest.mark.parametrize("seed", range(3))
def test_lone_source_skips_the_sum_bitexact(seed, mult):
    """One map with one pair per query, in order (Pairs.one_map): deform_attend
    takes no sum, and the output and grads equal the stacked, summed path's bit for bit,
    -0.0 values and references off the map included."""
    rng = np.random.default_rng(seed + 340)
    p = make_params(rng)
    t = 7
    feat0 = rng.standard_normal((1, 5, 5, 4))
    feat0[0, 1] = -0.0
    refs = rng.uniform(-2, 6, (t, 2))
    q0 = rng.standard_normal((t, 4))

    def run(fn):
        queries = Tensor(q0, requires_grad=True)
        feat = Tensor(feat0, requires_grad=True)
        for prm in p.parameters():
            prm.tensor.zero_grad()
        out = fn(queries, feat)
        backward(T.tsum(T.mul(out, out)))
        return [out.data, queries.grad, feat.grad] + [prm.tensor.grad for prm in p.parameters()]

    scale = None if mult == 1 else np.full(t, float(mult))
    got = run(lambda q, f: deform_attn_multi(q, f, Pairs.one_map(refs, scale), p))
    want = run(lambda q, f: summed_through_scatter(q, f, refs, mult, p))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()

class TestEncoderLayer:
    def make_layer(self, rng):
        return EncoderLayerParams("layer", heads=2, points=2, channels=4, rng=rng)

    def test_shape_preserved(self):
        rng = np.random.default_rng(10)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((6, 4)))
        pairs = source_pairs([(0, rng.uniform(0, 3, (6, 2)), np.ones(6, bool))], 1, 6)
        out = encoder_layer(tokens, (2, 3), grid_pairs(2, 3),
                            Tensor(rng.standard_normal((1, 4, 4, 4))), pairs, lp)
        assert out.shape == (6, 4)

    def test_residual_identity_path(self):
        # all attention and ffn output projections zero -> pure norm chain
        rng = np.random.default_rng(11)
        lp = self.make_layer(rng)
        lp.self_attn.out_w.tensor.data[:] = 0.0
        lp.cross_attn.out_w.tensor.data[:] = 0.0
        lp.ffn_w2.tensor.data[:] = 0.0
        tokens = rng.standard_normal((6, 4))
        pairs = source_pairs([(0, rng.uniform(0, 3, (6, 2)), np.ones(6, bool))], 1, 6)
        out = encoder_layer(Tensor(tokens), (2, 3), grid_pairs(2, 3),
                            Tensor(rng.standard_normal((1, 4, 4, 4))), pairs, lp)

        def ln(x):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-5)

        assert np.allclose(out.data, ln(ln(ln(tokens))), atol=1e-12)

    def test_cross_term_doubles_with_duplicate_source(self):
        rng = np.random.default_rng(12)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((6, 4)))
        feat = Tensor(rng.standard_normal((1, 4, 4, 4)))
        source = (0, rng.uniform(0, 3, (6, 2)), np.ones(6, bool))
        one = deform_attn_multi(tokens, feat, source_pairs([source], 1, 6), lp.cross_attn)
        two = deform_attn_multi(tokens, feat, source_pairs([source] * 2, 1, 6), lp.cross_attn)
        assert np.array_equal(two.data, 2.0 * one.data)

    def test_source_count_mismatch_raises(self):
        rng = np.random.default_rng(13)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((6, 4)))
        maps = rng.standard_normal((2, 4, 4, 4))
        pairs = Pairs.one_map(rng.uniform(0, 3, (6, 2)))
        with pytest.raises(ContractError):  # 6 tokens on a 2x4 grid
            encoder_layer(tokens, (2, 4), grid_pairs(2, 3), Tensor(maps[:1]), pairs, lp)
        with pytest.raises(ContractError):  # no maps for pairs over one
            encoder_layer(tokens, (2, 3), grid_pairs(2, 3), Tensor(maps[:0]), pairs, lp)
        with pytest.raises(ContractError):  # two maps for pairs over one
            encoder_layer(tokens, (2, 3), grid_pairs(2, 3), Tensor(maps), pairs, lp)

    def test_pairs_scale_scales_the_cross_term(self, monkeypatch):
        """The pairs' scale multiplies each query's cross term: by 1/2, the
        inverse of its hit count, here, so exactly halved."""
        rng = np.random.default_rng(14)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((4, 4)))
        feat = Tensor(rng.standard_normal((1, 4, 4, 4)))
        source = (0, rng.uniform(0, 3, (4, 2)), np.ones(4, bool))
        pairs = source_pairs([source] * 2, 1, 4)
        residuals = []  # the y of every residual_layer_norm(x, y, ...)
        real = T.residual_layer_norm

        def spy(x, y, *args, **kwargs):
            residuals.append(y.data)
            return real(x, y, *args, **kwargs)

        monkeypatch.setattr(T, "residual_layer_norm", spy)
        plain = encoder_layer(tokens, (2, 2), grid_pairs(2, 2), feat, pairs, lp)
        halved = encoder_layer(tokens, (2, 2), grid_pairs(2, 2), feat,
                               source_pairs([source] * 2, 1, 4, np.full(4, 0.5)), lp)
        assert np.array_equal(residuals[0], residuals[3])  # self-attention term
        assert np.array_equal(residuals[4], 0.5 * residuals[1])  # cross-attention term
        assert not np.allclose(plain.data, halved.data)

    def test_fd_through_full_layer(self):
        rng = np.random.default_rng(15)
        lp = self.make_layer(rng)
        # zero-initialized offsets sample exactly on bilinear kinks; nudge all
        # projections off zero so central differences are well defined
        for attn in (lp.self_attn, lp.cross_attn):
            attn.offset_w.tensor.data[:] = rng.uniform(0.05, 0.3, attn.offset_w.tensor.shape)
            attn.offset_b.tensor.data[:] = rng.uniform(0.05, 0.3, attn.offset_b.tensor.shape)
            attn.weight_w.tensor.data[:] = rng.uniform(-0.5, 0.5, attn.weight_w.tensor.shape)
            attn.weight_b.tensor.data[:] = rng.uniform(-0.5, 0.5, attn.weight_b.tensor.shape)
        tokens0 = rng.standard_normal((4, 4)) * 0.5
        feat0 = rng.standard_normal((2, 3, 3, 4))  # two maps, each query on both
        pairs = source_pairs(
            [(m, rng.integers(0, 2, (4, 2)) + rng.uniform(0.25, 0.75, (4, 2)), None)
             for m in (0, 1)], 2, 4)

        names = []
        for prm in lp.parameters():
            names.append(prm)

        leaves = [tokens0, feat0] + [prm.tensor.data.copy() for prm in names]

        def build(ts):
            tokens, feat = ts[0], ts[1]
            for prm, t in zip(names, ts[2:]):
                prm.tensor = t
            out = encoder_layer(tokens, (2, 2), grid_pairs(2, 2), feat, pairs, lp)
            return T.tsum(T.sigmoid(out))

        check_grads(build, leaves)


def test_one_pair_per_query_out_of_order_is_still_summed():
    """Two maps with complementary masks give one pair per query, but not in
    query order: the rows still go through the per-query sum."""
    rng = np.random.default_rng(350)
    p = make_params(rng)
    t = 6
    feats = Tensor(rng.standard_normal((2, 5, 5, 4)))
    late = np.arange(t) >= 2
    sources = [(0, rng.uniform(0, 4, (t, 2)), late),
               (1, rng.uniform(0, 4, (t, 2)), ~late)]
    queries = rng.standard_normal((t, 4))
    want = sum(run_naive(queries, refs, feats.data[m], p, vis) for m, refs, vis in sources)
    got = deform_attn_multi(Tensor(queries), feats, source_pairs(sources, 2, t), p)
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)


class TestPairsContract:
    """Pairs checks its arrays once, at construction, and deform_attn_multi
    checks that the maps and queries it is given are the ones the pairs
    index."""

    def arrays(self, **change):
        arrays = dict(map_idx=[0, 1, 1], base_pts=np.zeros((3, 2)), qry_idx=[2, 0, 2],
                      n_maps=2, n_queries=3, scale=None)
        arrays.update(change)
        return arrays

    def test_fields_and_scale(self):
        pairs = Pairs(**self.arrays(scale=[1, 4, 2]))
        assert pairs.map_idx.dtype == pairs.qry_idx.dtype == np.intp
        assert (pairs.n_maps, pairs.n_queries) == (2, 3)
        assert pairs.scale.dtype == np.float64
        assert np.array_equal(pairs.scale, [1.0, 4.0, 2.0])
        assert Pairs(**self.arrays()).scale is None

    def test_arrays_are_read_only_copies(self):
        """A Pairs owns read-only copies of its arrays, so nothing can change
        it after it is built, and the caller's arrays stay writeable."""
        given = self.arrays(map_idx=np.array([0, 1, 1]), qry_idx=np.array([2, 0, 2]),
                            scale=np.array([1.0, 4.0, 2.0]))
        pairs = Pairs(**given)
        for name in ("map_idx", "base_pts", "qry_idx", "scale"):
            own, theirs = getattr(pairs, name), given[name]
            assert not own.flags.writeable and not np.shares_memory(own, theirs)
            with pytest.raises(ValueError, match="read-only"):
                own[0] = 0
            assert theirs.flags.writeable

    def test_one_map_is_the_queries_in_order(self):
        refs = np.arange(8.0).reshape(4, 2)
        pairs = Pairs.one_map(refs, np.full(4, 3.0))
        assert np.array_equal(pairs.map_idx, np.zeros(4)) and pairs.n_maps == 1
        assert np.array_equal(pairs.qry_idx, np.arange(4)) and pairs.n_queries == 4
        assert np.array_equal(pairs.base_pts, refs)
        assert np.array_equal(pairs.scale, np.full(4, 3.0))

    def test_no_pairs(self):
        """A scale is per query, so it has T entries when there are no pairs."""
        pairs = Pairs(**self.arrays(map_idx=[], base_pts=np.zeros((0, 2)), qry_idx=[],
                                    scale=np.ones(3)))
        assert pairs.qry_idx.size == 0 and pairs.scale.shape == (3,)

    @pytest.mark.parametrize("change", [
        dict(map_idx=[0, 1]),
        dict(qry_idx=[[2, 0, 2]]),
        dict(base_pts=np.zeros((3, 3))),
        dict(base_pts=np.zeros((2, 2))),
        dict(scale=[1.0, 1.0]),
        dict(scale=np.ones((3, 1))),
        dict(scale=np.ones(4), map_idx=[0, 1, 1, 0], base_pts=np.zeros((4, 2)),
             qry_idx=[2, 0, 2, 1]),
    ], ids=["map_idx", "qry_idx_2d", "base_pts_3", "base_pts_short", "scale", "scale_2d",
            "scale_per_pair"])
    def test_lengths_must_agree(self, change):
        with pytest.raises(ShapeError):
            Pairs(**self.arrays(**change))

    @pytest.mark.parametrize("change", [
        dict(map_idx=[0, 2, 1]),
        dict(map_idx=[0, -1, 1]),
        dict(qry_idx=[2, 3, 0]),
        dict(qry_idx=[-1, 0, 0]),
    ], ids=["map_high", "map_negative", "query_high", "query_negative"])
    def test_indices_must_be_in_range(self, change):
        with pytest.raises(ContractError):
            Pairs(**self.arrays(**change))

    def test_deform_attn_multi_checks_its_maps_and_queries(self):
        rng = np.random.default_rng(360)
        p = make_params(rng)
        pairs = Pairs(**self.arrays(base_pts=rng.uniform(0, 3, (3, 2))))
        feats = rng.standard_normal((3, 4, 4, 4))
        queries = Tensor(rng.standard_normal((3, 4)))
        assert deform_attn_multi(queries, Tensor(feats[:2]), pairs, p).shape == (3, 4)
        for maps in (feats[:0], feats[:1], feats, feats[0, 0, 0, 0]):
            with pytest.raises(ContractError):  # not two maps, or no map axis at all
                deform_attn_multi(queries, Tensor(maps), pairs, p)
        with pytest.raises(ShapeError):
            deform_attn_multi(Tensor(rng.standard_normal((4, 4))), Tensor(feats[:2]), pairs, p)
        with pytest.raises(ShapeError):  # maps of another width than the value weight's
            deform_attn_multi(queries, Tensor(rng.standard_normal((2, 4, 4, 5))), pairs, p)
        with pytest.raises(ShapeError):  # two maps [2,H,C] without a width axis
            deform_attn_multi(queries, Tensor(feats[:2, 0]), pairs, p)
