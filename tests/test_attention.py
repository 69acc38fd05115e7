"""deform_attn_multi vs the naive loop oracle, plus encoder layer tests."""

import numpy as np
import pytest

import bevkit.tensor as T
import bevkit.attention as attention
from bevkit.attention import (
    DeformAttnParams,
    EncoderLayerParams,
    cross_attend,
    deform_attn_multi,
    encoder_layer,
)
from bevkit.errors import ShapeError
from bevkit.tensor import Tensor, backward

from helpers import check_grads
from naive_reference import bilinear_scalar, deform_attn_naive, scatter_rows_naive


def make_params(rng, heads=2, points=2, channels=4, value_dim=4, randomize=True):
    p = DeformAttnParams("t", heads, points, channels, value_dim, rng)
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
        [w.tensor.data for w in p.value_w], p.out_w.tensor.data,
        valid=valid,
    )


def single(queries, refs, feat, p, valid=None):
    """deform_attn_multi over one source."""
    return deform_attn_multi(queries, [(feat, refs, valid)], p)


class TestDeformAttn:
    def test_degenerate_is_plain_sampling(self):
        rng = np.random.default_rng(0)
        p = DeformAttnParams("t", heads=1, points=1, channels=3, value_dim=3, rng=rng)
        p.value_w[0].tensor.data[:] = np.eye(3)
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
        sources = []
        singles = np.zeros((4, 4))
        for _ in range(3):
            feat = rng.standard_normal((5, 5, 4))
            refs = rng.uniform(-1, 5, (4, 2))
            valid = rng.random(4) > 0.3
            sources.append((Tensor(feat), refs, valid))
            singles += run_naive(queries, refs, feat, p, valid)
        multi = deform_attn_multi(Tensor(queries), sources, p)
        assert np.max(np.abs(multi.data - singles)) < 1e-10

    def test_duplicated_source_doubles(self):
        rng = np.random.default_rng(7)
        p = make_params(rng)
        queries = Tensor(rng.standard_normal((4, 4)))
        feat = Tensor(rng.standard_normal((5, 5, 4)))
        refs = rng.uniform(0, 4, (4, 2))
        valid = np.ones(4, dtype=bool)
        one = deform_attn_multi(queries, [(feat, refs, valid)], p)
        two = deform_attn_multi(queries, [(feat, refs, valid)] * 2, p)
        assert np.array_equal(two.data, 2.0 * one.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_fd_gradients(self, seed):
        rng = np.random.default_rng(seed + 80)
        p = make_params(rng, heads=2, points=2, channels=4, value_dim=4)
        feat0 = rng.standard_normal((4, 4, 4))
        queries0 = rng.standard_normal((3, 4)) * 0.3
        refs = rng.integers(0, 3, (3, 2)) + rng.uniform(0.25, 0.75, (3, 2))

        leaves = [queries0, feat0,
                  p.offset_w.tensor.data.copy(), p.weight_w.tensor.data.copy(),
                  p.value_w[0].tensor.data.copy(), p.out_w.tensor.data.copy()]

        def build(ts):
            q, f, ow, ww, vw0, outw = ts
            p.offset_w.tensor = ow
            p.weight_w.tensor = ww
            p.value_w[0].tensor = vw0
            p.out_w.tensor = outw
            p.offset_b.tensor = Tensor(p.offset_b.tensor.data)
            out = single(q, refs, f, p)
            return T.tsum(T.sigmoid(out))

        check_grads(build, leaves)


class TestValueProjectionBeforeSampling:
    """deform_attn_multi projects each distinct map before sampling; the
    naive oracle samples first and projects after. Both orders are equal in
    real arithmetic and round differently, so they agree to 1e-12."""

    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sample_then_project(self, heads, seed):
        rng = np.random.default_rng(seed + 500)
        p = make_params(rng, heads=heads, points=3, channels=8, value_dim=5)
        for w in p.value_w:  # distinct per head, and away from the init draw
            w.tensor.data[:] = rng.standard_normal(w.tensor.shape)
        assert not np.allclose(p.value_w[0].tensor.data, p.value_w[1].tensor.data)
        t = 7
        queries = rng.standard_normal((t, 8))
        shared = rng.standard_normal((5, 6, 5))
        other = rng.standard_normal((5, 6, 5))
        shared_t = Tensor(shared)
        # one Tensor listed as three sources with different refs and visibilities
        sources = [
            (shared_t, rng.uniform(-1, 6, (t, 2)), rng.random(t) > 0.3),
            (Tensor(other), rng.uniform(-1, 6, (t, 2)), rng.random(t) > 0.4),
            (shared_t, rng.uniform(-1, 6, (t, 2)), None, 3),
            (shared_t, rng.uniform(-1, 6, (t, 2)), rng.random(t) > 0.6),
        ]
        want = np.zeros((t, 8))
        for feat, (_, refs, valid, *mult) in zip([shared, other, shared, shared], sources):
            want += (mult[0] if mult else 1) * run_naive(queries, refs, feat, p, valid)
        got = deform_attn_multi(Tensor(queries), sources, p)
        np.testing.assert_allclose(got.data, want, rtol=1e-12)


def scatter_rows_add_at(rows, idx, n_out):
    """Reference _scatter_rows: one np.add.at over every pair."""
    data = np.zeros((n_out, rows.shape[1]))
    np.add.at(data, idx, rows.data)

    def vjp(g):
        T._accum(rows, g[idx])

    return T._make(data, "scatter_rows", (rows,), vjp)


class TestScatterRows:
    @staticmethod
    def source_indices(rng, t, n_sources):
        """Concatenated per-source query indices as deform_attn_multi builds
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
        rows = Tensor(rng.standard_normal((idx.size, 6)))
        out = attention._scatter_rows(rows, idx, t)
        assert np.array_equal(out.data, scatter_rows_add_at(rows, idx, t).data)

    def test_unordered_repeats_match_add_at(self):
        rng = np.random.default_rng(310)
        idx = rng.integers(0, 5, 40)
        rows = Tensor(rng.standard_normal((40, 3)))
        out = attention._scatter_rows(rows, idx, 5)
        assert np.array_equal(out.data, scatter_rows_add_at(rows, idx, 5).data)

    @pytest.mark.parametrize("seed", range(3))
    def test_deform_attn_multi_bitexact_vs_add_at(self, seed, monkeypatch):
        rng = np.random.default_rng(seed + 320)
        p = make_params(rng)
        t = 6
        feats = [Tensor(rng.standard_normal((5, 5, 4)), requires_grad=True) for _ in range(3)]
        sources = [
            (feats[0], rng.uniform(-1, 5, (t, 2)), rng.random(t) > 0.3, 4),
            (feats[1], rng.uniform(-1, 5, (t, 2)), np.zeros(t, dtype=bool)),
            (feats[2], rng.uniform(-1, 5, (t, 2)), rng.random(t) > 0.5),
            (feats[0], rng.uniform(-1, 5, (t, 2)), None),
        ]
        q0 = rng.standard_normal((t, 4))

        def run():
            queries = Tensor(q0, requires_grad=True)
            for f in feats:
                f.zero_grad()
            out = deform_attn_multi(queries, sources, p)
            backward(T.tsum(T.mul(out, out)))
            return [out.data, queries.grad] + [f.grad for f in feats]

        got = run()
        monkeypatch.setattr(attention, "_scatter_rows", scatter_rows_add_at)
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
        return Tensor(rows, requires_grad=True), idx, n_out

    @pytest.mark.parametrize(
        "name", ["unordered_repeats", "queries_without_pairs", "no_pairs", "negative_zero"])
    def test_matches_per_pair_loop(self, name):
        rows, idx, n_out = self.loop_case(name, np.random.default_rng(330))
        out = attention._scatter_rows(rows, idx, n_out)
        assert out.data.tobytes() == scatter_rows_naive(rows.data, idx, n_out).tobytes()
        g = np.random.default_rng(331).standard_normal((n_out, 3))
        g[1] = -0.0
        out.node.vjp(g)
        want = np.zeros(rows.shape)
        for p, q in enumerate(idx):
            want[p] = g[q]
        assert rows.grad.tobytes() == want.tobytes()


def summed_through_scatter(queries, feat, refs, mult, p):
    """deform_attn_multi over one unmasked source of multiplicity mult, with
    its map stacked and its rows summed per query by _scatter_rows."""
    t = queries.shape[0]
    hf, wf, vd = feat.shape
    off, attn = attention._query_offsets_weights(queries, p)
    value_w = T.concat_lastaxis([w.tensor for w in p.value_w])
    cells = T.reshape(T.stack_first([feat]), (hf * wf, vd))
    values = T.reshape(T.matmul(cells, value_w), (1, hf, wf, p.channels))
    rows = T.deform_attend(values, np.zeros(t, dtype=np.intp), refs, off, attn, np.arange(t))
    if mult != 1:
        rows = T.mul(rows, Tensor(np.full((t, 1, 1), float(mult))))
    rows = T.reshape(rows, (t, p.channels))
    return T.matmul(attention._scatter_rows(rows, np.arange(t), t), p.out_w.tensor)


@pytest.mark.parametrize("mult", [1, 4])
@pytest.mark.parametrize("seed", range(3))
def test_lone_source_skips_the_sum_bitexact(seed, mult):
    """One source without a visibility mask has one pair per query, in
    order: deform_attn_multi takes no sum and stacks no map, and its output
    and grads equal the stacked, scattered path's bit for bit, -0.0 values
    and references off the map included."""
    rng = np.random.default_rng(seed + 340)
    p = make_params(rng)
    t = 7
    feat0 = rng.standard_normal((5, 5, 4))
    feat0[1] = -0.0
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

    got = run(lambda q, f: deform_attn_multi(q, [(f, refs, None, mult)], p))
    want = run(lambda q, f: summed_through_scatter(q, f, refs, mult, p))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()

class TestEncoderLayer:
    def make_layer(self, rng, channels=4, value_dim=4):
        return EncoderLayerParams("layer", heads=2, points=2, channels=channels,
                                  value_dim=value_dim, rng=rng)

    def grid_refs(self, h, w):
        r, c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        return np.stack([r.reshape(-1), c.reshape(-1)], axis=1).astype(np.float64)

    def test_shape_preserved(self):
        rng = np.random.default_rng(10)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((6, 4)))
        refs = self.grid_refs(2, 3)
        src = (Tensor(rng.standard_normal((4, 4, 4))), rng.uniform(0, 3, (6, 2)), np.ones(6, bool))
        out = encoder_layer(tokens, (2, 3), refs, [src], lp)
        assert out.shape == (6, 4)

    def test_residual_identity_path(self):
        # all attention and ffn output projections zero -> pure norm chain
        rng = np.random.default_rng(11)
        lp = self.make_layer(rng)
        lp.self_attn.out_w.tensor.data[:] = 0.0
        lp.cross_attn.out_w.tensor.data[:] = 0.0
        lp.ffn_w2.tensor.data[:] = 0.0
        tokens = rng.standard_normal((6, 4))
        refs = self.grid_refs(2, 3)
        src = (Tensor(rng.standard_normal((4, 4, 4))), rng.uniform(0, 3, (6, 2)), np.ones(6, bool))
        out = encoder_layer(Tensor(tokens), (2, 3), refs, [src], lp)

        def ln(x):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-5)

        assert np.allclose(out.data, ln(ln(ln(tokens))), atol=1e-12)

    def test_cross_term_doubles_with_duplicate_source(self):
        rng = np.random.default_rng(12)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((6, 4)))
        feat = Tensor(rng.standard_normal((4, 4, 4)))
        cross_refs = rng.uniform(0, 3, (6, 2))
        valid = np.ones(6, bool)
        one = cross_attend(tokens, [(feat, cross_refs, valid)], lp.cross_attn)
        two = cross_attend(tokens, [(feat, cross_refs, valid)] * 2, lp.cross_attn)
        assert np.array_equal(two.data, 2.0 * one.data)

    def test_source_count_mismatch_raises(self):
        rng = np.random.default_rng(13)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((6, 4)))
        with pytest.raises(Exception):
            encoder_layer(tokens, (2, 4), self.grid_refs(2, 3), [], lp)

    def test_normalize_by_hits_flag(self):
        rng = np.random.default_rng(14)
        lp = self.make_layer(rng)
        tokens = Tensor(rng.standard_normal((4, 4)))
        refs = self.grid_refs(2, 2)
        feat = Tensor(rng.standard_normal((4, 4, 4)))
        cross_refs = rng.uniform(0, 3, (4, 2))
        valid = np.ones(4, bool)
        sources = [(feat, cross_refs, valid)] * 2
        raw = cross_attend(tokens, sources, lp.cross_attn)
        nrm = cross_attend(tokens, sources, lp.cross_attn, normalize_by_hits=True)
        assert np.allclose(nrm.data, raw.data / 2.0)
        # and the layer passes the flag on
        plain = encoder_layer(tokens, (2, 2), refs, sources, lp)
        halved = encoder_layer(tokens, (2, 2), refs, sources, lp, normalize_by_hits=True)
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
        feat0 = rng.standard_normal((3, 3, 4))
        refs = self.grid_refs(2, 2)
        cross_refs = rng.integers(0, 2, (4, 2)) + rng.uniform(0.25, 0.75, (4, 2))
        valid = np.ones(4, bool)

        names = []
        for prm in lp.parameters():
            names.append(prm)

        leaves = [tokens0, feat0] + [prm.tensor.data.copy() for prm in names]

        def build(ts):
            tokens, feat = ts[0], ts[1]
            for prm, t in zip(names, ts[2:]):
                prm.tensor = t
            out = encoder_layer(tokens, (2, 2), refs, [(feat, cross_refs, valid)], lp)
            return T.tsum(T.sigmoid(out))

        check_grads(build, leaves)


def test_one_pair_per_query_out_of_order_is_still_summed():
    """Two sources with complementary masks give one pair per query, but not
    in query order: the rows still go through the per-query sum."""
    rng = np.random.default_rng(350)
    p = make_params(rng)
    t = 6
    feats = [Tensor(rng.standard_normal((5, 5, 4))) for _ in range(2)]
    late = np.arange(t) >= 2
    sources = [(feats[0], rng.uniform(0, 4, (t, 2)), late),
               (feats[1], rng.uniform(0, 4, (t, 2)), ~late)]
    queries = rng.standard_normal((t, 4))
    want = sum(run_naive(queries, refs, f.data, p, vis) for f, refs, vis in sources)
    got = deform_attn_multi(Tensor(queries), sources, p)
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)
