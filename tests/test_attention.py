import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attntrack import tensor as T
from attntrack.attention import (AttentionInputs, FfnWeights, MultiHeadWeights,
                                 ffn, init_layernorm, init_multi_head,
                                 multi_head_attention, project_qkv,
                                 residual_norm)
from attntrack.errors import ConfigurationError, ShapeError
from attntrack.gradcheck import spread_attention_case
from attntrack.tensor import Tensor


def softmax_np(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def inputs_with(xq, xkv, pq=None, pk=None):
    xq, xkv = np.asarray(xq, float), np.asarray(xkv, float)
    pq = np.zeros_like(xq) if pq is None else np.asarray(pq, float)
    pk = np.zeros_like(xkv) if pk is None else np.asarray(pk, float)
    return AttentionInputs(Tensor(xq), Tensor(xkv), Tensor(pq), Tensor(pk))


def one_head(wq, wk, wv):
    """Single-head packed weights with an identity output projection."""
    return MultiHeadWeights(wq=Tensor(wq), wk=Tensor(wk), wv=Tensor(wv),
                            wo=Tensor(np.eye(wv.shape[1])), n_heads=1)


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """One head's map A[i, j] = softmax_j(q_i . k_j / sqrt(d)), read from
    the packed attention op."""
    maps = []
    T.multi_head_softmax_attention(q, k, Tensor(np.zeros(k.shape)), 1, maps=maps)
    return Tensor(maps[0])


def head_columns(w: MultiHeadWeights, head: int) -> slice:
    d_head = w.wq.shape[1] // w.n_heads
    return slice(head * d_head, (head + 1) * d_head)


class TestProjectQkv:
    def test_identity_projections(self):
        rng = np.random.default_rng(0)
        xq, xkv = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        w = one_head(np.eye(3), np.eye(3), np.eye(3))
        q, k, v = project_qkv(inputs_with(xq, xkv), w)
        assert np.array_equal(q.data, xq)
        assert np.array_equal(k.data, xkv)
        assert np.array_equal(v.data, xkv)

    def test_one_hot_selects_weight_row(self):
        rng = np.random.default_rng(1)
        wq = rng.standard_normal((3, 3))
        w = one_head(wq, np.eye(3), np.eye(3))
        xq = np.array([[0.0, 1.0, 0.0]])
        q, _, _ = project_qkv(inputs_with(xq, np.zeros((1, 3))), w)
        assert np.allclose(q.data[0], wq[1])

    def test_positions_added_to_q_and_k_only(self):
        rng = np.random.default_rng(2)
        xq, xkv = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
        pq, pk = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
        wq, wk, wv = (rng.standard_normal((3, 3)) for _ in range(3))
        w = one_head(wq, wk, wv)
        q, k, v = project_qkv(inputs_with(xq, xkv, pq, pk), w)
        assert np.abs(q.data - (xq + pq) @ wq).max() < 1e-12
        assert np.abs(k.data - (xkv + pk) @ wk).max() < 1e-12
        assert np.abs(v.data - xkv @ wv).max() < 1e-12  # no positions on values


class TestAttentionWeights:
    def test_orthogonal_gives_uniform(self):
        q = Tensor(np.zeros((2, 4)))
        k = Tensor(np.ones((3, 4)))
        a = attention_weights(q, k)
        assert np.allclose(a.data, 1.0 / 3.0, atol=1e-12)

    def test_scalar_closed_form(self):
        a = attention_weights(Tensor([[2.0]]), Tensor([[1.0], [0.0]]))
        e2 = math.exp(2.0)
        expected = [e2 / (e2 + 1.0), 1.0 / (e2 + 1.0)]
        assert np.allclose(a.data[0], expected, atol=1e-12)
        assert abs(a.data[0, 0] - 0.8808) < 1e-4

    def test_duplicate_keys_share_weight(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((3, 4)))
        krows = rng.standard_normal((3, 4))
        k = Tensor(np.vstack([krows, krows[1]]))  # row 3 duplicates row 1
        a = attention_weights(q, k)
        assert np.abs(a.data[:, 1] - a.data[:, 3]).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        a = attention_weights(Tensor(rng.standard_normal((5, 8)) * 4),
                              Tensor(rng.standard_normal((6, 8)) * 4))
        assert np.abs(a.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_scale_factor_via_channel_duplication(self):
        # duplicating channels and shrinking keys by sqrt(2) must leave the
        # logits (hence weights) unchanged iff the 1/sqrt(d') factor is used
        rng = np.random.default_rng(5)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        base = attention_weights(Tensor(q), Tensor(k))
        doubled = attention_weights(Tensor(np.hstack([q, q])),
                                    Tensor(np.hstack([k, k]) / math.sqrt(2.0)))
        assert np.abs(base.data - doubled.data).max() < 1e-12


def manual_multi_head(xq, xkv, pq, pk, w: MultiHeadWeights):
    """Straight-line oracle composing the four single-head operations."""
    pieces = []
    for head in range(w.n_heads):
        cols = head_columns(w, head)
        q = (xq + pq) @ w.wq.data[:, cols]
        k = (xkv + pk) @ w.wk.data[:, cols]
        v = xkv @ w.wv.data[:, cols]
        a = softmax_np((q @ k.T) / math.sqrt(q.shape[1]))
        pieces.append(a @ v)
    return np.hstack(pieces) @ w.wo.data


class TestMultiHead:
    def test_single_head_with_identity_projection(self):
        rng = np.random.default_rng(8)
        d = 4
        w = init_multi_head(rng, d, 1)
        w.wo = Tensor(np.eye(d))
        xq, xkv = rng.standard_normal((2, d)), rng.standard_normal((3, d))
        inputs = inputs_with(xq, xkv)
        out = multi_head_attention(inputs, w)
        q, k, v = project_qkv(inputs, w)
        logits = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d))
        single = T.matmul(T.softmax_rows(logits), v)
        assert np.abs(out.data - single.data).max() < 1e-12

    def test_dead_head_zeroes_half_the_concat(self):
        rng = np.random.default_rng(9)
        d = 4
        w = init_multi_head(rng, d, 2)
        w.wv.data[:, head_columns(w, 1)] = 0.0
        w.wo = Tensor(np.eye(d))  # expose the concat directly
        xq, xkv = rng.standard_normal((3, d)), rng.standard_normal((3, d))
        out = multi_head_attention(inputs_with(xq, xkv), w)
        assert np.abs(out.data[:, d // 2:]).max() == 0.0
        assert np.abs(out.data[:, :d // 2]).max() > 0.0

    def test_against_composition_oracle(self):
        rng = np.random.default_rng(10)
        d = 4
        w = init_multi_head(rng, d, 2)
        xq, xkv = rng.standard_normal((3, d)), rng.standard_normal((5, d))
        pq, pk = rng.standard_normal((3, d)), rng.standard_normal((5, d))
        out = multi_head_attention(inputs_with(xq, xkv, pq, pk), w)
        assert np.abs(out.data - manual_multi_head(xq, xkv, pq, pk, w)).max() < 1e-12

    def test_packed_init_matches_per_head_draws(self):
        # seeded models keep their weights: each head's (d, d_head) q, k, v
        # blocks are drawn in head order and concatenated
        d, heads = 8, 4
        w = init_multi_head(np.random.default_rng(21), d, heads)
        rng = np.random.default_rng(21)
        blocks = [[T.xavier_uniform(rng, (d, d // heads)) for _ in range(3)]
                  for _ in range(heads)]
        wo = T.xavier_uniform(rng, (d, d))
        for i, packed in enumerate((w.wq, w.wk, w.wv)):
            assert np.array_equal(packed.data,
                                  np.hstack([b[i] for b in blocks]))
        assert np.array_equal(w.wo.data, wo)

    def test_head_count_must_divide_width(self):
        with pytest.raises(ConfigurationError):
            init_multi_head(np.random.default_rng(0), 6, 4)

    def test_kv_permutation_invariance_without_positions(self):
        rng = np.random.default_rng(11)
        d = 4
        w = init_multi_head(rng, d, 2)
        xq = rng.standard_normal((3, d))
        xkv = rng.standard_normal((5, d))
        perm = rng.permutation(5)
        out = multi_head_attention(inputs_with(xq, xkv), w)
        out_perm = multi_head_attention(inputs_with(xq, xkv[perm]), w)
        assert np.abs(out.data - out_perm.data).max() < 1e-9

    def test_query_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(12)
        d = 4
        w = init_multi_head(rng, d, 2)
        xq = rng.standard_normal((4, d))
        xkv = rng.standard_normal((5, d))
        perm = rng.permutation(4)
        out = multi_head_attention(inputs_with(xq, xkv), w)
        out_perm = multi_head_attention(inputs_with(xq[perm], xkv), w)
        assert np.abs(out.data[perm] - out_perm.data).max() < 1e-9

    def test_padding_positions_get_identical_columns(self):
        # equal key features + equal (zeroed) positional rows => every query
        # assigns the two positions the same weight
        rng = np.random.default_rng(13)
        d = 4
        w = init_multi_head(rng, d, 2)
        xq = rng.standard_normal((3, d))
        pad_row = rng.standard_normal(d)
        xkv = np.vstack([rng.standard_normal((2, d)), pad_row, pad_row])
        pk = np.vstack([rng.standard_normal((2, d)), np.zeros(d), np.zeros(d)])
        sink = []
        multi_head_attention(inputs_with(xq, xkv, None, pk), w, attn_sink=sink)
        for a in sink:
            assert np.abs(a[:, 2] - a[:, 3]).max() < 1e-12


def concat(tensors, axis=0):
    """Tape-recorded np.concatenate; its gradient splits back along ``axis``."""
    tensors = [T.astensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(grad, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return T._make(data, tensors, backward)


def composed_attention(q, k, v, n_heads, maps):
    """The packed op spelled out per head on the tape: slices, T.matmul,
    T.mul by 1/sqrt(d_head), T.softmax_rows, then concat."""
    d_head = q.shape[1] // n_heads
    outputs = []
    for head in range(n_heads):
        cols = (slice(None), slice(head * d_head, (head + 1) * d_head))
        qh, kh, vh = T.take(q, cols), T.take(k, cols), T.take(v, cols)
        logits = T.mul(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(d_head))
        a = T.softmax_rows(logits)
        maps.append(a.data)
        outputs.append(T.matmul(a, vh))
    return concat(outputs, axis=1)


def qkv_case(rng, n_heads, nq, nk, padded):
    """Random packed q/k/v; ``padded`` makes the last three keys equal
    (as equal-feature padded cells with zeroed positional codes are)."""
    d = 2 * n_heads
    q = rng.standard_normal((nq, d)) * 2.0
    k = rng.standard_normal((nk, d)) * 2.0
    v = rng.standard_normal((nk, d))
    if padded:
        k[-3:] = k[-1]
        v[-3:] = v[-1]
    return [Tensor(a, requires_grad=True) for a in (q, k, v)]


CASES = [(heads, nq, nk, padded) for heads in (1, 2, 3, 4)
         for nq, nk in ((5, 7), (6, 4)) for padded in (False, True)]


class TestPackedAttentionOp:
    @pytest.mark.parametrize("heads,nq,nk,padded", CASES)
    def test_forward_matches_per_head_composition(self, heads, nq, nk, padded,
                                                  monkeypatch):
        q, k, v = qkv_case(np.random.default_rng(heads * 100 + nq), heads, nq,
                           nk, padded)
        oracle_maps = []
        oracle = composed_attention(q, k, v, heads, oracle_maps)
        outputs = [T.multi_head_softmax_attention(q, k, v, heads)]
        # blocks of one and of 4 query columns: Nq = 5 and 6 end on a
        # partial block of 4
        for block_cols in (1, 4):
            monkeypatch.setattr(T, "_ATTENTION_BLOCK_BYTES", block_cols * 8 * nk)
            maps = []
            outputs.append(T.multi_head_softmax_attention(q, k, v, heads,
                                                          maps=maps))
            with T.no_grad():       # off the tape: one block buffer, no stack
                outputs.append(T.multi_head_softmax_attention(q, k, v, heads))
            assert len(maps) == heads
            for a, b in zip(maps, oracle_maps):     # head-major (Nq, Nk)
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-12
            if padded:
                for a in maps:
                    assert np.abs(a[:, -3:] - a[:, -1:]).max() <= 1e-12
        for out in outputs:
            assert out.shape == (nq, 2 * heads)
            assert np.abs(out.data - oracle.data).max() <= 1e-12

    @pytest.mark.parametrize("heads,nq,nk,padded", CASES)
    def test_backward_matches_per_head_composition(self, heads, nq, nk, padded):
        rng = np.random.default_rng(heads * 100 + nq + 1)
        q, k, v = qkv_case(rng, heads, nq, nk, padded)
        r = rng.standard_normal((nq, 2 * heads))
        grads = []
        for attend in (lambda: T.multi_head_softmax_attention(q, k, v, heads),
                       lambda: composed_attention(q, k, v, heads, [])):
            for t in (q, k, v):
                t.zero_grad()
            T.tensor_sum(T.mul(attend(), r)).backward()
            grads.append([t.grad for t in (q, k, v)])
        for fast, slow in zip(*grads):
            assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())

    def test_only_one_map_live_without_the_tape(self):
        n, heads = 256, 4
        one_map = n * n * 8
        q, k, v = qkv_case(np.random.default_rng(0), heads, n, n, False)

        def peak_bytes():
            tracemalloc.start()
            try:
                T.multi_head_softmax_attention(q, k, v, heads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with T.no_grad():
            assert peak_bytes() < 2 * one_map
        assert peak_bytes() < 2 * one_map   # recorded: no map is kept either

    def test_rejects_heads_that_do_not_divide_width(self):
        q, k, v = qkv_case(np.random.default_rng(0), 2, 3, 3, False)
        with pytest.raises(ShapeError):
            T.multi_head_softmax_attention(q, k, v, 3)

    @pytest.mark.parametrize("groups,heads,nq,nk", [(2, 2, 5, 7), (3, 1, 4, 4),
                                                    (3, 4, 6, 2)])
    def test_groups_match_separate_calls(self, groups, heads, nq, nk, monkeypatch):
        # block-diagonal attention over G runs of rows is G separate calls
        q, k, v = qkv_case(np.random.default_rng(groups * 10 + heads),
                           heads, groups * nq, groups * nk, False)
        r = np.random.default_rng(1).standard_normal(q.shape)
        parts = [slice(g * nq, (g + 1) * nq) for g in range(groups)]
        keys = [slice(g * nk, (g + 1) * nk) for g in range(groups)]
        group_maps = []
        outs = []
        for rows, cols in zip(parts, keys):
            one = []
            outs.append(T.multi_head_softmax_attention(
                T.take(q, rows), T.take(k, cols), T.take(v, cols), heads, maps=one))
            group_maps.append(one)
        T.tensor_sum(T.mul(concat(outs, axis=0), r)).backward()
        slow = [np.concatenate([o.data for o in outs])] + [t.grad for t in (q, k, v)]
        # one map per (head, group), head-major
        expected = [group_maps[g][h] for h in range(heads) for g in range(groups)]

        # blocks of one and of 3 query columns: runs of 4 and 5 queries end
        # on partial blocks of 3
        for block_cols in (1, 3):
            monkeypatch.setattr(T, "_ATTENTION_BLOCK_BYTES", block_cols * 8 * nk)
            for t in (q, k, v):
                t.zero_grad()
            maps = []
            out = T.multi_head_softmax_attention(q, k, v, heads, maps=maps,
                                                 groups=groups)
            T.tensor_sum(T.mul(out, r)).backward()
            fast = [out.data] + [t.grad for t in (q, k, v)]
            for a, b in zip(fast, slow):
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
            assert len(maps) == len(expected)
            for a, b in zip(maps, expected):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-12

    def test_rejects_groups_that_do_not_divide_rows(self):
        q, k, v = qkv_case(np.random.default_rng(0), 2, 4, 5, False)
        with pytest.raises(ShapeError, match="groups"):
            T.multi_head_softmax_attention(q, k, v, 2, groups=2)


def stacked_attention_grads(q, k, v, heads, groups, maps, out, grad):
    """The packed op's backward with the whole (h*G, Nq/G, Nk/G) softmax
    adjoint built at once, from the forward's maps and output."""
    (nq, d), nk = q.shape, k.shape[0]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    stacks, nqg, nkg = heads * groups, nq // groups, nk // groups

    def heads_of(a):
        return a.reshape(groups, -1, heads, dh).transpose(2, 0, 1, 3)

    def merge(a):
        rows = a.shape[1]
        return a.reshape(heads, groups, rows, dh).transpose(1, 2, 0, 3) \
            .reshape(groups * rows, d)

    def widened(a, rows, last):
        wide = np.empty((stacks, rows, dh + 1))
        wide.reshape(heads, groups, rows, dh + 1)[..., :dh] = heads_of(a)
        wide[..., dh] = last
        return wide

    qs = widened(q * scale, nqg, 0.0)[..., :dh]
    kt = widened(k, nkg, 1.0).transpose(0, 2, 1).copy()
    va = widened(v, nkg, 1.0)
    weights = np.stack(maps)
    ga = widened(grad, nqg, 0.0)
    gv = merge(np.matmul(weights.transpose(0, 2, 1), ga[..., :dh]))
    ga[..., dh] = -np.einsum("hgid,hgid->hgi", heads_of(grad),
                             heads_of(out)).reshape(stacks, nqg)
    ds = np.matmul(ga, va.transpose(0, 2, 1))
    ds *= weights
    gq = merge(np.matmul(ds, kt[:, :dh].transpose(0, 2, 1))) * scale
    gk = merge(np.matmul(ds.transpose(0, 2, 1), qs))
    return gq, gk, gv


class TestBackwardOneStackAtATime:
    # backward builds the softmax adjoint one (head, group) stack at a
    # time; the gradients are the stacked formula's, bit for bit
    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("nq,nk,padded", [(5, 7, False), (6, 4, True),
                                              (9, 9, True)])
    def test_matches_stacked_formula(self, groups, heads, nq, nk, padded):
        rng = np.random.default_rng(1000 * groups + 10 * heads + nq)
        q, k, v = qkv_case(rng, heads, groups * nq, groups * nk, padded)
        grad = rng.standard_normal(q.shape)
        maps = []
        out = T.multi_head_softmax_attention(q, k, v, heads, maps=maps,
                                             groups=groups)
        T.tensor_sum(T.mul(out, grad)).backward()
        oracle = stacked_attention_grads(q.data, k.data, v.data, heads, groups,
                                         maps, out.data, grad)
        for t, expected in zip((q, k, v), oracle):
            assert np.array_equal(t.grad, expected)

    def test_backward_holds_one_adjoint_map(self):
        n, heads, groups = 512, 4, 2
        one_map = (n // groups) ** 2 * 8
        q, k, v = qkv_case(np.random.default_rng(0), heads, n, n, False)
        loss = T.tensor_sum(T.multi_head_softmax_attention(q, k, v, heads,
                                                           groups=groups))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (head, group) stack of adjoints would be heads * groups maps
        assert peak < 2 * one_map

    @pytest.mark.parametrize("block_cols", [1, 2, 3])
    def test_recomputed_maps_keep_the_exact_max_redo(self, block_cols,
                                                     monkeypatch):
        # backward recomputes each map block by block; the blocks the
        # forward redid at their exact max must be redone alike, the others
        # not, for the gradients to be the sink-map oracle's bit for bit
        heads, groups, nq, nk = 2, 2, 7, 9
        rng = np.random.default_rng(20 + block_cols)
        q, k, v = qkv_case(rng, heads, groups * nq, groups * nk, False)
        # keys spread along (1, -1) in each head and every third query far
        # along (1, 1): the keys' box corner lies about 1000 past any key
        # on those queries, whose row sums underflow at the bound
        t = rng.uniform(-6.0, 6.0, (groups * nk, heads, 1))
        k.data[:] = (t * [1.0, -1.0]
                     + rng.uniform(-0.5, 0.5, t.shape)).reshape(k.shape)
        q.data[::3] += 100.0
        underflow = []
        for g in range(groups):
            for h in range(heads):
                cols = slice(2 * h, 2 * h + 2)
                qh = q.data[g * nq:(g + 1) * nq, cols] / math.sqrt(2)
                kh = k.data[g * nk:(g + 1) * nk, cols]
                bound = np.maximum(qh * kh.max(axis=0), qh * kh.min(axis=0)).sum(axis=1)
                with np.errstate(under="ignore"):
                    sums = np.exp(qh @ kh.T - bound[:, None]).sum(axis=1)
                underflow.append(sums < T._ATTENTION_MIN_ROW_SUM)
        underflow = np.array(underflow)
        assert underflow.any() and not underflow.all()
        monkeypatch.setattr(T, "_ATTENTION_BLOCK_BYTES", block_cols * 8 * nk)
        grad = rng.standard_normal(q.shape)
        maps = []
        out = T.multi_head_softmax_attention(q, k, v, heads, maps=maps,
                                             groups=groups)
        T.tensor_sum(T.mul(out, grad)).backward()
        oracle = stacked_attention_grads(q.data, k.data, v.data, heads, groups,
                                         maps, out.data, grad)
        for t, expected in zip((q, k, v), oracle):
            assert np.isfinite(t.grad).all()
            assert np.array_equal(t.grad, expected)

    def test_grads_of_inputs_that_need_them(self):
        rng = np.random.default_rng(3)
        q, k, v = qkv_case(rng, 2, 6, 8, False)
        k.requires_grad = False
        grad = rng.standard_normal(q.shape)
        maps = []
        out = T.multi_head_softmax_attention(q, k, v, 2, maps=maps, groups=2)
        T.tensor_sum(T.mul(out, grad)).backward()
        gq, _, gv = stacked_attention_grads(q.data, k.data, v.data, 2, 2, maps,
                                            out.data, grad)
        assert k.grad is None
        assert np.array_equal(q.grad, gq) and np.array_equal(v.grad, gv)


def max_shift_attention(q, k, v, n_heads, groups=1):
    """The packed op as it was before the bound shift, on plain arrays.

    Forward: per (head, group) stack, logits, minus the row max, exp in
    place, and the product with v divided by the row sums. Backward: the
    softmax row term as rowsum(dA * A) over the map. Returns the (Nq, d)
    output, the (h*G, Nq/G, Nk/G) maps and ``backward(grad) -> (dq, dk, dv)``.
    """
    (nq, d), nk = q.shape, k.shape[0]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    stacks = n_heads * groups

    def split(a):
        rows = a.shape[0] // groups
        return np.ascontiguousarray(
            a.reshape(groups, rows, n_heads, dh).transpose(2, 0, 1, 3)
        ).reshape(stacks, rows, dh)

    def merge(a):
        rows = a.shape[1]
        return a.reshape(n_heads, groups, rows, dh).transpose(1, 2, 0, 3) \
            .reshape(groups * rows, d)

    qh, kh, vh = split(q * scale), split(k), split(v)
    weights = np.matmul(qh, kh.transpose(0, 2, 1))
    weights -= weights.max(axis=2, keepdims=True)
    np.exp(weights, out=weights)
    total = weights.sum(axis=2, keepdims=True)
    out = merge(np.matmul(weights, vh) / total)
    weights /= total

    def backward(grad):
        gh = split(grad)
        dv = merge(np.matmul(weights.transpose(0, 2, 1), gh))
        ds = np.matmul(gh, vh.transpose(0, 2, 1))
        ds -= np.einsum("hij,hij->hi", ds, weights)[:, :, None]
        ds *= weights
        dq = merge(np.matmul(ds, kh)) * scale
        dk = merge(np.matmul(ds.transpose(0, 2, 1), qh))
        return dq, dk, dv

    return out, weights, backward


def assert_matches(fast, slow, tol=1e-12):
    """Worst difference within ``tol`` of the larger of 1 and |slow|."""
    assert np.abs(fast - slow).max() <= tol * max(1.0, np.abs(slow).max())


def check_against_max_shift(q, k, v, heads, groups=1, tape=True, keep_maps=True):
    """Run the op on arrays q, k, v and compare the output, the kept maps and
    (with ``tape``) the q/k/v gradients of a random projection with
    :func:`max_shift_attention`."""
    out, weights, backward = max_shift_attention(q, k, v, heads, groups)
    leaves = [Tensor(a, requires_grad=tape) for a in (q, k, v)]
    maps = [] if keep_maps else None

    def attend():
        return T.multi_head_softmax_attention(*leaves, heads, maps=maps,
                                              groups=groups)

    if tape:
        fast = attend()
        r = np.random.default_rng(q.size).standard_normal(q.shape)
        T.tensor_sum(T.mul(fast, r)).backward()
        for leaf, grad in zip(leaves, backward(r)):
            assert_matches(leaf.grad, grad)
    else:
        with T.no_grad():
            fast = attend()
    assert_matches(fast.data, out)
    if keep_maps:       # head-major: one (Nq/G, Nk/G) map per (head, group)
        assert len(maps) == len(weights)
        for a, b in zip(maps, weights):
            assert a.shape == b.shape
            assert_matches(a, b)
    return fast, maps


@st.composite
def attention_cases(draw):
    heads, groups = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dh = draw(st.integers(1, 4))
    nq = draw(st.integers(1, 9))
    nk = draw(st.integers(1, 9).filter(lambda n: n != nq))
    logit_scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.standard_normal((groups * nq, heads * dh)) * logit_scale
    k, v = (rng.standard_normal((groups * nk, heads * dh)) for _ in range(2))
    return q, k, v, heads, groups


class TestAgainstMaxShift:
    """The bound-shifted op against the max-shifted one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(case=attention_cases(), tape=st.booleans(), keep_maps=st.booleans(),
           block_cols=st.integers(1, 4))
    def test_random_cases(self, case, tape, keep_maps, block_cols):
        # blocks of 1-4 query columns split runs of 1-9 queries unevenly
        q, k, v, heads, groups = case
        saved = T._ATTENTION_BLOCK_BYTES
        T._ATTENTION_BLOCK_BYTES = block_cols * 8 * (k.shape[0] // groups)
        try:
            check_against_max_shift(q, k, v, heads, groups, tape, keep_maps)
        finally:
            T._ATTENTION_BLOCK_BYTES = saved

    # decoder self- and cross-attention at search 255, then a training
    # step's two search crops at 128: self-attention within each crop, and
    # cross-attention to the 64 template tokens
    @pytest.mark.parametrize("nq,nk,groups", [(1024, 1024, 1), (1024, 256, 1),
                                              (512, 512, 2), (512, 64, 1)])
    def test_workload_shapes(self, nq, nk, groups):
        rng = np.random.default_rng(nq + nk)
        q, k, v = (rng.standard_normal((n, 32)) * 2.0 for n in (nq, nk, nk))
        check_against_max_shift(q, k, v, 4, groups)


class ExpCallsOfNumpy:
    """numpy, counting its ``exp`` calls."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


class TestLooseBound:
    """Blocks whose bound sits far above the row max are redone exactly."""

    @pytest.mark.parametrize("c", [0.0, 30.0])
    def test_loose_bound_trips_the_guard(self, c):
        # keys (c + a, c - a) and (c - a, c + a) give both logits of query
        # (b, b) the value sqrt(2) b c, but the bound over their box sits
        # sqrt(2) a b, about 850, above that: exp(-850) is 0, so without the
        # guard the rows would be 0 / 0. At c = 30 the logits themselves are
        # about 850, so the redone block must shift by the exact row max.
        a, b = 30.0, 20.0
        q = np.array([[b, b], [b, b], [0.5, -0.3]])
        k = np.array([[c + a, c - a], [c - a, c + a]])
        v = np.array([[1.0, 2.0], [3.0, -4.0]])
        out, maps = check_against_max_shift(q, k, v, 1)
        assert np.all(np.isfinite(out.data))
        assert np.abs(out.data[:2] - [2.0, -1.0]).max() <= 1e-12
        assert np.abs(maps[0].sum(axis=1) - 1.0).max() <= 1e-14

    def test_overflowing_bound_is_redone_without_a_warning(self):
        # per channel q_c kmax_c is about 0.92e308, so the bound of query 0
        # overflows, though each of its logits is one such product; query 1
        # is ordinary and shares the redone block
        big = 1e154
        q = np.array([[1.3 * big, 1.3 * big], [0.4, -0.7]])
        k = np.array([[big, 0.0], [0.0, big], [0.0, 0.0]])
        v = np.array([[1.0, 2.0], [3.0, -4.0], [5.0, 6.0]])
        out, _ = check_against_max_shift(q, k, v, 1)
        assert np.abs(out.data[0] - [2.0, -1.0]).max() <= 1e-12

    def test_only_the_overflowing_block_is_redone(self, monkeypatch):
        # 2 heads and 2 groups of 7 queries over 3 keys, in blocks of 3, 3
        # and 1 query columns: 12 blocks. In head 0 of group 1, query 4's
        # bound sums two products of about 1.06e308 and overflows, though
        # each of its logits stays finite; its head-1 channels are ordinary.
        rng = np.random.default_rng(5)
        q, k, v = (rng.standard_normal((n, 4)) for n in (14, 6, 6))
        k[3:, :2] = [[1.5, -0.5], [-0.5, 1.5], [0.2, 0.1]]
        passing = q.copy()
        q[7 + 4, :2] = 1e308
        monkeypatch.setattr(T, "_ATTENTION_BLOCK_BYTES", 3 * 8 * 3)
        counting = ExpCallsOfNumpy()
        monkeypatch.setattr(T, "np", counting)
        runs = []
        for queries in (passing, q):
            counting.exp_calls = 0
            maps = []
            out = T.multi_head_softmax_attention(queries, k, v, 2, maps=maps,
                                                 groups=2)
            runs.append((out.data, np.stack(maps), counting.exp_calls))
        (pass_out, pass_maps, pass_exps), (out, maps, exps) = runs
        assert (pass_exps, exps) == (12, 13)
        # the redone block: head 0 (columns 0:2) of group 1's queries 3:6,
        # which is map (head 0, group 1), columns 3:6
        redone = np.zeros(out.shape, dtype=bool)
        redone[7 + 3:7 + 6, :2] = True
        assert np.array_equal(out[~redone], pass_out[~redone])
        redone_map = np.zeros(maps.shape, dtype=bool)
        redone_map[1, 3:6] = True
        assert np.array_equal(maps[~redone_map], pass_maps[~redone_map])
        slow, weights, _ = max_shift_attention(q, k, v, 2, groups=2)
        assert_matches(out, slow)
        assert_matches(maps, weights)
        # its two largest logits tie: the mean of their values
        assert_matches(out[7 + 4, :2], (v[3, :2] + v[4, :2]) / 2)

    @pytest.mark.parametrize("block_cols", [1, 2, 8])
    def test_nan_query_row_stays_in_its_row(self, block_cols, monkeypatch):
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((n, 4)) for n in (6, 5, 5))
        q[2, 1] = np.nan
        monkeypatch.setattr(T, "_ATTENTION_BLOCK_BYTES", block_cols * 8 * 5)
        maps = []
        with np.errstate(invalid="ignore"):
            out = T.multi_head_softmax_attention(q, k, v, 2, maps=maps)
            slow, weights, _ = max_shift_attention(q, k, v, 2)
        rows = np.arange(6) != 2
        assert np.all(np.isnan(out.data[2, :2]))
        assert np.all(np.isfinite(out.data[rows]))
        assert_matches(out.data[rows], slow[rows])
        assert_matches(np.stack(maps)[:, rows], weights[:, rows])

    @pytest.mark.parametrize("seed", [0, 1, 2])   # criterion 1's instances
    def test_gradcheck_case_is_loose_below_the_guard(self, seed):
        q, k, _, _, heads, groups = spread_attention_case(
            np.random.default_rng(seed))
        dh = q.shape[1] // heads
        nq, nk = q.shape[0] // groups, k.shape[0] // groups
        for h in range(heads):
            for g in range(groups):
                qs = q.data[g * nq:(g + 1) * nq, h * dh:(h + 1) * dh] / math.sqrt(dh)
                ks = k.data[g * nk:(g + 1) * nk, h * dh:(h + 1) * dh]
                bound = np.maximum(qs * ks.max(axis=0), qs * ks.min(axis=0)).sum(axis=1)
                slack = bound - (qs @ ks.T).max(axis=1)
                assert 1.0 < slack.min() and slack.max() < 100.0

    def test_nan_key_makes_every_row_nan(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.standard_normal((n, 4)) for n in (6, 5, 5))
        k[3, 0] = np.nan
        with np.errstate(invalid="ignore"):
            out = T.multi_head_softmax_attention(q, k, v, 1)
        assert np.all(np.isnan(out.data))


class TestResidualNorm:
    def test_cancellation(self):
        rng = np.random.default_rng(14)
        ln = init_layernorm(4)
        xq = Tensor(rng.standard_normal((3, 4)))
        out = residual_norm(T.mul(xq, -1.0), xq, ln)
        assert np.allclose(out.data, 0.0)

    def test_zero_attention_passthrough(self):
        rng = np.random.default_rng(15)
        ln = init_layernorm(4)
        xq = Tensor(rng.standard_normal((3, 4)))
        out = residual_norm(Tensor(np.zeros((3, 4))), xq, ln)
        expected = T.layernorm(xq, ln.gain, ln.bias)
        assert np.array_equal(out.data, expected.data)

    def test_add_then_normalize_oracle(self):
        rng = np.random.default_rng(16)
        ln = init_layernorm(4)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        out = residual_norm(Tensor(a), Tensor(b), ln)
        s = a + b
        mu = s.mean(axis=1, keepdims=True)
        var = s.var(axis=1, keepdims=True)
        expected = (s - mu) / np.sqrt(var + T.LAYERNORM_EPS)
        assert np.abs(out.data - expected).max() < 1e-12


class TestFfn:
    def _dead_ffn(self, d, h):
        ln = init_layernorm(d)
        return FfnWeights(w1=Tensor(np.zeros((d, h))), b1=Tensor(np.zeros(h)),
                          w2=Tensor(np.zeros((h, d))), b2=Tensor(np.zeros(d)),
                          norm=ln)

    def test_dead_ffn_is_layernorm(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((3, 4)))
        w = self._dead_ffn(4, 8)
        out = ffn(x, w)
        expected = T.layernorm(x, w.norm.gain, w.norm.bias)
        assert np.array_equal(out.data, expected.data)

    def test_relu_gates_negative_preactivations(self):
        rng = np.random.default_rng(18)
        d, h = 4, 8
        w = self._dead_ffn(d, h)
        w.w1 = Tensor(rng.standard_normal((d, h)))
        w.b1 = Tensor(np.full(h, -1e6))  # all pre-activations negative
        w.w2 = Tensor(rng.standard_normal((h, d)))
        x = Tensor(rng.standard_normal((3, d)))
        out = ffn(x, w)
        expected = T.layernorm(x, w.norm.gain, w.norm.bias)
        assert np.array_equal(out.data, expected.data)

    def test_against_straight_line_oracle(self):
        rng = np.random.default_rng(19)
        d, h = 2, 4
        w = FfnWeights(w1=Tensor(rng.standard_normal((d, h))),
                       b1=Tensor(rng.standard_normal(h)),
                       w2=Tensor(rng.standard_normal((h, d))),
                       b2=Tensor(rng.standard_normal(d)),
                       norm=init_layernorm(d))
        x = rng.standard_normal((3, d))
        out = ffn(Tensor(x), w)
        hidden = np.maximum(x @ w.w1.data + w.b1.data, 0.0)
        s = x + hidden @ w.w2.data + w.b2.data
        mu = s.mean(axis=1, keepdims=True)
        expected = (s - mu) / np.sqrt(s.var(axis=1, keepdims=True) + T.LAYERNORM_EPS)
        assert np.abs(out.data - expected).max() < 1e-12
