import numpy as np
import pytest

from attntrack.attention import AttentionInputs, ffn, multi_head_attention, residual_norm
from attntrack.errors import ConfigurationError, ShapeError
from attntrack.gradcheck import check_full_stack
from attntrack import tensor as T
from attntrack.tensor import Tensor
from attntrack.transformer import (AttentionTrace, build_positional_encoding,
                                   decode, encode, flatten_grid,
                                   init_transformer)


class TestPositionalEncoding:
    def test_fully_masked_is_zero(self):
        pe = build_positional_encoding(3, 3, 8, pad_mask=np.ones((3, 3), bool))
        assert np.array_equal(pe.data, np.zeros((9, 8)))

    def test_origin_row_is_sin0_cos1(self):
        pe = build_positional_encoding(4, 4, 8)
        row = pe.data[0]
        assert np.allclose(row[0::2], 0.0)   # sin channels at position 0
        assert np.allclose(row[1::2], 1.0)   # cos channels at position 0

    def test_values_bounded(self):
        pe = build_positional_encoding(6, 5, 16)
        assert pe.data.min() >= -1.0 and pe.data.max() <= 1.0

    def test_distinct_positions_distinct_rows(self):
        pe = build_positional_encoding(4, 4, 8)
        rows = pe.data
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.norm(rows[i] - rows[j]) > 1e-6

    def test_masked_rows_zero_others_untouched(self):
        mask = np.zeros((3, 3), bool)
        mask[1, 2] = True
        pe = build_positional_encoding(3, 3, 8, pad_mask=mask)
        free = build_positional_encoding(3, 3, 8)
        assert np.array_equal(pe.data[5], np.zeros(8))
        keep = [i for i in range(9) if i != 5]
        assert np.array_equal(pe.data[keep], free.data[keep])

    def test_width_must_divide_four(self):
        with pytest.raises(ConfigurationError):
            build_positional_encoding(2, 2, 6)

    @pytest.mark.parametrize("height,width,d", [(4, 4, 8), (6, 5, 16), (16, 16, 32)])
    def test_bit_identical_to_a_fresh_build(self, height, width, d):
        mask = np.random.default_rng(height).random((height, width)) < 0.3
        for pad_mask in (None, mask):
            for _ in range(2):      # the second call is served from the cache
                pe = build_positional_encoding(height, width, d, pad_mask)
                expected = uncached_table(height, width, d, pad_mask)
                assert np.array_equal(pe.data, expected)

    def test_returned_tables_are_independent_copies(self):
        first = build_positional_encoding(3, 3, 8)
        first.data[:] = 7.0
        again = build_positional_encoding(3, 3, 8)
        assert np.array_equal(again.data, uncached_table(3, 3, 8, None))

    def test_batched_mask_stacks_each_grids_code(self):
        rng = np.random.default_rng(5)
        masks = rng.random((3, 4, 5)) < 0.4
        pe = build_positional_encoding(4, 5, 8, masks)
        expected = np.concatenate([build_positional_encoding(4, 5, 8, m).data
                                   for m in masks])
        assert np.array_equal(pe.data, expected)

    def test_mask_of_another_grid_rejected(self):
        with pytest.raises(ShapeError):
            build_positional_encoding(3, 3, 8, np.zeros((2, 3, 4), bool))


def uncached_table(height, width, d, pad_mask, temperature=10000.0):
    """The positional table as built before it was cached: anew on every
    call."""
    half = d // 2
    inv_freq = temperature ** (2.0 * (np.arange(half, dtype=np.float64) // 2) / half)
    ys, xs = np.meshgrid(np.arange(height, dtype=np.float64),
                         np.arange(width, dtype=np.float64), indexing="ij")
    table = np.zeros((height * width, d))
    for channel_base, coords in ((0, ys), (half, xs)):
        phase = coords.reshape(-1, 1) / inv_freq[None, :]
        code = np.empty_like(phase)
        code[:, 0::2] = np.sin(phase[:, 0::2])
        code[:, 1::2] = np.cos(phase[:, 1::2])
        table[:, channel_base:channel_base + half] = code
    if pad_mask is not None:
        table[pad_mask.reshape(-1)] = 0.0
    return table


class TestFlatten:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 5, 4)))
        back = T.reshape(flatten_grid(x), (1, 3, 5, 4))
        assert np.array_equal(back.data, x.data)

    def test_row_major_order(self):
        x = np.arange(12.0).reshape(1, 2, 3, 2)
        flat = flatten_grid(Tensor(x))
        assert np.array_equal(flat.data[1], x[0, 0, 1])   # (y=0, x=1) is row 1
        assert np.array_equal(flat.data[3], x[0, 1, 0])   # (y=1, x=0) is row w

    def test_batch_rows_run_grid_after_grid(self):
        x = np.arange(24.0).reshape(2, 2, 3, 2)
        flat = flatten_grid(Tensor(x))
        assert np.array_equal(flat.data, x.reshape(12, 2))


def tiny_weights(rng, d=8, heads=2, n_enc=1, n_dec=1):
    return init_transformer(rng, d, heads, n_enc, n_dec, ffn_hidden=2 * d)


def grid_pe(x, mask=None):
    _, h, w, d = x.shape
    return build_positional_encoding(h, w, d, mask)


def encode_decode(z, x, w):
    pe_z = grid_pe(z)
    return decode(x, encode(z, w.encoder, pe_z), pe_z, w.decoder, grid_pe(x))


class TestEncode:
    def test_singleton_sequence(self):
        rng = np.random.default_rng(1)
        w = tiny_weights(rng)
        z = Tensor(rng.standard_normal((1, 1, 1, 8)))
        trace = AttentionTrace()
        out = encode(z, w.encoder, grid_pe(z), trace=trace)
        for a in trace.maps["encoder0.self"]:
            assert np.array_equal(a, np.ones((1, 1)))
        # output equals the ffn path of that single token
        x = flatten_grid(z)
        layer = w.encoder[0]
        attn = multi_head_attention(
            AttentionInputs(x, x, build_positional_encoding(1, 1, 8),
                            build_positional_encoding(1, 1, 8)),
            layer.attn)
        expected = ffn(residual_norm(attn, x, layer.attn_norm), layer.ffn)
        assert np.abs(out.data - expected.data).max() < 1e-12

    def test_identical_rows_fully_masked_pe(self):
        rng = np.random.default_rng(2)
        w = tiny_weights(rng)
        row = rng.standard_normal(8)
        z = Tensor(np.tile(row, (1, 2, 2, 1)))
        mask = np.ones((2, 2), bool)
        out = encode(z, w.encoder, grid_pe(z, mask))
        assert np.abs(out.data - out.data[0]).max() < 1e-12

    def test_against_composition_oracle(self):
        rng = np.random.default_rng(3)
        w = tiny_weights(rng)
        z = Tensor(rng.standard_normal((1, 2, 2, 8)))
        out = encode(z, w.encoder, grid_pe(z))
        pe = build_positional_encoding(2, 2, 8)
        x = flatten_grid(z)
        layer = w.encoder[0]
        attn = multi_head_attention(AttentionInputs(x, x, pe, pe),
                                    layer.attn)
        expected = ffn(residual_norm(attn, x, layer.attn_norm), layer.ffn)
        assert np.abs(out.data - expected.data).max() < 1e-12

    def test_masked_pe_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        w = tiny_weights(rng)
        z = rng.standard_normal((1, 2, 3, 8))
        mask = np.ones((2, 3), bool)   # fully masked positions
        out = encode(Tensor(z), w.encoder, grid_pe(z, mask)).data
        perm = rng.permutation(6)
        z_perm = z.reshape(6, 8)[perm].reshape(1, 2, 3, 8)
        out_perm = encode(Tensor(z_perm), w.encoder, grid_pe(z_perm, mask)).data
        assert np.abs(out.reshape(6, 8)[perm] - out_perm.reshape(6, 8)).max() < 1e-9


class TestDecode:
    def test_single_memory_token_gets_full_cross_weight(self):
        rng = np.random.default_rng(5)
        w = tiny_weights(rng)
        memory = Tensor(rng.standard_normal((1, 8)))
        pe_z = build_positional_encoding(1, 1, 8)
        x = Tensor(rng.standard_normal((1, 2, 2, 8)))
        trace = AttentionTrace()
        decode(x, memory, pe_z, w.decoder, grid_pe(x), trace=trace)
        for a in trace.maps["decoder0.cross"]:
            assert np.allclose(a, 1.0, atol=1e-12)

    def test_against_composition_oracle(self):
        rng = np.random.default_rng(6)
        w = tiny_weights(rng)
        z = Tensor(rng.standard_normal((1, 1, 1, 8)))
        pe_z = build_positional_encoding(1, 1, 8)
        memory = encode(z, w.encoder, pe_z)
        x = Tensor(rng.standard_normal((1, 2, 2, 8)))
        out = decode(x, memory, pe_z, w.decoder, grid_pe(x))

        pe_x = build_positional_encoding(2, 2, 8)
        layer = w.decoder[0]
        xs = flatten_grid(x)
        h = residual_norm(multi_head_attention(
            AttentionInputs(xs, xs, pe_x, pe_x), layer.self_attn),
            xs, layer.self_norm)
        h = residual_norm(multi_head_attention(
            AttentionInputs(h, memory, pe_x, pe_z), layer.cross_attn),
            h, layer.cross_norm)
        expected = T.reshape(ffn(h, layer.ffn), (1, 2, 2, 8))
        assert np.abs(out.data - expected.data).max() < 1e-12

    def test_batch_decodes_each_grid_on_its_own(self):
        rng = np.random.default_rng(8)
        w = tiny_weights(rng, n_dec=2)
        z = Tensor(rng.standard_normal((1, 2, 2, 8)))
        pe_z = build_positional_encoding(2, 2, 8)
        memory = encode(z, w.encoder, pe_z)
        x = rng.standard_normal((3, 2, 3, 8))
        masks = rng.random((3, 2, 3)) < 0.5
        trace = AttentionTrace()
        out = decode(Tensor(x), memory, pe_z, w.decoder,
                     build_positional_encoding(2, 3, 8, masks), trace=trace)
        assert out.shape == (3, 2, 3, 8)
        for b in range(3):
            one = decode(Tensor(x[b:b + 1]), memory, pe_z, w.decoder,
                         build_positional_encoding(2, 3, 8, masks[b]))
            assert np.abs(out.data[b] - one.data[0]).max() < 1e-12
        # self-attention maps stay within a grid: one per head and grid
        assert [a.shape for a in trace.maps["decoder0.self"]] == [(6, 6)] * 6
        assert [a.shape for a in trace.maps["decoder0.cross"]] == [(18, 4)] * 2

    def test_padded_equal_rows_give_equal_outputs(self):
        # two padded search cells with identical features come out identical
        rng = np.random.default_rng(7)
        w = tiny_weights(rng)
        z = Tensor(rng.standard_normal((1, 2, 2, 8)))
        pe_z = build_positional_encoding(2, 2, 8)
        memory = encode(z, w.encoder, pe_z)

        x = rng.standard_normal((1, 3, 3, 8))
        x[0, 2, 1] = x[0, 2, 2]
        mask = np.zeros((3, 3), bool)
        mask[2, 1] = mask[2, 2] = True
        trace = AttentionTrace()
        out = decode(Tensor(x), memory, pe_z, w.decoder, grid_pe(x, mask),
                     trace=trace)
        assert np.abs(out.data[0, 2, 1] - out.data[0, 2, 2]).max() < 1e-12
        for a in trace.maps["decoder0.self"]:
            assert np.abs(a[:, 7] - a[:, 8]).max() < 1e-12


class TestRunTransformer:
    def test_constructed_passthrough_second_decoder_layer(self, monkeypatch):
        # a second decoder layer with zeroed attention/ffn outputs and
        # eps-free norms only renormalizes already-normalized rows
        rng = np.random.default_rng(9)
        w1 = tiny_weights(rng, n_dec=1)
        w2 = tiny_weights(np.random.default_rng(9), n_dec=2)
        for a, b in zip(w1.encoder[0].ffn.__dict__, w2.encoder[0].ffn.__dict__):
            assert a == b
        passthrough = w2.decoder[1]
        for attn in (passthrough.self_attn, passthrough.cross_attn):
            attn.wo = Tensor(np.zeros_like(attn.wo.data))
        passthrough.ffn.w2 = Tensor(np.zeros_like(passthrough.ffn.w2.data))
        passthrough.ffn.b2 = Tensor(np.zeros(8))
        monkeypatch.setattr(T, "LAYERNORM_EPS", 0.0)

        z = Tensor(rng.standard_normal((1, 2, 2, 8)))
        x = Tensor(rng.standard_normal((1, 3, 3, 8)))
        out1 = encode_decode(z, x, w1)
        out2 = encode_decode(z, x, w2)
        assert np.abs(out1.data - out2.data).max() < 1e-4

    def test_layer_count_sweep_runs(self):
        rng = np.random.default_rng(10)
        z = Tensor(rng.standard_normal((1, 2, 2, 8)))
        x = Tensor(rng.standard_normal((1, 3, 3, 8)))
        for n_enc, n_dec in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3)):
            w = tiny_weights(np.random.default_rng(n_enc * 10 + n_dec),
                             n_enc=n_enc, n_dec=n_dec)
            out = encode_decode(z, x, w)
            assert out.shape == (1, 3, 3, 8)
            assert np.all(np.isfinite(out.data))

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            init_transformer(np.random.default_rng(0), 8, 2, 0, 1, 64)


class TestWholeStackGradients:
    def test_full_stack_gradcheck(self):
        worst, failures = check_full_stack(np.random.default_rng(0))
        assert not failures
        assert worst < 1e-4
