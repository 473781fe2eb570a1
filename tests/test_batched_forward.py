"""The batched training forward against the per-sample forward it replaced.

``train_toy`` sends a step's search crops through one forward: the
backbone convs take a batch axis, the 1x1 reduce conv and the head stacks
are row products, and decoder self-attention is block-diagonal. The
per-sample path below is the forward as it was before batching, one crop
at a time (each conv sees a batch of one) with 1x1 convs through
``conv2d``; it is kept here as the oracle. The batch is the only layout:
the last tests check that each layer rejects a lone sample.
"""

import numpy as np
import pytest

from attntrack import tensor as T
from attntrack.attention import (AttentionInputs, ffn, multi_head_attention,
                                 residual_norm)
from attntrack.errors import ShapeError
from attntrack.localize import STRIDE
from attntrack.loss import focal_loss, joint_loss, offset_loss, size_loss
from attntrack.pipeline import (SequenceSpec, TrackerConfig, backbone_forward,
                                build_model, crop_template, encode_template,
                                forward_pair, generate_synthetic_sequence,
                                init_backbone, pair_loss, sample_training_pair)
from attntrack.pipeline.crop import crop_search
from attntrack.pipeline.tracker import extract_features, grid_pad_mask
from attntrack.tensor import Tensor
from attntrack.transformer import (build_positional_encoding, decode, encode,
                                   flatten_grid, init_transformer)


def _bias(b):
    return T.reshape(b, (b.shape[0], 1, 1))


def _sole(x):
    """The one sample of a batch of one."""
    return T.reshape(x, x.shape[1:])


def _relu(x):
    """max(x, 0) as a node of its own; clamp's mask, 0 < x < inf, is the
    relu mask on finite inputs."""
    return T.clamp(x, 0.0, np.inf)


def per_sample_backbone(patch, weights):
    """(3, T, T) -> (h, w, d) tokens, one conv2d per stage and a 1x1 conv2d."""
    x = Tensor(patch[None])
    for conv, stride in zip(weights.stage, weights.strides):
        x = _relu(T.add(T.conv2d(x, conv.kernel, stride=stride, padding=1),
                        _bias(conv.bias)))
    out = T.add(T.conv2d(x, weights.reduce.kernel), _bias(weights.reduce.bias))
    return T.transpose(_sole(out), (1, 2, 0))


def per_sample_tokens(crop, model, config):
    tokens = per_sample_backbone(crop.patch, model.backbone)
    h, w, d = tokens.shape
    mask = grid_pad_mask(crop.pad_mask) if config.pe_mask else None
    return tokens, build_positional_encoding(h, w, d, mask)


def per_sample_encode(tokens, pe, layers):
    h, w, d = tokens.shape
    x = T.reshape(tokens, (h * w, d))
    for layer in layers:
        attn = multi_head_attention(AttentionInputs(x, x, pe, pe), layer.attn)
        x = ffn(residual_norm(attn, x, layer.attn_norm), layer.ffn)
    return x


def per_sample_decode(tokens, pe, memory, pe_memory, layers):
    h, w, d = tokens.shape
    x = T.reshape(tokens, (h * w, d))
    for layer in layers:
        x = residual_norm(multi_head_attention(AttentionInputs(x, x, pe, pe),
                                               layer.self_attn),
                          x, layer.self_norm)
        x = residual_norm(multi_head_attention(
            AttentionInputs(x, memory, pe, pe_memory), layer.cross_attn),
            x, layer.cross_norm)
        x = ffn(x, layer.ffn)
    return T.reshape(x, (h, w, d))


def per_sample_heads(decoded, heads):
    """Score, offset and size maps, each stack three 1x1 conv2d calls."""
    maps = []
    for stack in (heads.score, heads.offset, heads.size):
        x = T.transpose(decoded, (2, 0, 1))
        x = T.reshape(x, (1,) + x.shape)
        for i, conv in enumerate(stack.conv):
            x = T.add(T.conv2d(x, conv.kernel), _bias(conv.bias))
            if i < len(stack.conv) - 1:
                x = _relu(x)
        maps.append(T.transpose(_sole(T.sigmoid(x)), (1, 2, 0)))
    return maps


def per_sample_objective(score, offset, size, target):
    hs, ws, _ = score.shape
    gx, gy = target.cell
    cx, cy = target.center
    residual = np.array([cx / STRIDE - gx, cy / STRIDE - gy])
    lo = T.tensor_sum(T.absolute(T.sub(T.take(offset, (gy, gx)), residual)))
    ls = T.tensor_sum(T.absolute(T.sub(T.take(size, (gy, gx)),
                                      np.asarray(target.norm_size))))
    return joint_loss(focal_loss(T.reshape(score, (hs, ws)), target.label), lo, ls)


def per_sample_loss(model, config, template, pairs):
    """Mean objective over the pairs, each crop through its own forward."""
    z, pe_z = per_sample_tokens(template, model, config)
    memory = per_sample_encode(z, pe_z, model.transformer.encoder)
    total = None
    for pair in pairs:
        x, pe_x = per_sample_tokens(pair.search_crop, model, config)
        decoded = per_sample_decode(x, pe_x, memory, pe_z,
                                    model.transformer.decoder)
        loss = per_sample_objective(*per_sample_heads(decoded, model.heads),
                                    pair.target)
        total = loss if total is None else T.add(total, loss)
    return T.mul(total, 1.0 / len(pairs))


def batched_loss(model, config, template, pairs):
    memory, template_pe = encode_template(model, config, template)
    maps = forward_pair(model, config, memory, template_pe,
                        [pair.search_crop for pair in pairs])
    return pair_loss(maps, [pair.target for pair in pairs])[0]


def loss_and_grads(loss_fn, model, *args):
    for p in T.parameters(model):
        p.zero_grad()
    loss = loss_fn(model, *args)
    loss.backward()
    return loss.item(), {name: p.grad.copy() for name, p in T.named_parameters(model)}


GEOMETRIES = {
    "64/128": TrackerConfig(template_size=64, search_size=128),
    "127/280": TrackerConfig(template_size=127, search_size=280, d=8,
                             n_heads=2, c_mid=8),
}


@pytest.fixture(scope="module")
def sequence():
    return generate_synthetic_sequence(3, 6, SequenceSpec())


@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_batched_step_matches_per_sample_oracle(sequence, geometry, batch):
    frames, boxes = sequence
    config = GEOMETRIES[geometry]
    model = build_model(np.random.default_rng(5), config)
    template = crop_template(frames[0], boxes[0], config.template_size)
    rng = np.random.default_rng(batch)
    pairs = [sample_training_pair(frames, boxes, config, rng)
             for _ in range(batch)]

    loss, grads = loss_and_grads(batched_loss, model, config, template, pairs)
    ref_loss, ref_grads = loss_and_grads(per_sample_loss, model, config,
                                         template, pairs)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, ref in ref_grads.items():
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name


def test_batch_members_do_not_interact(sequence):
    # changing one crop of the batch leaves the other crop's maps unchanged
    frames, boxes = sequence
    config = GEOMETRIES["127/280"]
    model = build_model(np.random.default_rng(6), config)
    template = crop_template(frames[0], boxes[0], config.template_size)
    rng = np.random.default_rng(6)
    a, b, c = (sample_training_pair(frames, boxes, config, rng)
               for _ in range(3))
    with T.no_grad():
        memory, template_pe = encode_template(model, config, template)
        ab = forward_pair(model, config, memory, template_pe,
                          [a.search_crop, b.search_crop])
        ac = forward_pair(model, config, memory, template_pe,
                          [a.search_crop, c.search_crop])
    for first, second in ((ab.score, ac.score), (ab.offset, ac.offset),
                          (ab.size, ac.size)):
        assert np.abs(first.data[0] - second.data[0]).max() <= 1e-12


def test_crops_of_unequal_size_rejected(sequence):
    frames, boxes = sequence
    config = GEOMETRIES["127/280"]
    model = build_model(np.random.default_rng(7), config)
    crops = [crop_search(frames[0], boxes[0], side, config.template_size)
             for side in (128, 136)]
    with pytest.raises(ShapeError, match="one size"):
        extract_features(crops, model, config)


def test_pair_loss_needs_one_target_per_map(sequence):
    frames, boxes = sequence
    config = GEOMETRIES["127/280"]
    model = build_model(np.random.default_rng(8), config)
    template = crop_template(frames[0], boxes[0], config.template_size)
    rng = np.random.default_rng(8)
    pairs = [sample_training_pair(frames, boxes, config, rng)
             for _ in range(2)]
    with T.no_grad():
        memory, template_pe = encode_template(model, config, template)
        maps = forward_pair(model, config, memory, template_pe,
                            [pair.search_crop for pair in pairs])
    with pytest.raises(ShapeError, match="2 maps"):
        pair_loss(maps, [pairs[0].target])


def _transformer():
    return init_transformer(np.random.default_rng(9), 8, 2, 1, 1, ffn_hidden=16)


GRID = Tensor(np.zeros((2, 2, 8)))
GRID_PE = build_positional_encoding(2, 2, 8)

# each batch-only entry point called with the lone sample it used to accept
LONE_SAMPLE_CALLS = {
    "conv2d": lambda: T.conv2d(Tensor(np.ones((2, 5, 5))), Tensor(np.ones((3, 2, 3, 3)))),
    "backbone_forward": lambda: backbone_forward(
        Tensor(np.zeros((3, 16, 16))),
        init_backbone(np.random.default_rng(9), c_mid=4, d=4)),
    "encode": lambda: encode(GRID, _transformer().encoder, GRID_PE),
    "decode": lambda: decode(GRID, Tensor(np.zeros((4, 8))), GRID_PE,
                             _transformer().decoder, GRID_PE),
    "flatten_grid": lambda: flatten_grid(GRID),
    "offset_loss": lambda: offset_loss(Tensor(np.zeros((4, 4, 2))), (12.0, 18.0), (1, 2)),
    "size_loss": lambda: size_loss(Tensor(np.zeros((4, 4, 2))), (0.3, 0.6), (1, 2)),
}


@pytest.mark.parametrize("entry", sorted(LONE_SAMPLE_CALLS))
def test_lone_sample_layout_rejected(entry):
    with pytest.raises(ShapeError):
        LONE_SAMPLE_CALLS[entry]()


@pytest.mark.parametrize("loss", [offset_loss, size_loss])
def test_l1_losses_need_one_cell_per_sample(loss):
    # one (x, y) pair for a batch of two used to be read at both samples
    with pytest.raises(ShapeError, match=r"\(B, 2\) cells"):
        loss(Tensor(np.zeros((2, 4, 4, 2))), [(12.0, 18.0)], [(1, 2)])
