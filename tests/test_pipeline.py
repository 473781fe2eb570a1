import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from attntrack.errors import ConfigurationError, ShapeError, TrackingError
from attntrack.localize import STRIDE, BoundingBox
from attntrack.pipeline import (Frame, SequenceSpec, backbone_forward,
                                crop_search, crop_template, evaluate,
                                generate_synthetic_sequence, grid_pad_mask,
                                image_to_patch, init_backbone, iou,
                                load_sequence, patch_to_image,
                                read_netpbm, read_rect_file, save_sequence,
                                write_pgm, write_ppm, write_rect_file)
from attntrack.pipeline import synth
from attntrack.pipeline.crop import aligned_side, context_side
from attntrack.tensor import Tensor


def bilinear_oracle(image, ys, xs, means):
    """Per-pixel reference for mean-padded bilinear sampling."""
    _, h, w = image.shape
    out = np.zeros((3,) + ys.shape)
    for i in range(ys.shape[0]):
        for j in range(ys.shape[1]):
            y, x = ys[i, j], xs[i, j]
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            fy, fx = y - y0, x - x0
            acc = np.zeros(3)
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    ty, tx = y0 + dy, x0 + dx
                    val = image[:, ty, tx] if 0 <= ty < h and 0 <= tx < w else means
                    acc += wy * wx * val
            out[:, i, j] = acc
    return out


def sample_grid(crop, size):
    """Image coordinates (ys, xs) of a crop's first ``size`` x ``size``
    pixels under its affine map."""
    idx = np.arange(size, dtype=np.float64)
    xs = crop.origin[0] + idx[None, :] * crop.scale + np.zeros((size, 1))
    ys = crop.origin[1] + idx[:, None] * crop.scale + np.zeros((1, size))
    return ys, xs


def coverage_oracle(shape, ys, xs):
    """Per-pixel total bilinear weight of the taps that land in the image."""
    h, w = shape
    cov = np.zeros(ys.shape)
    for i in range(ys.shape[0]):
        for j in range(ys.shape[1]):
            y0, x0 = int(np.floor(ys[i, j])), int(np.floor(xs[i, j]))
            fy, fx = ys[i, j] - y0, xs[i, j] - x0
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    if 0 <= y0 + dy < h and 0 <= x0 + dx < w:
                        cov[i, j] += wy * wx
    return cov


def full_crop_oracle(frame, center, side, out_size):
    """The crop sampler that the covered-window sampler replaced: both
    bilinear passes over every sample, the uncovered ones reset to the
    mean through the pad mask, then ``np.pad`` to the aligned side."""
    _, h, w = frame.shape
    means = frame.reshape(3, -1).mean(axis=1)
    scale = side / out_size
    origin = (center[0] - side / 2.0 + 0.5 * scale,
              center[1] - side / 2.0 + 0.5 * scale)
    idx = np.arange(out_size, dtype=np.float64)

    def taps(coords, extent):
        i0 = np.floor(coords).astype(np.int64)
        frac = coords - i0
        index = np.stack([i0, i0 + 1])
        weight = np.stack([1.0 - frac, frac]) * ((index >= 0) & (index < extent))
        return np.clip(index, 0, extent - 1), weight

    row_index, row_weight = taps(origin[1] + idx * scale, h)
    col_index, col_weight = taps(origin[0] + idx * scale, w)
    centred = frame - means[:, None, None]
    cols = np.take(centred, col_index[0], axis=2) * col_weight[0]
    cols += np.take(centred, col_index[1], axis=2) * col_weight[1]
    patch = np.take(cols, row_index[0], axis=1)
    patch *= row_weight[0][:, None]
    mask = (row_weight.sum(axis=0) == 0.0)[:, None] \
        | (col_weight.sum(axis=0) == 0.0)[None, :]
    tap = np.empty(patch.shape[1:])
    for channel, col_blend, mean in zip(patch, cols, means):
        np.take(col_blend, row_index[1], axis=0, out=tap)
        tap *= row_weight[1][:, None]
        channel += tap
        channel += mean
        channel[mask] = mean
    extra = aligned_side(out_size) - out_size
    if extra:
        patch = np.pad(patch, ((0, 0), (0, extra), (0, extra)))
        patch[:, out_size:, :] = means[:, None, None]
        patch[:, :, out_size:] = means[:, None, None]
        mask = np.pad(mask, ((0, extra), (0, extra)), constant_values=True)
    return patch, mask


class TestCrop:
    def _frame(self, rng, h=80, w=80):
        return rng.uniform(0, 1, (3, h, w))

    def test_interior_crop_has_no_padding(self):
        rng = np.random.default_rng(0)
        frame = self._frame(rng)
        crop = crop_template(Frame(frame, 0), BoundingBox(40, 40, 16, 12), 32)
        assert not crop.pad_mask.any()

    def test_corner_crop_padding_is_exact_channel_mean(self):
        rng = np.random.default_rng(1)
        frame = self._frame(rng)
        crop = crop_template(Frame(frame, 0), BoundingBox(2, 2, 16, 12), 32)
        assert crop.pad_mask.any()
        means = frame.reshape(3, -1).mean(axis=1)
        padded_vals = crop.patch[:, crop.pad_mask]
        assert np.array_equal(padded_vals,
                              np.broadcast_to(means[:, None], padded_vals.shape))
        # the mask covers the exterior corner quadrant
        assert crop.pad_mask[0, 0] and not crop.pad_mask[-1, -1]

    def test_context_rule(self):
        box = BoundingBox(0, 0, 10.0, 6.0)
        pad = (10.0 + 6.0) / 2.0
        assert abs(context_side(box) - np.sqrt((10 + pad) * (6 + pad))) < 1e-12

    def test_resample_matches_bilinear_oracle(self):
        rng = np.random.default_rng(2)
        frame = np.zeros((3, 40, 40))
        frame[:, :, :20] = 0.25      # two-color image
        frame[:, :, 20:] = 0.75
        textured = rng.uniform(0, 1, (3, 40, 40))
        boxes = [BoundingBox(17.0, 23.0, 12.0, 9.0),    # interior
                 BoundingBox(1.0, 1.5, 10.0, 7.0),      # top-left corner
                 BoundingBox(38.5, 39.0, 9.0, 12.0),    # bottom-right corner
                 BoundingBox(-3.0, 20.0, 12.0, 9.0),    # partly left of the image
                 BoundingBox(20.0, 44.0, 8.0, 10.0)]    # partly below it
        out_size = 24
        idx = np.arange(out_size, dtype=np.float64)
        padded_rows = padded_cols = 0
        for image in (frame, textured):
            means = image.reshape(3, -1).mean(axis=1)
            for box in boxes:
                crop = crop_template(Frame(image, 0), box, out_size)
                xs = crop.origin[0] + idx[None, :] * crop.scale + np.zeros((out_size, 1))
                ys = crop.origin[1] + idx[:, None] * crop.scale + np.zeros((1, out_size))
                expected = bilinear_oracle(image, ys, xs, means)
                assert np.abs(crop.patch - expected).max() < 1e-12, box
                coverage = coverage_oracle(image.shape[1:], ys, xs)
                assert np.array_equal(crop.pad_mask, coverage == 0.0), box
                padded_vals = crop.patch[:, crop.pad_mask]
                assert np.array_equal(padded_vals, np.broadcast_to(
                    means[:, None], padded_vals.shape)), box
                padded_rows += crop.pad_mask.all(axis=1).sum()
                padded_cols += crop.pad_mask.all(axis=0).sum()
        # the boxes reach crops with fully padded rows and columns
        assert padded_rows > 0 and padded_cols > 0

    def test_search_centering(self):
        rng = np.random.default_rng(3)
        frame = self._frame(rng, 200, 200)
        box = BoundingBox(100.0, 90.0, 20.0, 16.0)
        crop = crop_search(Frame(frame, 0), box, 128, template_size=64)
        px, py = image_to_patch((box.cx, box.cy), crop)
        assert abs(px - (128 - 1) / 2.0) < 1e-9
        assert abs(py - (128 - 1) / 2.0) < 1e-9

    def test_larger_search_contains_smaller_field_of_view(self):
        rng = np.random.default_rng(4)
        frame = self._frame(rng, 300, 300)
        box = BoundingBox(150.0, 150.0, 30.0, 24.0)
        small = crop_search(Frame(frame, 0), box, 255, template_size=127)
        large = crop_search(Frame(frame, 0), box, 320, template_size=127)
        small_span = 255 * small.scale
        large_span = 320 * large.scale
        assert large_span > small_span
        assert small.scale == pytest.approx(large.scale)  # same resolution

    def test_patch_image_roundtrip(self):
        rng = np.random.default_rng(5)
        frame = self._frame(rng, 120, 150)
        crop = crop_search(Frame(frame, 0), BoundingBox(70, 60, 22, 18), 128, 64)
        for _ in range(10):
            pt = (rng.uniform(0, 128), rng.uniform(0, 128))
            img = patch_to_image(pt, crop)
            back = image_to_patch(img, crop)
            assert abs(back[0] - pt[0]) < 1e-9 and abs(back[1] - pt[1]) < 1e-9

    def test_box_fully_outside_raises(self):
        frame = np.zeros((3, 50, 50))
        with pytest.raises(TrackingError):
            crop_template(Frame(frame, 0), BoundingBox(-40.0, -40.0, 10.0, 10.0), 32)

    # the context square overflows to inf (its product, or its sides'
    # sum) or underflows to 0, and the crop scale with it
    @pytest.mark.parametrize("box", [BoundingBox(20.0, 20.0, 1e308, 1e308),
                                     BoundingBox(20.0, 20.0, 1e200, 5.0),
                                     BoundingBox(20.0, 20.0, 1e-320, 1e-320)])
    @pytest.mark.parametrize("crop", [lambda f, b: crop_template(f, b, 127),
                                      lambda f, b: crop_search(f, b, 255, 127)],
                             ids=["template", "search"])
    def test_square_that_overflows_or_underflows_raises(self, box, crop):
        frame = Frame(np.random.default_rng(0).uniform(0, 1, (3, 40, 40)), 0)
        with pytest.raises(TrackingError, match=r"box BoundingBox\(.*crop scale"):
            crop(frame, box)

    # finite squares whose sample coordinates lie past the int64 range
    @pytest.mark.parametrize("side", [1e19, 1e150])
    def test_huge_square_crops_to_its_mean(self, side):
        values = np.random.default_rng(0).uniform(0, 1, (3, 40, 40))
        crop = crop_search(Frame(values, 0), BoundingBox(20.0, 20.0, side, side),
                           255, 127)
        assert 0.0 < crop.scale < np.inf
        assert np.all(np.isfinite(crop.patch))
        means = values.reshape(3, -1).mean(axis=1)
        pad = np.broadcast_to(means[:, None], (3, int(crop.pad_mask.sum())))
        assert np.array_equal(crop.patch[:, crop.pad_mask], pad)

    def test_crop_side_is_stride_aligned(self):
        rng = np.random.default_rng(6)
        frame = self._frame(rng)
        box = BoundingBox(40, 40, 16, 12)
        crop = crop_template(Frame(frame, 0), box, 30)
        assert crop.patch.shape == (3, 32, 32)
        assert crop.pad_mask[:, 30:].all() and crop.pad_mask[30:, :].all()
        assert not crop.pad_mask[:30, :30].any()
        means = frame.reshape(3, -1).mean(axis=1)
        assert np.array_equal(crop.patch[:, :, 30], np.tile(means[:, None], (1, 32)))
        # the map samples the 30 pixels asked for across the context square
        assert crop.scale == context_side(box) / 30
        ys, xs = sample_grid(crop, 30)
        expected = bilinear_oracle(frame, ys, xs, means)
        assert np.abs(crop.patch[:, :30, :30] - expected).max() < 1e-12
        # an aligned size is sampled as asked, with nothing added
        aligned = crop_template(Frame(frame, 0), box, 32)
        assert aligned.patch.shape == (3, 32, 32) and not aligned.pad_mask.any()


@st.composite
def crop_requests(draw):
    """A random frame, a box that overlaps it (partly outside it at times),
    a patch size, and the template size a search crop scales from (None
    for a template crop)."""
    h, w = draw(st.integers(4, 48)), draw(st.integers(4, 48))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    frame = np.random.default_rng(seed).uniform(0.0, 1.0, (3, h, w))
    box = BoundingBox(draw(st.floats(0.0, w)), draw(st.floats(0.0, h)),
                      draw(st.floats(0.5, 2.0 * w)), draw(st.floats(0.5, 2.0 * h)))
    size = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return frame, box, size, None
    return frame, box, size + draw(st.integers(0, 24)), size


def crop_of(frame, box, size, template_size):
    if template_size is None:
        return crop_template(frame, box, size)
    return crop_search(frame, box, size, template_size)


def side_of(box, size, template_size):
    """The side of the square that ``crop_of`` samples. A template crop's
    is the context side itself: scaled by size / size it can round to a
    neighbouring float."""
    if template_size is None:
        return context_side(box)
    return context_side(box) * size / template_size


class TestCropAffineFuzz:
    """The patch/image affine map of a crop, and its stride-aligned side."""

    @settings(max_examples=300, deadline=None)
    @given(request=crop_requests(), x=st.floats(-100.0, 200.0),
           y=st.floats(-100.0, 200.0))
    def test_image_patch_round_trip(self, request, x, y):
        frame, box, size, template_size = request
        crop = crop_of(Frame(frame, 0), box, size, template_size)
        back = patch_to_image(image_to_patch((x, y), crop), crop)
        for got, want, origin in zip(back, (x, y), crop.origin):
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want) + abs(origin))

    @settings(max_examples=300, deadline=None)
    @given(request=crop_requests())
    def test_side_is_aligned_and_the_strip_past_the_size_is_flagged(self, request):
        frame, box, size, template_size = request
        crop = crop_of(Frame(frame, 0), box, size, template_size)
        side = crop.patch.shape[1]
        assert crop.patch.shape == (3, side, side)
        assert crop.pad_mask.shape == (side, side)
        assert side % STRIDE == 0 and size <= side < size + STRIDE
        # the map is the one of the size asked for: ``size`` pixels across
        # the context square, centred on the box
        span = context_side(box) * size / (template_size or size)
        assert crop.scale == pytest.approx(span / size, rel=1e-12)
        centre = patch_to_image(((size - 1) / 2.0, (size - 1) / 2.0), crop)
        for got, want in zip(centre, (box.cx, box.cy)):
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want) + span)
        ys, xs = sample_grid(crop, size)
        means = frame.reshape(3, -1).mean(axis=1)
        expected = bilinear_oracle(frame, ys, xs, means)
        assert np.abs(crop.patch[:, :size, :size] - expected).max() < 1e-12
        assert np.array_equal(crop.pad_mask[:size, :size],
                              coverage_oracle(frame.shape[1:], ys, xs) == 0.0)
        new = np.ones((side, side), dtype=bool)
        new[:size, :size] = False
        assert crop.pad_mask[new].all()
        assert np.array_equal(crop.patch[:, new],
                              np.broadcast_to(means[:, None], (3, int(new.sum()))))


@st.composite
def window_crops(draw):
    """A frame, a box and a (size, template size) pair of the tracker's
    geometries (template size None for a template crop). The box lies
    inside the frame (a patch pixel under one image pixel), straddles its
    edge, or is so large that the samples step over the whole frame (an
    image pixel under many patch pixels; some crops then cover nothing)."""
    h, w = draw(st.integers(4, 64)), draw(st.integers(4, 64))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    frame = np.random.default_rng(seed).uniform(0.0, 1.0, (3, h, w))
    place = draw(st.sampled_from(["inside", "edge", "huge"]))
    if place == "inside":
        bw = draw(st.floats(0.5, w / 6.0))
        bh = draw(st.floats(0.5, h / 6.0))
        cx = draw(st.floats(w / 3.0, 2.0 * w / 3.0))
        cy = draw(st.floats(h / 3.0, 2.0 * h / 3.0))
    else:
        grow = 2.0 if place == "edge" else 60.0
        bw = draw(st.floats(0.5, grow * w))
        bh = draw(st.floats(0.5, grow * h))
        cx = draw(st.floats(-bw / 2.0 + 0.25, w + bw / 2.0 - 0.25))
        cy = draw(st.floats(-bh / 2.0 + 0.25, h + bh / 2.0 - 0.25))
    size, template_size = draw(st.sampled_from(
        [(64, None), (128, 64), (127, None), (255, 127)]))
    return frame, BoundingBox(cx, cy, bw, bh), size, template_size


class TestCropWindowFuzz:
    """The covered-window sampler against the full sampler it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(request=window_crops())
    # the samples of this 128 crop, 9.4 pixels apart, step over the 6 x 5
    # frame on both axes
    @example(request=(np.random.default_rng(5).uniform(0.0, 1.0, (3, 5, 6)),
                      BoundingBox(3.0, 2.5, 300.0, 300.0), 128, 64))
    # a template crop whose context side, times 127 over 127, moves by an ulp
    @example(request=(np.random.default_rng(0).uniform(0.0, 1.0, (3, 4, 4)),
                      BoundingBox(0.0, 0.0, 4.705408199094785, 0.5), 127, None))
    def test_patch_and_mask_are_bit_identical(self, request):
        frame, box, size, template_size = request
        crop = crop_of(Frame(frame, 0), box, size, template_size)
        side = side_of(box, size, template_size)
        patch, mask = full_crop_oracle(frame, (box.cx, box.cy), side, size)
        assert np.array_equal(crop.patch, patch)
        assert np.array_equal(crop.pad_mask, mask)

    @settings(max_examples=60, deadline=None)
    @given(request=window_crops(),
           layout=st.sampled_from(["8-bit file", "float64 file", "pgm"]),
           maxval=st.sampled_from([255, 200, 7, 1]))
    @example(request=(np.random.default_rng(5).uniform(0.0, 1.0, (3, 5, 6)),
                      BoundingBox(3.0, 2.5, 300.0, 300.0), 128, 64),
             layout="8-bit file", maxval=255)
    def test_every_layout_crops_like_its_planar_values(self, request, layout,
                                                       maxval):
        """A frame crops like the oracle on the C-contiguous planar float64
        values of its samples, whatever its dtype and memory layout."""
        values, box, size, template_size = request
        samples = np.rint(values * maxval).astype(np.uint8)
        if layout == "pgm":
            # one channel broadcast to three, as load_sequence reads a PGM
            frame = Frame(np.broadcast_to(samples[0], samples.shape), 0, maxval)
            planar = np.broadcast_to(samples[0] / maxval, samples.shape).copy()
        else:
            # the (H, W, 3) rows of a PPM file, seen as (3, H, W)
            rows = np.ascontiguousarray(samples.transpose(1, 2, 0))
            planar = rows.transpose(2, 0, 1) / maxval
            if layout == "8-bit file":
                frame = Frame(rows.transpose(2, 0, 1), 0, maxval)
            else:
                frame = Frame((rows / maxval).transpose(2, 0, 1), 0)
            assert frame.pixels.strides[0] == frame.pixels.itemsize
        planar = np.ascontiguousarray(planar)
        crop = crop_of(frame, box, size, template_size)
        side = side_of(box, size, template_size)
        patch, mask = full_crop_oracle(planar, (box.cx, box.cy), side, size)
        assert np.array_equal(crop.patch, patch)
        assert np.array_equal(crop.pad_mask, mask)

    def test_crop_that_covers_nothing_is_all_mean(self):
        frame = np.random.default_rng(5).uniform(0.0, 1.0, (3, 5, 6))
        crop = crop_search(Frame(frame, 0), BoundingBox(3.0, 2.5, 300.0, 300.0), 128, 64)
        means = frame.reshape(3, -1).mean(axis=1)
        assert crop.pad_mask.all()
        assert np.array_equal(crop.patch, np.broadcast_to(means[:, None, None],
                                                          (3, 128, 128)))


@st.composite
def eight_bit_crops(draw):
    """A frame of ``window_crops`` as the (H, W, 3) bytes of a PPM file with
    a drawn maxval, and that request's box and sizes."""
    frame, box, size, template_size = draw(window_crops())
    maxval = draw(st.sampled_from([255, 200, 7, 1]))
    rows = np.rint(frame.transpose(1, 2, 0) * maxval).astype(np.uint8)
    return rows, maxval, box, size, template_size


class TestEightBitFrames:
    """Frames as ``load_sequence`` gives them: 8-bit samples and maxval."""

    @settings(max_examples=60, deadline=None)
    @given(request=eight_bit_crops())
    def test_crops_equal_the_float_values_in_the_file_layout(self, request):
        rows, maxval, box, size, template_size = request
        samples = Frame(rows.transpose(2, 0, 1), 0, maxval)
        # how a loaded frame was held before: float64, in the file's layout
        values = (rows.astype(np.float64) / maxval).transpose(2, 0, 1)
        got = crop_of(samples, box, size, template_size)
        want = crop_of(Frame(values, 0), box, size, template_size)
        assert np.array_equal(got.patch, want.patch)
        assert np.array_equal(got.pad_mask, want.pad_mask)

    def test_ppm_frame_holds_one_byte_per_sample(self, tmp_path):
        frames, boxes = generate_synthetic_sequence(0, 2)
        save_sequence(tmp_path, frames, boxes)
        loaded, _ = load_sequence(tmp_path)
        pixels = loaded[0].pixels
        _, h, w = pixels.shape
        assert pixels.dtype == np.uint8 and loaded[0].maxval == 255
        assert pixels.nbytes == 3 * h * w

    def test_pgm_frame_broadcasts_its_channel_and_crops_as_a_ppm(self, tmp_path):
        grey = np.random.default_rng(12).integers(0, 201, (30, 40), dtype=np.uint8)
        (tmp_path / "pgm").mkdir()
        (tmp_path / "ppm").mkdir()
        (tmp_path / "pgm" / "1.pgm").write_bytes(b"P5\n40 30\n200\n" + grey.tobytes())
        rgb = np.repeat(grey[:, :, None], 3, axis=2)
        (tmp_path / "ppm" / "1.ppm").write_bytes(b"P6\n40 30\n200\n" + rgb.tobytes())
        (pgm,), _ = load_sequence(tmp_path / "pgm")
        (ppm,), _ = load_sequence(tmp_path / "ppm")
        assert pgm.pixels.shape == (3, 30, 40) and pgm.pixels.strides[0] == 0
        assert np.shares_memory(pgm.pixels[0], pgm.pixels[2])
        for box in (BoundingBox(20.0, 15.0, 8.0, 6.0), BoundingBox(2.0, 28.0, 20.0, 9.0)):
            for crop in (lambda f: crop_template(f, box, 32),
                         lambda f: crop_search(f, box, 64, 32)):
                a, b = crop(pgm), crop(ppm)
                assert np.array_equal(a.patch, b.patch)
                assert np.array_equal(a.pad_mask, b.pad_mask)

    def test_saved_samples_are_written_back_unchanged(self, tmp_path):
        rgb = np.random.default_rng(13).integers(0, 201, (5, 7, 3), dtype=np.uint8)
        data = b"P6\n7 5\n200\n" + rgb.tobytes()
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "000000.ppm").write_bytes(data)
        frames, _ = load_sequence(tmp_path / "a")
        save_sequence(tmp_path / "b", frames, [])
        assert (tmp_path / "b" / "000000.ppm").read_bytes() == data


class TestFrame:
    @pytest.mark.parametrize("pixels,maxval,error,reason", [
        (np.zeros((4, 4)), 1, ShapeError, r"\(3, H, W\)"),
        (np.zeros((1, 4, 4)), 1, ShapeError, r"\(3, H, W\)"),
        (np.zeros((3, 4, 4), np.float32), 1, ValueError, "float32"),
        (np.zeros((3, 4, 4), np.uint16), 255, ValueError, "uint16"),
        (np.zeros((3, 4, 4), np.uint8), 0, ValueError, "maxval must be 1..255"),
        (np.zeros((3, 4, 4), np.uint8), 256, ValueError, "maxval must be 1..255"),
        (np.zeros((3, 4, 4)), 255, ValueError, "has maxval 1"),
    ])
    def test_rejects_what_it_cannot_mean(self, pixels, maxval, error, reason):
        with pytest.raises(error, match=reason):
            Frame(pixels, 0, maxval)


class TestBackbone:
    def test_stride_arithmetic(self):
        rng = np.random.default_rng(7)
        weights = init_backbone(rng, c_mid=8, d=12)
        mid, out = backbone_forward(Tensor(rng.uniform(0, 1, (1, 3, 64, 64))), weights)
        assert mid.shape == (1, 8, 8, 8)
        assert out.shape == (1, 8, 8, 12)
        mid2, out2 = backbone_forward(Tensor(rng.uniform(0, 1, (1, 3, 128, 128))), weights)
        assert mid2.shape == (1, 8, 16, 16)
        assert out2.shape == (1, 16, 16, 12)

    def test_batch_matches_single_patches(self):
        rng = np.random.default_rng(10)
        weights = init_backbone(rng, c_mid=8, d=12)
        patches = rng.uniform(0, 1, (3, 3, 32, 32))
        mid, out = backbone_forward(Tensor(patches), weights)
        assert mid.shape == (3, 8, 4, 4) and out.shape == (3, 4, 4, 12)
        for b in range(3):
            mid_b, out_b = backbone_forward(Tensor(patches[b:b + 1]), weights)
            assert np.abs(mid.data[b] - mid_b.data[0]).max() < 1e-12
            assert np.abs(out.data[b] - out_b.data[0]).max() < 1e-12

    def test_rejects_non_multiple_of_eight(self):
        rng = np.random.default_rng(8)
        weights = init_backbone(rng, c_mid=8, d=12)
        with pytest.raises(ConfigurationError):
            backbone_forward(Tensor(np.zeros((1, 3, 60, 60))), weights)

    def test_translation_covariance(self):
        rng = np.random.default_rng(9)
        weights = init_backbone(rng, c_mid=8, d=12)
        base = rng.uniform(0, 1, (1, 3, 80, 80))
        shifted = np.roll(base, 8, axis=3)
        _, out_a = backbone_forward(Tensor(base), weights)
        _, out_b = backbone_forward(Tensor(shifted), weights)
        # interior cells shift by one grid cell
        a = out_a.data[0, 3:7, 3:6]
        b = out_b.data[0, 3:7, 4:7]
        assert np.abs(a - b).max() < 1e-6


class TestGridPadMask:
    def test_all_true_blocks_only(self):
        mask = np.zeros((16, 16), bool)
        mask[:8, :8] = True            # one fully padded block
        mask[8:, 8:12] = True          # half of another block
        grid = grid_pad_mask(mask)
        assert grid.tolist() == [[True, False], [False, False]]


class TestSynthetic:
    def test_deterministic_by_seed(self):
        fa, ba = generate_synthetic_sequence(42, 5)
        fb, bb = generate_synthetic_sequence(42, 5)
        for x, y in zip(fa, fb):
            assert np.array_equal(x.pixels, y.pixels)
        assert all(p == q for p, q in zip(ba, bb))
        fc, _ = generate_synthetic_sequence(43, 5)
        assert not np.array_equal(fa[0].pixels, fc[0].pixels)

    def test_zero_velocity_constant_box(self):
        spec = SequenceSpec(velocity=(0.0, 0.0), size_rate=0.0)
        _, boxes = generate_synthetic_sequence(0, 6, spec)
        assert all(b == boxes[0] for b in boxes)

    def test_distractor_adds_painted_pixels(self):
        base = SequenceSpec(distractor=False)
        withd = SequenceSpec(distractor=True)
        fa, _ = generate_synthetic_sequence(0, 1, base)
        fb, boxes = generate_synthetic_sequence(0, 1, withd)
        diff = np.abs(fa[0].pixels - fb[0].pixels).max(axis=0) > 0
        dspec = synth.DISTRACTOR_START
        assert diff.sum() >= 0.5 * dspec[2] * dspec[3]   # distractor area painted
        # the target region itself is identical (distractor is disjoint)
        b = boxes[0]
        y0, y1 = int(b.cy - b.h / 2) + 1, int(b.cy + b.h / 2) - 1
        x0, x1 = int(b.cx - b.w / 2) + 1, int(b.cx + b.w / 2) - 1
        assert not diff[y0:y1, x0:x1].any()

    def test_brightness_drift_darkens_late_frames(self):
        spec = SequenceSpec(brightness_drift=0.4, velocity=(0.0, 0.0))
        frames, _ = generate_synthetic_sequence(0, 10, spec)
        assert frames[-1].pixels.mean() < frames[0].pixels.mean() * 0.75

    # sha256 of 12 seed-0 frames' pixels, then their boxes, as rendered
    # before the appearance change existed
    @pytest.mark.parametrize("spec,digest", [
        (SequenceSpec(),
         "752f7366a6d7cec09fedf6b07cccc144d27101b569b8e2cf86b29e1aef3a777b"),
        (SequenceSpec(brightness_drift=0.35),
         "f49cf37705e22d2b7bb1239a95d681353e1024c8d8c008d25582d8e89e7814d1"),
        (SequenceSpec(distractor=True),
         "2499e7d0bae1761b13327a7836dbb63a11235b0eeca1557285df74b3563bb20b")],
        ids=["default", "drift", "distractor"])
    def test_existing_specs_render_the_same_bytes(self, spec, digest):
        frames, boxes = generate_synthetic_sequence(0, 12, spec)
        sha = hashlib.sha256()
        for frame in frames:
            sha.update(np.ascontiguousarray(frame.pixels).tobytes())
        sha.update(np.array([[b.cx, b.cy, b.w, b.h] for b in boxes]).tobytes())
        assert sha.hexdigest() == digest

    def test_appearance_change_blends_towards_a_second_tile(self):
        still = SequenceSpec(velocity=(0.0, 0.0), background_noise=0.0)
        changed = dataclasses.replace(still, appearance_change=1.0,
                                      change_start=0.4)
        before, boxes = generate_synthetic_sequence(5, 11, still)
        after, _ = generate_synthetic_sequence(5, 11, changed)
        b = boxes[0]
        inside = (slice(None), slice(int(b.cy - b.h / 2) + 1, int(b.cy + b.h / 2) - 1),
                  slice(int(b.cx - b.w / 2) + 1, int(b.cx + b.w / 2) - 1))
        # frames up to the start are untouched; later ones differ inside
        # the box only, more with every frame
        moved = [np.abs(x.pixels - y.pixels)[inside].mean()
                 for x, y in zip(before, after)]
        assert moved[:5] == [0.0] * 5 and all(
            0.0 < m < n for m, n in zip(moved[5:], moved[6:]))
        painted = (slice(None), slice(round(b.cy - b.h / 2), round(b.cy + b.h / 2)),
                   slice(round(b.cx - b.w / 2), round(b.cx + b.w / 2)))
        for x, y in zip(before, after):
            outside = x.pixels != y.pixels
            outside[painted] = False
            assert not outside.any()
        # the final frame shows the second tile alone: a half-way blend
        # sits half-way between the two tiles' frames
        half = dataclasses.replace(changed, appearance_change=0.5)
        mid, _ = generate_synthetic_sequence(5, 11, half)
        np.testing.assert_allclose(
            mid[-1].pixels[inside],
            0.5 * (before[-1].pixels[inside] + after[-1].pixels[inside]),
            rtol=0, atol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_synthetic_sequence(0, 0)

    @pytest.mark.parametrize("field,value", [
        ("image_size", (0, 112)), ("image_size", (112, -3)),
        ("brightness_drift", float("nan")),      # used to render no drift
        ("brightness_drift", 1.5), ("brightness_drift", -0.2),
        ("drift_start", float("nan")), ("drift_start", 2.0),
        ("appearance_change", float("nan")), ("appearance_change", 1.5),
        ("change_start", -0.1)])
    def test_bad_spec_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SequenceSpec(**{field: value})


def pixel_count_iou(a: BoundingBox, b: BoundingBox) -> float:
    ax, ay, aw, ah = (int(v) for v in a.as_corner())
    bx, by, bw, bh = (int(v) for v in b.as_corner())
    size = 300
    grid_a = np.zeros((size, size), bool)
    grid_b = np.zeros((size, size), bool)
    grid_a[ay + 100:ay + ah + 100, ax + 100:ax + aw + 100] = True
    grid_b[by + 100:by + bh + 100, bx + 100:bx + bw + 100] = True
    inter = (grid_a & grid_b).sum()
    union = (grid_a | grid_b).sum()
    return inter / union if union else 0.0


_COORD = st.floats(-1e4, 1e4)
_SIDE = st.floats(1e-3, 1e4)
BOXES = st.builds(BoundingBox, _COORD, _COORD, _SIDE, _SIDE)


class TestMetrics:
    def test_perfect_prediction(self):
        boxes = [BoundingBox(10, 10, 4, 4), BoundingBox(12, 11, 4, 4)]
        m = evaluate(boxes, [BoundingBox(b.cx, b.cy, b.w, b.h) for b in boxes])
        assert m.mean_iou == 1.0
        assert m.auc == 1.0
        assert m.success_at_05 == 1.0 and m.success_at_075 == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 2, 2)) == 0.0

    def test_known_overlap(self):
        # corner-format (0,0,2,2) vs (1,1,2,2): intersection 1, union 7
        a = BoundingBox.from_corner(0, 0, 2, 2)
        b = BoundingBox.from_corner(1, 1, 2, 2)
        assert abs(iou(a, b) - 1.0 / 7.0) < 1e-12

    def test_matches_pixel_counting_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = BoundingBox.from_corner(*rng.integers(-20, 20, 2),
                                        *rng.integers(1, 30, 2))
            b = BoundingBox.from_corner(*rng.integers(-20, 20, 2),
                                        *rng.integers(1, 30, 2))
            analytic = iou(a, b)
            counted = pixel_count_iou(a, b)
            area = min(a.w * a.h, b.w * b.h)
            assert abs(analytic - counted) <= 1.0 / area + 1e-12

    @given(BOXES, BOXES)
    @example(BoundingBox(63.69616873214543, 26.97867137638703,
                         2.597967433511593, 1.6445777856126347),
             BoundingBox(0.0, 0.0, 1.0, 1.0))
    def test_in_unit_interval_and_exactly_one_on_itself(self, a, b):
        # the example's box scored 1.0000000000000009 against itself when
        # the areas were taken as w * h rather than from the corner spans
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, a) == 1.0
        assert iou(a, b) == iou(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([BoundingBox(0, 0, 1, 1)], [])


class TestSequenceIo:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        pixels = np.round(rng.uniform(0, 1, (3, 10, 14)) * 255) / 255.0
        path = tmp_path / "frame.ppm"
        write_ppm(path, pixels)
        back, maxval = read_netpbm(path)
        assert back.shape == (3, 10, 14)
        assert np.abs(back / maxval - pixels).max() < 1e-12

    @pytest.mark.parametrize("maxval", [0, 256, 65535])
    def test_maxval_outside_8_bit_rejected(self, tmp_path, maxval):
        # zero would give inf/NaN pixels; two-byte samples would be misread
        path = tmp_path / "frame.pgm"
        path.write_bytes(f"P5\n2 2\n{maxval}\n".encode("ascii") + bytes(8))
        with pytest.raises(ValueError, match="frame.pgm"):
            read_netpbm(path)

    @pytest.mark.parametrize("header,reason", [
        ("P6\n0 0\n255\n", "not positive"),       # used to give a (3, 0, 0) frame
        ("P6\n-2 2\n255\n", "not positive"),      # used to fail inside fh.read
        ("P6\n2 two\n255\n", "not an integer"),   # used to be a bare int() error
    ])
    def test_malformed_header_names_the_file(self, tmp_path, header, reason):
        path = tmp_path / "frame.ppm"
        path.write_bytes(header.encode("ascii") + bytes(12))
        with pytest.raises(ValueError, match=f"frame.ppm.*{reason}"):
            read_netpbm(path)

    def test_huge_header_dims_are_truncated_data(self, tmp_path):
        # the header asks for 3 TB; reading it used to raise a bare MemoryError
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6 1000000 1000000 255\n" + bytes(3))
        with pytest.raises(ValueError, match="frame.ppm: truncated pixel data"):
            read_netpbm(path)

    def test_one_byte_short_is_truncated_data(self, tmp_path):
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(ValueError, match="frame.ppm: truncated pixel data"):
            read_netpbm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        # used to load as a pixel value of 201/200
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"P5\n2 1\n200\n" + bytes([200, 201]))
        with pytest.raises(ValueError, match="frame.pgm: pixel sample 201 above maxval 200"):
            read_netpbm(path)

    @pytest.mark.parametrize("normalize,expected", [
        ("global", [[0, 85], [170, 255]]),
        ("row", [[0, 255], [170, 255]]),
    ])
    def test_pgm_normalize_modes(self, tmp_path, normalize, expected):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [2.0, 3.0]]), normalize)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(sum(expected, []))

    @pytest.mark.parametrize("normalize", ["none", "Row", ""])
    def test_pgm_unknown_normalize_mode_rejected(self, tmp_path, normalize):
        path = tmp_path / "map.pgm"
        with pytest.raises(ValueError, match=f"unknown normalize mode {normalize!r}"):
            write_pgm(path, np.ones((2, 2)), normalize)
        assert not path.exists()

    def test_rect_file_roundtrip(self, tmp_path):
        boxes = [BoundingBox(10.5, 20.25, 8.0, 6.5), BoundingBox(1, 2, 3, 4)]
        path = tmp_path / "rects.txt"
        write_rect_file(path, boxes)
        back = read_rect_file(path)
        for a, b in zip(boxes, back):
            assert abs(a.cx - b.cx) < 1e-3 and abs(a.h - b.h) < 1e-3

    def test_reads_comma_and_tab_separated(self, tmp_path):
        path = tmp_path / "rects.txt"
        path.write_text("1,2,3,4\n5\t6\t7\t8\n")
        boxes = read_rect_file(path)
        assert boxes[0].as_corner() == (1.0, 2.0, 3.0, 4.0)
        assert boxes[1].as_corner() == (5.0, 6.0, 7.0, 8.0)

    @pytest.mark.parametrize("bad_line,reason", [
        ("5,6,7", "4 fields"),                # used to be a raw unpack error
        ("1,2,3,4,5", "4 fields"),            # extra fields used to be dropped
        ("1 2 3 4 junk", "4 fields"),
        ("nan,6,7,8", "non-finite"),          # used to load silently
        ("5,6,-7,8", "negative"),             # used to load silently
        ("5,6,7,-8", "negative"),
        ("5,6,seven,8", "could not convert"),
    ])
    def test_malformed_rect_line_names_file_and_line(self, tmp_path,
                                                    bad_line, reason):
        path = tmp_path / "rects.txt"
        path.write_text(f"1,2,3,4\n\n{bad_line}\n")
        with pytest.raises(ValueError, match=f"rects.txt:3: .*{reason}"):
            read_rect_file(path)

    def test_sequence_roundtrip(self, tmp_path):
        frames, boxes = generate_synthetic_sequence(0, 3)
        save_sequence(tmp_path / "seq", frames, boxes)
        loaded_frames, loaded_boxes = load_sequence(tmp_path / "seq")
        assert len(loaded_frames) == 3 and len(loaded_boxes) == 3
        # 8-bit quantization bounds the pixel error
        loaded = loaded_frames[0]
        assert np.abs(loaded.pixels / loaded.maxval - frames[0].pixels).max() <= 0.5 / 255
        assert abs(loaded_boxes[1].cx - boxes[1].cx) < 1e-3

    def test_frames_load_in_number_order(self, tmp_path):
        # sorted as strings, 10.ppm to 12.ppm came before 2.ppm
        for number in range(1, 13):
            write_ppm(tmp_path / f"{number}.ppm", np.full((3, 2, 2), number / 255.0))
        frames, _ = load_sequence(tmp_path)
        assert [round(f.pixels[0, 0, 0] / f.maxval * 255) for f in frames] == list(range(1, 13))
        assert [f.index for f in frames] == list(range(12))

    @pytest.mark.parametrize("names,message", [
        (["1.ppm", "frame2.ppm"], "frame2.ppm: frame name is not a number"),
        (["1.ppm", "-2.ppm"], "-2.ppm: frame name is not a number"),
        (["007.ppm", "7.ppm"], "7.ppm: frame 7 is also 007.ppm"),
        (["3.pgm", "3.ppm"], "3.ppm: frame 3 is also 3.pgm"),
    ])
    def test_frame_names_that_do_not_order_are_rejected(self, tmp_path, names,
                                                       message):
        for name in names:
            write_ppm(tmp_path / name, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match=message):
            load_sequence(tmp_path)


def _valid_frames() -> list[bytes]:
    """A PPM as ``write_ppm`` writes it, and a PGM with a header comment
    and an 8-bit maxval below 255."""
    rng = np.random.default_rng(0)
    header = b"P6\n5 4\n255\n"
    ppm = header + rng.integers(0, 256, 3 * 5 * 4, dtype=np.uint8).tobytes()
    pgm = b"P5\n# c\n3 2\n200\n" + rng.integers(0, 201, 6, dtype=np.uint8).tobytes()
    return [ppm, pgm]


def _valid_rect_file() -> bytes:
    return b"10.5000,20.2500,8.0000,6.5000\n1,2,3,4\n\n5\t6\t7\t8\n"


@st.composite
def damaged(draw, valid: list[bytes]):
    """One of ``valid`` with up to 4 bytes replaced, then maybe truncated."""
    data = bytearray(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))])


# the only errors a damaged input file may raise
READER_ERRORS = (ValueError, ShapeError, TrackingError)


class TestReaderFuzz:
    """Damaged files give a reader's own error or a well-formed result."""

    @settings(max_examples=800, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=damaged(_valid_frames()))
    def test_read_netpbm(self, tmp_path, data):
        path = tmp_path / "frame.pnm"
        path.write_bytes(data)
        try:
            samples, maxval = read_netpbm(path)
        except READER_ERRORS:
            return
        pixels = samples / maxval
        assert pixels.ndim in (2, 3) and pixels.size > 0
        assert np.all((pixels >= 0.0) & (pixels <= 1.0))

    @settings(max_examples=800, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=damaged([_valid_rect_file()]))
    def test_read_rect_file(self, tmp_path, data):
        path = tmp_path / "rects.txt"
        path.write_bytes(data)
        try:
            boxes = read_rect_file(path)
        except READER_ERRORS:
            return
        for box in boxes:
            assert np.all(np.isfinite(box.as_corner()))
            assert box.w >= 0.0 and box.h >= 0.0
