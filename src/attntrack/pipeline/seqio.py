"""Sequence and image file I/O.

Sequences live in a directory of numbered binary PPM/PGM frames plus a
``groundtruth_rect.txt`` with one comma- or tab-separated ``x,y,w,h``
line (top-left corner format) per frame. Tracker results use the same
rectangle format. Heatmaps and attention maps dump to 8-bit PGM and CSV.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..localize import BoundingBox

GROUNDTRUTH_FILE = "groundtruth_rect.txt"


@dataclass
class Frame:
    """One video frame, whose pixel values are ``pixels / maxval``.

    ``pixels`` is (3, H, W): either 8-bit samples (uint8, 0..maxval), as
    ``load_sequence`` gives them, a view of the file's row-major RGB bytes
    (a PGM's one channel broadcast to three), or float64 values in [0, 1]
    with ``maxval`` 1, as ``generate_synthetic_sequence`` renders them.
    The crop is the only code that reads the values.
    """
    pixels: np.ndarray
    index: int
    maxval: int = 1

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[0] != 3:
            raise ShapeError(f"frame must be a (3, H, W) array, got shape "
                             f"{self.pixels.shape}")
        if self.pixels.dtype == np.uint8:
            if not 1 <= self.maxval <= 255:
                raise ValueError(f"an 8-bit frame's maxval must be 1..255, "
                                 f"got {self.maxval}")
        elif self.pixels.dtype == np.float64:
            if self.maxval != 1:
                raise ValueError(f"a float64 frame holds values in [0, 1] and "
                                 f"has maxval 1, got {self.maxval}")
        else:
            raise ValueError(f"frame pixels must be uint8 samples or float64 "
                             f"values, got {self.pixels.dtype}")


def _read_token(fh) -> bytes:
    token = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            break
        if ch == b"#":
            while ch and ch != b"\n":
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                break
            continue
        token += ch
    return bytes(token)


def _read_header_int(fh, path, what: str) -> int:
    token = _read_token(fh)
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{path}: netpbm {what} {token!r} is not an integer") from None


def read_netpbm(path) -> tuple[np.ndarray, int]:
    """Read a binary PPM (P6) or PGM (P5) as its 8-bit samples and maxval.

    The samples are uint8 views of the file's bytes: (3, H, W) for a PPM
    (row-major RGB, so the channel axis has stride 1) and (H, W) for a PGM;
    a pixel value is a sample over maxval. Raises ``ValueError`` naming
    the file for a malformed header, truncated pixel data or a sample above
    maxval.
    """
    with open(path, "rb") as fh:
        magic = _read_token(fh)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"{path}: unsupported netpbm magic {magic!r}")
        width = _read_header_int(fh, path, "width")
        height = _read_header_int(fh, path, "height")
        if width < 1 or height < 1:
            raise ValueError(f"{path}: netpbm size {width}x{height} is not positive")
        maxval = _read_header_int(fh, path, "maxval")
        if not 1 <= maxval <= 255:
            # 0 would divide by zero; above 255 samples take two bytes
            raise ValueError(f"{path}: unsupported netpbm maxval {maxval} "
                             f"(only 8-bit, 1..255, is read)")
        channels = 3 if magic == b"P6" else 1
        count = width * height * channels
        # a header may claim more pixels than any buffer could hold
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if count > left:
            raise ValueError(f"{path}: truncated pixel data ({width}x{height} "
                             f"needs {count} bytes, {left} follow the header)")
        raw = fh.read(count)
    samples = np.frombuffer(raw, dtype=np.uint8)
    if maxval < 255 and samples.max() > maxval:
        raise ValueError(f"{path}: pixel sample {samples.max()} above maxval {maxval}")
    if channels == 3:
        return samples.reshape(height, width, 3).transpose(2, 0, 1), maxval
    return samples.reshape(height, width), maxval


def _write_netpbm(path, samples: np.ndarray, maxval: int) -> None:
    """Write 8-bit samples, (3, H, W) as binary PPM or (H, W) as PGM."""
    if samples.ndim == 3:
        magic, body = "P6", samples.transpose(1, 2, 0)
    else:
        magic, body = "P5", samples
    h, w = body.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(body.tobytes())


def _to_8_bit(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write a (3, H, W) array in [0, 1] as binary PPM."""
    _write_netpbm(path, _to_8_bit(pixels), 255)


def write_pgm(path, values: np.ndarray, normalize: str) -> None:
    """Write a 2-D array as 8-bit PGM.

    normalize: "global" scales by the array max, "row" scales each row by
    its own max (useful for row-stochastic attention maps).
    """
    v = np.asarray(values, dtype=np.float64)
    if normalize == "global":
        peak = v.max()
        v = v / peak if peak > 0 else v
    elif normalize == "row":
        peaks = v.max(axis=1, keepdims=True)
        peaks[peaks == 0] = 1.0
        v = v / peaks
    else:
        raise ValueError(f"unknown normalize mode {normalize!r}")
    _write_netpbm(path, _to_8_bit(v), 255)


def write_csv(path, values: np.ndarray) -> None:
    np.savetxt(path, np.asarray(values), delimiter=",", fmt="%.12g")


def _parse_rect_line(line: str) -> BoundingBox:
    parts = [p for p in re.split(r"[,\s]+", line.strip()) if p]
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields x,y,w,h, got {len(parts)}")
    x, y, w, h = (float(p) for p in parts)
    if not np.all(np.isfinite((x, y, w, h))):
        raise ValueError(f"non-finite box {x},{y},{w},{h}")
    if w < 0 or h < 0:
        raise ValueError(f"negative box size {w}x{h}")
    return BoundingBox.from_corner(x, y, w, h)


def read_rect_file(path) -> list[BoundingBox]:
    """One box per non-blank line; ``ValueError`` names the file and line
    of a malformed one."""
    boxes = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                boxes.append(_parse_rect_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return boxes


def write_rect_file(path, boxes: list[BoundingBox]) -> None:
    with open(path, "w") as fh:
        for box in boxes:
            x, y, w, h = box.as_corner()
            fh.write(f"{x:.4f},{y:.4f},{w:.4f},{h:.4f}\n")


def save_sequence(directory, frames: list[Frame], boxes: list[BoundingBox]) -> None:
    """Write each frame as a PPM, 8-bit samples with their maxval unchanged
    and float64 values rounded to 8 bits, plus the ground truth."""
    os.makedirs(directory, exist_ok=True)
    for frame in frames:
        path = os.path.join(directory, f"{frame.index:06d}.ppm")
        if frame.pixels.dtype == np.uint8:
            _write_netpbm(path, frame.pixels, frame.maxval)
        else:
            write_ppm(path, frame.pixels)
    write_rect_file(os.path.join(directory, GROUNDTRUTH_FILE), boxes)


def _frame_order(directory, names: list[str]) -> list[str]:
    """Frame files ordered by the number their stem spells (``2.ppm`` before
    ``10.ppm``); ``ValueError`` names a stem that is not digits, or a
    number that two files spell."""
    numbered: dict[int, str] = {}
    for name in names:
        stem, path = os.path.splitext(name)[0], os.path.join(directory, name)
        if not (stem.isascii() and stem.isdigit()):
            raise ValueError(f"{path}: frame name is not a number")
        number = int(stem)
        if number in numbered:
            raise ValueError(f"{path}: frame {number} is also {numbered[number]}")
        numbered[number] = name
    return [numbered[number] for number in sorted(numbered)]


def load_sequence(directory) -> tuple[list[Frame], list[BoundingBox]]:
    """Read numbered PPM/PGM frames as 8-bit ``Frame``s, in the order of
    their numbers, plus ground truth. A PGM's one channel is broadcast to
    three, so its frame holds one byte per pixel."""
    names = _frame_order(directory, sorted(n for n in os.listdir(directory)
                                           if n.lower().endswith((".ppm", ".pgm"))))
    if not names:
        raise ValueError(f"no PPM/PGM frames found in {directory}")
    frames = []
    for i, name in enumerate(names):
        samples, maxval = read_netpbm(os.path.join(directory, name))
        if samples.ndim == 2:
            samples = np.broadcast_to(samples, (3,) + samples.shape)
        frames.append(Frame(pixels=samples, index=i, maxval=maxval))
    gt_path = os.path.join(directory, GROUNDTRUTH_FILE)
    boxes = read_rect_file(gt_path) if os.path.exists(gt_path) else []
    return frames, boxes
