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

from ..localize import BoundingBox

GROUNDTRUTH_FILE = "groundtruth_rect.txt"


@dataclass
class Frame:
    pixels: np.ndarray     # (3, H, W) float64 in [0, 1]
    index: int


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


def read_netpbm(path) -> np.ndarray:
    """Read a binary PPM (P6) as (3, H, W) or PGM (P5) as (H, W), in [0, 1].

    Raises ``ValueError`` naming the file for a malformed header, truncated
    pixel data or a sample above maxval.
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
    data = samples.astype(np.float64) / maxval
    if channels == 3:
        return data.reshape(height, width, 3).transpose(2, 0, 1)
    return data.reshape(height, width)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write a (3, H, W) array in [0, 1] as binary PPM."""
    _, h, w = pixels.shape
    body = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(body.transpose(1, 2, 0).tobytes())


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
    h, w = v.shape
    body = np.clip(np.rint(v * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(body.tobytes())


def write_csv(path, values: np.ndarray) -> None:
    np.savetxt(path, np.asarray(values), delimiter=",", fmt="%.12g")


def _parse_rect_line(line: str) -> BoundingBox:
    parts = [p for p in re.split(r"[,\s]+", line.strip()) if p]
    if len(parts) < 4:
        raise ValueError(f"expected 4 fields x,y,w,h, got {len(parts)}")
    x, y, w, h = (float(p) for p in parts[:4])
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
    os.makedirs(directory, exist_ok=True)
    for frame in frames:
        write_ppm(os.path.join(directory, f"{frame.index:06d}.ppm"), frame.pixels)
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
    """Read numbered PPM/PGM frames (a PGM as three equal channels), in the
    order of their numbers, plus ground truth."""
    names = _frame_order(directory, sorted(n for n in os.listdir(directory)
                                           if n.lower().endswith((".ppm", ".pgm"))))
    if not names:
        raise ValueError(f"no PPM/PGM frames found in {directory}")
    frames = []
    for i, name in enumerate(names):
        pixels = read_netpbm(os.path.join(directory, name))
        if pixels.ndim == 2:
            pixels = np.stack([pixels] * 3)
        frames.append(Frame(pixels=pixels, index=i))
    gt_path = os.path.join(directory, GROUNDTRUTH_FILE)
    boxes = read_rect_file(gt_path) if os.path.exists(gt_path) else []
    return frames, boxes
