"""Seeded generator of MNIST-shaped IDX files.

Each class is a fixed skeleton of a few control points joined by strokes.
A sample jitters its class's control points, shifts the whole figure and
draws the strokes at a random width and ink level, anti-aliased, on a zero
background. Train and test draw from the same skeletons, so they share
class structure, but from separate drawings. The jitter makes classes
overlap, so a model keeps improving over an epoch instead of saturating,
and a small share of labels is flipped so that no model can reach 100%.

Pixel statistics are close to MNIST's: about a fifth of pixels nonzero and
a mean of about 0.13 after scaling to [0, 1].

Run as a script to write the four IDX files into a directory:

    PYTHONPATH=src python3 perfbench/synth.py --seed 1 --out DIR \
        [--train 60000] [--test 10000]
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

from nsn.mnist import IMAGE_SIDE as SIDE
from nsn.mnist import TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS

CLASSES = 10
CONTROL_POINTS = 5
JITTER_PX = 1.0
SHIFT_PX = 2
WIDTH_RANGE = (1.4, 2.4)
INK_RANGE = (0.75, 1.0)
VARIANTS = 600
LABEL_FLIP = 0.04
CHUNK = 1000
CANVAS = SIDE + 2 * SHIFT_PX

SKELETON_SEED = 0
_STREAM_TRAIN, _STREAM_TEST = 1, 2


def skeletons() -> np.ndarray:
    """Control points [CLASSES, CONTROL_POINTS, 2] (row, col) per class.

    Fixed like the real digit shapes; only the samples depend on the seed,
    so accuracy varies little from seed to seed.
    """
    rng = np.random.default_rng(SKELETON_SEED)
    return rng.uniform(6.0, 21.0, size=(CLASSES, CONTROL_POINTS, 2))


def _render(points: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Anti-aliased polylines: points [B, P, 2], width [B] -> [B, C, C]
    intensities in [0, 1], where C = SIDE + 2 * SHIFT_PX."""
    rows, cols = np.divmod(np.arange(CANVAS * CANVAS, dtype=np.float32),
                           CANVAS)
    pts = points.astype(np.float32)
    ay, ax = pts[:, :-1, 0, None], pts[:, :-1, 1, None]        # [B, S, 1]
    by, bx = pts[:, 1:, 0, None] - ay, pts[:, 1:, 1, None] - ax
    inv_len2 = 1.0 / np.maximum(by * by + bx * bx, 1e-6)
    py, px = rows - ay, cols - ax                              # [B, S, C*C]
    t = np.clip((py * by + px * bx) * inv_len2, 0.0, 1.0)
    py -= t * by
    px -= t * bx
    dist = np.sqrt((py * py + px * px).min(axis=1))              # [B, C*C]
    ink = np.clip(width[:, None].astype(np.float32) + 0.5 - dist, 0.0, 1.0)
    return ink.reshape(-1, CANVAS, CANVAS)


def make_split(seed: int, count: int, stream: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """(images uint8 [count, 28, 28], labels uint8 [count]) for one split.

    Jittered drawings are rendered once per split, VARIANTS per class, on a
    canvas SHIFT_PX wider on every side; each sample crops one of them at a
    random offset and scales its ink.
    """
    base = skeletons()
    rng = np.random.default_rng([seed, stream])
    pts = np.repeat(base, VARIANTS, axis=0) + SHIFT_PX
    pts += rng.normal(0.0, JITTER_PX, size=pts.shape)
    width = rng.uniform(*WIDTH_RANGE, size=pts.shape[0])
    canvas = np.concatenate([_render(pts[i:i + CHUNK], width[i:i + CHUNK])
                             for i in range(0, pts.shape[0], CHUNK)])
    windows = np.lib.stride_tricks.sliding_window_view(
        canvas, (SIDE, SIDE), axis=(1, 2))       # [V, 2s+1, 2s+1, 28, 28]
    labels = rng.integers(0, CLASSES, size=count)
    variant = labels * VARIANTS + rng.integers(0, VARIANTS, size=count)
    dy, dx = rng.integers(0, 2 * SHIFT_PX + 1, size=(2, count))
    scale = rng.uniform(*INK_RANGE, size=(count, 1, 1)).astype(np.float32)
    images = np.rint(windows[variant, dy, dx] * scale * 255.0).astype(np.uint8)
    flip = rng.random(count) < LABEL_FLIP
    labels[flip] = rng.integers(0, CLASSES, size=int(flip.sum()))
    return images, labels.astype(np.uint8)


def idx_image_bytes(images: np.ndarray) -> bytes:
    count, rows, cols = images.shape
    return struct.pack(">IIII", 2051, count, rows, cols) + images.tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 2049, labels.shape[0]) + labels.tobytes()


def write_idx_dir(out: Path, seed: int, train: int, test: int) -> Path:
    """Write the four canonical IDX files for ``seed`` into ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for images_name, labels_name, count, stream in (
            (TRAIN_IMAGES, TRAIN_LABELS, train, _STREAM_TRAIN),
            (TEST_IMAGES, TEST_LABELS, test, _STREAM_TEST)):
        images, labels = make_split(seed, count, stream)
        (out / images_name).write_bytes(idx_image_bytes(images))
        (out / labels_name).write_bytes(idx_label_bytes(labels))
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--train", type=int, default=60000)
    p.add_argument("--test", type=int, default=10000)
    args = p.parse_args()
    write_idx_dir(args.out, args.seed, args.train, args.test)


if __name__ == "__main__":
    main()
