"""Binary checkpoint serialization.

Layout (all integers little-endian):

    magic   4 bytes  b"NSN1"
    u32     version (2 is written; 1 is still read)
    u32     n (hidden layers of the base model): the group count - 1
    u32     group count
    per group, ordered head-first (group id 0 .. n):
        u32 rows, u32 cols
        rows*cols f32   weight, row-major
        u32 bias length (rows), then that many f32
        rows*cols f32   momentum V for the weight
        u32 length (rows), then that many f32   momentum V for the bias
    u32     epoch (completed epochs)
    u64 x3  init, shuffle, dropout seeds
    version 2 only, the best epoch so far so that a resumed run keeps it:
        i32 best epoch (0-based; -1 when none has been evaluated)
        u32 model count, then that many f64: every model's test accuracy
            at the best epoch. The count is 1 for a baseline (its base
            model), the group count for a family (every model), or 0 when
            the best is unknown.
    u32     config echo byte length, then UTF-8 bytes

Round-trips are bitwise, version 1 files included: float payloads are
written from the arrays themselves and read with readinto() straight into
the arrays the loaded checkpoint holds, so neither a save nor a load copies
a parameter. Every length is checked against the bytes left in the file
before anything is allocated for it, and an n or a bias length the groups
do not agree with is a FormatError, and so is a model count that is none
of 0, 1 and the group count. A version 1 file loads with the best epoch
unknown (-1, no accuracies).

Files are written to a temporary file in the same directory and renamed
over the target, so a crash mid-write leaves the previous file whole.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, LengthError
from .nn import DenseLayer
from .optim import MomentumState

MAGIC = b"NSN1"
VERSION = 2


@dataclass
class Checkpoint:
    groups: list[DenseLayer]  # head (group 0) first
    momentum: list[MomentumState]  # one per group
    epoch: int
    init_seed: int
    shuffle_seed: int
    dropout_seed: int
    config_echo: str
    best_epoch: int = -1
    best_accuracies: list = field(default_factory=list)  # one per model
    version: int = VERSION


def save_checkpoint(path: Path, ckpt: Checkpoint) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<III", ckpt.version, len(ckpt.groups) - 1,
                                 len(ckpt.groups)))
            for layer, state in zip(ckpt.groups, ckpt.momentum, strict=True):
                fh.write(struct.pack("<II", *layer.weight.shape))
                for a in (layer.weight, layer.bias, state.v_weight,
                          state.v_bias):
                    if a.ndim == 1:
                        fh.write(struct.pack("<I", a.shape[0]))
                    fh.write(np.ascontiguousarray(a, "<f4"))
            fh.write(struct.pack("<IQQQ", ckpt.epoch, ckpt.init_seed,
                                 ckpt.shuffle_seed, ckpt.dropout_seed))
            if ckpt.version >= 2:
                accs = ckpt.best_accuracies
                fh.write(struct.pack(f"<iI{len(accs)}d", ckpt.best_epoch,
                                     len(accs), *accs))
            echo = ckpt.config_echo.encode("utf-8")
            fh.write(struct.pack("<I", len(echo)))
            fh.write(echo)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    """Reads an open file front to back; every read is first checked
    against the bytes left, so a header cannot make it allocate more than
    the file holds."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _claim(self, count: int) -> int:
        if self.pos + count > self.size:
            raise LengthError(f"checkpoint truncated: needed "
                              f"{self.pos + count} bytes, have {self.size}")
        self.pos += count
        return count

    def take(self, count: int) -> bytes:
        return self.fh.read(self._claim(count))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f32s(self, *shape: int) -> np.ndarray:
        self._claim(4 * math.prod(shape))
        out = np.empty(shape, "<f4")
        if self.fh.readinto(out) != out.nbytes:
            raise LengthError("checkpoint shrank while it was read")
        return out


def load_checkpoint(path: Path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.take(4)
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic: {magic!r}")
        version, n, group_count = r.unpack("<III")
        if version not in (1, VERSION):
            raise FormatError(f"unsupported checkpoint version {version}")
        if n + 1 != group_count:
            raise FormatError(f"checkpoint claims n={n} but has "
                              f"{group_count} groups")
        groups, momentum = [], []
        for g in range(group_count):
            rows, cols = r.unpack("<II")
            weight, bias = r.f32s(rows, cols), r.f32s(*r.unpack("<I"))
            v_weight, v_bias = r.f32s(rows, cols), r.f32s(*r.unpack("<I"))
            if bias.shape != (rows,) or v_bias.shape != (rows,):
                raise FormatError(f"group {g} has a {rows}x{cols} weight but "
                                  f"{bias.size} biases and {v_bias.size} "
                                  f"bias momenta")
            groups.append(DenseLayer(weight, bias))
            momentum.append(MomentumState(v_weight, v_bias))
        epoch, *seeds = r.unpack("<IQQQ")
        best_epoch, best_accs = -1, []
        if version >= 2:
            best_epoch, count = r.unpack("<iI")
            if count not in (0, 1, group_count):
                raise FormatError(f"checkpoint records {count} models' "
                                  f"accuracies but has {group_count} groups")
            best_accs = list(r.unpack(f"<{count}d"))
        try:
            echo = r.take(*r.unpack("<I")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"config echo is not UTF-8: {exc}") from None
        if r.pos != r.size:
            raise LengthError(f"checkpoint has {r.size - r.pos} "
                              f"trailing bytes")
    return Checkpoint(groups=groups, momentum=momentum, epoch=epoch,
                      init_seed=seeds[0], shuffle_seed=seeds[1],
                      dropout_seed=seeds[2], config_echo=echo,
                      best_epoch=best_epoch, best_accuracies=best_accs,
                      version=version)
