"""Binary checkpoint serialization.

Layout (all integers little-endian):

    magic   4 bytes  b"NSN1"
    u32     version (2 is written; 1 is still read)
    u32     n (hidden layers of the base model)
    u32     group count
    per group, ordered head-first (group id 0 .. n):
        u32 rows, u32 cols
        rows*cols f32   weight, row-major
        u32 bias length, then that many f32
        rows*cols f32   momentum V for the weight
        u32 length, then that many f32   momentum V for the bias
    u32     epoch (completed epochs)
    u64 x3  init, shuffle, dropout seeds
    version 2 only, the best epoch so far so that a resumed run keeps it:
        i32 best epoch (0-based; -1 when none has been evaluated)
        u32 model count, then that many f64: every model's test accuracy
            at the best epoch
    u32     config echo byte length, then UTF-8 bytes

Round-trips are bitwise, version 1 files included: float payloads are
written with tobytes() and read back with frombuffer(). A version 1 file
loads with the best epoch unknown (-1, no accuracies).

Files are written to a temporary file in the same directory and renamed
over the target, so a crash mid-write leaves the previous file whole.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, LengthError

MAGIC = b"NSN1"
VERSION = 2


@dataclass
class GroupState:
    weight: np.ndarray
    bias: np.ndarray
    v_weight: np.ndarray
    v_bias: np.ndarray


@dataclass
class Checkpoint:
    n: int
    groups: list  # list[GroupState], head (group 0) first
    epoch: int
    init_seed: int
    shuffle_seed: int
    dropout_seed: int
    config_echo: str
    best_epoch: int = -1
    best_accuracies: list = field(default_factory=list)  # one per model
    version: int = VERSION


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float32).tobytes()


def save_checkpoint(path: Path, ckpt: Checkpoint) -> None:
    parts = [MAGIC,
             struct.pack("<III", ckpt.version, ckpt.n, len(ckpt.groups))]
    for g in ckpt.groups:
        rows, cols = g.weight.shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(_f32_bytes(g.weight))
        parts.append(struct.pack("<I", g.bias.shape[0]))
        parts.append(_f32_bytes(g.bias))
        parts.append(_f32_bytes(g.v_weight))
        parts.append(struct.pack("<I", g.v_bias.shape[0]))
        parts.append(_f32_bytes(g.v_bias))
    echo = ckpt.config_echo.encode("utf-8")
    parts.append(struct.pack("<IQQQ", ckpt.epoch, ckpt.init_seed,
                             ckpt.shuffle_seed, ckpt.dropout_seed))
    if ckpt.version >= 2:
        accs = ckpt.best_accuracies
        parts.append(struct.pack(f"<iI{len(accs)}d", ckpt.best_epoch,
                                 len(accs), *accs))
    parts.append(struct.pack("<I", len(echo)))
    parts.append(echo)
    _write_atomic(Path(path), b"".join(parts))


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise LengthError(f"checkpoint truncated: needed "
                              f"{self.pos + count} bytes, have {len(self.data)}")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def f64s(self, count: int) -> list[float]:
        return list(struct.unpack(f"<{count}d", self.take(8 * count)))

    def f32s(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").copy()


def load_checkpoint(path: Path) -> Checkpoint:
    r = _Reader(Path(path).read_bytes())
    magic = r.take(4)
    if magic != MAGIC:
        raise FormatError(f"bad checkpoint magic: {magic!r}")
    version = r.u32()
    if version not in (1, VERSION):
        raise FormatError(f"unsupported checkpoint version {version}")
    n = r.u32()
    group_count = r.u32()
    groups = []
    for _ in range(group_count):
        rows, cols = r.u32(), r.u32()
        weight = r.f32s(rows * cols).reshape(rows, cols)
        bias = r.f32s(r.u32())
        v_weight = r.f32s(rows * cols).reshape(rows, cols)
        v_bias = r.f32s(r.u32())
        groups.append(GroupState(weight, bias, v_weight, v_bias))
    epoch = r.u32()
    seeds = (r.u64(), r.u64(), r.u64())
    best_epoch, best_accs = -1, []
    if version >= 2:
        best_epoch = r.i32()
        best_accs = r.f64s(r.u32())
    try:
        echo = r.take(r.u32()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"config echo is not UTF-8: {exc}") from None
    if r.pos != len(r.data):
        raise LengthError(f"checkpoint has {len(r.data) - r.pos} "
                          f"trailing bytes")
    return Checkpoint(n=n, groups=groups, epoch=epoch, init_seed=seeds[0],
                      shuffle_seed=seeds[1], dropout_seed=seeds[2],
                      config_echo=echo, best_epoch=best_epoch,
                      best_accuracies=best_accs, version=version)
