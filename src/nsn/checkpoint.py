"""Binary checkpoint serialization.

Layout (all integers little-endian):

    magic   4 bytes  b"NSN1"
    u32     version (2; any other is a FormatError)
    u32     n (hidden layers of the base model): the group count - 1
    u32     group count
    per group, ordered head-first (group id 0 .. n):
        u32 rows, u32 cols
        rows*cols f32   weight, row-major
        u32 bias length (rows), then that many f32
        rows*cols f32   momentum V for the weight
        u32 length (rows), then that many f32   momentum V for the bias
    u32     epoch (completed epochs)
    u64 x3  seed, seed + 1, seed + 2: the init, shuffle and dropout
            streams of the run's one seed (any other triple is a
            FormatError; only an API run of an older version could write one)
    the best epoch so far, so that a resumed run keeps it:
        i32 best epoch (0-based; -1 when none has been evaluated)
        u32 model count, then that many f64: every model's test accuracy
            at the best epoch. The count is 1 for a baseline (its base
            model), the group count for a family (every model), or 0 when
            the best is unknown.
    u32     config echo byte length, then UTF-8 bytes

Round-trips are bitwise: float payloads are written from the arrays
themselves, and a load maps the file read-only and makes each payload a
read-only view of the mapped pages at its offset, so neither a save nor a
load copies a parameter. A loaded array cannot be written; a resumed run
copies what it trains (``train.train``). Every length is checked against
the bytes left in the file, and every check of the file runs before any
view is made; an n or a bias length the groups do not agree with is a
FormatError, and so is a model count that is none of 0, 1 and the group
count. A load error names the file. Whether the groups and best record
are the ones the config echo's run writes is checked by
``train.family_from_checkpoint``, which every reader calls.

Files are written to a temporary file in the same directory and renamed
over the target, so a crash mid-write leaves the previous file whole, and
a command still reading the file it replaces keeps the old bytes. So
replace a checkpoint only by a rename, never rewrite it in place: that
changes the weights under a command reading it, or ends the command with
SIGBUS when the file gets shorter.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, LengthError, in_file
from .mnist import map_file
from .nn import DenseLayer
from .optim import MomentumState

MAGIC = b"NSN1"
VERSION = 2


@dataclass
class Checkpoint:
    groups: list[DenseLayer]  # head (group 0) first
    momentum: list[MomentumState]  # one per group
    epoch: int
    seed: int  # the run's; its three streams are seed, seed + 1, seed + 2
    config_echo: str
    best_epoch: int = -1
    best_accuracies: list = field(default_factory=list)  # one per model


def save_checkpoint(path: Path, ckpt: Checkpoint) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<III", VERSION, len(ckpt.groups) - 1,
                                 len(ckpt.groups)))
            for layer, state in zip(ckpt.groups, ckpt.momentum, strict=True):
                fh.write(struct.pack("<II", *layer.weight.shape))
                for a in (layer.weight, layer.bias, state.v_weight,
                          state.v_bias):
                    if a.ndim == 1:
                        fh.write(struct.pack("<I", a.shape[0]))
                    fh.write(np.ascontiguousarray(a, "<f4"))
            fh.write(struct.pack("<IQQQ", ckpt.epoch, ckpt.seed,
                                 ckpt.seed + 1, ckpt.seed + 2))
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
    """Parses a checkpoint's bytes front to back; every read is first
    checked against the bytes left, so a header cannot claim more than the
    file holds. A float payload is only claimed here, as its offset and
    shape; :meth:`views` makes the arrays once every check has passed."""

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.payloads: list[tuple[int, tuple[int, ...]]] = []

    def _claim(self, count: int) -> int:
        start = self.pos
        if start + count > len(self.data):
            raise LengthError(f"checkpoint truncated: needed "
                              f"{start + count} bytes, have {len(self.data)}")
        self.pos += count
        return start

    def take(self, count: int) -> bytes:
        start = self._claim(count)
        return self.data[start:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data,
                                  self._claim(struct.calcsize(fmt)))

    def f32s(self, *shape: int) -> None:
        self.payloads.append((self._claim(4 * math.prod(shape)), shape))

    def views(self) -> list[np.ndarray]:
        """Every claimed payload, a read-only view of the data."""
        return [np.frombuffer(self.data, "<f4", math.prod(shape),
                              offset).reshape(shape)
                for offset, shape in self.payloads]


def load_checkpoint(path: Path) -> Checkpoint:
    """The checkpoint at ``path``, its arrays read-only views of the file
    mapped into memory."""
    with in_file(path):
        return _parse(_Reader(map_file(path)))


def _parse(r: _Reader) -> Checkpoint:
    magic = r.take(4)
    if magic != MAGIC:
        raise FormatError(f"bad checkpoint magic: {magic!r}")
    version, n, group_count = r.unpack("<III")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if n + 1 != group_count:
        raise FormatError(f"checkpoint claims n={n} but has "
                          f"{group_count} groups")
    for g in range(group_count):
        rows, cols = r.unpack("<II")
        r.f32s(rows, cols)
        (biases,) = r.unpack("<I")
        r.f32s(biases)
        r.f32s(rows, cols)
        (bias_momenta,) = r.unpack("<I")
        r.f32s(bias_momenta)
        if biases != rows or bias_momenta != rows:
            raise FormatError(f"group {g} has a {rows}x{cols} weight but "
                              f"{biases} biases and {bias_momenta} "
                              f"bias momenta")
    epoch, *seeds = r.unpack("<IQQQ")
    if seeds != list(range(seeds[0], seeds[0] + 3)):
        raise FormatError(f"checkpoint has the seeds {tuple(seeds)}, not "
                          f"a run's seed, seed + 1 and seed + 2")
    best_epoch, count = r.unpack("<iI")
    if count not in (0, 1, group_count):
        raise FormatError(f"checkpoint records {count} models' "
                          f"accuracies but has {group_count} groups")
    best_accs = list(r.unpack(f"<{count}d"))
    try:
        echo = r.take(*r.unpack("<I")).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"config echo is not UTF-8: {exc}") from None
    if r.pos != len(r.data):
        raise LengthError(f"checkpoint has {len(r.data) - r.pos} "
                          f"trailing bytes")
    arrays = iter(r.views())  # per group: weight, bias, v_weight, v_bias
    groups, momentum = [], []
    for weight, bias, v_weight, v_bias in zip(arrays, arrays, arrays, arrays):
        groups.append(DenseLayer(weight, bias))
        momentum.append(MomentumState(v_weight, v_bias))
    return Checkpoint(groups=groups, momentum=momentum, epoch=epoch,
                      seed=seeds[0], config_echo=echo,
                      best_epoch=best_epoch, best_accuracies=best_accs)
