"""scripts/fetch_mnist.py writes each file whole or not at all; the network
is stubbed."""

import builtins
import errno
import gzip
import importlib.util
import io
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "fetch_mnist",
    Path(__file__).resolve().parents[1] / "scripts" / "fetch_mnist.py")
fetch_mnist = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fetch_mnist)

NAME = fetch_mnist.FILES[0]
PAYLOAD = bytes(range(256)) * 40


@pytest.fixture
def served(monkeypatch):
    """Every mirror serves PAYLOAD gzipped; returns the URLs asked for."""
    urls = []

    def urlopen(url, timeout):
        urls.append(url)
        return io.BytesIO(gzip.compress(PAYLOAD))

    monkeypatch.setattr(fetch_mnist.urllib.request, "urlopen", urlopen)
    return urls


def test_a_fetch_writes_the_decompressed_bytes(tmp_path, served):
    fetch_mnist.fetch(NAME, tmp_path)
    assert (tmp_path / NAME).read_bytes() == PAYLOAD
    assert [p.name for p in tmp_path.iterdir()] == [NAME]
    assert served == [fetch_mnist.MIRRORS[0] + NAME + ".gz"]


class FullDisk(io.FileIO):
    """A file on a disk that fills after half of a write."""

    def write(self, data):
        super().write(memoryview(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_write_that_fails_leaves_no_file(tmp_path, served, monkeypatch):
    real_open = io.open

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        if "w" in mode:
            return FullDisk(file, "w")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", open_on_full_disk)
    monkeypatch.setattr(builtins, "open", open_on_full_disk)
    with pytest.raises(SystemExit, match="No space left"):
        fetch_mnist.fetch(NAME, tmp_path)
    assert len(served) == len(fetch_mnist.MIRRORS)
    assert list(tmp_path.iterdir()) == []
