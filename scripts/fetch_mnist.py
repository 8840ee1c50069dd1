#!/usr/bin/env python3
"""Download the four MNIST IDX files and decompress them.

Usage: python scripts/fetch_mnist.py [--data-dir data]

The training tools read the uncompressed files only; this script strips the
.gz layer after download. Needs outbound network access.

Each file is written under a temporary name in the same directory and
renamed over its final one, so an interrupted download leaves no torn file
that a later call would skip as present, and a file a running command has
mapped is never rewritten in place.
"""

import argparse
import gzip
import os
import urllib.request
from pathlib import Path

FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)


def fetch(name: str, data_dir: Path) -> None:
    target = data_dir / name
    if target.exists():
        print(f"{target} already present, skipping")
        return
    last_error = None
    for mirror in MIRRORS:
        url = mirror + name + ".gz"
        try:
            print(f"fetching {url}")
            with urllib.request.urlopen(url, timeout=60) as response:
                payload = gzip.decompress(response.read())
            tmp = target.with_name(f".{name}.tmp")
            try:
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, target)
            finally:
                tmp.unlink(missing_ok=True)
            print(f"wrote {target} ({len(payload)} bytes)")
            return
        except OSError as exc:
            last_error = exc
            print(f"  failed: {exc}")
    raise SystemExit(f"could not fetch {name}: {last_error}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", type=Path, default=Path("data"))
    args = parser.parse_args()
    args.data_dir.mkdir(parents=True, exist_ok=True)
    for name in FILES:
        fetch(name, args.data_dir)


if __name__ == "__main__":
    main()
