"""Frame File layout (Section 3.1).

"In the most basic format, we treat each frame of a video as a single
record ... stored in a sorted file by frame number ... The sorted file
allows for quick retrieval of temporal predicates. The advantage of the
Frame File is a temporal filter push down; the disadvantage is that it can
require significantly more storage."

Frames live as independent records — raw pixels or JPEG-like intra-coded —
in a blob heap, indexed by a B+ tree on frame number (the BerkeleyDB role).
Every frame decodes independently, so ``scan(lo, hi)`` touches exactly the
requested range.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.errors import StorageError
from repro.storage.codecs import decode_image, encode_image
from repro.storage.codecs.quality import QualityPreset, get_preset
from repro.storage.formats.base import VideoStore
from repro.storage.kvstore import BlobHeap, BlobRef, BPlusTree, Pager
from repro.storage.kvstore import serialization


class FrameFile(VideoStore):
    """Per-frame records with a frame-number B+ tree."""

    layout = "frame"
    supports_pushdown = True

    def __init__(
        self,
        directory: str | os.PathLike,
        name: str,
        *,
        codec: str = "raw",
        quality: int | str | QualityPreset = "high",
    ) -> None:
        super().__init__(name)
        if codec not in ("raw", "jpeg"):
            raise StorageError(
                f"FrameFile codec must be 'raw' or 'jpeg' (frame-independent), "
                f"got {codec!r}"
            )
        self.codec = codec
        self.quality = quality if isinstance(quality, int) else get_preset(quality).quality
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        self._pager = Pager(os.path.join(directory, f"{name}.frames.idx"))
        self._heap = BlobHeap(os.path.join(directory, f"{name}.frames.heap"))
        self._tree = BPlusTree(self._pager, "frames", unique=True)
        stored = self._pager.directory.get(("framefile",))
        if stored is not None:
            if stored["codec"] != self.codec:
                raise StorageError(
                    f"FrameFile {name!r} was created with codec "
                    f"{stored['codec']!r}, not {self.codec!r}"
                )
            self.quality = stored["quality"]
        else:
            self._pager.directory[("framefile",)] = {
                "codec": self.codec,
                "quality": self.quality,
            }

    # -- writes ---------------------------------------------------------

    def append(self, frame: np.ndarray) -> int:
        frameno = self.n_frames
        if self.codec == "raw":
            payload = serialization.dumps(
                np.ascontiguousarray(frame), compress_arrays=False
            )
            ref = self._heap.put(payload, compress=False)
        else:
            payload = encode_image(frame, self.quality)
            ref = self._heap.put(payload, compress=False)
        self._tree.insert(
            frameno, serialization.dumps(list(ref.to_tuple()), compress_arrays=False)
        )
        return frameno

    # -- reads ----------------------------------------------------------

    def scan(
        self, lo: int | None = None, hi: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        lo, hi = self._check_range(lo, hi)
        for frameno, payload in self._tree.range(lo, hi):
            yield frameno, self._decode(payload)

    def get_frame(self, frameno: int) -> np.ndarray:
        values = self._tree.get(frameno)
        if not values:
            raise StorageError(f"frame {frameno} not in FrameFile {self.name!r}")
        return self._decode(values[0])

    def _decode(self, payload: bytes) -> np.ndarray:
        ref = BlobRef.from_tuple(tuple(serialization.loads(payload)))
        blob = self._heap.get(ref)
        if self.codec == "raw":
            return serialization.loads(blob)
        return decode_image(blob, self.quality)

    @property
    def n_frames(self) -> int:
        return len(self._tree)

    @property
    def size_bytes(self) -> int:
        return self._heap.size_bytes + os.path.getsize(self._pager.path)

    def close(self) -> None:
        self._pager.close()
        self._heap.close()
