"""Segmented File layout (Section 3.1).

"As a hybrid between the Frame File and the Encoded File, we have the
Segmented File. This storage format segments the video into short clips
and stores the encoded clips in BerkeleyDB. We can benefit from
coarse-grained temporal filter push down, while having some benefits of
encoding."

Each ``clip_len``-frame run is encoded as its own H.264-like stream and
stored in a blob heap keyed by clip number. ``scan(lo, hi)`` decodes only
the clips that overlap the range — coarse-grained push-down whose
granularity/storage trade-off Figure 3 sweeps.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.errors import StorageError
from repro.storage.codecs import H264LikeCodec
from repro.storage.codecs.quality import QualityPreset
from repro.storage.formats.base import VideoStore
from repro.storage.kvstore import BlobHeap, BlobRef, BPlusTree, Pager
from repro.storage.kvstore import serialization


class SegmentedFile(VideoStore):
    """Short encoded clips bucketed by time."""

    layout = "segmented"
    supports_pushdown = True  # coarse-grained: clip resolution

    def __init__(
        self,
        directory: str | os.PathLike,
        name: str,
        *,
        clip_len: int = 32,
        quality: int | str | QualityPreset = "high",
        gop: int | None = None,
    ) -> None:
        super().__init__(name)
        if clip_len < 1:
            raise StorageError(f"clip_len must be >= 1, got {clip_len}")
        self.clip_len = clip_len
        # within a clip every frame but the first is predicted, so the GOP
        # is the clip unless the caller wants intra refreshes
        self.codec = H264LikeCodec(quality=quality, gop=gop or clip_len)
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        self._pager = Pager(os.path.join(directory, f"{name}.clips.idx"))
        self._heap = BlobHeap(os.path.join(directory, f"{name}.clips.heap"))
        self._tree = BPlusTree(self._pager, "clips", unique=True)
        stored = self._pager.directory.get(("segmented",))
        if stored is not None:
            self.clip_len = stored["clip_len"]
            self._count = stored["n_frames"]
        else:
            self._count = 0
            self._save_meta()
        self._pending: list[np.ndarray] = []

    def _save_meta(self) -> None:
        self._pager.directory[("segmented",)] = {
            "clip_len": self.clip_len,
            "n_frames": self._count,
        }

    # -- writes ---------------------------------------------------------

    def append(self, frame: np.ndarray) -> int:
        frameno = self._count + len(self._pending)
        self._pending.append(np.asarray(frame))
        if len(self._pending) == self.clip_len:
            self._flush_clip()
        return frameno

    def finalize(self) -> None:
        if self._pending:
            self._flush_clip()
        self._pager.sync()

    def _flush_clip(self) -> None:
        clip_id = self._count // self.clip_len
        stream = self.codec.encode_stream(self._pending)
        ref = self._heap.put(stream, compress=False)
        self._tree.insert(
            clip_id,
            serialization.dumps(
                [list(ref.to_tuple()), len(self._pending)], compress_arrays=False
            ),
        )
        self._count += len(self._pending)
        self._pending = []
        self._save_meta()

    # -- reads ----------------------------------------------------------

    def scan(
        self, lo: int | None = None, hi: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        lo, hi = self._check_range(lo, hi)
        first_clip = lo // self.clip_len
        last_clip = hi // self.clip_len
        for clip_id, payload in self._tree.range(first_clip, last_clip):
            ref_value, clip_frames = serialization.loads(payload)
            stream = self._heap.get(BlobRef.from_tuple(tuple(ref_value)))
            base = clip_id * self.clip_len
            for offset, frame in enumerate(self.codec.decode_stream(stream)):
                frameno = base + offset
                if frameno > hi:
                    break
                if frameno >= lo:
                    yield frameno, frame

    def get_frame(self, frameno: int) -> np.ndarray:
        """Coarse random access: decode the containing clip up to the frame."""
        if not 0 <= frameno < self.n_frames:
            raise StorageError(
                f"frame {frameno} not in SegmentedFile {self.name!r} "
                f"(0..{self.n_frames - 1})"
            )
        for _, frame in self.scan(frameno, frameno):
            return frame
        raise StorageError(f"frame {frameno} missing from clip index")

    @property
    def n_frames(self) -> int:
        return self._count + len(self._pending)

    @property
    def size_bytes(self) -> int:
        return self._heap.size_bytes + os.path.getsize(self._pager.path)

    def close(self) -> None:
        if self._pending:
            self._flush_clip()
        self._pager.close()
        self._heap.close()
