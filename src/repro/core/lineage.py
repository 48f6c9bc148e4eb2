"""Tuple-level lineage (Section 5.1).

"DeepLens natively tracks tuple-level lineage. Every Patch object
maintains a descriptor how it was generated from either a raw image or
another patch ... This information is stored as attributes in the metadata
key-value dictionary so indexes and queries can be natively supported on
them."

Those attributes are columns of every collection's metadata segment
already — the ``ImgRef`` tuple (source, frame, parent id) and the
``_lineage`` chain — so :class:`LineageStore` keeps no structure of its
own. Each query is a pass over the live collections' segment columns
(no pixel record is read) and answers for the rows those collections
hold now: a replaced or refreshed collection's old rows are gone from
its answers as they are from the collection.

* **by base image**: ``(source, frame) -> patch ids`` — the backtracing
  query "select all raw images that contributed to a patch", inverted, so
  two derived collections can be related through their shared base frames
  without rescanning base data;
* **by parent**: ``parent patch id -> child patch ids`` — forward
  traversal of derivations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.patch import Patch

if TYPE_CHECKING:  # import cycle: the catalog owns the lineage store
    from repro.core.catalog import Catalog


class LineageStore:
    """Lineage queries over the catalog's live collections."""

    def __init__(self, catalog: "Catalog") -> None:
        self._catalog = catalog

    def record(self, patch: Patch) -> None:
        """Check that ``patch`` backtraces to a base image: raises
        :class:`~repro.errors.LineageError` for a patch with neither a
        lineage chain nor a frame. ``MaterializedCollection.add`` runs
        it before its first write, so a rejected patch leaves no trace."""
        patch.base_ref()

    def _patches(self) -> Iterator[Patch]:
        """Every live patch, data-less, read off the segments."""
        catalog = self._catalog
        for name in catalog.collections():
            for batch in catalog.collection(name).metadata_batches():
                yield from batch

    # -- queries ------------------------------------------------------------

    def patches_from_base(self, source: str, frame: int | None) -> list[int]:
        """Every materialized patch derived from one base image/frame."""
        return sorted(
            patch.patch_id
            for patch in self._patches()
            if patch.base_ref() == (source, frame)
        )

    def patches_from_source(
        self, source: str, lo: int | None = None, hi: int | None = None
    ) -> Iterator[tuple[int, int]]:
        """(frame, patch_id) for a source, optionally bounded by frame
        range, in frame order; a frameless patch reports frame -1."""
        hits = []
        for patch in self._patches():
            base_source, frame = patch.base_ref()
            frame = -1 if frame is None else frame
            if (
                base_source == source
                and (lo is None or lo <= frame)
                and (hi is None or frame <= hi)
            ):
                hits.append((frame, patch.patch_id))
        yield from sorted(hits)

    def _by_parent(self) -> dict[int, list[int]]:
        """parent id -> ids of the live patches derived from it."""
        by_parent: dict[int, list[int]] = {}
        for patch in self._patches():
            parent = patch.img_ref.parent_id
            if parent is not None:
                by_parent.setdefault(parent, []).append(patch.patch_id)
        return by_parent

    def children(self, patch_id: int) -> list[int]:
        """Patches directly derived from ``patch_id``."""
        return sorted(self._by_parent().get(patch_id, ()))

    def descendants(self, patch_id: int) -> list[int]:
        """Transitive closure of :meth:`children`."""
        by_parent = self._by_parent()
        out: list[int] = []
        frontier = [patch_id]
        seen = {patch_id}
        while frontier:
            current = frontier.pop()
            for child in sorted(by_parent.get(current, ())):
                if child not in seen:
                    seen.add(child)
                    out.append(child)
                    frontier.append(child)
        return out

    @staticmethod
    def backtrace(patch: Patch) -> tuple[str, int | None]:
        """The base image a patch descends from — O(1), no scan needed.

        This is the per-tuple backtracing query; the cross-collection
        variant goes through :meth:`patches_from_base`.
        """
        return patch.base_ref()
