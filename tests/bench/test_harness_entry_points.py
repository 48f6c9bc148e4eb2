"""The engine entry points the end-to-end benchmark wraps by name exist.

``benchmarks/e2e/harness/layers.py`` times each layer by wrapping engine
callables it names (``LineageStore.record``,
``MaterializedCollection.scan_batches``, ``CollectionSegment.scan_rows``,
...). Installing those wrappers on a fresh tracer fails when one of them
is renamed or deleted, so the tier-1 suite catches it, not only the
benchmark run.
"""

import os
import sys

E2E = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "benchmarks", "e2e",
)
sys.path.append(os.path.normpath(E2E))

from harness import layers  # noqa: E402
from harness.tracer import Tracer  # noqa: E402
from repro.core.lineage import LineageStore  # noqa: E402


def test_every_wrapped_entry_point_exists():
    original = vars(LineageStore)["record"]
    wrappers = layers.install(Tracer())
    try:
        assert len(wrappers) > 0
        assert vars(LineageStore)["record"] is not original
    finally:
        wrappers.remove()
    assert len(wrappers) == 0
    assert vars(LineageStore)["record"] is original
