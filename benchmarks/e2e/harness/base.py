"""What every workload shares: ops, outcomes, seeded draws, the digest.

A workload generates its inputs from the seed alone (numpy, no engine
code), keeps its own copy of every row it hands the engine, and answers
each read op a second time by brute force from that copy. The engine only
ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.core import DeepLens

from .tracer import Tracer

#: distances closer than this to the k-th / threshold distance are ties:
#: either side may legitimately include or drop them
TIE_EPS = 1e-9


@dataclass(frozen=True)
class Op:
    """One closed-loop request: an op class and its constants."""

    cls: str
    args: tuple = ()


@dataclass
class Outcome:
    """The reference's verdict on one op's answer."""

    ok: bool
    #: |returned ∩ reference| / |reference| (1.0 for exact ops that match)
    recall: float = 1.0
    #: rows the op handed back (scalars count 1)
    rows: int = 1
    detail: str = ""


def crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def set_recall(returned: Iterable, reference: Iterable) -> float:
    reference = set(reference)
    if not reference:
        return 1.0
    return len(reference & set(returned)) / len(reference)


class Workload:
    """Base class: subclasses fill in data, set-up, ops and references.

    ``mix`` maps op class -> ops per round; the class *sequence* of a
    round is one seeded shuffle reused every round, so rounds differ only
    in their constants and every round does the same amount of work.
    """

    name = ""
    why = ""
    mix: dict[str, int] = {}
    #: seconds one round takes on the 2-core reference sandbox at the
    #: commit that defined the benchmark; ``--seconds`` is divided by it
    #: to get the (seed-independent, clock-independent) number of rounds
    round_s = 1.0
    #: one untimed round before the timed ones (caches fill, lazy set-up
    #: finishes); False where every round starts from a fresh directory
    warmup = True
    fresh_db_per_round = False

    def __init__(self, seed: int, smoke: bool, tracer: Tracer) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.db: DeepLens | None = None
        if smoke:  # a quarter of the ops, every class still present
            self.mix = {cls: max(1, count // 4) for cls, count in self.mix.items()}
        order = [cls for cls, count in self.mix.items() for _ in range(count)]
        self.rng("sequence").shuffle(order)
        self.sequence: list[str] = order

    # -- seeded draws ---------------------------------------------------

    def rng(self, *stream: Any) -> np.random.Generator:
        """An independent generator per (seed, workload, stream): adding a
        draw to one stream never shifts another."""
        words = [self.seed, zlib.crc32(self.name.encode())]
        words += [
            part if isinstance(part, int) else zlib.crc32(str(part).encode())
            for part in stream
        ]
        return np.random.default_rng(words)

    def rounds_for(self, seconds: float) -> int:
        return 1 if self.smoke else max(1, int(seconds / self.round_s))

    # -- subclass surface -------------------------------------------------

    def input_arrays(self) -> list[np.ndarray]:
        """Every generated array the engine will be handed (for the digest)."""
        raise NotImplementedError

    def setup(self, workdir: str) -> None:
        """Engine-side set-up on a fresh directory: open, load, build."""
        raise NotImplementedError

    def ops(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        """Engine calls only — this is what the op clock covers."""
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> Outcome:
        """Untimed: compare ``result`` with the brute-force reference."""
        raise NotImplementedError

    def user_bytes(self) -> int:
        """Raw bytes of user data in the store: pixel + vector ``nbytes``
        plus 8 B per scalar attribute."""
        raise NotImplementedError

    def sizes(self) -> dict[str, Any]:
        """Input and cache sizes worth stating next to the numbers."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """After the last round: final sync, end-state checks. Returns a
        description per mismatch (each counts as a failed op)."""
        self.db.catalog.sync()
        return []

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics only the workload can compute."""
        return {}

    def bypass_failures(
        self, timed: dict[str, float], traced: dict | None, per_class: dict | None
    ) -> list[str]:
        """The bypass predictions this workload asserts. ``timed`` holds
        engine counter deltas over the untraced timed rounds; ``traced``
        the per-layer metrics of the traced round and ``per_class`` its
        per-op-class span calls and counter deltas (None when untraced)."""
        return []

    # -- shared plumbing --------------------------------------------------

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def counters(self) -> dict[str, float]:
        return self.db.metrics_registry.counter_totals()

    def digest(self) -> str:
        """Hash of everything that fixes the measured work: the input
        arrays and the op lists (classes and constants) of the warm-up
        round and the first timed round."""
        sha = hashlib.sha256()
        for array in self.input_arrays():
            array = np.ascontiguousarray(array)
            sha.update(f"{array.dtype}{array.shape}".encode())
            sha.update(array.tobytes())
        for round_index in (0, 1):
            ops = [[op.cls, _jsonable(op.args)] for op in self.ops(round_index)]
            sha.update(json.dumps(ops).encode())
        return sha.hexdigest()[:32]

    def traced_udf(self, fn):
        """``fn`` with a ``core.udf.call`` span around it while an op is
        open (a plain call otherwise). One object per workload instance,
        so plan fingerprints and view matching see a stable identity."""
        tracer = self.tracer

        def udf(patch):
            return tracer.call("core.udf.call", fn, patch)

        udf.__name__ = fn.__name__
        udf.__qualname__ = fn.__qualname__
        return udf


def _jsonable(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [round(float(x), 12) for x in value.ravel()]
    if isinstance(value, np.generic):
        return value.item()
    return value
