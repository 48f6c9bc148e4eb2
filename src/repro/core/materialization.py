"""Materialization manager: persistent derived views and UDF results.

DeepLens's central optimization is choosing *when to materialize*
expensive ML UDF outputs (deferred vs. eager materialization, Section 4).
This module is the eager half, grown into a subsystem:

* **derived views** — any arity-1 query pipeline can be persisted as a
  named collection (:meth:`MaterializationManager.materialize_view`)
  through the ordinary catalog/heap path, together with the structural
  *fingerprint* of its defining logical plan and its *lineage*: the base
  collections it scans and their mutation versions at build time;
* **cost-based view reuse** — at plan time the manager is the planner's
  :class:`~repro.core.optimizer.lowering.ViewMatcher`: a plan prefix
  whose fingerprint equals a registered view's definition is rewritten
  to scan the view instead, chosen cost-based against recomputation
  (UDF inference over the base vs. a scan of the stored rows), with the
  decision and both costs surfaced in ``explain()``;
* **lineage-driven invalidation** — every
  :meth:`~repro.core.catalog.MaterializedCollection.add` bumps the base
  collection's version; a view whose recorded base versions no longer
  match is *stale* and the planner recomputes instead (unless the query
  opts into ``allow_stale``); :meth:`refresh_view` re-runs only the
  defining plan;
* **persistent UDF result store** — :class:`PersistentUDFCache` extends
  the session memo with a catalog-backed tier (lineage-keyed, LRU in
  memory, spilled through the kvstore heap) so cached inference results
  survive sessions — the paper's materialized-intermediates story, and
  what Deep Lake's persisted tensor views / EVA's inference caching do.

Fingerprints are computed over the *rewritten* defining plan
(:func:`view_fingerprint`), so pipelines that differ only by rewrites
the optimizer performs anyway (filter splitting/push-down) still match.
UDF identity inside fingerprints and cache keys uses
``module.qualname`` for named module-level functions — stable across
interpreter restarts — while lambdas/closures degrade to session-local
identity (they still match within the defining session, never after).
"""

from __future__ import annotations

import hashlib
import threading

from dataclasses import asdict, dataclass
from typing import Any

from repro.core import logical
from repro.core.catalog import Catalog, MaterializedCollection
from repro.core.executor import ExecutionContext
from repro.core.operators import Operator
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.lowering import plan_pipeline
from repro.core.optimizer.optimizer import Explanation, Optimizer, PlanChoice
from repro.core.optimizer.rewriter import rewrite
from repro.core.patch import Patch
from repro.core.udf_cache import UDFCache
from repro.errors import QueryError, StorageError
from repro.storage.kvstore import BlobRef
from repro.storage.kvstore import serialization

#: snapshot-store structure kind of a persisted view definition
VIEW = "view"


def view_fingerprint(plan: logical.LogicalPlan) -> str:
    """Fingerprint of a defining plan, taken after rule rewriting.

    Rewriting first makes the fingerprint insensitive to differences the
    optimizer erases anyway — ``filter(a & b)`` vs ``filter(a).filter(b)``,
    or a filter written above a UDF map that push-down moves below it.
    """
    rewritten, _ = rewrite(plan)
    return logical.plan_fingerprint(rewritten)


@dataclass
class ViewDefinition:
    """The persisted record of one materialized view."""

    name: str
    fingerprint: str
    plan_text: str
    #: base collection -> its catalog version when the view was (re)built
    bases: dict[str, int]
    row_count: int
    #: whether every callable in the defining plan has a session-independent
    #: identity — a non-portable view still matches in its own session but
    #: can never be matched (or refreshed without its query) after reopen
    portable: bool

    def to_value(self) -> dict:
        return asdict(self)

    @classmethod
    def from_value(cls, value: dict) -> "ViewDefinition":
        return cls(**value)


class MaterializationManager:
    """Registry of materialized views plus the planner's view-matching hook.

    One per session, sharing the session's catalog and optimizer. Each
    view definition persists on its own chain of the catalog's snapshot
    store (``("view", name)`` — one directory entry per view, and a
    ``plan_text`` of any length), written when that view is registered;
    the defining
    *plans* (which contain callables) additionally stay live in-process
    so :meth:`refresh_view` can re-run them — after a reopen, refresh
    needs the defining query passed back in (verified by fingerprint).
    """

    def __init__(
        self,
        catalog: Catalog,
        optimizer: Optimizer,
        udf_cache: UDFCache | None = None,
        execution: ExecutionContext | None = None,
        metrics=None,
    ) -> None:
        self.catalog = catalog
        self.optimizer = optimizer
        self.udf_cache = udf_cache
        if metrics is None:
            from repro.core.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        #: view-match attempts by outcome — how often registered views
        #: actually pay off at plan time
        self._metric_view_matches = metrics.counter(
            "deeplens_optimizer_view_matches_total",
            "materialized-view match attempts by outcome",
            labels=("outcome",),
        )
        #: engine configuration for view builds/refreshes (the session's
        #: context, so a workers=4 session rebuilds views in parallel too)
        self.execution = execution if execution is not None else ExecutionContext()
        # not derived state: a corrupt definition raises, it is not reset
        self._defs: dict[str, ViewDefinition] = {
            key[1]: catalog.snapshots.load(key, ViewDefinition.from_value)
            for key in catalog.snapshots.keys(VIEW)
        }
        #: live defining plans (session-scoped; also keeps their callables
        #: alive so session-local identities cannot be reused)
        self._plans: dict[str, logical.LogicalPlan] = {}

    # -- registry -------------------------------------------------------

    def views(self) -> list[str]:
        return sorted(self._defs)

    def view(self, name: str) -> ViewDefinition:
        try:
            return self._defs[name]
        except KeyError:
            raise QueryError(
                f"no materialized view {name!r}; have {sorted(self._defs)}"
            ) from None

    # -- materialization ------------------------------------------------

    def materialize_view(
        self,
        name: str,
        query: Any,
        *,
        replace: bool = False,
    ) -> MaterializedCollection:
        """Run ``query`` (a QueryBuilder or logical plan) and persist its
        result as view ``name`` — a real collection, scannable and
        indexable like any other, plus a registered definition the
        planner can rewrite matching queries onto."""
        plan = self._plan_of(query)
        if isinstance(plan, logical.Aggregate):
            raise QueryError(
                "aggregates produce scalars, not patch collections; "
                "materialize the pipeline below the aggregate instead"
            )
        bases = logical.scanned_collections(plan)
        if not bases:
            raise QueryError(
                f"view {name!r} must scan at least one materialized collection"
            )
        if name in bases:
            raise QueryError(f"view {name!r} cannot be defined over itself")
        if name in self._defs and not replace:
            raise StorageError(
                f"view {name!r} already exists (pass replace=True)"
            )
        collection = self.catalog.materialize(
            self._execute(plan), name, replace=replace
        )
        self._register(name, plan, bases, len(collection))
        return collection

    def refresh_view(self, name: str, query: Any = None) -> MaterializedCollection:
        """Re-run a stale view's defining plan and swap in the result.

        Only the defining plan re-executes (and its cached UDF results
        still hit the persistent store for unchanged base rows). After a
        reopen the defining callables are gone from memory, so pass the
        defining query back in — it is verified against the stored
        fingerprint before anything runs.
        """
        definition = self.view(name)
        plan = self._plans.get(name)
        if query is not None:
            candidate = self._plan_of(query)
            if view_fingerprint(candidate) != definition.fingerprint:
                raise QueryError(
                    f"query does not match view {name!r}'s stored definition"
                )
            plan = candidate
        if plan is None:
            raise QueryError(
                f"view {name!r} was defined in another session; pass its "
                f"defining query to refresh_view"
            )
        bases = logical.scanned_collections(plan)
        collection = self.catalog.materialize(
            self._execute(plan), name, replace=True
        )
        self._register(name, plan, bases, len(collection))
        return collection

    def drop_view(self, name: str) -> None:
        """Unregister a view (the backing collection stays; re-materialize
        over it with ``replace=True`` to reclaim the name)."""
        self.view(name)  # raise on unknown names
        del self._defs[name]
        self._plans.pop(name, None)
        self.catalog.forget((VIEW, name))
        self.catalog.sync()

    def _register(
        self,
        name: str,
        plan: logical.LogicalPlan,
        bases: list[str],
        row_count: int,
    ) -> None:
        self._defs[name] = ViewDefinition(
            name=name,
            fingerprint=view_fingerprint(plan),
            plan_text=plan.describe(),
            bases={
                base: self.catalog.collection_version(base) for base in bases
            },
            row_count=row_count,
            portable=logical.plan_is_portable(plan),
        )
        self._plans[name] = plan
        self.catalog.persist((VIEW, name), self._defs[name])
        # Commit here so a view definition can never be lost between the
        # materialize of its backing collection and the next sync barrier.
        self.catalog.sync()

    def _execute(self, plan: logical.LogicalPlan) -> list[Patch]:
        # no view matching while building a view: definitions must always
        # be computable from their bases alone. Executed *eagerly*: with
        # replace=True the catalog destroys the previous snapshot before
        # consuming the input, so a UDF failure mid-plan must surface
        # here, while the old view rows are still intact.
        operator, explanation = plan_pipeline(
            self.optimizer,
            plan,
            udf_cache=self.udf_cache,
            execution=self.execution,
        )
        if not isinstance(operator, Operator) or operator.arity != 1:
            raise QueryError(
                "only arity-1 pipelines can be materialized as views; "
                "materialize a join's sides separately"
            )
        # batched collection: view builds ride the same engine as ad-hoc
        # queries (coalesced scans, prefetch, worker fan-out)
        size = explanation.execution.batch_size
        return [row[0] for batch in operator.iter_batches(size) for row in batch]

    @staticmethod
    def _plan_of(query: Any) -> logical.LogicalPlan:
        if isinstance(query, logical.LogicalPlan):
            return query
        getter = getattr(query, "logical_plan", None)
        if callable(getter):
            return getter()
        raise QueryError(
            f"expected a QueryBuilder or logical plan, got {type(query).__name__}"
        )

    # -- staleness ------------------------------------------------------

    def stale_bases(self, name: str) -> list[str]:
        """Base collections mutated since the view was (re)built."""
        definition = self.view(name)
        return sorted(
            base
            for base, version in definition.bases.items()
            if self.catalog.collection_version(base) != version
        )

    def is_stale(self, name: str) -> bool:
        return bool(self.stale_bases(name))

    # -- planner hook (ViewMatcher) -------------------------------------

    def apply(
        self,
        plan: logical.LogicalPlan,
        estimator: CardinalityEstimator,
        *,
        allow_stale: bool = False,
    ) -> tuple[logical.LogicalPlan, list[str], list[Explanation]]:
        """Rewrite plan prefixes that recompute registered views.

        Walks the plan top-down (largest prefix first); a subtree whose
        fingerprint matches a fresh view's definition is replaced by a
        scan of the view when the cost model favours it, recomputation
        being costed from the planning pass's ``estimator``. Returns the
        possibly-rewritten plan, explain-trace notes, and one decision
        Explanation per considered match.
        """
        notes: list[str] = []
        decisions: list[Explanation] = []
        if not self._defs:
            return plan, notes, decisions
        by_fingerprint: dict[str, list[ViewDefinition]] = {}
        base_sets: set[frozenset[str]] = set()
        for definition in self._defs.values():
            by_fingerprint.setdefault(definition.fingerprint, []).append(
                definition
            )
            base_sets.add(frozenset(definition.bases))

        def match(node: logical.LogicalPlan) -> logical.LogicalPlan:
            # bare scans are never worth substituting (a view of a bare
            # scan is just a copy of its base), and a fingerprint match
            # implies identical scanned collections, so leaves and
            # subtrees over other bases skip the (rewrite + fingerprint)
            # work
            if (
                not isinstance(node, logical.Scan)
                and frozenset(logical.scanned_collections(node)) in base_sets
            ):
                matches = by_fingerprint.get(view_fingerprint(node), ())
                replacement = self._try_rewrite(
                    node, matches, estimator, allow_stale, notes, decisions
                )
                if replacement is not None:
                    return replacement
            children = node.children()
            new_children = [match(child) for child in children]
            if all(new is old for new, old in zip(new_children, children)):
                return node
            return node.with_children(*new_children)

        return match(plan), notes, decisions

    def _try_rewrite(
        self,
        node: logical.LogicalPlan,
        matches: list[ViewDefinition],
        estimator: CardinalityEstimator,
        allow_stale: bool,
        notes: list[str],
        decisions: list[Explanation],
    ) -> logical.LogicalPlan | None:
        usable: list[tuple[ViewDefinition, list[str]]] = []
        for definition in matches:
            if definition.name not in self.catalog.collections():
                continue  # backing collection dropped out from under us
            stale = self.stale_bases(definition.name)
            if stale and not allow_stale:
                self._metric_view_matches.labels(outcome="stale").inc()
                notes.append(
                    f"view-match: view {definition.name!r} matches this "
                    f"prefix but is stale (base {', '.join(map(repr, stale))} "
                    f"changed since the view was built); recomputing"
                )
                continue
            usable.append((definition, stale))
        if not usable:
            return None
        # several registered views can share a definition; the smallest
        # backing collection is the cheapest to scan
        definition, stale = min(
            usable, key=lambda pair: len(self.catalog.collection(pair[0].name))
        )
        n_view = len(self.catalog.collection(definition.name))
        cost = self.optimizer.cost
        view_choice = PlanChoice(
            "view-scan",
            cost.full_scan(n_view),
            {
                "view": definition.name,
                "est_rows": float(n_view),
                "stat_source": "row-count",
            },
        )
        recompute_choice = PlanChoice(
            "recompute",
            self._recompute_cost(node, estimator),
            {
                "est_rows": estimator.rows(node),
                "stat_source": "plan-estimate",
            },
        )
        ranked = sorted(
            [view_choice, recompute_choice], key=lambda c: c.cost_seconds
        )
        decisions.append(
            Explanation(
                chosen=ranked[0],
                candidates=ranked,
                estimates=[
                    f"view {definition.name!r}: {n_view} stored rows vs "
                    f"~{recompute_choice.params['est_rows']:.0f} recomputed"
                ],
            )
        )
        if ranked[0] is not view_choice:
            self._metric_view_matches.labels(
                outcome="recompute-cheaper"
            ).inc()
            notes.append(
                f"view-match: view {definition.name!r} matches this prefix "
                f"but recomputation is cheaper "
                f"({recompute_choice.cost_seconds:.4g}s vs "
                f"{view_choice.cost_seconds:.4g}s)"
            )
            return None
        self._metric_view_matches.labels(outcome="rewritten").inc()
        suffix = " (stale tolerated)" if stale else ""
        notes.append(
            f"view-match: rewrote pipeline prefix to scan materialized view "
            f"{definition.name!r} ({view_choice.cost_seconds:.4g}s vs "
            f"{recompute_choice.cost_seconds:.4g}s recompute){suffix}"
        )
        return logical.Scan(definition.name)

    def _recompute_cost(
        self, node: logical.LogicalPlan, estimator: CardinalityEstimator
    ) -> float:
        """Modeled cost of computing a subtree from its bases — what
        scanning the view instead would save."""
        cost = self.optimizer.cost
        if isinstance(node, logical.Scan):
            return cost.full_scan(int(estimator.rows(node)))
        inputs = sum(
            self._recompute_cost(child, estimator) for child in node.children()
        )
        if isinstance(node, logical.Filter):
            return inputs + cost.filter_per_patch * estimator.rows(node.child)
        if isinstance(node, logical.Map):
            return inputs + cost.udf_map(estimator.rows(node.child))
        if isinstance(node, logical.SimilarityJoin):
            join = estimator.join(node)
            return inputs + self.optimizer.plan_similarity_join(
                join.n_left, join.n_right, join.dim
            ).chosen.cost_seconds
        if isinstance(node, logical.Limit):
            # conservative: a pipeline breaker below would compute its
            # whole input regardless of the limit
            return inputs
        # Project / OrderBy / Aggregate: child cost plus a per-row touch
        return inputs + cost.filter_per_patch * estimator.rows(node)


class PersistentUDFCache(UDFCache):
    """The session UDF memo backed by a catalog-persisted second tier.

    In memory it is the plain lineage-keyed LRU of :class:`UDFCache`;
    every miss with a *portable* key (a named module-level UDF over a
    materialized patch) additionally consults — and on compute, writes —
    a kvstore tier: a B+ tree in the catalog's pager mapping a stable
    key digest to the serialized result in the blob heap. Cached
    inference therefore survives sessions: reopening the database and
    re-running the same UDF over the same patches is served from the
    catalog without invoking the model.

    Lambdas and closures have no session-independent identity, so their
    results stay memory-only — correctness over reuse.

    Concurrency: the persistent tier implements the base class's
    out-of-mutex hooks (``_fetch_second_tier`` / ``_spill``), called only
    by a key's single-flight owner, so one digest is read, computed, and
    spilled at most once. A dedicated tier lock serializes the B+ tree
    object (tree-structure updates are not safe under concurrent access,
    even though the pager and heap each guard their own file handles),
    without ever blocking workers that are purely in memory.
    """

    #: name of the backing B+ tree inside the catalog's pager
    TREE_NAME = "udf:results"

    def __init__(
        self, catalog: Catalog, max_entries: int = 100_000, *, metrics=None
    ) -> None:
        super().__init__(max_entries, metrics=metrics)
        self.catalog = catalog
        self._tree = catalog._tree_for(self.TREE_NAME)
        #: serializes reads/inserts on the results tree (and the
        #: disk_hits counter they maintain)
        self._tier_lock = threading.Lock()
        #: hits served from the persistent tier (subset of ``hits``)
        self.disk_hits = 0

    def __len__(self) -> int:
        """Entries resident in memory (the persistent tier may hold more)."""
        return len(self._store)

    def persisted_count(self) -> int:
        with self._tier_lock:
            return len(self._tree)

    @staticmethod
    def _digest(key: tuple) -> str | None:
        """Stable digest of a memo key, or None when the UDF's identity
        does not survive sessions (lambda/closure)."""
        name, fn = key[0], key[1]
        if not logical.callable_is_portable(fn):
            return None
        payload = repr((name, logical.callable_identity(fn)) + key[2:])
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    def _fetch_second_tier(self, key: Any) -> Any:
        digest = self._digest(key)
        if digest is None:
            raise KeyError(key)
        with self._tier_lock:
            payloads = self._tree.get(digest)
            if not payloads:
                raise KeyError(key)
            payload = payloads[0]
            self.disk_hits += 1
        # the heap read + decode need only the heap's own lock
        return self._decode(payload)

    def _spill(self, key: Any, value: Any) -> None:
        digest = self._digest(key)
        if digest is None:
            return
        encoded = self._encode(value)
        if encoded is None:
            return  # non-patch results stay memory-only
        with self._tier_lock:
            if self._tree.contains(digest):
                return
        # compress + append outside the tier lock (the heap has its own);
        # single-flight means no concurrent spill of this digest, so the
        # re-check below only guards hypothetical non-owner callers — a
        # lost race costs one orphaned blob in an append-only heap
        ref = self.catalog.heap.put(encoded, compress=True)
        with self._tier_lock:
            if self._tree.contains(digest):
                return
            self._tree.insert(
                digest,
                serialization.dumps(
                    list(ref.to_tuple()), compress_arrays=False
                ),
            )
        self._metric_spills.inc()

    @staticmethod
    def _encode(value: Any) -> bytes | None:
        if value is None:
            kind, items = "none", []
        elif isinstance(value, Patch):
            kind, items = "patch", [value]
        elif isinstance(value, list) and all(
            isinstance(item, Patch) for item in value
        ):
            kind, items = "list", list(value)
        else:
            return None
        return serialization.dumps(
            {
                "kind": kind,
                "items": [patch.to_record() for patch in items],
                "ids": [patch.patch_id for patch in items],
            },
            compress_arrays=False,
        )

    def _decode(self, payload: bytes) -> Any:
        ref = BlobRef.from_tuple(tuple(serialization.loads(payload)))
        record = serialization.loads(self.catalog.heap.get(ref))
        patches = [
            Patch.from_record(item, patch_id=patch_id)
            for item, patch_id in zip(record["items"], record["ids"])
        ]
        if record["kind"] == "none":
            return None
        if record["kind"] == "patch":
            return patches[0]
        return patches
