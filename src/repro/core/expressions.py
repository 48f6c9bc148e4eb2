"""Predicate expressions over patch metadata.

A tiny expression DSL with two consumers:

* operators *evaluate* expressions against patches;
* the optimizer *introspects* them — a conjunction of comparisons exposes
  its attribute/op/constant triples so index selection (hash for ``==``,
  B+ tree / sorted file for ranges) and filter push-down can reason about
  the predicate instead of treating it as an opaque callable.

Usage::

    from repro.core.expressions import Attr
    expr = (Attr("label") == "vehicle") & Attr("frameno").between(100, 200)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

from repro.core.patch import Patch
from repro.errors import QueryError


def _safe_in(a: Any, b: Any) -> bool:
    """``a in b`` degrading to False when the operands cannot support
    membership (b is no container, or a is unhashable against a set) —
    a mismatched row simply doesn't match, it doesn't abort the query."""
    try:
        return a in b
    except TypeError:
        return False


def _safe_contains(a: Any, b: Any) -> bool:
    """``b in a`` with the same degrade-to-False contract as ``in``."""
    if a is None:
        return False
    try:
        return b in a
    except TypeError:
        return False


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and a < b,
    "<=": lambda a, b: a is not None and a <= b,
    ">": lambda a, b: a is not None and a > b,
    ">=": lambda a, b: a is not None and a >= b,
    "in": _safe_in,
    "contains": _safe_contains,
}


_NUMPY_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

#: every integer of magnitude up to 2**53 is exactly one float64
_EXACT_FLOAT = 2**53


def _comparable_array(columns, attr: str, *probes: Any) -> np.ndarray | None:
    """``attr``'s column as an array that numpy compares with every
    probe exactly as Python compares the row values one by one — or
    None when that is not provable, and the caller tests the values
    themselves.

    Covered: a numeric run against ``bool``/``int``/``float`` probes as
    long as no operand is rounded on the way (numpy compares an int
    column with a float probe *as float64*, Python compares them
    exactly, so the ints must all fit a float; likewise an int probe
    against a float column, and an int probe must fit int64); a string
    run against ``str`` probes, through an object array whose
    comparisons *are* Python's (see :func:`_probe`). NaN needs no care:
    both sides implement IEEE comparison. A typed run has no None and no
    missing row.
    """
    if all(isinstance(probe, str) for probe in probes):
        return columns.strings(attr)
    array = columns.numeric(attr)
    if array is None:
        return None
    for probe in probes:
        if isinstance(probe, float):
            if array.dtype.kind == "i" and len(array) and (
                array.min() < -_EXACT_FLOAT or array.max() > _EXACT_FLOAT
            ):
                return None
        elif isinstance(probe, int):  # bool included: True == 1
            limit = _EXACT_FLOAT if array.dtype.kind == "f" else 2**63 - 1
            if abs(probe) > limit:
                return None
        else:
            return None
    return array


def _probe(array: np.ndarray, value: Any) -> Any:
    """``value`` as numpy must see it next to ``array``: boxed beside an
    object array, because numpy would read a bare ``str`` as a
    fixed-width string and drop its trailing NULs."""
    return np.array(value, dtype=object) if array.dtype == object else value


class _RowView:
    """What ``evaluate`` reads of a patch — ``metadata.get`` — served
    from row ``position`` of a column batch."""

    def __init__(self, columns) -> None:
        self._columns = columns
        self._values: dict[str, list] = {}
        self.position = 0

    @property
    def metadata(self) -> "_RowView":
        return self

    def get(self, attr: str, default: Any = None) -> Any:
        values = self._values.get(attr)
        if values is None:
            values = self._values[attr] = self._columns.values(attr)
        return values[self.position]


class Expr(ABC):
    """Boolean expression over one patch."""

    @abstractmethod
    def evaluate(self, patch: Patch) -> bool:
        """True when the patch satisfies the expression."""

    def mask(self, columns) -> np.ndarray:
        """``evaluate`` for every row of a column batch at once: a bool
        array equal to ``[bool(evaluate(row)) for row in batch]``, and
        raising what that loop raises.

        ``columns`` is a :class:`~repro.storage.metadata_segment.
        ColumnBatch` (``numeric``/``strings``/``values`` per attribute).
        Comparisons run as one numpy operation where that provably
        equals Python's row-by-row answer; any other (column, probe)
        pairing tests the column's Python values with the very code
        ``evaluate`` uses, so there is a single semantics. ``And``/``Or``
        short-circuit per row like ``all``/``any`` do: a later child
        only sees the rows the earlier ones left undecided.
        """
        try:
            return self._mask(columns, None)
        except (TypeError, ValueError):
            # some row's value cannot be compared. Row-major evaluation
            # may hit a different row first (or short-circuit past this
            # one), so replay it to raise exactly what it raises.
            row = _RowView(columns)
            out = np.empty(len(columns), dtype=bool)
            for row.position in range(len(columns)):
                out[row.position] = bool(self.evaluate(row))
            return out

    @abstractmethod
    def _mask(self, columns, rows: np.ndarray | None) -> np.ndarray:
        """:meth:`mask` over the batch positions ``rows`` (all when
        None), one entry per position."""

    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def conjuncts(self) -> list["Expr"]:
        """Flatten top-level ANDs (the unit of push-down/index matching)."""
        return [self]


class Comparison(Expr):
    """attr <op> constant — the indexable leaf."""

    def __init__(self, attr: str, op: str, value: Any) -> None:
        if op not in _OPS:
            raise QueryError(f"unknown comparison op {op!r}")
        self.attr = attr
        self.op = op
        self.value = value

    def evaluate(self, patch: Patch) -> bool:
        return _OPS[self.op](patch.metadata.get(self.attr), self.value)

    def _mask(self, columns, rows):
        op, value = _OPS[self.op], self.value
        ufunc = _NUMPY_OPS.get(self.op)
        if ufunc is not None:
            array = _comparable_array(columns, self.attr, value)
            if array is not None:
                return ufunc(
                    array if rows is None else array[rows], _probe(array, value)
                )
        # any other (column, probe) pairing: the row path's own test
        return np.array(
            [bool(op(a, value)) for a in columns.values(self.attr, rows)],
            dtype=bool,
        )

    def __repr__(self) -> str:
        return f"({self.attr} {self.op} {self.value!r})"


class Between(Expr):
    """lo <= attr <= hi — matches range indexes directly."""

    def __init__(self, attr: str, lo: Any, hi: Any) -> None:
        if lo is None and hi is None:
            raise QueryError("between needs at least one bound")
        self.attr = attr
        self.lo = lo
        self.hi = hi

    def evaluate(self, patch: Patch) -> bool:
        return self._test(patch.metadata.get(self.attr))

    def _test(self, value: Any) -> bool:
        if value is None:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def _mask(self, columns, rows):
        bounds = [bound for bound in (self.lo, self.hi) if bound is not None]
        array = _comparable_array(columns, self.attr, *bounds)
        if array is None:
            return np.array(
                [self._test(a) for a in columns.values(self.attr, rows)],
                dtype=bool,
            )
        if rows is not None:
            array = array[rows]
        # "not below lo and not above hi", as _test spells it: a NaN is
        # neither, so it passes — ``lo <= x <= hi`` would drop it
        out = np.ones(len(array), dtype=bool)
        if self.lo is not None:
            out &= ~(array < _probe(array, self.lo))
        if self.hi is not None:
            out &= ~(array > _probe(array, self.hi))
        return out

    def __repr__(self) -> str:
        return f"({self.lo!r} <= {self.attr} <= {self.hi!r})"


class And(Expr):
    def __init__(self, *children: Expr) -> None:
        if len(children) < 2:
            raise QueryError("And needs at least two children")
        self.children = tuple(children)

    def evaluate(self, patch: Patch) -> bool:
        return all(child.evaluate(patch) for child in self.children)

    def _mask(self, columns, rows):
        return _short_circuit(self.children, columns, rows, stop_on=False)

    def conjuncts(self) -> list[Expr]:
        out: list[Expr] = []
        for child in self.children:
            out.extend(child.conjuncts())
        return out

    def __repr__(self) -> str:
        return " & ".join(map(repr, self.children))


class Or(Expr):
    def __init__(self, *children: Expr) -> None:
        if len(children) < 2:
            raise QueryError("Or needs at least two children")
        self.children = tuple(children)

    def evaluate(self, patch: Patch) -> bool:
        return any(child.evaluate(patch) for child in self.children)

    def _mask(self, columns, rows):
        return _short_circuit(self.children, columns, rows, stop_on=True)

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.children)) + ")"


class Not(Expr):
    def __init__(self, child: Expr) -> None:
        self.child = child

    def evaluate(self, patch: Patch) -> bool:
        return not self.child.evaluate(patch)

    def _mask(self, columns, rows):
        return ~self.child._mask(columns, rows)

    def __repr__(self) -> str:
        return f"~{self.child!r}"


class Predicate(Expr):
    """Escape hatch: an opaque Python callable (never index-matched)."""

    def __init__(self, fn: Callable[[Patch], bool], name: str = "<fn>") -> None:
        self.fn = fn
        self.name = name

    def evaluate(self, patch: Patch) -> bool:
        return bool(self.fn(patch))

    def _mask(self, columns, rows):
        raise QueryError(
            f"{self!r} is opaque: it needs whole patches, not columns"
        )

    def __repr__(self) -> str:
        return f"Predicate({self.name})"


class AlwaysTrue(Expr):
    def evaluate(self, patch: Patch) -> bool:
        return True

    def _mask(self, columns, rows):
        return np.ones(len(columns) if rows is None else len(rows), dtype=bool)

    def __repr__(self) -> str:
        return "TRUE"


def conjunction(conjuncts: list[Expr | None]) -> Expr | None:
    """The AND of the non-None ``conjuncts`` in order: one of them as it
    is, None for none."""
    kept = [conjunct for conjunct in conjuncts if conjunct is not None]
    if len(kept) > 1:
        return And(*kept)
    return kept[0] if kept else None


def _short_circuit(
    children: tuple[Expr, ...], columns, rows, *, stop_on: bool
) -> np.ndarray:
    """``all``/``any`` over ``children`` for many rows: a row's answer
    is settled by the first child that evaluates to ``stop_on`` for it,
    and later children are never asked about a settled row — so a child
    that would raise on such a row does not, exactly as row by row."""
    n = len(columns) if rows is None else len(rows)
    out = np.full(n, not stop_on, dtype=bool)
    open_ = None  # entries still undecided; None while that is all of them
    for child in children:
        if open_ is None:
            hit = child._mask(columns, rows) == stop_on
            open_ = np.arange(n)
        elif len(open_):
            hit = child._mask(
                columns, open_ if rows is None else rows[open_]
            ) == stop_on
        else:
            break
        out[open_[hit]] = stop_on
        open_ = open_[~hit]
    return out


def extract_bounds(
    expr: Expr | None, attr: str
) -> tuple[Any | None, Any | None, Expr | None]:
    """Split ``expr`` into bounds on ``attr`` plus a residual expression.

    Returns ``(lo, hi, residual)``: the tightest inclusive range implied by
    the top-level conjuncts on ``attr`` (either may be None for open), and
    the conjunction of every other conjunct (None when nothing remains).
    This is the analysis behind temporal filter push-down (Section 3.1)
    and range-index selection.
    """
    if expr is None:
        return None, None, None
    lo: Any | None = None
    hi: Any | None = None
    residual: list[Expr] = []
    for conjunct in expr.conjuncts():
        new_lo: Any | None = None
        new_hi: Any | None = None
        if isinstance(conjunct, Between) and conjunct.attr == attr:
            new_lo, new_hi = conjunct.lo, conjunct.hi
        elif isinstance(conjunct, Comparison) and conjunct.attr == attr:
            if conjunct.op == "==":
                new_lo = new_hi = conjunct.value
            elif conjunct.op in ("<", "<="):
                new_hi = conjunct.value
            elif conjunct.op in (">", ">="):
                new_lo = conjunct.value
            else:
                residual.append(conjunct)
                continue
            if conjunct.op in ("<", ">"):
                # strict bounds stay as residual filters on top of the
                # inclusive scan range
                residual.append(conjunct)
        else:
            residual.append(conjunct)
            continue
        if new_lo is not None and (lo is None or new_lo > lo):
            lo = new_lo
        if new_hi is not None and (hi is None or new_hi < hi):
            hi = new_hi
    if not residual:
        return lo, hi, None
    if len(residual) == 1:
        return lo, hi, residual[0]
    return lo, hi, And(*residual)


class Attr:
    """Attribute reference — the DSL's entry point."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, value) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "==", value)

    def __ne__(self, value) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "!=", value)

    def __lt__(self, value) -> Comparison:
        return Comparison(self.name, "<", value)

    def __le__(self, value) -> Comparison:
        return Comparison(self.name, "<=", value)

    def __gt__(self, value) -> Comparison:
        return Comparison(self.name, ">", value)

    def __ge__(self, value) -> Comparison:
        return Comparison(self.name, ">=", value)

    def between(self, lo, hi) -> Between:
        return Between(self.name, lo, hi)

    def isin(self, values) -> Comparison:
        return Comparison(self.name, "in", tuple(values))

    def contains(self, needle) -> Comparison:
        return Comparison(self.name, "contains", needle)

    def is_not_none(self) -> Comparison:
        return Comparison(self.name, "!=", None)

    __hash__ = None  # type: ignore[assignment]  # == builds expressions
