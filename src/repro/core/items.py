"""Items and itemsets (Section III-A of the paper).

An *item* is a constraint on a single attribute:

- for a categorical attribute ``A``, an item has the form ``A = a``
  (or, for generalized items arising from a taxonomy, ``A ∈ {a1..ak}``);
- for a continuous attribute ``A``, an item has the form ``A ∈ J`` for
  an interval ``J``.

An *itemset* (pattern) is a set of items with at most one item per
attribute; the data subgroup it denotes is the set of instances
satisfying every item.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterable

import numpy as np

from repro.tabular import Table


class Item:
    """Abstract constraint on one attribute.

    Items are immutable, hashable value objects; two items are equal iff
    they denote the same constraint on the same attribute.
    """

    attribute: str

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask over ``table`` rows satisfying this item."""
        raise NotImplementedError

    def covers(self, other: "Item") -> bool:
        """True if every instance satisfying ``other`` satisfies ``self``.

        Only items on the same attribute can cover each other.
        """
        raise NotImplementedError


class CategoricalItem(Item):
    """Constraint ``A = a`` or, for taxonomy nodes, ``A ∈ {a1..ak}``.

    Parameters
    ----------
    attribute:
        Attribute name.
    values:
        The admitted category labels. A single label is the ordinary
        ``A = a`` item; multiple labels arise from categorical
        hierarchies (e.g. ``OCCP = MGR`` covering all MGR-* codes).
    label:
        Display label. Defaults to the single value, or a brace list.
    """

    __slots__ = ("attribute", "values", "label", "_hash")

    def __init__(self, attribute: str, values, label: str | None = None):
        if isinstance(values, str):
            values = (values,)
        values_set: FrozenSet[str] = frozenset(str(v) for v in values)
        if not values_set:
            raise ValueError("a categorical item needs at least one value")
        self.attribute = attribute
        self.values = values_set
        if label is None:
            if len(values_set) == 1:
                label = next(iter(values_set))
            else:
                label = "{" + ",".join(sorted(values_set)) + "}"
        self.label = label
        self._hash = hash((attribute, values_set))

    def mask(self, table: Table) -> np.ndarray:
        col = table.categorical(self.attribute)
        if len(self.values) == 1:
            return col.mask_eq(next(iter(self.values)))
        return col.mask_in(self.values)

    def covers(self, other: Item) -> bool:
        return (
            isinstance(other, CategoricalItem)
            and other.attribute == self.attribute
            and other.values <= self.values
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CategoricalItem)
            and self.attribute == other.attribute
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CategoricalItem({self!s})"

    def __str__(self) -> str:
        return f"{self.attribute}={self.label}"


class IntervalItem(Item):
    """Constraint ``A ∈ J`` for an interval ``J``.

    The interval is half-open ``(low, high]`` by default, matching the
    splitting convention of the discretization trees (``A ≤ a`` vs
    ``A > a``). Infinite bounds give one-sided constraints.
    """

    __slots__ = ("attribute", "low", "high", "closed_low", "closed_high", "_hash")

    def __init__(
        self,
        attribute: str,
        low: float = -math.inf,
        high: float = math.inf,
        closed_low: bool = False,
        closed_high: bool = True,
    ):
        if not low < high:
            raise ValueError(f"empty interval: low={low} high={high}")
        self.attribute = attribute
        self.low = float(low)
        self.high = float(high)
        # Closedness at an infinite bound is immaterial; normalize it so
        # that (-inf, x] and [-inf, x] compare equal.
        self.closed_low = bool(closed_low) and math.isfinite(self.low)
        self.closed_high = bool(closed_high) and math.isfinite(self.high)
        self._hash = hash(
            (attribute, self.low, self.high, self.closed_low, self.closed_high)
        )

    @property
    def is_universe(self) -> bool:
        """True if the interval is the whole real line."""
        return math.isinf(self.low) and math.isinf(self.high)

    def mask(self, table: Table) -> np.ndarray:
        col = table.continuous(self.attribute)
        return col.mask_interval(
            self.low, self.high, self.closed_low, self.closed_high
        )

    def covers(self, other: Item) -> bool:
        if not isinstance(other, IntervalItem) or other.attribute != self.attribute:
            return False
        low_ok = self.low < other.low or (
            self.low == other.low and (self.closed_low or not other.closed_low)
        )
        high_ok = other.high < self.high or (
            other.high == self.high and (self.closed_high or not other.closed_high)
        )
        return low_ok and high_ok

    def contains_value(self, value: float) -> bool:
        """True if the scalar ``value`` satisfies the constraint.

        Agrees with :meth:`mask`: an infinite bound is no bound, so
        ``(-inf, 2]`` holds ``-inf`` and ``(2, inf)`` holds ``inf``.
        """
        if math.isnan(value):
            return False
        above = (
            math.isinf(self.low)
            or (value >= self.low if self.closed_low else value > self.low)
        )
        below = (
            math.isinf(self.high)
            or (value <= self.high if self.closed_high else value < self.high)
        )
        return above and below

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalItem)
            and self.attribute == other.attribute
            and self.low == other.low
            and self.high == other.high
            and self.closed_low == other.closed_low
            and self.closed_high == other.closed_high
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IntervalItem({self!s})"

    def __str__(self) -> str:
        if self.is_universe:
            return f"{self.attribute}=*"
        if math.isinf(self.low):
            op = "<=" if self.closed_high else "<"
            return f"{self.attribute}{op}{_fmt(self.high)}"
        if math.isinf(self.high):
            op = ">=" if self.closed_low else ">"
            return f"{self.attribute}{op}{_fmt(self.low)}"
        lo = "[" if self.closed_low else "("
        hi = "]" if self.closed_high else ")"
        return f"{self.attribute}={lo}{_fmt(self.low)}-{_fmt(self.high)}{hi}"


def _fmt(x: float) -> str:
    """Compact number formatting for item labels."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.4g}"


class MissingItem(Item):
    """Constraint ``A is missing`` (⊥ value).

    Ordinary items never match rows whose attribute is missing, so
    subgroups characterized by missingness itself — often the most
    anomalous ones in dirty data — are invisible without this item.
    Universe builders add it on request (``include_missing_items``).
    """

    __slots__ = ("attribute", "_hash")

    def __init__(self, attribute: str):
        self.attribute = attribute
        self._hash = hash((attribute, "__missing__"))

    def mask(self, table: Table) -> np.ndarray:
        return table[self.attribute].missing_mask()

    def covers(self, other: Item) -> bool:
        return self == other

    def __eq__(self, other) -> bool:
        return isinstance(other, MissingItem) and self.attribute == other.attribute

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MissingItem({self.attribute!r})"

    def __str__(self) -> str:
        return f"{self.attribute}=⊥"


class Itemset:
    """A set of items with at most one item per attribute.

    The empty itemset denotes the entire dataset.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, items: Iterable[Item] = ()):
        items_set = frozenset(items)
        attrs = [it.attribute for it in items_set]
        if len(set(attrs)) != len(attrs):
            raise ValueError(
                "an itemset may contain at most one item per attribute; "
                f"got items on {sorted(attrs)}"
            )
        self.items = items_set
        self._hash = hash(items_set)

    @classmethod
    def _from_distinct(cls, items: FrozenSet[Item]) -> "Itemset":
        """Construct without the one-item-per-attribute check.

        Internal fast path for the mining backends, which guarantee
        attribute distinctness structurally.
        """
        self = object.__new__(cls)
        self.items = items
        self._hash = hash(items)
        return self

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(it.attribute for it in self.items)

    def mask(self, table: Table) -> np.ndarray:
        """Conjunction of the member items' masks."""
        mask = np.ones(table.n_rows, dtype=bool)
        for item in self.items:
            mask &= item.mask(table)
        return mask

    def support(self, table: Table) -> float:
        """Fraction of rows of ``table`` satisfying the itemset."""
        if table.n_rows == 0:
            return 0.0
        return float(self.mask(table).sum()) / table.n_rows

    def union(self, item: Item) -> "Itemset":
        """Return this itemset extended with ``item``."""
        return Itemset(self.items | {item})

    def generalizes(self, other: "Itemset") -> bool:
        """True if every instance satisfying ``other`` satisfies ``self``.

        Holds when each of our items covers some item of ``other``.
        """
        by_attr = {it.attribute: it for it in other.items}
        for item in self.items:
            target = by_attr.get(item.attribute)
            if target is None or not item.covers(target):
                return False
        return True

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def __eq__(self, other) -> bool:
        return isinstance(other, Itemset) and self.items == other.items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Itemset({self!s})"

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        return ", ".join(sorted(str(it) for it in self.items))
