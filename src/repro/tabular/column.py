"""Typed columns backed by numpy arrays.

Two concrete column types exist, mirroring the paper's attribute kinds:

- :class:`CategoricalColumn` — integer codes into a list of category
  labels; missing values are encoded as code ``-1``.
- :class:`ContinuousColumn` — float64 values; missing values are NaN.

Columns are immutable from the point of view of callers: operations
return new columns or numpy arrays, never mutate in place.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MISSING_CODE = -1


class Column:
    """Abstract base class for table columns."""

    name: str

    def __len__(self) -> int:
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with the rows at ``indices``."""
        raise NotImplementedError

    def select(self, mask: np.ndarray) -> "Column":
        """Return a new column with the rows where ``mask`` is True."""
        raise NotImplementedError

    def missing_mask(self) -> np.ndarray:
        """Boolean mask of missing entries."""
        raise NotImplementedError

    def to_list(self) -> list:
        """Decode the column to a plain Python list (None for missing)."""
        raise NotImplementedError

    def rename(self, name: str) -> "Column":
        """Return a copy of this column under a new name."""
        raise NotImplementedError


class CategoricalColumn(Column):
    """A column of categorical values stored as integer codes.

    Parameters
    ----------
    name:
        Column name.
    codes:
        Integer array; ``-1`` marks missing values.
    categories:
        Category labels; ``codes`` index into this sequence.
    """

    def __init__(self, name: str, codes: np.ndarray, categories: Sequence[str]):
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        categories = list(categories)
        if len(set(categories)) != len(categories):
            raise ValueError("categories must be unique")
        if codes.size and codes.max(initial=MISSING_CODE) >= len(categories):
            raise ValueError("code out of range for categories")
        if codes.size and codes.min(initial=0) < MISSING_CODE:
            raise ValueError("negative code other than missing marker")
        self.name = name
        self.codes = codes
        self.categories = categories
        self._code_of = {c: i for i, c in enumerate(categories)}

    @classmethod
    def from_values(cls, name: str, values: Iterable) -> "CategoricalColumn":
        """Build a column from raw values, inferring the category set.

        ``None`` and NaN floats become missing. All other values are
        converted to ``str``. Categories are sorted for determinism.
        """
        raw = list(values)
        labels: list[str | None] = []
        for v in raw:
            if v is None or (isinstance(v, float) and np.isnan(v)):
                labels.append(None)
            else:
                labels.append(str(v))
        categories = sorted({v for v in labels if v is not None})
        code_of = {c: i for i, c in enumerate(categories)}
        codes = np.fromiter(
            (MISSING_CODE if v is None else code_of[v] for v in labels),
            dtype=np.int32,
            count=len(labels),
        )
        return cls(name, codes, categories)

    def __len__(self) -> int:
        return self.codes.size

    def code_of(self, category: str) -> int:
        """Return the integer code of ``category``.

        Raises
        ------
        KeyError
            If the category is not in the domain.
        """
        return self._code_of[category]

    def mask_eq(self, category: str) -> np.ndarray:
        """Boolean mask of rows equal to ``category``.

        Unknown categories yield an all-False mask (the item simply has
        empty support) rather than an error, which matches how itemsets
        from one table may be evaluated against another.
        """
        code = self._code_of.get(category)
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self.codes == code

    def mask_in(self, categories: Iterable[str]) -> np.ndarray:
        """Boolean mask of rows whose value is in ``categories``.

        One lookup per row in a table with a slot per category and a
        last, always False, slot that the missing code ``-1`` indexes.
        """
        code_of = self._code_of
        wanted = np.zeros(len(self.categories) + 1, dtype=bool)
        wanted[[code_of[c] for c in categories if c in code_of]] = True
        return np.take(wanted, self.codes)

    def missing_mask(self) -> np.ndarray:
        return self.codes == MISSING_CODE

    def value_counts(self) -> dict[str, int]:
        """Return ``{category: count}`` for non-missing rows."""
        counts = np.bincount(
            self.codes[self.codes != MISSING_CODE], minlength=len(self.categories)
        )
        return {c: int(counts[i]) for i, c in enumerate(self.categories)}

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        return CategoricalColumn(self.name, self.codes[indices], self.categories)

    def select(self, mask: np.ndarray) -> "CategoricalColumn":
        return CategoricalColumn(self.name, self.codes[mask], self.categories)

    def rename(self, name: str) -> "CategoricalColumn":
        return CategoricalColumn(name, self.codes, self.categories)

    def to_list(self) -> list:
        return [
            None if c == MISSING_CODE else self.categories[c] for c in self.codes
        ]

    def __repr__(self) -> str:
        return (
            f"CategoricalColumn({self.name!r}, n={len(self)}, "
            f"categories={len(self.categories)})"
        )


class ContinuousColumn(Column):
    """A column of real values stored as float64; NaN marks missing."""

    def __init__(self, name: str, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        self.name = name
        self.values = values

    def __len__(self) -> int:
        return self.values.size

    def mask_interval(
        self,
        low: float,
        high: float,
        closed_low: bool = False,
        closed_high: bool = True,
    ) -> np.ndarray:
        """Boolean mask of rows in the interval from ``low`` to ``high``.

        The default (open low, closed high) matches the tree
        discretization convention ``low < A <= high``. Infinite bounds
        are allowed. NaN rows never match.
        """
        v = self.values
        if np.isneginf(low):
            lo = np.ones(v.size, dtype=bool)
        elif closed_low:
            lo = v >= low
        else:
            lo = v > low
        if np.isposinf(high):
            hi = np.ones(v.size, dtype=bool)
        elif closed_high:
            hi = v <= high
        else:
            hi = v < high
        return lo & hi & ~np.isnan(v)

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    def min(self) -> float:
        """Minimum over non-missing values (NaN if all missing)."""
        finite = self.values[~np.isnan(self.values)]
        return float(finite.min()) if finite.size else float("nan")

    def max(self) -> float:
        """Maximum over non-missing values (NaN if all missing)."""
        finite = self.values[~np.isnan(self.values)]
        return float(finite.max()) if finite.size else float("nan")

    def take(self, indices: np.ndarray) -> "ContinuousColumn":
        return ContinuousColumn(self.name, self.values[indices])

    def select(self, mask: np.ndarray) -> "ContinuousColumn":
        return ContinuousColumn(self.name, self.values[mask])

    def rename(self, name: str) -> "ContinuousColumn":
        return ContinuousColumn(name, self.values)

    def to_list(self) -> list:
        return [None if np.isnan(v) else float(v) for v in self.values]

    def __repr__(self) -> str:
        return f"ContinuousColumn({self.name!r}, n={len(self)})"


def infer_column(name: str, values) -> Column:
    """Infer a column type from raw values.

    Numeric arrays/lists — including lists mixing numbers with ``None``
    (read as NaN) — become :class:`ContinuousColumn`; everything else
    becomes :class:`CategoricalColumn`. Booleans are treated as
    categorical (their domain is finite).
    """
    arr = np.asarray(values)
    if arr.dtype == bool:
        return CategoricalColumn.from_values(name, [str(v) for v in arr])
    if np.issubdtype(arr.dtype, np.number):
        return ContinuousColumn(name, arr.astype(np.float64))
    if arr.dtype == object:
        raw = list(values)
        non_missing = [v for v in raw if v is not None]
        if non_missing and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in non_missing
        ):
            filled = [np.nan if v is None else float(v) for v in raw]
            return ContinuousColumn(name, np.asarray(filled))
    return CategoricalColumn.from_values(name, list(values))
