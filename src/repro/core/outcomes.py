"""Outcome functions (Section III-B).

An outcome function maps each instance to a value in ``IR ∪ {⊥}``. The
statistic of an instance set is the mean outcome over instances whose
outcome is defined; its divergence is the difference between the
subgroup statistic and the whole-dataset statistic.

Outcomes are represented as float64 arrays where NaN encodes ⊥. Boolean
outcomes use 1.0 for T and 0.0 for F, so that the mean is exactly the
probability ``k+ / (k+ + k-)`` of the paper.
"""

from __future__ import annotations


import numpy as np

from repro.tabular import Table


class Outcome:
    """An outcome function, evaluated lazily against a table.

    Parameters
    ----------
    name:
        Human-readable statistic name (e.g. ``"fpr"``).
    fn:
        Callable ``Table -> np.ndarray`` of float64 with NaN for ⊥.
    boolean:
        True if the outcome only takes values in {0, 1, ⊥}; such
        outcomes admit the entropy-based tree-splitting criterion.
    """

    def __init__(self, name: str, fn, boolean: bool):
        self.name = name
        self._fn = fn
        self.boolean = boolean

    def values(self, table: Table) -> np.ndarray:
        """Evaluate the outcome on every row of ``table``."""
        out = np.asarray(self._fn(table), dtype=np.float64)
        if out.shape != (table.n_rows,):
            raise ValueError(
                f"outcome {self.name!r} returned shape {out.shape}, "
                f"expected ({table.n_rows},)"
            )
        if self.boolean:
            defined = out[~np.isnan(out)]
            if defined.size and not np.all((defined == 0.0) | (defined == 1.0)):
                raise ValueError(
                    f"boolean outcome {self.name!r} produced non-0/1 values"
                )
        return out

    def __repr__(self) -> str:
        kind = "boolean" if self.boolean else "numeric"
        return f"Outcome({self.name!r}, {kind})"


def _norm_label(value) -> str | None:
    """Canonical string form of a label value.

    Label columns may arrive categorical (``"1"``) or, e.g. after a
    CSV round-trip, continuous (``1.0``); both must compare equal to
    the user's ``positive="1"``.
    """
    if value is None:
        return None
    if isinstance(value, float):
        if np.isnan(value):
            return None
        if value.is_integer():
            return str(int(value))
    return str(value)


def _binary(col_values, positive: str) -> np.ndarray:
    """Decode a label column's values to a {0,1} array."""
    target = _norm_label(positive)
    return np.asarray(
        [1.0 if _norm_label(v) == target else 0.0 for v in col_values]
    )


def _classification_arrays(
    table: Table, y_true: str, y_pred: str, positive: str
) -> tuple[np.ndarray, np.ndarray]:
    t = _binary(table[y_true].to_list(), positive)
    p = _binary(table[y_pred].to_list(), positive)
    return t, p


def false_positive_rate(
    y_true: str, y_pred: str, positive: str = "1"
) -> Outcome:
    """FPR outcome: T for false positives, F for true negatives, ⊥ else.

    The mean over a subgroup is FP / (FP + TN), the subgroup's
    false-positive rate.
    """

    def fn(table: Table) -> np.ndarray:
        t, p = _classification_arrays(table, y_true, y_pred, positive)
        out = np.full(table.n_rows, np.nan)
        negatives = t == 0.0
        out[negatives & (p == 1.0)] = 1.0
        out[negatives & (p == 0.0)] = 0.0
        return out

    return Outcome("fpr", fn, boolean=True)


def false_negative_rate(
    y_true: str, y_pred: str, positive: str = "1"
) -> Outcome:
    """FNR outcome: defined only on actual positives."""

    def fn(table: Table) -> np.ndarray:
        t, p = _classification_arrays(table, y_true, y_pred, positive)
        out = np.full(table.n_rows, np.nan)
        positives = t == 1.0
        out[positives & (p == 0.0)] = 1.0
        out[positives & (p == 1.0)] = 0.0
        return out

    return Outcome("fnr", fn, boolean=True)


def true_positive_rate(
    y_true: str, y_pred: str, positive: str = "1"
) -> Outcome:
    """TPR (recall) outcome: defined only on actual positives."""

    def fn(table: Table) -> np.ndarray:
        t, p = _classification_arrays(table, y_true, y_pred, positive)
        out = np.full(table.n_rows, np.nan)
        positives = t == 1.0
        out[positives & (p == 1.0)] = 1.0
        out[positives & (p == 0.0)] = 0.0
        return out

    return Outcome("tpr", fn, boolean=True)


def true_negative_rate(
    y_true: str, y_pred: str, positive: str = "1"
) -> Outcome:
    """TNR outcome: defined only on actual negatives."""

    def fn(table: Table) -> np.ndarray:
        t, p = _classification_arrays(table, y_true, y_pred, positive)
        out = np.full(table.n_rows, np.nan)
        negatives = t == 0.0
        out[negatives & (p == 0.0)] = 1.0
        out[negatives & (p == 1.0)] = 0.0
        return out

    return Outcome("tnr", fn, boolean=True)


def precision_outcome(
    y_true: str, y_pred: str, positive: str = "1"
) -> Outcome:
    """Precision outcome: defined only on *predicted* positives.

    T for true positives, F for false positives; the subgroup mean is
    TP / (TP + FP), the subgroup's precision.
    """

    def fn(table: Table) -> np.ndarray:
        t, p = _classification_arrays(table, y_true, y_pred, positive)
        out = np.full(table.n_rows, np.nan)
        predicted_pos = p == 1.0
        out[predicted_pos & (t == 1.0)] = 1.0
        out[predicted_pos & (t == 0.0)] = 0.0
        return out

    return Outcome("precision", fn, boolean=True)


def negative_predictive_value(
    y_true: str, y_pred: str, positive: str = "1"
) -> Outcome:
    """NPV outcome: defined only on predicted negatives.

    T for true negatives, F for false negatives; the subgroup mean is
    TN / (TN + FN).
    """

    def fn(table: Table) -> np.ndarray:
        t, p = _classification_arrays(table, y_true, y_pred, positive)
        out = np.full(table.n_rows, np.nan)
        predicted_neg = p == 0.0
        out[predicted_neg & (t == 0.0)] = 1.0
        out[predicted_neg & (t == 1.0)] = 0.0
        return out

    return Outcome("npv", fn, boolean=True)


def error_rate(y_true: str, y_pred: str) -> Outcome:
    """Misclassification outcome: 1 if predicted ≠ true, else 0.

    Defined on every instance (never ⊥). The subgroup mean is the
    subgroup's classification error rate.
    """

    def fn(table: Table) -> np.ndarray:
        t = [_norm_label(v) for v in table[y_true].to_list()]
        p = [_norm_label(v) for v in table[y_pred].to_list()]
        return np.asarray(
            [1.0 if a != b else 0.0 for a, b in zip(t, p)], dtype=np.float64
        )

    return Outcome("error", fn, boolean=True)


def accuracy_outcome(y_true: str, y_pred: str) -> Outcome:
    """Correct-classification outcome: 1 if predicted == true, else 0."""

    def fn(table: Table) -> np.ndarray:
        t = [_norm_label(v) for v in table[y_true].to_list()]
        p = [_norm_label(v) for v in table[y_pred].to_list()]
        return np.asarray(
            [1.0 if a == b else 0.0 for a, b in zip(t, p)], dtype=np.float64
        )

    return Outcome("accuracy", fn, boolean=True)


def error_difference(
    y_true: str, y_pred_a: str, y_pred_b: str
) -> Outcome:
    """Model-comparison outcome: error(A) − error(B) per instance.

    Values in {−1, 0, +1}: positive where model A errs and B does not.
    Subgroups with positive divergence are where switching from B to A
    hurts most — the subgroup view of a model upgrade's regressions.
    """

    def fn(table: Table) -> np.ndarray:
        t = [_norm_label(v) for v in table[y_true].to_list()]
        a = [_norm_label(v) for v in table[y_pred_a].to_list()]
        b = [_norm_label(v) for v in table[y_pred_b].to_list()]
        err_a = np.asarray(
            [1.0 if x != y else 0.0 for x, y in zip(a, t)]
        )
        err_b = np.asarray(
            [1.0 if x != y else 0.0 for x, y in zip(b, t)]
        )
        return err_a - err_b

    return Outcome("error-difference", fn, boolean=False)


def numeric_outcome(column: str, name: str | None = None) -> Outcome:
    """Numeric outcome reading a continuous column directly.

    Used e.g. for the income divergence of the folktables experiments.
    Missing column entries become ⊥.
    """

    def fn(table: Table) -> np.ndarray:
        return table.continuous(column).values

    return Outcome(name or column, fn, boolean=False)


def _is_boolean_array(values: np.ndarray) -> bool:
    """True when every defined entry is 0 or 1 (⊥ = NaN allowed)."""
    defined = values[~np.isnan(values)]
    return bool(
        defined.size == 0
        or np.all((defined == 0.0) | (defined == 1.0))
    )


def coerce_outcome(
    outcome: "Outcome | str | np.ndarray | tuple | list",
) -> Outcome:
    """The one front door every explorer and baseline shares.

    Normalizes the accepted outcome spellings to an :class:`Outcome`:

    * an :class:`Outcome` — returned unchanged;
    * a column name ``"income"`` — :func:`numeric_outcome` on it;
    * a ``("y_true", "y_pred")`` pair of column names —
      :func:`error_rate` (the misclassification outcome);
    * a precomputed per-row numpy array — :func:`array_outcome`, with
      ``boolean`` inferred (defined values all 0/1);
    * a ``(y_true, y_pred)`` pair of per-row arrays — the per-row
      misclassification indicator.

    Anything else, including a plain Python list of per-row values,
    raises :class:`TypeError`.
    """
    if isinstance(outcome, Outcome):
        return outcome
    if isinstance(outcome, str):
        return numeric_outcome(outcome)
    if isinstance(outcome, np.ndarray):
        values = np.asarray(outcome, dtype=np.float64)
        return array_outcome(values, boolean=_is_boolean_array(values))
    if isinstance(outcome, (tuple, list)) and len(outcome) == 2:
        first, second = outcome
        if isinstance(first, str) and isinstance(second, str):
            return error_rate(first, second)
        if isinstance(first, np.ndarray) and isinstance(second, np.ndarray):
            t = np.asarray(first, dtype=np.float64)
            p = np.asarray(second, dtype=np.float64)
            if t.shape != p.shape:
                raise ValueError(
                    f"(y_true, y_pred) arrays disagree in shape: "
                    f"{t.shape} vs {p.shape}"
                )
            return array_outcome(
                (t != p).astype(np.float64), name="error", boolean=True
            )
    raise TypeError(
        f"cannot interpret {type(outcome).__name__} as an outcome; "
        "expected an Outcome, a column name, a (y_true, y_pred) pair, "
        "or a per-row numpy array"
    )


def array_outcome(
    values: np.ndarray, name: str = "outcome", boolean: bool = False
) -> Outcome:
    """Wrap a precomputed per-row outcome array.

    Useful in tests and when the outcome comes from an external model.
    The array length must match any table the outcome is evaluated on.
    """
    values = np.asarray(values, dtype=np.float64)

    def fn(table: Table) -> np.ndarray:
        if values.shape != (table.n_rows,):
            raise ValueError(
                f"precomputed outcome has length {values.shape[0]}, "
                f"table has {table.n_rows} rows"
            )
        return values

    return Outcome(name, fn, boolean=boolean)
