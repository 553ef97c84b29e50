"""ExploreSession: cache invalidation, warm/cold bit-identity, sweeps.

The session's contract has two halves, each tested here:

* *identity* — a warm ``session.explore(config)`` is bit-identical
  (same subgroups, same floats, same order) to a cold
  ``HDivExplorer(config).explore(table, outcome)``, for serial and
  parallel runs, exact-support reuse and filter-derivation alike;
* *economy* — each config knob invalidates exactly the artifacts the
  invalidation table in :mod:`repro.core.session` promises, observed
  through the ``session.*`` hit/miss counters.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.core.outcomes import (
    Outcome,
    array_outcome,
    coerce_outcome,
    error_rate,
    numeric_outcome,
)
from repro.core.session import ExploreSession
from repro.obs import ObsCollector
from repro.tabular import Table


def exact_rows(result):
    """Every subgroup as exact-repr tuples — nan-safe bit-identity probe."""
    return [
        (
            str(r.itemset),
            r.count,
            r.length,
            repr(r.support),
            repr(r.mean),
            repr(r.divergence),
            repr(r.t),
        )
        for r in result
    ]


def cold(table, outcome, **kwargs):
    return HDivExplorer(ExploreConfig(**kwargs)).explore(table, outcome)


def session_deltas(obs, before):
    """Nonzero session.* counter movements since a snapshot."""
    out = {}
    for name, value in obs.counters.items():
        if name.startswith("session.") and value != before.get(name, 0):
            out[name] = value - before.get(name, 0)
    return out


@pytest.fixture
def obs_session(pocket_data):
    table, errors = pocket_data
    obs = ObsCollector()
    with ExploreSession(table, errors, obs=obs) as session:
        yield session, obs, table, errors


class TestWarmColdIdentity:
    def test_first_explore_matches_cold(self, obs_session):
        session, _obs, table, errors = obs_session
        warm = session.explore(min_support=0.05)
        assert exact_rows(warm) == exact_rows(cold(table, errors, min_support=0.05))

    def test_repeat_explore_is_identical(self, obs_session):
        session, _obs, _table, _errors = obs_session
        first = session.explore(min_support=0.05)
        again = session.explore(min_support=0.05)
        assert exact_rows(first) == exact_rows(again)

    def test_derived_support_matches_cold(self, obs_session):
        session, _obs, table, errors = obs_session
        session.explore(min_support=0.05)
        derived = session.explore(min_support=0.12)
        assert exact_rows(derived) == exact_rows(
            cold(table, errors, min_support=0.12)
        )

    @pytest.mark.parametrize("backend", ["fpgrowth", "apriori", "eclat", "bitset"])
    def test_every_backend_matches_cold(self, pocket_data, backend):
        # Every accepted (deprecated) backend name maps to the one engine.
        table, errors = pocket_data
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with ExploreSession(table, errors) as session:
                warm = session.explore(min_support=0.1, backend=backend)
            reference = cold(table, errors, min_support=0.1, backend=backend)
        assert exact_rows(warm) == exact_rows(reference)
        assert exact_rows(warm) == exact_rows(
            cold(table, errors, min_support=0.1)
        )

    def test_parallel_matches_cold(self, pocket_data):
        table, errors = pocket_data
        with ExploreSession(table, errors) as session:
            first = session.explore(min_support=0.05, n_jobs=4)
            # The second parallel point reuses the persistent pool.
            second = session.explore(min_support=0.03, n_jobs=4)
        assert exact_rows(first) == exact_rows(
            cold(table, errors, min_support=0.05, n_jobs=4)
        )
        assert exact_rows(second) == exact_rows(
            cold(table, errors, min_support=0.03, n_jobs=4)
        )

    def test_numeric_outcome_derives_exactly(self, pocket_data, rng):
        # Statistics come from full covers, so a numeric outcome derives
        # a higher support from the cache and still matches cold
        # bit-for-bit.
        table, _errors = pocket_data
        numeric = rng.normal(size=table.n_rows)
        with ExploreSession(table, numeric) as session:
            session.explore(min_support=0.05)
            warm = session.explore(min_support=0.12)
        assert exact_rows(warm) == exact_rows(
            cold(table, numeric, min_support=0.12)
        )


class TestInvalidation:
    def explore_deltas(self, session, obs, **kwargs):
        before = dict(obs.counters)
        session.explore(**kwargs)
        return session_deltas(obs, before)

    def test_cold_session_builds_everything(self, obs_session):
        session, obs, _table, _errors = obs_session
        deltas = self.explore_deltas(session, obs, min_support=0.05)
        assert deltas == {
            "session.trees.misses": 2,       # x and y
            "session.universe.misses": 1,
            "session.engine.misses": 1,
            "session.mined.misses": 1,
        }

    def test_identical_config_hits_everything(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        deltas = self.explore_deltas(session, obs, min_support=0.05)
        assert deltas == {
            "session.universe.hits": 1,
            "session.mined.hits": 1,
        }

    def test_support_increase_derives_from_cache(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        deltas = self.explore_deltas(session, obs, min_support=0.2)
        assert deltas == {
            "session.universe.hits": 1,
            "session.mined.hits": 1,
        }

    def test_support_decrease_remines(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.1)
        deltas = self.explore_deltas(session, obs, min_support=0.05)
        assert deltas == {
            "session.universe.hits": 1,
            "session.engine.hits": 1,
            "session.mined.misses": 1,
        }
        # ... and the lower mine replaces the cached one: the original
        # support is now served by derivation.
        deltas = self.explore_deltas(session, obs, min_support=0.1)
        assert deltas == {
            "session.universe.hits": 1,
            "session.mined.hits": 1,
        }

    def test_tree_support_change_rediscretizes(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        deltas = self.explore_deltas(session, obs, min_support=0.05, tree_support=0.2)
        assert deltas == {
            "session.trees.misses": 2,
            "session.universe.misses": 1,
            "session.engine.misses": 1,
            "session.mined.misses": 1,
        }

    def test_criterion_change_rediscretizes(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        deltas = self.explore_deltas(session, obs, min_support=0.05, criterion="entropy")
        assert deltas == {
            "session.trees.misses": 2,
            "session.universe.misses": 1,
            "session.engine.misses": 1,
            "session.mined.misses": 1,
        }

    def test_backend_change_hits_everything(self, obs_session):
        # A retired backend name normalises to the one engine, so it is
        # the same config: nothing is rebuilt or re-mined.
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        with pytest.warns(DeprecationWarning):
            deltas = self.explore_deltas(
                session, obs, min_support=0.05, backend="fpgrowth"
            )
        assert deltas == {
            "session.universe.hits": 1,
            "session.mined.hits": 1,
        }

    def test_max_length_change_remines_only(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        deltas = self.explore_deltas(session, obs, min_support=0.05, max_length=2)
        assert deltas == {
            "session.universe.hits": 1,
            "session.engine.hits": 1,
            "session.mined.misses": 1,
        }

    def test_polarity_change_remines_only(self, obs_session):
        session, obs, _table, _errors = obs_session
        session.explore(min_support=0.05)
        deltas = self.explore_deltas(session, obs, min_support=0.05, polarity=True)
        assert deltas == {
            "session.universe.hits": 1,
            "session.engine.hits": 1,
            "session.mined.misses": 1,
        }

    def test_numeric_support_increase_derives_from_cache(self, pocket_data, rng):
        table, _errors = pocket_data
        numeric = rng.normal(size=table.n_rows)
        obs = ObsCollector()
        with ExploreSession(table, numeric, obs=obs) as session:
            session.explore(min_support=0.05)
            deltas = self.explore_deltas(session, obs, min_support=0.2)
        assert deltas == {
            "session.universe.hits": 1,
            "session.mined.hits": 1,
        }

    def test_changed_data_means_a_fresh_session(self, pocket_data, obs_session):
        # Sessions bind their (table, outcome) at construction: mutated
        # data gets a fresh session, which rebuilds every artifact.
        warm_session, _obs, table, errors = obs_session
        warm_session.explore(min_support=0.05)
        flipped = 1.0 - errors
        obs2 = ObsCollector()
        with ExploreSession(table, flipped, obs=obs2) as fresh:
            before = dict(obs2.counters)
            fresh.explore(min_support=0.05)
        deltas = session_deltas(obs2, before)
        assert deltas["session.mined.misses"] == 1
        assert deltas["session.universe.misses"] == 1
        assert "session.mined.hits" not in deltas


class TestSweep:
    def test_sweep_points_match_cold(self, obs_session):
        session, _obs, table, errors = obs_session
        supports = [0.05, 0.1, 0.15, 0.2]
        sweep = session.sweep("min_support", supports)
        assert len(sweep) == 4
        assert [p.value for p in sweep] == supports
        for point in sweep:
            reference = cold(table, errors, min_support=point.value)
            assert exact_rows(point.result) == exact_rows(reference), point.value

    def test_sweep_cache_traffic(self, obs_session):
        session, _obs, _table, _errors = obs_session
        sweep = session.sweep("min_support", [0.05, 0.1, 0.2])
        first, *rest = sweep.points
        assert first.cache_misses > 0
        for point in rest:
            assert point.cache_misses == 0, point.value
            assert point.cache_hits > 0, point.value

    def test_parallel_sweep_matches_cold(self, pocket_data):
        table, errors = pocket_data
        with ExploreSession(table, errors) as session:
            sweep = session.sweep("min_support", [0.05, 0.1], n_jobs=4)
            for point in sweep:
                reference = cold(
                    table, errors, min_support=point.value, n_jobs=4
                )
                assert exact_rows(point.result) == exact_rows(reference)

    def test_sweep_other_params(self, obs_session):
        session, _obs, table, errors = obs_session
        sweep = session.sweep("max_length", [1, 2], min_support=0.1)
        for point in sweep:
            reference = cold(
                table, errors, min_support=0.1, max_length=point.value
            )
            assert exact_rows(point.result) == exact_rows(reference)
        short, longer = (set(exact_rows(p.result)) for p in sweep)
        assert short < longer

    def test_sweep_emits_span_tree(self, pocket_data):
        table, errors = pocket_data
        obs = ObsCollector()
        with ExploreSession(table, errors, obs=obs) as session:
            session.sweep("min_support", [0.05, 0.1])
        roots = [s for s in obs.roots if s.name == "sweep"]
        assert len(roots) == 1
        points = [c for c in roots[0].children if c.name == "point"]
        assert len(points) == 2
        for span in points:
            assert "cache_hits" in span.attrs
            assert "cache_misses" in span.attrs

    def test_sweep_validates_param_and_values(self, obs_session):
        session, _obs, _table, _errors = obs_session
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            session.sweep("supportz", [0.1])
        with pytest.raises(ValueError, match="at least one value"):
            session.sweep("min_support", [])

    def test_results_accessor(self, obs_session):
        session, _obs, _table, _errors = obs_session
        sweep = session.sweep("min_support", [0.1, 0.2])
        assert [len(r) for r in sweep.results()] == [len(p.result) for p in sweep]


class TestSessionLifecycle:
    def test_close_is_idempotent(self, pocket_data):
        table, errors = pocket_data
        session = ExploreSession(table, errors)
        session.explore(min_support=0.1, n_jobs=2)
        session.close()
        session.close()

    def test_explore_rejects_unknown_kwargs(self, obs_session):
        session, _obs, _table, _errors = obs_session
        with pytest.raises(TypeError, match="unexpected keyword"):
            session.explore(min_support=0.1, shrubbery=3)

    def test_repr_counts_artifacts(self, obs_session):
        session, _obs, _table, _errors = obs_session
        session.explore(min_support=0.1)
        text = repr(session)
        assert "trees=2" in text and "universes=1" in text and "mined=1" in text


class TestCoerceOutcome:
    def test_outcome_passthrough(self, pocket_outcome):
        _table, outcome = pocket_outcome
        assert coerce_outcome(outcome) is outcome

    def test_column_name(self, small_table):
        outcome = coerce_outcome("age")
        assert isinstance(outcome, Outcome)
        np.testing.assert_array_equal(
            outcome.values(small_table), numeric_outcome("age").values(small_table)
        )

    def test_column_pair_is_error_rate(self):
        table = Table({"label": [0.0, 1.0, 1.0], "pred": [0.0, 0.0, 1.0]})
        outcome = coerce_outcome(("label", "pred"))
        reference = error_rate("label", "pred")
        np.testing.assert_array_equal(
            outcome.values(table), reference.values(table)
        )
        assert outcome.boolean

    def test_ndarray_infers_boolean(self):
        assert coerce_outcome(np.array([0.0, 1.0, 1.0])).boolean
        assert not coerce_outcome(np.array([0.0, 0.5, 1.0])).boolean

    def test_array_pair_is_misclassification(self):
        t = np.array([1.0, 0.0, 1.0])
        p = np.array([1.0, 1.0, 0.0])
        outcome = coerce_outcome((t, p))
        table = Table({"x": [1.0, 2.0, 3.0]})
        np.testing.assert_array_equal(outcome.values(table), [0.0, 1.0, 1.0])
        assert outcome.boolean

    def test_array_pair_shape_mismatch(self):
        with pytest.raises(ValueError, match="disagree in shape"):
            coerce_outcome((np.zeros(3), np.zeros(4)))

    def test_plain_sequence_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            coerce_outcome([0.0, 1.0, 0.0])

    def test_garbage_raises(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            coerce_outcome(object())

    def test_explorers_accept_array_pair(self, pocket_data):
        # The front door is shared: the same spelling works everywhere.
        table, errors = pocket_data
        zeros = np.zeros_like(errors)
        via_pair = cold(table, (errors, zeros), min_support=0.1)
        via_array = cold(table, errors, min_support=0.1)
        assert exact_rows(via_pair) == exact_rows(via_array)
