"""Tests for matchers, the adaptive padding controller, and multi-attribute
queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.adaptive import AdaptivePaddingController
from repro.core.config import SystemConfig
from repro.core.matcher import (
    ContainmentMatcher,
    JaccardMatcher,
    matcher_by_name,
)
from repro.core.multiattr import (
    MultiAttributeQuery,
    query_multi_attribute,
)
from repro.core.system import RangeSelectionSystem
from repro.db.partition import PartitionDescriptor
from repro.errors import ConfigError
from repro.ranges.interval import IntRange


def desc(start: int, end: int) -> PartitionDescriptor:
    return PartitionDescriptor("R", "value", IntRange(start, end))


class TestMatchers:
    def test_jaccard_matcher_scores(self):
        matcher = JaccardMatcher()
        assert matcher.score(IntRange(0, 9), desc(0, 9)) == 1.0
        assert matcher.score(IntRange(0, 9), desc(100, 110)) == 0.0

    def test_containment_matcher_prefers_full_coverage(self):
        matcher = ContainmentMatcher()
        query = IntRange(40, 60)
        # A huge containing partition beats a tight partial one under
        # containment; under Jaccard the preference flips.
        huge = desc(0, 1000)
        tight = desc(41, 60)
        assert matcher.score(query, huge) > matcher.score(query, tight)
        jac = JaccardMatcher()
        assert jac.score(query, huge) < jac.score(query, tight)

    def test_containment_tie_broken_by_jaccard(self):
        matcher = ContainmentMatcher()
        query = IntRange(40, 60)
        loose = desc(0, 1000)
        snug = desc(35, 65)
        assert matcher.score(query, snug) > matcher.score(query, loose)

    @pytest.mark.parametrize("matcher", [JaccardMatcher(), ContainmentMatcher()])
    @given(
        query=st.tuples(st.integers(-50, 50), st.integers(0, 60)),
        stored=st.lists(
            st.tuples(st.integers(-(2**50), 2**50 - 2**20), st.integers(0, 2**20))
            | st.tuples(st.integers(-60, 60), st.integers(0, 70)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_column_form_is_bit_identical_to_score(self, matcher, query, stored):
        query = IntRange(query[0], query[0] + query[1])
        ranges = [IntRange(start, start + length) for start, length in stored]
        scores = matcher.score.columns(
            query,
            np.array([r.start for r in ranges], dtype=np.int64),
            np.array([r.end for r in ranges], dtype=np.int64),
        )
        assert scores.dtype == np.float64
        assert scores.tolist() == [
            matcher.score(query, PartitionDescriptor("R", "value", r)) for r in ranges
        ]

    def test_registry(self):
        assert matcher_by_name("jaccard").name == "jaccard"
        assert matcher_by_name("containment").name == "containment"
        with pytest.raises(KeyError):
            matcher_by_name("cosine")


class TestAdaptivePadding:
    def test_widens_under_low_recall(self):
        controller = AdaptivePaddingController(target_recall=0.9, step=0.05)
        for _ in range(5):
            controller.observe(0.0)
        assert controller.padding == pytest.approx(0.25)

    def test_narrows_once_target_met(self):
        controller = AdaptivePaddingController(
            target_recall=0.5, initial_padding=0.3, step=0.1, ewma_alpha=1.0
        )
        controller.observe(1.0)
        assert controller.padding == pytest.approx(0.25)

    def test_padding_bounded(self):
        controller = AdaptivePaddingController(step=0.2, max_padding=0.3)
        for _ in range(10):
            controller.observe(0.0)
        assert controller.padding == pytest.approx(0.3)
        good = AdaptivePaddingController(initial_padding=0.0)
        good.observe(1.0)
        assert good.padding == 0.0  # never negative

    def test_ewma_tracks_recall(self):
        controller = AdaptivePaddingController(ewma_alpha=0.5)
        controller.observe(1.0)
        controller.observe(0.0)
        assert controller.recall_estimate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptivePaddingController(target_recall=0.0)
        with pytest.raises(ConfigError):
            AdaptivePaddingController(step=-1)
        with pytest.raises(ConfigError):
            AdaptivePaddingController(initial_padding=0.9, max_padding=0.5)
        controller = AdaptivePaddingController()
        with pytest.raises(ConfigError):
            controller.observe(1.5)


class TestMultiAttribute:
    def test_query_construction(self):
        q = MultiAttributeQuery.of("Patient", age=IntRange(30, 50),
                                   patient_id=IntRange(0, 100))
        assert len(q.ranges) == 2

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ConfigError):
            MultiAttributeQuery("R", (("a", IntRange(0, 1)), ("a", IntRange(2, 3))))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            MultiAttributeQuery("R", ())

    def test_joint_recall_is_product(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=20, seed=50))
        q = MultiAttributeQuery.of(
            "Patient", age=IntRange(30, 50), height=IntRange(150, 180)
        )
        # Warm both attributes with the exact ranges.
        query_multi_attribute(system, q)
        warm = query_multi_attribute(system, q)
        assert warm.all_matched
        assert warm.joint_recall == pytest.approx(1.0)
        per_attr = dict(warm.per_attribute)
        assert per_attr["age"].exact and per_attr["height"].exact

    def test_partial_joint_recall(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=20, seed=51))
        query_multi_attribute(
            system,
            MultiAttributeQuery.of("R", a=IntRange(0, 99), b=IntRange(0, 99)),
        )
        result = query_multi_attribute(
            system,
            MultiAttributeQuery.of("R", a=IntRange(0, 199), b=IntRange(0, 99)),
        )
        # Attribute b repeats exactly (recall 1); attribute a is broader, so
        # joint recall equals a's recall.
        per_attr = dict(result.per_attribute)
        assert result.joint_recall == pytest.approx(per_attr["a"].recall)

    def test_attributes_are_namespaced(self):
        """The same range on different attributes must not cross-match."""
        system = RangeSelectionSystem(SystemConfig(n_peers=20, seed=52))
        system.query(IntRange(10, 20), relation="R", attribute="a")
        miss = system.query(IntRange(10, 20), relation="R", attribute="b")
        assert not miss.exact
