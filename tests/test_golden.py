"""Golden-value regression tests.

A reproduction repository lives or dies by determinism: a silent change to
a permutation, a key-sampling order, or an identifier combination would
shift every experimental result while all behavioural tests still pass.
These tests pin exact values for fixed seeds; if one fails after an
intentional algorithm change, re-derive the constants and say so in the
commit.
"""

from __future__ import annotations

import hashlib
import io
from functools import partial

import pytest

from repro.chord.hashing import key_id, node_id_for_address, rehash_for_placement
from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.experiments.ext_churn_recall import ChurnRecallExperiment
from repro.experiments.ext_event_latency import EventLatencyExperiment
from repro.experiments.ext_health_churn import HealthChurnExperiment
from repro.experiments.ext_overload import OverloadExperiment
from repro.lsh import (
    ApproxMinWiseFamily,
    LinearFamily,
    LSHIdentifierScheme,
    MinWiseFamily,
)
from repro.ranges.interval import IntRange
from repro.workloads.generators import UniformRangeWorkload


class TestHashingGolden:
    def test_sha1_node_ids(self):
        assert node_id_for_address("peer-0") == 4164056797
        assert node_id_for_address("10.0.0.1") == 3977668033

    def test_key_id(self):
        assert key_id("Diagnosis", "diagnosis", "Glaucoma") == 2852579342

    def test_rehash_for_placement(self):
        assert rehash_for_placement(0) == 100548695
        assert rehash_for_placement(12345) == 663133644

    def test_minwise_identifiers(self):
        scheme = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=2003)
        assert scheme.identifiers(IntRange(30, 50)) == [
            1737303586,
            623826438,
            537436744,
            33948202,
            849939387,
        ]

    def test_approx_identifiers(self):
        scheme = LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), seed=2003)
        assert scheme.identifiers(IntRange(30, 50)) == [
            917532,
            65544,
            983044,
            65557,
            393223,
        ]

    def test_linear_identifiers(self):
        scheme = LSHIdentifierScheme.from_family(LinearFamily(p=1009), seed=2003)
        assert scheme.identifiers(IntRange(30, 50)) == [153, 233, 223, 468, 4]


class TestWorkloadGolden:
    def test_uniform_prefix(self):
        workload = UniformRangeWorkload(
            SystemConfig().domain, count=5, seed=77
        )
        assert workload.ranges() == [
            IntRange(19, 385),
            IntRange(869, 992),
            IntRange(228, 691),
            IntRange(694, 706),
            IntRange(552, 685),
        ]


class TestSystemGolden:
    def test_small_system_trajectory(self):
        """End-to-end determinism: a fixed seed yields this exact outcome."""
        system = RangeSelectionSystem(SystemConfig(n_peers=25, seed=2003))
        workload = UniformRangeWorkload(system.config.domain, count=60, seed=77)
        results = [system.query(q) for q in workload]
        found = sum(1 for r in results if r.found)
        exact = sum(1 for r in results if r.exact)
        recall_sum = round(sum(r.recall for r in results), 6)
        assert (found, exact) == (16, 0)
        assert recall_sum == pytest.approx(13.764102, abs=1e-6)
        # 60 stores x 5 owners, minus placements collapsed by duplicate
        # (identifier, owner) pairs — e.g. any range containing 0 hashes to
        # identifier 0 in *every* group under bit-position permutations, so
        # its five placements collapse into one.
        assert system.total_placements() == 295



#: sha256 of the standard output of ``repro <argv> --peers 60 --seed 3``.
CLI_STDOUT_SHA256 = {
    "simulate":
        "e6b112b0865a5bef6ecaeecf294d2d193ab3ce507d19ae22a3420a80f7dfadc5",
    "simulate --drop 0.3 --fail 0.2":
        "64cc977f09cb84d8e23d4505539da1b5c7bd49e411d30529c24e3d2845d8c694",
    "simulate --queries 10 --warm-queries 20 --fail 0.2 --replicas 3 "
    "--repair-interval 2000 --sample-interval 500 --health --metrics":
        "6950442143dab17df8af1a9619497cb8228ceb9cd7eb61174510ae6f85a06278",
    "simulate --queries 8 --warm-queries 20 --replicas 3 --peer-queue 4 "
    "--service-rate 50 --hedge --quorum 3 --breaker --adaptive-timeout "
    "--slow 0.2 --slow-factor 8":
        "2ce460c1b7bc469fb489c0dcf69826ccc61da61f14e3b6091816fda108c6ba54",
    "simulate --overlay can":
        "ca316c3748252885068881db87e8543f2bf298a64164fb7ce6462e49236557a3",
    "health --crash 0.2 --replicas 3 --repair":
        "d087ae7f177b1976415b5bd7a888d01f0b114c27e2dc897ee30d2815d5ff73fe",
    "metrics":
        "ed4a5cbacf849a46caf6e84fa161103d17f052ed2d143dcced59f900d92443d7",
}


class TestCliOutputGolden:
    """Byte-for-byte pins of the scenario sub-commands' standard output:
    a change to a run's seeded build, warm-up, fault picks or report
    moves a digest."""

    @pytest.mark.parametrize("argv", list(CLI_STDOUT_SHA256))
    def test_stdout_digest(self, argv):
        out = io.StringIO()
        code = main([*argv.split(), "--peers", "60", "--seed", "3"], out=out)
        assert code == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == CLI_STDOUT_SHA256[argv]


#: sha256 of ``report()`` of each fault experiment at a small scale.
FAULT_REPORT_SHA256 = {
    "event-latency": (
        EventLatencyExperiment.quick,
        "794682a15b02cd77c3e196122298924f8328f8029dcada1db3289a0e8135407c",
    ),
    "health-churn": (
        HealthChurnExperiment.quick,
        "c1f68415c10d761bd42dc7c8417a2f9036983a783834bef1ac550c048c221cfc",
    ),
    "churn-recall": (
        ChurnRecallExperiment.quick,
        "70e01ab61a58ff0edda2140ca099297aa2c265557e47a447ebf7adc07299353d",
    ),
    "overload": (
        partial(OverloadExperiment, n_peers=60, timed_queries=60, warmup_queries=40),
        "9ceba653b892bc6e22aa440e36746712083d5cc0420687688c07776eadc6bd57",
    ),
}


class TestFaultReportGolden:
    """Byte-for-byte pins of the fault experiments' reports: a change to a
    sweep's inputs, its scenario build, a cell's tally or the table moves a
    digest."""

    @pytest.mark.parametrize("name", list(FAULT_REPORT_SHA256))
    def test_report_digest(self, name):
        make, expected = FAULT_REPORT_SHA256[name]
        digest = hashlib.sha256(make().run().report().encode()).hexdigest()
        assert digest == expected
