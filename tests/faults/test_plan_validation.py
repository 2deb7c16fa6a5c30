"""Construction-time fault-plan validation and the legible repr timeline."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnsupportedFaultError
from repro.faults import FaultAction, FaultEvent, FaultPlan


class TestTargetGrammar:
    @pytest.mark.parametrize("target", ("shard:0", "shard:12", "s0:n0", "s3:n11"))
    def test_valid_targets(self, target):
        FaultEvent(1.0, FaultAction.CRASH, target)  # does not raise

    @pytest.mark.parametrize(
        "target",
        ("", "shard", "shard:", "shard:x", "shard:-1", "s0", "s0:n", "n0:s0",
         "s0:n0:x", "node-3", "Shard:0", " shard:0"),
    )
    def test_malformed_targets_fail_at_construction(self, target):
        with pytest.raises(UnsupportedFaultError):
            FaultEvent(1.0, FaultAction.CRASH, target)

    def test_malformed_peer_fails_at_construction(self):
        with pytest.raises(UnsupportedFaultError):
            FaultEvent(1.0, FaultAction.PARTITION, "s0:n0", peer="bogus")

    def test_unsupported_fault_error_is_a_configuration_error(self):
        # Existing except ConfigurationError sites keep catching it.
        assert issubclass(UnsupportedFaultError, ConfigurationError)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(-0.1, FaultAction.CRASH, "shard:0")

    def test_partition_requires_a_peer(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.PARTITION, "s0:n0")

    def test_gray_actions_require_a_magnitude(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0")
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0")

    def test_gray_magnitude_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0", magnitude=0.9)
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0", magnitude=0.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0", magnitude=1.5)
        FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0", magnitude=1.0)
        FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0", magnitude=1.0)

    def test_non_gray_actions_must_not_carry_a_magnitude(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.CRASH, "shard:0", magnitude=2.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.RESTORE, "shard:0", magnitude=2.0)


class TestReprTimeline:
    def test_repr_prints_one_legible_line_per_event(self):
        plan = FaultPlan(
            events=[
                FaultEvent(5.0, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
                FaultEvent(7.5, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.25),
                FaultEvent(10.0, FaultAction.PARTITION, "s0:n0", peer="s0:n1"),
                FaultEvent(25.0, FaultAction.RESTORE, "shard:0"),
            ],
            name="demo",
        )
        text = repr(plan)
        assert "FaultPlan(name='demo', events=4)" in text
        assert "t=5.00s slow_shard shard:0 x4" in text
        assert "t=7.50s flaky_shard shard:1 p=0.25" in text
        assert "t=10.00s partition s0:n0 peer=s0:n1" in text
        assert "t=25.00s restore shard:0" in text
        # One line per event, in time order.
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[1].strip().startswith("t=5.00s")

    def test_empty_plan_repr(self):
        assert repr(FaultPlan(name="empty")) == "FaultPlan(name='empty', events=0)"

    def test_events_sort_by_time_at_construction(self):
        plan = FaultPlan(
            events=[
                FaultEvent(9.0, FaultAction.RECOVER, "shard:0"),
                FaultEvent(1.0, FaultAction.CRASH, "shard:0"),
            ]
        )
        assert [event.time for event in plan.events] == [1.0, 9.0]

    def test_same_time_events_sort_stably_by_target_then_action(self):
        # Construction order must not leak into the canonical timeline:
        # same-instant events order by (time, target, action) so two seeded
        # plans with identical events always repr identically.
        events = [
            FaultEvent(5.0, FaultAction.SLOW_SHARD, "shard:1", magnitude=4.0),
            FaultEvent(5.0, FaultAction.CRASH, "shard:0"),
            FaultEvent(5.0, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.2),
        ]
        forward = FaultPlan(events=events)
        backward = FaultPlan(events=list(reversed(events)))
        expected = [
            ("shard:0", FaultAction.CRASH),
            ("shard:1", FaultAction.FLAKY_SHARD),
            ("shard:1", FaultAction.SLOW_SHARD),
        ]
        assert [(e.target, e.action) for e in forward.events] == expected
        assert forward.events == backward.events
        assert repr(forward) == repr(backward)


class TestBuilders:
    def test_brownout_builder_timeline(self):
        plan = FaultPlan.brownout(shard=1, at=2.0, recover_at=8.0, slow_factor=3.0, drop_rate=0.2)
        assert plan.name == "brownout/shard=1"
        actions = [event.action for event in plan.events]
        # Canonical tie order at the onset instant: flaky_shard < slow_shard
        # (sorted by action name; the gray toggles commute).
        assert actions == [FaultAction.FLAKY_SHARD, FaultAction.SLOW_SHARD, FaultAction.RESTORE]
        assert all(event.target == "shard:1" for event in plan.events)
        assert plan.events[0].magnitude == pytest.approx(0.2)
        assert plan.events[1].magnitude == pytest.approx(3.0)
        assert plan.events[-1].time == pytest.approx(8.0)

    def test_brownout_without_drops_skips_the_flaky_event(self):
        plan = FaultPlan.brownout(drop_rate=0.0)
        assert [event.action for event in plan.events] == [
            FaultAction.SLOW_SHARD,
            FaultAction.RESTORE,
        ]

    def test_flaky_builder(self):
        plan = FaultPlan.flaky(shard=0, at=1.0, recover_at=4.0, drop_rate=0.5)
        assert plan.name == "flaky/shard=0"
        assert [event.action for event in plan.events] == [
            FaultAction.FLAKY_SHARD,
            FaultAction.RESTORE,
        ]

    def test_builders_validate_the_window(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.brownout(at=5.0, recover_at=5.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.flaky(at=5.0, recover_at=2.0)

    def test_primary_crash_without_recovery(self):
        plan = FaultPlan.primary_crash(shard=2, at=7.0)
        assert plan.name == "primary-crash/shard=2"
        assert [(e.time, e.action, e.target) for e in plan.events] == [
            (7.0, FaultAction.CRASH, "shard:2"),
        ]

    def test_primary_crash_with_recovery_targets_the_same_shard(self):
        plan = FaultPlan.primary_crash(shard=1, at=3.0, recover_at=9.0)
        assert [(e.time, e.action, e.target) for e in plan.events] == [
            (3.0, FaultAction.CRASH, "shard:1"),
            (9.0, FaultAction.RECOVER, "shard:1"),
        ]
        with pytest.raises(ConfigurationError):
            FaultPlan.primary_crash(at=3.0, recover_at=3.0)

    def test_rolling_crashes_are_spaced_per_shard(self):
        plan = FaultPlan.rolling_primary_crashes([0, 1, 2], start=10.0, spacing=5.0)
        assert plan.name == "rolling-crashes/3-shards"
        assert [(e.time, e.target) for e in plan.events] == [
            (10.0, "shard:0"),
            (15.0, "shard:1"),
            (20.0, "shard:2"),
        ]
        assert all(e.action is FaultAction.CRASH for e in plan.events)

    def test_rolling_crashes_with_downtime_interleave_recoveries(self):
        plan = FaultPlan.rolling_primary_crashes([0, 1], start=10.0, spacing=5.0, downtime=8.0)
        assert [(e.time, e.action, e.target) for e in plan.events] == [
            (10.0, FaultAction.CRASH, "shard:0"),
            (15.0, FaultAction.CRASH, "shard:1"),
            (18.0, FaultAction.RECOVER, "shard:0"),
            (23.0, FaultAction.RECOVER, "shard:1"),
        ]

    def test_replica_partition_cuts_and_heals_one_link(self):
        plan = FaultPlan.replica_partition(shard=1, replica_index=2, at=4.0, heal_at=6.0)
        assert plan.name == "replica-partition/shard=1"
        assert [(e.action, e.target, e.peer) for e in plan.events] == [
            (FaultAction.PARTITION, "shard:1", "s1:n2"),
            (FaultAction.HEAL, "shard:1", "s1:n2"),
        ]
        with pytest.raises(ConfigurationError):
            FaultPlan.replica_partition(at=6.0, heal_at=4.0)

    def test_chaos_is_seeded_and_stays_inside_the_run(self):
        plan = FaultPlan.chaos(duration=200.0, seed=3, mean_interval=10.0, downtime=4.0)
        assert plan.name == "chaos/seed=3"
        assert repr(plan) == repr(
            FaultPlan.chaos(duration=200.0, seed=3, mean_interval=10.0, downtime=4.0)
        )
        assert repr(plan) != repr(
            FaultPlan.chaos(duration=200.0, seed=4, mean_interval=10.0, downtime=4.0)
        )
        assert plan.events and all(0.0 < e.time < 200.0 for e in plan.events)

    def test_chaos_recovers_each_crash_after_the_downtime(self):
        plan = FaultPlan.chaos(
            duration=500.0, seed=11, mean_interval=20.0, downtime=5.0,
            num_shards=2, replication_factor=3,
        )
        crashes = [e for e in plan.events if e.action is FaultAction.CRASH]
        recoveries = {
            (e.time, e.target) for e in plan.events if e.action is FaultAction.RECOVER
        }
        assert crashes
        for crash in crashes:
            if crash.time + 5.0 < 500.0:
                assert (crash.time + 5.0, crash.target) in recoveries
        # Victims rotate over shards first, then node indexes.
        targets = [crash.target for crash in crashes[:4]]
        assert targets == ["s0:n0", "s1:n0", "s0:n1", "s1:n1"][: len(targets)]

    def test_chaos_validates_its_rates(self):
        for kwargs in ({"duration": 0.0}, {"duration": 10.0, "mean_interval": 0.0},
                       {"duration": 10.0, "downtime": -1.0}):
            with pytest.raises(ConfigurationError):
                FaultPlan.chaos(**kwargs)
