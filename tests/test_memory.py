"""Unit tests for the memory substrate: allocator, cost model, budget."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.allocator import TrackingAllocator, jemalloc_size_class
from repro.memory.budget import MemoryBudget, PressureState
from repro.memory.cost_model import CostModel, CostWeights


class TestSizeClasses:
    def test_tiny(self):
        assert jemalloc_size_class(0) == 0
        assert jemalloc_size_class(1) == 8
        assert jemalloc_size_class(8) == 8
        assert jemalloc_size_class(9) == 16

    def test_small(self):
        assert jemalloc_size_class(100) == 112
        assert jemalloc_size_class(128) == 128

    def test_groups_of_four(self):
        # Between 128 and 256 the step is 32.
        assert jemalloc_size_class(129) == 160
        assert jemalloc_size_class(160) == 160
        assert jemalloc_size_class(161) == 192
        # Between 256 and 512 the step is 64.
        assert jemalloc_size_class(300) == 320

    def test_monotone_and_geq(self):
        prev = 0
        for n in range(1, 5000, 7):
            cls = jemalloc_size_class(n)
            assert cls >= n
            assert cls >= prev
            prev = cls


class TestTrackingAllocator:
    def test_allocate_free_balance(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(100, "a")
        alloc.allocate(50, "b")
        assert alloc.total_bytes == 150
        alloc.free(100, "a")
        assert alloc.total_bytes == 50
        alloc.free(50, "b")
        alloc.assert_balanced()

    def test_rounding_applied(self):
        alloc = TrackingAllocator(use_size_classes=True)
        alloc.allocate(100, "a")
        assert alloc.total_bytes == 112

    def test_over_free_rejected(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(10, "a")
        with pytest.raises(ValueError):
            alloc.free(20, "a")

    def test_peak_tracking(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(100)
        alloc.allocate(100)
        alloc.free(100)
        assert alloc.peak_bytes == 200

    def test_resize(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(64, "x")
        alloc.resize(64, 128, "x")
        assert alloc.bytes_in("x") == 128

    def test_breakdown_hides_empty(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(10, "a")
        alloc.free(10, "a")
        assert alloc.breakdown() == {}


class TestCostModel:
    def test_counters(self):
        cost = CostModel()
        cost.rand_lines(3)
        cost.compares(10)
        assert cost.counts == {"rand_line": 3, "compare": 10}

    def test_weighted_cost(self):
        cost = CostModel(weights=CostWeights(rand_line=2.0, compare=0.5))
        cost.rand_lines(3)
        cost.compares(4)
        assert cost.weighted_cost() == pytest.approx(8.0)

    def test_copy_bytes_rounds_to_lines(self):
        cost = CostModel()
        cost.copy_bytes(1)
        cost.copy_bytes(65)
        assert cost.counts["copy_line"] == 3

    def test_touch_bytes_seq(self):
        cost = CostModel()
        cost.touch_bytes_seq(200)  # 4 lines: 1 random + 3 sequential
        assert cost.counts["rand_line"] == 1
        assert cost.counts["seq_line"] == 3

    def test_disabled_model_charges_nothing(self):
        cost = CostModel(enabled=False)
        cost.rand_lines(5)
        assert cost.counts == {}

    def test_measure_delta(self):
        cost = CostModel()
        cost.rand_lines(1)
        with cost.measure() as delta:
            cost.rand_lines(2)
            cost.compares(3)
        assert delta.counts == {"rand_line": 2, "compare": 3}
        assert cost.counts["rand_line"] == 3

    def test_paused(self):
        cost = CostModel()
        with cost.paused():
            cost.rand_lines(5)
        cost.rand_lines(1)
        assert cost.counts == {"rand_line": 1}

    def test_fixed_ops(self):
        cost = CostModel()
        cost.fixed_ops(2.5)
        assert cost.weighted_cost() == pytest.approx(2.5)

    def test_attribution_tags_charges(self):
        cost = CostModel()
        cost.rand_lines(1)
        with cost.attributed_to("hot_path"):
            cost.rand_lines(2)
            cost.compares(5)
        cost.rand_lines(1)
        assert cost.counts["rand_line"] == 4  # global counters see all
        assert cost.tagged["hot_path"] == {"rand_line": 2, "compare": 5}
        assert cost.tagged_cost("hot_path") == pytest.approx(2 + 5 * 0.02)
        assert cost.tagged_cost("unknown") == 0.0

    def test_attribution_nesting_innermost_wins(self):
        cost = CostModel()
        with cost.attributed_to("outer"):
            cost.rand_lines(1)
            with cost.attributed_to("inner"):
                cost.rand_lines(1)
            cost.rand_lines(1)
        assert cost.tagged["outer"]["rand_line"] == 2
        assert cost.tagged["inner"]["rand_line"] == 1

    def test_attribution_restores_on_exception(self):
        cost = CostModel()
        with cost.attributed_to("outer") as bound:
            assert bound is None
            with pytest.raises(RuntimeError):
                with cost.attributed_to("inner"):
                    cost.rand_lines(1)
                    raise RuntimeError("boom")
            assert cost._attribution == "outer"
            cost.compares(1)
        assert cost._attribution == ""
        with pytest.raises(KeyError):
            with cost.attributed_to("outer"):
                with cost.mlp_batch():
                    raise KeyError("both blocks unwind")
        assert cost._attribution == "" and cost._mlp_depth == 0
        cost.rand_lines(1)  # untagged again
        assert cost.tagged == {"inner": {"rand_line": 1},
                               "outer": {"compare": 1}}
        assert cost.counts == {"rand_line": 2, "compare": 1}

    def test_attribution_blocks_interleave_with_measure(self):
        # Entering saves the tag current at entry, not at creation.
        cost = CostModel()
        block = cost.attributed_to("late")
        with cost.attributed_to("outer"):
            with block:
                cost.rand_lines(1)
            cost.rand_lines(1)
            with cost.measure() as delta:
                with cost.attributed_to("measured"):
                    cost.seq_lines(2)
        assert cost.tagged == {"late": {"rand_line": 1},
                               "outer": {"rand_line": 1},
                               "measured": {"seq_line": 2}}
        assert delta.counts == {"seq_line": 2}

    def test_reset_clears_tags(self):
        cost = CostModel()
        with cost.attributed_to("t"):
            cost.rand_lines(1)
        cost.reset()
        assert cost.tagged == {} and cost.counts == {}


class TestWhatIfRound:
    """``CostModel.what_if``: probes rebated, one fee per round."""

    @staticmethod
    def seeded():
        # Probes below charge only these categories, so the rebate's
        # zeroed counters coincide with the keys already present.
        cost = CostModel()
        cost.rand_lines(5)
        cost.compares(2)
        return cost

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_probes_leave_only_the_fee(self, k):
        cost = self.seeded()
        before = dict(cost.counts)
        with cost.what_if(0.25) as round_:
            for _ in range(k):
                with round_.probe() as delta:
                    cost.rand_lines(3)
                    cost.compares(4)
                assert delta.counts == {"rand_line": 3, "compare": 4}
        fee_milli = int(0.25 * k * 1000)
        assert cost.counts == {**before, "fixed_op_milli": fee_milli}
        assert round_.scored == k
        assert round_.billed_units == 0.25 * k

    def test_fee_is_billed_once_per_round(self):
        cost = self.seeded()
        with cost.what_if(0.0015) as round_:
            for _ in range(3):
                with round_.probe():
                    cost.rand_lines(1)
        # One charge of 0.0045 units rounds to 4 milli-units; billing
        # each probe separately would round 1.5 down three times to 3.
        assert cost.counts["fixed_op_milli"] == 4

    def test_counted_candidates_are_billed_without_a_probe(self):
        cost = self.seeded()
        before = dict(cost.counts)
        with cost.what_if(0.5) as round_:
            round_.count(3)
        assert cost.counts == {**before, "fixed_op_milli": 1500}
        assert round_.scored == 3

    def test_round_with_nothing_scored_is_byte_identical(self):
        cost = self.seeded()
        before = list(cost.counts.items())
        with cost.what_if(1.0) as round_:
            pass
        assert list(cost.counts.items()) == before
        assert "fixed_op_milli" not in cost.counts
        assert round_.scored == 0 and round_.billed_units == 0.0

    def test_attribution_keeps_the_work_performed(self):
        cost = CostModel()
        with cost.attributed_to("advisor"):
            with cost.what_if(0.5) as round_:
                with round_.probe():
                    cost.rand_lines(3)
        assert cost.counts == {"rand_line": 0, "fixed_op_milli": 500}
        assert cost.tagged["advisor"] == {
            "rand_line": 3, "fixed_op_milli": 500,
        }

    def test_nested_measure_inside_a_probe_keeps_its_delta(self):
        cost = self.seeded()
        with cost.what_if(1.0) as round_:
            with round_.probe() as outer:
                with cost.measure() as inner:
                    cost.rand_lines(2)
                cost.compares(1)
        assert inner.counts == {"rand_line": 2}
        assert outer.counts == {"rand_line": 2, "compare": 1}
        assert cost.counts == {
            "rand_line": 5, "compare": 2, "fixed_op_milli": 1000,
        }


class TestMemoryBudget:
    def test_thresholds(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        assert budget.shrink_threshold_bytes == 900
        assert budget.expand_threshold_bytes == 750

    def test_requires_hysteresis(self):
        with pytest.raises(ValueError):
            MemoryBudget(1000, 0.5, 0.9)
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_normal_to_shrinking(self):
        budget = MemoryBudget(1000)
        assert budget.observe(100) is PressureState.NORMAL
        assert budget.observe(899) is PressureState.NORMAL
        assert budget.observe(900) is PressureState.SHRINKING

    def test_shrinking_to_expanding_needs_hysteresis(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        # Dropping just below the shrink threshold is not enough.
        assert budget.observe(880) is PressureState.SHRINKING
        assert budget.observe(700) is PressureState.EXPANDING

    def test_expanding_back_to_shrinking(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        budget.observe(700)
        assert budget.observe(920) is PressureState.SHRINKING

    def test_settle(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        budget.observe(700)
        budget.settle()
        assert budget.state is PressureState.NORMAL

    def test_no_oscillation_within_band(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        transitions_before = budget.transitions
        # Bouncing within (expand, shrink) thresholds causes no flapping.
        for size in (890, 850, 880, 800, 870, 760):
            budget.observe(size)
        assert budget.transitions == transitions_before

    def test_headroom(self):
        budget = MemoryBudget(1000)
        assert budget.headroom_bytes(800) == 100


class TestSetSoftBound:
    """Runtime re-bounding (the budget arbiter's entry point) must move
    the thresholds without losing hysteresis state."""

    def test_moves_thresholds(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.set_soft_bound(2000)
        assert budget.soft_bound_bytes == 2000
        assert budget.shrink_threshold_bytes == 1800
        assert budget.expand_threshold_bytes == 1500

    def test_invalid_bound_rejected(self):
        budget = MemoryBudget(1000)
        with pytest.raises(ValueError):
            budget.set_soft_bound(0)
        with pytest.raises(ValueError):
            budget.set_soft_bound(-5)
        assert budget.soft_bound_bytes == 1000

    def test_shrinking_survives_a_raise(self):
        """Granting more budget must NOT silently flip SHRINKING back to
        NORMAL: the state machine has no such edge, and compact leaves
        may still need decompacting.  The state persists until an observe
        drives an ordinary transition under the new thresholds."""
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        assert budget.state is PressureState.SHRINKING
        assert budget.set_soft_bound(10_000) is PressureState.SHRINKING
        # Inside the new hysteresis band (expand 7500, shrink 9000) the
        # state holds: no silent SHRINKING -> NORMAL flip.
        assert budget.observe(8000) is PressureState.SHRINKING
        # Below the new expand threshold the ordinary SHRINKING ->
        # EXPANDING edge fires (decompaction, not a teleport to NORMAL),
        # exactly as if the bound had always been 10_000.
        assert budget.observe(7000) is PressureState.EXPANDING

    def test_shrinking_survives_a_drop(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        assert budget.set_soft_bound(800, current_bytes=950) is (
            PressureState.SHRINKING
        )
        assert budget.shrink_threshold_bytes == 720

    def test_transition_counter_survives_rebound(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)  # NORMAL -> SHRINKING
        assert budget.transitions == 1
        budget.set_soft_bound(500)
        # 1600 sits inside the new band (expand 1500, shrink 1800): the
        # re-bound itself must not mint a transition.
        budget.set_soft_bound(2000, current_bytes=1600)
        assert budget.transitions == 1

    def test_optional_observe_runs_against_new_thresholds(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        assert budget.state is PressureState.NORMAL
        # 500 would be comfortable under the old bound; under the new
        # bound of 520 it is past the shrink threshold (468).
        assert budget.set_soft_bound(520, current_bytes=500) is (
            PressureState.SHRINKING
        )
        # Without current_bytes no observe runs at all.
        budget2 = MemoryBudget(1000, 0.9, 0.75)
        assert budget2.set_soft_bound(520) is PressureState.NORMAL
        assert budget2.transitions == 0


class TestPrefetchWaves:
    """mlp_window / wave_loads: the prefetch-wave accounting primitive."""

    def test_wave_grouping_and_partial_flush(self):
        cost = CostModel()
        with cost.mlp_window(3) as wave:
            for _ in range(7):
                cost.wave_loads("rand_line")
        # 7 loads at W=3: two full waves + one partial flushed on close.
        assert cost.counts == {"rand_line": 3, "wave_issue": 3}
        assert wave.loads == 7 and wave.waves == 3
        assert wave.overlapped == 4
        assert wave.serial_units == pytest.approx(7.0)
        assert wave.wave_units == pytest.approx(3 * 1.1)
        assert wave.saved_units == pytest.approx(7.0 - 3.3)

    def test_no_window_is_plain_charge(self):
        cost = CostModel()
        cost.wave_loads("rand_line", 5)
        assert cost.counts == {"rand_line": 5}

    def test_width_one_is_exact_serial_passthrough(self):
        serial = CostModel()
        serial.rand_lines(5)
        serial.key_loads_batched(3)
        waved = CostModel()
        with waved.mlp_window(1) as wave:
            waved.wave_loads("rand_line", 5)
            waved.key_loads_batched(3)
        assert waved.counts == serial.counts
        assert wave.loads == 0  # inert stats: nothing wave-priced
        assert waved.mlp_totals.loads == 0

    def test_w3_key_load_wave_is_batched_rate_fixed_point(self):
        # (key_load 1.25 + wave_issue 0.10) / 3 == key_load_batched 0.45.
        flat = CostModel()
        with flat.mlp_batch():
            flat.key_loads(3)
        waved = CostModel()
        with waved.mlp_window(3):
            with waved.mlp_batch():
                waved.key_loads(3)
        assert waved.weighted_cost() == pytest.approx(flat.weighted_cost())
        assert waved.counts == {"key_load": 1, "wave_issue": 1}

    def test_key_loads_batched_joins_window_waves(self):
        cost = CostModel()
        with cost.mlp_window(4):
            cost.key_loads_batched(8)
        assert cost.counts == {"key_load": 2, "wave_issue": 2}

    def test_dependent_key_loads_stay_serial_under_window(self):
        cost = CostModel()
        with cost.mlp_window(4):
            cost.key_loads(2)  # not inside mlp_batch: dependent chase
        assert cost.counts == {"key_load": 2}

    def test_nested_windows_join_the_outermost(self):
        cost = CostModel()
        with cost.mlp_window(3) as outer:
            cost.wave_loads("rand_line", 2)
            with cost.mlp_window(8) as inner:  # width ignored: joins outer
                cost.wave_loads("rand_line", 1)
            assert inner is outer
            # 3 accumulated loads completed one wave inside the block.
            assert cost.counts == {"rand_line": 1, "wave_issue": 1}
        assert outer.waves == 1 and outer.loads == 3

    def test_window_flush_is_exception_safe(self):
        cost = CostModel()
        with pytest.raises(RuntimeError):
            with cost.mlp_window(4):
                cost.wave_loads("rand_line", 2)
                raise RuntimeError("boom")
        # Partial wave flushed, window closed, model reusable.
        assert cost.counts == {"rand_line": 1, "wave_issue": 1}
        assert cost._wave is None
        cost.wave_loads("rand_line", 1)
        assert cost.counts["rand_line"] == 2

    def test_flush_order_is_deterministic_per_category(self):
        cost = CostModel()
        with cost.mlp_window(4):
            cost.wave_loads("rand_line", 1)
            cost.wave_loads("key_load", 1)
        assert cost.counts == {"rand_line": 1, "key_load": 1,
                               "wave_issue": 2}

    def test_disabled_model_ignores_windows(self):
        cost = CostModel(enabled=False)
        with cost.mlp_window(4) as wave:
            cost.wave_loads("rand_line", 8)
        assert cost.counts == {} and wave.loads == 0

    def test_using_mlp_width_scopes_the_default(self):
        cost = CostModel()
        assert cost.mlp_width == 1
        with cost.using_mlp_width(4):
            with cost.mlp_window():  # picks up the scoped default
                cost.wave_loads("rand_line", 4)
        assert cost.mlp_width == 1
        assert cost.counts == {"rand_line": 1, "wave_issue": 1}
        with pytest.raises(ValueError):
            with cost.using_mlp_width(0):
                pass

    def test_mlp_summary_and_reset(self):
        cost = CostModel()
        with cost.mlp_window(2):
            cost.wave_loads("rand_line", 4)
        summary = cost.mlp_summary()
        assert summary["loads"] == 4 and summary["waves"] == 2
        assert summary["overlapped"] == 2
        assert summary["saved_units"] == pytest.approx(4.0 - 2 * 1.1)
        cost.reset()
        assert cost.mlp_summary()["loads"] == 0

    def test_mlp_batch_nesting_and_exception_unwind(self):
        cost = CostModel()
        with cost.mlp_batch():
            with cost.mlp_batch():
                cost.key_loads(1)
            cost.key_loads(1)  # still inside the outer block
        assert cost.counts == {"key_load_batched": 2}
        with pytest.raises(RuntimeError):
            with cost.mlp_batch():
                raise RuntimeError("boom")
        assert cost._mlp_depth == 0
        cost.key_loads(1)  # back to the dependent rate after unwind
        assert cost.counts["key_load"] == 1

    def test_mlp_batch_depth_restored_when_nested_block_raises(self):
        cost = CostModel()
        with cost.mlp_batch() as bound:
            assert bound is None
            with pytest.raises(RuntimeError):
                with cost.mlp_batch():
                    assert cost._mlp_depth == 2
                    raise RuntimeError("boom")
            assert cost._mlp_depth == 1
            cost.key_loads(1)
        assert cost._mlp_depth == 0
        assert cost.counts == {"key_load_batched": 1}

    def test_mlp_batch_underflow_is_guarded(self):
        cost = CostModel()
        cm = cost.mlp_batch()
        cm.__enter__()
        cost._mlp_depth = 0  # simulate corrupted bookkeeping
        with pytest.raises(AssertionError):
            cm.__exit__(None, None, None)


class TestRebateResidues:
    """rebate_delta / charge_parallel never leave negative residues."""

    def test_rebate_under_foreign_attribution_stays_clean(self):
        cost = CostModel()
        with cost.attributed_to("original"):
            with cost.measure() as delta:
                cost.rand_lines(3)
        with cost.attributed_to("other"):
            cost.compares(1)
            cost.rebate_delta(delta)
        # Global ledger rebated; neither tag picked up negative counts.
        assert cost.counts["rand_line"] == 0
        assert cost.tagged["original"] == {"rand_line": 3}
        assert "rand_line" not in cost.tagged.get("other", {})

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["rand_line", "key_load", "compare"]),
                st.integers(min_value=1, max_value=5),
                st.sampled_from(["", "a", "b"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_measure_rebate_interleavings(self, steps, width):
        cost = CostModel()
        deltas = []
        for category, count, tag, rebate_now in steps:
            if tag:
                with cost.attributed_to(tag):
                    with cost.measure() as delta:
                        cost.charge(category, count)
            else:
                with cost.measure() as delta:
                    cost.charge(category, count)
            if rebate_now:
                # Interleave: rebate immediately under a different tag.
                with cost.attributed_to("rebater"):
                    cost.rebate_delta(delta)
            else:
                deltas.append(delta)
        if deltas:
            cost.charge_parallel(deltas, width, coordination_units=0.5)
        for category, count in cost.counts.items():
            assert count >= 0, (category, cost.counts)
        for tag, bucket in cost.tagged.items():
            for category, count in bucket.items():
                assert count >= 0, (tag, category, cost.tagged)
        assert cost.weighted_cost() >= 0.0

    def test_charge_parallel_with_wave_priced_deltas(self):
        # Wave-priced deltas rebate exactly what they charged (fees
        # included): composition, not double discount.
        cost = CostModel()
        deltas = []
        for _ in range(4):
            with cost.measure() as delta:
                with cost.mlp_window(4):
                    cost.wave_loads("rand_line", 4)
            deltas.append(delta)
        serial_sum, critical = cost.charge_parallel(deltas, width=4)
        assert serial_sum == pytest.approx(4 * 1.1)
        assert critical == pytest.approx(1.1)
        assert cost.counts["rand_line"] == 1
        assert cost.counts["wave_issue"] == 1
        assert all(c >= 0 for c in cost.counts.values())


class TestChargeMany:
    """``charge_many`` equals sequential ``charge`` calls exactly: the
    same counts and tag buckets, in the same dict insertion order
    (``weighted_cost`` sums floats in that order)."""

    PAIRS = [
        (("rand_line", 1), ("compare", 4), ("branch", 4)),
        (("rand_line", 1), ("compare", 0), ("branch", 3), ("rand_line", 1)),
        (("compare", 0), ("seq_line", 0)),
        (("seq_line", 2), ("key_load", 3), ("seq_line", 0), ("alloc", 1)),
        (),
    ]

    @staticmethod
    def ledger(cost):
        return (
            list(cost.counts.items()),
            [(tag, list(bucket.items())) for tag, bucket in cost.tagged.items()],
        )

    def run_both(self, scenario):
        """``scenario(cost, charge)`` once with sequential charges and
        once fused; returns both ledgers and both scenario results."""
        out = []
        for fused in (False, True):
            cost = CostModel()
            cost.rand_lines(2)  # pre-existing key: order must not move

            def charge(pairs, cost=cost, fused=fused):
                if fused:
                    cost.charge_many(*pairs)
                else:
                    for category, count in pairs:
                        cost.charge(category, count)

            result = scenario(cost, charge)
            out.append((self.ledger(cost), result))
        return out

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_plain_including_zero_counts(self, pairs):
        sequential, fused = self.run_both(lambda cost, charge: charge(pairs))
        assert fused == sequential

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_disabled_model_charges_nothing(self, pairs):
        def scenario(cost, charge):
            cost.enabled = False
            with cost.attributed_to("t"):
                charge(pairs)

        sequential, fused = self.run_both(scenario)
        assert fused == sequential
        assert fused[0] == ([("rand_line", 2)], [])

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_inside_attribution(self, pairs):
        def scenario(cost, charge):
            with cost.attributed_to("outer"):
                cost.compares(1)
                with cost.attributed_to("inner"):
                    charge(pairs)
                charge(pairs)

        sequential, fused = self.run_both(scenario)
        assert fused == sequential
        tags = [tag for tag, _ in fused[0][1]]
        # A bucket only appears once a nonzero count lands in it.
        assert ("inner" in tags) == any(count for _, count in pairs)

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_under_measure(self, pairs):
        def scenario(cost, charge):
            with cost.measure() as delta:
                charge(pairs)
                charge(pairs)
            return list(delta.counts.items()), delta.weighted_cost()

        sequential, fused = self.run_both(scenario)
        assert fused == sequential

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_under_what_if_probes(self, pairs):
        def scenario(cost, charge):
            with cost.attributed_to("advisor"):
                with cost.what_if(0.25) as round_:
                    for _ in range(2):
                        with round_.probe() as delta:
                            charge(pairs)
            return list(delta.counts.items()), round_.billed_units

        sequential, fused = self.run_both(scenario)
        assert fused == sequential

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["rand_line", "seq_line", "compare",
                                 "branch", "fixed_op_milli"]),
                st.integers(min_value=-2, max_value=4),
            ),
            max_size=8,
        ),
        st.sampled_from(["", "a"]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_pairs(self, pairs, tag, enabled):
        def scenario(cost, charge):
            cost.enabled = enabled
            with cost.attributed_to(tag):
                charge(pairs)
            return cost.weighted_cost()

        sequential, fused = self.run_both(scenario)
        assert fused == sequential
