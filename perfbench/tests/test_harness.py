"""Tests of the benchmark's own helpers: the tail-percentile rule, span self
time, ratios with a zero base, output digests, the tracer's patching and the
timed loop's whole passes."""

import math
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from harness import Digest, combine_digests, nearest_rank, ratio, self_times, tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90, 10)
    # 99 values leave only 9 beyond p90, so p75 is reported
    value, q, beyond = tail(list(range(1, 100)))
    assert (q, beyond) == (75, 24) and value == 75
    assert tail(list(range(1, 41)))[1:] == (75, 10)
    # 39 values: p75 has 9 beyond, so the median is reported
    assert tail(list(range(1, 40))) == (20, 50, 19)


def test_tail_falls_back_to_median_with_true_count():
    assert tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 50, 2)
    assert tail([4.0, 1.0, 3.0, 2.0]) == (2.5, 50, 2)
    assert nearest_rank([7.0], 90) == (7.0, 0)


def test_self_time_subtracts_nested_children():
    # root [0,10] has child [1,6], which has child [2,3]; second child [7,9]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 4.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    # children [1,4] and [3,6] overlap on [3,4]; [8,12] sticks out past the end
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 10.0 - 5.0 - 2.0


def test_ratio_with_zero_base_is_zero():
    assert ratio(3, 0) == 0.0
    assert ratio(0, 0) == 0.0
    assert ratio(3, 4) == 0.75


def _digest(*values):
    d = Digest()
    d.add("op", *values)
    return d.hexdigest()


def test_digest_is_stable_and_sensitive():
    vec = np.array([1.0 + 2.0j, -0.5j])
    assert _digest(1.25, vec, "refuted", True) == _digest(1.25, vec.copy(), "refuted", True)
    assert _digest([1.0, 2.0]) == _digest(np.array([1.0, 2.0]))
    assert _digest(1.25) != _digest(np.nextafter(1.25, 2.0))
    assert _digest(vec) != _digest(vec.reshape(2, 1))
    assert _digest("refuted") != _digest("heuristically-positive")
    assert combine_digests({"0": "a", "1": "b"}) == combine_digests({"1": "b", "0": "a"})
    assert combine_digests({"0": "a"}) != combine_digests({"0": "b"})


def test_tracer_patches_every_namespace_and_restores():
    from schmidt_norms import cones, fixtures, norms, optim
    from schmidt_norms.optim import SeeSawConfig
    from schmidt_norms.rand import RandomConfig

    original = optim.compress_tensor
    cfg = SeeSawConfig(restarts=2, max_iters=20, rng=RandomConfig(seed=3))
    swap = fixtures.swap_operator(3)
    plain = cones.k_block_positivity(swap, 2, cfg)
    tracer = Tracer()
    tracer.install()
    try:
        assert optim.compress_tensor is not original
        assert norms.compress_tensor is optim.compress_tensor
        assert cones.compress_tensor is optim.compress_tensor
        traced = cones.k_block_positivity(swap, 2, cfg)
    finally:
        tracer.uninstall()
    assert optim.compress_tensor is original
    assert cones.compress_tensor is original
    assert traced.min_value == plain.min_value
    assert np.array_equal(traced.witness_vector.amplitudes, plain.witness_vector.amplitudes)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "cones.k_block_positivity"
    assert "optim.frame_ascent" in names and "lapack.eigh" in names
    assert all(tracer.parent[i] >= 0 for i in range(1, len(names)))
    metrics = tracer.layer_metrics(instances=1)
    assert metrics["cones.k_block_positivity.calls_per_instance"] == (1.0, "count/instance")
    assert metrics["optim.frame_ascent.calls"] == (2, "count")
    assert metrics["lapack.eigh_per_eval"][0] == 1.0
    assert metrics["maps.idk_apply.calls"] == (0, "count")


class _SleepWorkload:
    """Pool items are sleep times; ``run`` sleeps that long."""

    def __init__(self, pool):
        self.pool = pool

    def run(self, inst, _ledger):
        time.sleep(inst)


def test_measure_times_whole_passes_after_a_warm_up():
    import run

    records, timed, kernel = run.measure(_SleepWorkload([0.002, 0.001, 0.003]), 0.02)
    slots = [r.slot for r in timed]
    assert records[0].slot == 0 and len(records) > len(timed)
    assert slots and slots == [0, 1, 2] * (len(slots) // 3)
    assert all(r.seconds >= 0.001 and r.scaled > 0 for r in records)
    assert len(kernel) == len(records) + 1


def test_measure_completes_one_pass_longer_than_the_window():
    import run

    records, timed, _kernel = run.measure(_SleepWorkload([0.004, 0.004]), 0.001)
    assert [r.slot for r in timed] == [0, 1]
    assert len(records) == 3


def test_scaling_reads_nominal_speed():
    from harness import NOMINAL_REF_S, scaled

    assert scaled(2.0, NOMINAL_REF_S) == 2.0
    assert math.isclose(scaled(3.0, 2 * NOMINAL_REF_S), 1.5)


def test_host_clock_splits_only_long_stretches():
    from harness import HostClock

    clock = HostClock(segment_s=0.05)
    clock.mark()  # too soon: no kernel run
    assert len(clock.kernel) == 1 and clock.seconds == 0.0
    time.sleep(0.06)
    clock.mark()
    time.sleep(0.01)
    clock.mark(force=True)
    assert len(clock.kernel) == 3
    assert 0.07 <= clock.seconds < 0.2 and clock.scaled > 0
