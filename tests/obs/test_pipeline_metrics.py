"""End-to-end observability: determinism, honesty, serial==parallel merge."""

import pytest

from repro.harness import explore_program, run_program
from repro.obs import MetricsRecorder


def _profiled_run(seed=3, **kwargs):
    recorder = MetricsRecorder()
    result = run_program(
        "multiset-vector", num_threads=2, calls_per_thread=4, seed=seed,
        obs=recorder, **kwargs,
    )
    result.vyrd.check_offline()
    return result, recorder


def test_metrics_are_deterministic_for_a_seed():
    _, first = _profiled_run()
    _, second = _profiled_run()
    assert first.counters_snapshot() == second.counters_snapshot()


def test_log_action_counters_match_the_log():
    result, recorder = _profiled_run()
    assert recorder.counters["log.actions"] == len(result.log)
    by_type = {
        name.split(".", 2)[2]: value
        for name, value in recorder.counters.items()
        if name.startswith("log.actions.")
    }
    assert sum(by_type.values()) == len(result.log)
    observed = {type(action).__name__ for action in result.log}
    assert set(by_type) == observed


def test_kernel_step_counters_sum_over_threads():
    _, recorder = _profiled_run()
    per_thread = sum(
        value for name, value in recorder.counters.items()
        if name.startswith("kernel.steps.t")
    )
    assert per_thread == recorder.counters["kernel.steps"] > 0


def test_checker_phases_are_attributed():
    _, recorder = _profiled_run()
    assert recorder.counters["checker.commits_checked"] > 0
    for phase in ("checker.feed", "checker.witness_commit",
                  "checker.observer_reeval", "checker.view_refresh",
                  "kernel.run", "kernel.step"):
        assert recorder.phase_wall[phase] >= 0.0
    assert recorder.histograms["view.units_recomputed"].count > 0
    assert recorder.histograms["replay.overlay_locs"].count > 0


def test_online_run_records_verifier_spans():
    recorder = MetricsRecorder()
    result = run_program(
        "multiset-vector", num_threads=2, calls_per_thread=4, seed=3,
        online=True, obs=recorder,
    )
    assert result.online_outcome.ok
    assert recorder.counters["verifier.polls"] > 0
    assert recorder.counters["span.verifier.consume"] > 0


def test_run_result_carries_the_recorder():
    result, recorder = _profiled_run()
    assert result.obs is recorder
    # and a plain run carries none
    plain = run_program("multiset-vector", num_threads=2, calls_per_thread=2)
    assert plain.obs is None


def test_explore_metrics_default_off():
    result = explore_program(
        "multiset-vector", num_runs=2, num_threads=2, calls_per_thread=2,
    )
    assert result.metrics is None
    assert result.to_dict()["metrics"] is None


def test_explore_metrics_identical_serial_vs_parallel():
    kwargs = dict(num_runs=6, num_threads=2, calls_per_thread=3, metrics=True)
    serial = explore_program("multiset-vector", jobs=1, **kwargs)
    parallel = explore_program("multiset-vector", jobs=2, **kwargs)
    assert serial.metrics is not None
    assert serial.metrics == parallel.metrics
    # metrics never perturb the campaign itself
    assert serial.signature() == parallel.signature()
    assert serial.metrics["counters"]["kernel.steps"] > 0


def test_exhaustive_explore_merges_metrics_too():
    # Serial==parallel equality only holds for campaigns that cover the same
    # schedules; a budget-cut exhaustive DFS shards the frontier differently
    # per engine, so here we pin determinism per engine and presence on both.
    kwargs = dict(mode="exhaustive", max_runs=4, num_threads=2,
                  calls_per_thread=1, metrics=True)
    serial = explore_program("multiset-vector", jobs=1, **kwargs)
    again = explore_program("multiset-vector", jobs=1, **kwargs)
    assert serial.metrics is not None
    assert serial.metrics == again.metrics
    assert serial.metrics["counters"]["kernel.steps"] > 0
    parallel = explore_program("multiset-vector", jobs=2, **kwargs)
    assert parallel.metrics is not None
    assert parallel.metrics["counters"]["kernel.steps"] > 0


@pytest.mark.parametrize("reduce", [None, "static"])
def test_exhausted_exhaustive_metrics_identical_serial_vs_parallel(reduce):
    # A campaign that covers its whole schedule tree runs the same schedules
    # at every job count, so its merged metrics must match exactly.
    kwargs = dict(mode="exhaustive", num_threads=2, calls_per_thread=1,
                  workload_seed=7, daemons=False, fingerprint=True,
                  metrics=True, reduce=reduce)
    serial = explore_program("blinktree", jobs=1, **kwargs)
    parallel = explore_program("blinktree", jobs=2, **kwargs)
    assert serial.exhausted and parallel.exhausted
    assert serial.signature() == parallel.signature()
    assert serial.metrics is not None
    assert serial.metrics == parallel.metrics
    assert serial.metrics["counters"]["kernel.steps"] > 0


def test_metrics_do_not_change_the_explored_outcomes():
    kwargs = dict(num_runs=4, num_threads=2, calls_per_thread=3, jobs=1)
    bare = explore_program("multiset-vector", **kwargs)
    measured = explore_program("multiset-vector", metrics=True, **kwargs)
    assert bare.signature() == measured.signature()


def test_fault_campaign_records_phase_spans():
    from repro.faults import run_fault_campaign

    recorder = MetricsRecorder()
    report = run_fault_campaign(
        program="multiset-vector", seed=0, jobs=2, num_runs=4,
        num_threads=2, calls_per_thread=2, obs=recorder,
    )
    assert report.ok
    for phase in ("campaign.baseline", "campaign.faulted",
                  "campaign.corruption", "campaign.latency"):
        assert recorder.phase_wall[phase] >= 0.0
    assert recorder.counters["recovery.salvaged_records"] >= 0
