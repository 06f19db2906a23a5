"""The fault plane itself: scheduling mechanics, injection sites, retry.

The acceptance bar: transient backend errors are retried to success (retry
counter > 0, zero client-visible errors), and the same seed reproduces the
identical event log.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    BackendTimeoutError, RetryExhaustedError, TransientBackendError,
)
from repro.core.engine import HyperQ
from repro.core.faults import (
    BACKEND_TIMEOUT, BACKEND_TRANSIENT, SLOW_RESULT, WIRE_DISCONNECT,
    FaultSchedule, FaultSpec, ResilienceStats, RetryPolicy, apply_fault,
    named_schedule,
)


class TestFaultSchedule:
    def test_at_trigger_fires_on_exact_call_indices(self):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "odbc", at=(2, 5))])
        fired = [sched.draw("odbc") is not None for __ in range(6)]
        assert fired == [False, True, False, False, True, False]

    def test_every_trigger_is_periodic(self):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", every=3)])
        fired = [sched.draw("odbc") is not None for __ in range(9)]
        assert fired == [False, False, True] * 3

    def test_window_trigger_spans_after_until(self):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "odbc", after=3, until=5)])
        fired = [sched.draw("odbc") is not None for __ in range(7)]
        assert fired == [False, False, True, True, True, False, False]

    def test_until_zero_means_forever(self):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", after=2)])
        assert [sched.draw("odbc") is not None for __ in range(4)] == \
            [False, True, True, True]

    def test_times_bounds_total_firings(self):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "odbc", every=1, times=2)])
        fired = [sched.draw("odbc") is not None for __ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_match_filters_on_statement_text(self):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "odbc", every=1, match="SALES")])
        assert sched.draw("odbc", op="SELECT * FROM INVENTORY") is None
        assert sched.draw("odbc", op="select * from sales") is not None

    def test_sites_count_independently(self):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", at=(2,))])
        assert sched.draw("wire") is None
        assert sched.draw("odbc") is None
        assert sched.draw("wire") is None   # wire call 2: different site
        assert sched.draw("odbc") is not None

    def test_replicas_count_independently(self):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "odbc", replica=1, at=(2,))])
        assert sched.draw("odbc", replica=0) is None
        assert sched.draw("odbc", replica=0) is None  # replica 0 never fires
        assert sched.draw("odbc", replica=1) is None
        assert sched.draw("odbc", replica=1) is not None

    def test_one_fault_per_call_first_spec_wins(self):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "odbc", at=(1,)),
            FaultSpec(BACKEND_TIMEOUT, "odbc", at=(1,)),
        ])
        fault = sched.draw("odbc")
        assert fault.kind == BACKEND_TRANSIENT
        assert sched.injected_count() == 1

    def test_probability_trigger_is_seed_deterministic(self):
        def pattern(seed):
            sched = FaultSchedule(seed, [
                FaultSpec(BACKEND_TRANSIENT, "odbc", probability=0.5)])
            return [sched.draw("odbc") is not None for __ in range(32)]

        assert pattern(11) == pattern(11)
        assert any(pattern(11))
        assert not all(pattern(11))

    def test_event_log_replays_identically_for_same_seed(self):
        def log(seed):
            sched = FaultSchedule(seed, [
                FaultSpec(BACKEND_TRANSIENT, "odbc", probability=0.3),
                FaultSpec(BACKEND_TIMEOUT, "odbc", every=4),
            ])
            for index in range(24):
                sched.draw("odbc", op=f"STMT {index}")
            sched.record("retry", attempt=1, site="odbc")
            return sched.event_log_bytes()

        assert log(5) == log(5)
        assert log(5) != log(6)

    def test_unknown_kind_and_site_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("solar-flare", "odbc")
        with pytest.raises(ValueError):
            FaultSpec(BACKEND_TRANSIENT, "warehouse-roof")
        with pytest.raises(ValueError):
            named_schedule("no-such-schedule")

    def test_apply_fault_raises_the_matching_taxonomy(self):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TIMEOUT, "odbc", at=(1,))])
        with pytest.raises(BackendTimeoutError):
            apply_fault(sched.draw("odbc"))
        # BackendTimeoutError is transient: one retry loop covers both.
        assert issubclass(BackendTimeoutError, TransientBackendError)

    def test_slow_result_stalls_in_place(self):
        sched = FaultSchedule(0, [
            FaultSpec(SLOW_RESULT, "odbc", at=(1,), delay=0.02)])
        start = time.monotonic()
        assert apply_fault(sched.draw("odbc")) is None
        assert time.monotonic() - start >= 0.02

    def test_wire_disconnect_is_returned_not_raised(self):
        sched = FaultSchedule(0, [FaultSpec(WIRE_DISCONNECT, "wire", at=(1,))])
        fault = apply_fault(sched.draw("wire"))
        assert fault is not None and fault.kind == WIRE_DISCONNECT


class TestRetryToSuccess:
    def test_transient_errors_invisible_to_the_application(self, fast_retry):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", every=2)])
        engine = HyperQ(faults=sched, retry=fast_retry)
        session = engine.create_session()
        session.execute("CREATE TABLE RZ (X INTEGER)")
        session.execute("INSERT INTO RZ VALUES (1), (2), (3)")
        for __ in range(8):
            assert session.execute("SEL COUNT(*) FROM RZ").rows == [(3,)]
        stats = engine.resilience_stats()
        assert stats["retries"] > 0
        assert stats["retry_exhausted"] == 0

    def test_injected_timeouts_are_retried_too(self, fast_retry):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TIMEOUT, "odbc", at=(1,))])
        engine = HyperQ(faults=sched, retry=fast_retry)
        assert engine.execute("SEL 1").rows == [(1,)]
        assert engine.resilience_stats()["retries"] == 1

    def test_executor_site_faults_are_retried_through_the_stack(self, fast_retry):
        sched = FaultSchedule(0, [
            FaultSpec(BACKEND_TRANSIENT, "executor", at=(2,))])
        engine = HyperQ(faults=sched, retry=fast_retry)
        session = engine.create_session()
        session.execute("CREATE TABLE EX (X INTEGER)")
        session.execute("INSERT INTO EX VALUES (42)")
        assert session.execute("SEL X FROM EX").rows == [(42,)]
        assert session.execute("SEL X FROM EX").rows == [(42,)]
        assert engine.resilience_stats()["retries"] == 1

    def test_persistent_fault_exhausts_the_budget(self, fast_retry):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", after=1)])
        engine = HyperQ(faults=sched, retry=fast_retry)
        with pytest.raises(RetryExhaustedError):
            engine.execute("SEL 1")
        stats = engine.resilience_stats()
        assert stats["retry_exhausted"] == 1
        assert stats["retries"] == fast_retry.max_attempts - 1

    def test_retries_show_up_in_the_tracker(self, fast_retry):
        from repro.core.tracker import FeatureTracker

        tracker = FeatureTracker()
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", at=(1,))])
        engine = HyperQ(faults=sched, retry=fast_retry, tracker=tracker)
        engine.execute("SEL 1")
        assert tracker.retries == 1
        assert tracker.failovers == 0

    def test_retries_land_in_the_schedule_event_log(self, fast_retry):
        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", at=(1,))])
        engine = HyperQ(faults=sched, retry=fast_retry)
        engine.execute("SEL 1")
        log = sched.event_log()
        assert any(line.startswith("inject") for line in log)
        assert any(line.startswith("retry") for line in log)

    def test_retries_appear_as_annotated_child_spans(self, fast_retry):
        """Observability clause: every try is an ``attempt`` child span of
        ``odbc_execute`` — the failed one carries the error outcome and the
        injected-fault event, the retry event lands on the parent."""
        from repro.core.trace import assert_span_tree

        sched = FaultSchedule(0, [FaultSpec(BACKEND_TRANSIENT, "odbc", at=(1,))])
        engine = HyperQ(faults=sched, retry=fast_retry)
        engine.execute("SEL 1").close()  # a rows result's trace ends at close
        trace = engine.tracing.last_trace()
        assert_span_tree(trace)
        execute = next(s for s in trace.spans if s.name == "odbc_execute")
        attempts = [s for s in trace.spans
                    if s.name == "attempt" and s.parent_id == execute.span_id]
        assert [s.attrs["number"] for s in attempts] == [1, 2]
        assert attempts[0].outcome == "error:TransientBackendError"
        assert any(name == "fault_injected" for name, __ in attempts[0].events)
        assert attempts[1].outcome == "ok"
        assert any(name == "retry" for name, __ in execute.events)
        assert execute.attrs["attempts"] == 2

    def test_no_schedule_means_no_overhead_paths(self):
        engine = HyperQ()
        assert engine.execute("SEL 1").rows == [(1,)]
        assert engine.resilience_stats() == {
            name: 0 for name in ResilienceStats.FIELDS}


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.01, multiplier=2.0,
                             max_delay=0.04, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jitter_stays_within_band_and_is_seeded(self):
        policy_a = RetryPolicy(base_delay=0.01, jitter=0.5, seed=9)
        policy_b = RetryPolicy(base_delay=0.01, jitter=0.5, seed=9)
        for attempt in (1, 2, 3):
            delay_a = policy_a.delay(attempt)
            assert delay_a == policy_b.delay(attempt)
            bare = min(policy_a.max_delay,
                       0.01 * policy_a.multiplier ** (attempt - 1))
            assert bare <= delay_a <= bare * 1.5

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
