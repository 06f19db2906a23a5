"""Multi-tenant control plane: identity, quotas, fair shares, accounting.

The paper sells Hyper-Q as shared middleware: many customers' unchanged BI
fleets funnel through one proxy tier onto one cloud warehouse. Shared
infrastructure without tenancy is a noisy-neighbor machine — one tenant's
ETL storm starves every other tenant's dashboards — so this module makes
the tenant a first-class scheduling and accounting dimension:

* **Identity** is established at connect time. The LOGON payload carries an
  optional tenant id after the credentials (``user\\0password\\0tenant``);
  :meth:`TenantRegistry.resolve` maps it to a configured tenant (unknown
  ids fail the logon with a clean :class:`~repro.errors.UnknownTenantError`
  instead of a stack trace) and the resolved name rides the session's
  ``session_params["TENANT"]`` through the engine, the workload manager,
  the caches, and the trace/metrics plane.
* **Quotas** (:class:`TenantQuota`): per-tenant concurrency slots, queue
  depth, and a token-bucket QPS limit, enforced at admission *before* any
  per-class policy. A tripped quota sheds with
  :class:`~repro.errors.TenantQuotaError` — ``QUOTA_EXCEEDED`` plus a
  ``retry after`` hint — and the ``tenancy`` fault site can script the
  same shed deterministically for the resilience battery.
* **Fair shares**: the workload manager's deficit-round-robin scheduler
  runs over (tenant, class) queues with weight ``tenant.weight ×
  class.weight``, so tenants divide the worker pool by their shares and
  classes divide each tenant's share exactly as before.
* **Cache shares**: ``result_cache_share`` / ``translation_cache_share``
  reserve a fraction of each cache's byte budget. The caches account bytes
  per inserting tenant and never evict a tenant below its reservation on
  another tenant's behalf (:mod:`repro.core.result_cache`,
  :mod:`repro.core.cache`).
* **Observability**: :func:`tenant_report` assembles per-tenant QPS, shed
  counts, queue-wait histograms, and cache bytes from one engine;
  :func:`merge_reports` sums them across gateway workers so ``SHOW HYPERQ
  TENANTS`` on any session reports fleet-wide numbers.

Everything is clock-injectable and lock-protected; the registry is shared
by the wire server, the workload manager, and the admin command path.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from repro.errors import (
    TenancyConfigError,
    TenantQuotaError,
    UnknownTenantError,
)
from repro.core import faults as flt
from repro.core import trace as trace_mod
from repro.core.trace import Histogram
from repro.core.workload import ADMIN, TokenBucket

#: The tenant a connection lands on when it presents no tenant id.
DEFAULT_TENANT = "default"

#: Sliding window, in seconds, over which per-tenant QPS is measured.
QPS_WINDOW = 10.0


# -- configuration -------------------------------------------------------------------


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's control-plane budget.

    ``weight`` is the tenant's deficit-round-robin share of the worker
    pool; ``max_concurrency`` bounds the tenant's simultaneously *running*
    requests across all classes (0 = only class/pool limits apply);
    ``queue_depth`` bounds its *waiting* requests (0 = unbounded);
    ``rate`` / ``burst`` form a QPS token bucket consumed at admission
    (``rate`` = 0 disables it); ``result_cache_share`` /
    ``translation_cache_share`` reserve fractions of the cache byte
    budgets that other tenants' insertions may never evict below.
    """

    name: str
    weight: float = 1.0
    max_concurrency: int = 0
    queue_depth: int = 0
    rate: float = 0.0
    burst: int = 8
    result_cache_share: float = 0.0
    translation_cache_share: float = 0.0

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise TenancyConfigError("tenant name must be a non-empty string")
        if self.weight <= 0:
            raise TenancyConfigError(
                f"tenant {self.name!r}: weight must be positive, "
                f"got {self.weight!r}")
        for attr in ("max_concurrency", "queue_depth", "burst"):
            value = getattr(self, attr)
            if not isinstance(value, int) or value < 0:
                raise TenancyConfigError(
                    f"tenant {self.name!r}: {attr} must be a non-negative "
                    f"integer, got {value!r}")
        if self.rate < 0:
            raise TenancyConfigError(
                f"tenant {self.name!r}: rate must be >= 0, got {self.rate!r}")
        for attr in ("result_cache_share", "translation_cache_share"):
            share = getattr(self, attr)
            if not 0.0 <= share <= 1.0:
                raise TenancyConfigError(
                    f"tenant {self.name!r}: {attr} must be a fraction in "
                    f"[0, 1], got {share!r}")

    @property
    def retry_after(self) -> float:
        """Client back-off hint attached to QUOTA_EXCEEDED sheds."""
        if self.rate > 0:
            return max(0.1, 1.0 / self.rate)
        return 0.5


@dataclass(frozen=True)
class TenancyConfig:
    """The whole control plane: tenant table plus the default mapping.

    ``default`` names the tenant that connections without a tenant id land
    on; a tenant of that name is created implicitly (with an unbounded
    quota) when the table does not define one.
    """

    tenants: tuple[TenantQuota, ...] = ()
    default: str = DEFAULT_TENANT

    def __post_init__(self):
        seen: dict[str, TenantQuota] = {}
        for quota in self.tenants:
            if quota.name in seen:
                raise TenancyConfigError(
                    f"tenant {quota.name!r} is configured twice")
            seen[quota.name] = quota
        if self.default not in seen:
            if self.tenants and self.default != DEFAULT_TENANT:
                raise TenancyConfigError(
                    f"default tenant {self.default!r} is not in the tenant "
                    f"table {sorted(seen)}")
            object.__setattr__(self, "tenants",
                               self.tenants + (TenantQuota(self.default),))
            seen[self.default] = self.quotas()[self.default]
        for attr in ("result_cache_share", "translation_cache_share"):
            total = sum(getattr(q, attr) for q in self.tenants)
            if total > 1.0 + 1e-9:
                raise TenancyConfigError(
                    f"{attr} reservations sum to {total:.3f} > 1.0; "
                    f"shares must leave the cache partitionable")

    def quotas(self) -> dict[str, TenantQuota]:
        return {quota.name: quota for quota in self.tenants}

    @classmethod
    def from_dict(cls, data: dict) -> "TenancyConfig":
        """Build a config from the ``--tenants`` / ``HQ_TENANCY_CONFIG``
        JSON shape::

            {"default": "starter",
             "tenants": {"acme":    {"weight": 4, "max_concurrency": 8,
                                     "rate": 50, "result_cache_share": 0.4},
                         "starter": {"weight": 1}}}

        Every malformed shape — non-dict tenants, unknown quota keys, bad
        value types — raises :class:`~repro.errors.TenancyConfigError`
        naming the offending tenant and field, never a raw KeyError.
        """
        if not isinstance(data, dict):
            raise TenancyConfigError(
                f"tenancy config must be a JSON object, got "
                f"{type(data).__name__}")
        data = dict(data)
        table = data.pop("tenants", {})
        default = data.pop("default", DEFAULT_TENANT)
        if data:
            raise TenancyConfigError(
                f"unknown tenancy config keys {sorted(data)}; expected "
                f"'tenants' and optional 'default'")
        if not isinstance(table, dict):
            raise TenancyConfigError(
                f"'tenants' must map tenant name -> quota object, got "
                f"{type(table).__name__}")
        known = {f.name for f in fields(TenantQuota)} - {"name"}
        quotas = []
        for name, spec in table.items():
            if not isinstance(spec, dict):
                raise TenancyConfigError(
                    f"tenant {name!r}: quota must be a JSON object, got "
                    f"{type(spec).__name__}")
            unknown = set(spec) - known
            if unknown:
                raise TenancyConfigError(
                    f"tenant {name!r}: unknown quota keys "
                    f"{sorted(unknown)}; known keys are {sorted(known)}")
            try:
                quotas.append(TenantQuota(name=name, **spec))
            except TypeError as error:
                raise TenancyConfigError(
                    f"tenant {name!r}: {error}") from error
        return cls(tenants=tuple(quotas), default=default)

    @classmethod
    def parse(cls, value: str) -> "TenancyConfig":
        """Config from inline JSON or ``@path`` / bare path to a JSON file
        (the ``serve --tenants`` argument shape)."""
        text = value.strip()
        if text.startswith("@"):
            text = text[1:]
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as error:
                raise TenancyConfigError(
                    f"cannot read tenancy config file {text!r}: "
                    f"{error}") from error
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise TenancyConfigError(
                f"tenancy config is not valid JSON: {error}") from error
        return cls.from_dict(data)

    @classmethod
    def from_env(cls, env: Optional[dict] = None) -> Optional["TenancyConfig"]:
        """Config from ``HQ_TENANCY_CONFIG``; unset/empty means no tenancy."""
        value = (env if env is not None else os.environ).get(
            "HQ_TENANCY_CONFIG", "").strip()
        if not value:
            return None
        return cls.parse(value)

    def per_worker(self, fleet_size: int) -> "TenancyConfig":
        """This config's share for one of *fleet_size* gateway workers.

        Mirrors :meth:`~repro.core.workload.WorkloadConfig.per_worker`:
        bounded capacities split by ceiling division, rates split exactly,
        0 sentinels stay 0. Cache *shares* are fractions of each worker's
        own byte budget and pass through unchanged — the reservation holds
        per worker, hence fleet-wide.
        """
        if fleet_size <= 1:
            return self

        def ceil_share(value: int) -> int:
            return -(-value // fleet_size) if value > 0 else value

        quotas = tuple(
            replace(q,
                    max_concurrency=ceil_share(q.max_concurrency),
                    queue_depth=ceil_share(q.queue_depth),
                    rate=q.rate / fleet_size if q.rate > 0 else 0.0,
                    burst=max(1, ceil_share(q.burst)))
            for q in self.tenants
        )
        return replace(self, tenants=quotas)


# -- runtime state -------------------------------------------------------------------


class _TenantState:
    """One tenant's live counters inside a registry."""

    __slots__ = ("quota", "bucket", "running", "queued", "counts",
                 "queue_wait", "arrivals")

    COUNTS = ("requests", "admitted", "shed", "quota_sheds")

    def __init__(self, quota: TenantQuota, clock: Callable[[], float]):
        self.quota = quota
        self.bucket = TokenBucket(quota.rate, quota.burst, clock)
        self.running = 0
        self.queued = 0
        self.counts = {name: 0 for name in self.COUNTS}
        self.queue_wait = Histogram()
        self.arrivals: deque[float] = deque()


class TenantRegistry:
    """Live per-tenant state shared by the server, manager, and engine.

    All methods are thread-safe under the registry's own lock; the
    scheduling-path calls are O(1) so holding the workload manager's lock
    across them is fine.
    """

    def __init__(self, config: TenancyConfig,
                 clock: Callable[[], float] = time.monotonic,
                 faults=None):
        self.config = config
        self.faults = faults
        self._clock = clock
        self._lock = threading.Lock()
        self._states = {name: _TenantState(quota, clock)
                        for name, quota in config.quotas().items()}

    # -- identity ----------------------------------------------------------------

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(self._states)

    @property
    def default_tenant(self) -> str:
        return self.config.default

    def resolve(self, tenant_id: Optional[str]) -> str:
        """Map a connection's presented tenant id to a configured tenant.

        ``None``/empty lands on the default tenant; an explicit id must
        name a configured tenant or the logon fails cleanly.
        """
        if not tenant_id:
            return self.config.default
        name = tenant_id.strip().lower()
        if name not in self._states:
            raise UnknownTenantError(
                f"unknown tenant {name!r}; configured tenants are "
                f"{sorted(self._states)} (check the --tenants config or "
                f"the client's tenant id)")
        return name

    def quota(self, tenant: str) -> TenantQuota:
        return self._states[tenant].quota

    # -- admission (quotas) ------------------------------------------------------

    def admit(self, tenant: str, wl_class: str, sql: str = "") -> None:
        """Enforce the tenant's quotas for one arriving request.

        Counts the arrival, then sheds with
        :class:`~repro.errors.TenantQuotaError` when the queue-depth quota
        or the QPS bucket rejects it — or when the ``tenancy`` fault site
        scripts a :data:`~repro.core.faults.QUOTA_EXCEEDED`. Concurrency
        is enforced at dispatch (:meth:`has_slot`), not here: a tenant at
        its running cap may still queue up to its queue depth. ``admin``
        requests (the SHOW HYPERQ observability verbs) skip the QPS
        bucket — a throttled tenant must still be able to inspect its
        own sheds — but stay bounded by queue depth.
        """
        state = self._states[tenant]
        now = self._clock()
        with self._lock:
            state.counts["requests"] += 1
            state.arrivals.append(now)
            while state.arrivals and state.arrivals[0] < now - QPS_WINDOW:
                state.arrivals.popleft()
        fault = None
        if self.faults is not None:
            fault = self.faults.draw("tenancy", op=f"{tenant}:{wl_class}")
        if fault is not None and fault.kind == flt.QUOTA_EXCEEDED:
            self._shed(state, "injected quota fault")
        quota = state.quota
        if quota.queue_depth and state.queued >= quota.queue_depth:
            self._shed(state, f"queue depth {quota.queue_depth} reached")
        if wl_class != ADMIN and not state.bucket.take(now):
            self._shed(state, f"QPS limit {quota.rate:g}/s exceeded")

    def _shed(self, state: _TenantState, reason: str) -> None:
        with self._lock:
            state.counts["shed"] += 1
            state.counts["quota_sheds"] += 1
        trace_mod.add_event("quota_exceeded", tenant=state.quota.name,
                            reason=reason)
        raise TenantQuotaError(
            f"QUOTA_EXCEEDED for tenant '{state.quota.name}' ({reason}), "
            f"retry after {state.quota.retry_after:g}s")

    # -- scheduling hooks (called by the workload manager) -----------------------

    def has_slot(self, tenant: str) -> bool:
        state = self._states[tenant]
        quota = state.quota
        return not quota.max_concurrency \
            or state.running < quota.max_concurrency

    def note_queued(self, tenant: str) -> None:
        with self._lock:
            self._states[tenant].queued += 1

    def note_unqueued(self, tenant: str) -> None:
        with self._lock:
            self._states[tenant].queued -= 1

    def note_dispatch(self, tenant: str, wait: float) -> None:
        state = self._states[tenant]
        with self._lock:
            state.queued -= 1
            state.running += 1
            state.counts["admitted"] += 1
            state.queue_wait.observe(wait)

    def note_finish(self, tenant: str) -> None:
        with self._lock:
            self._states[tenant].running -= 1

    # -- scheduler wiring --------------------------------------------------------

    def scheduler_weights(self, class_weights: dict[str, float]) \
            -> dict[tuple[str, str], float]:
        """(tenant, class) -> tenant share × class share, the weight table
        the workload manager's DRR runs over."""
        return {(tenant, wl_class): state.quota.weight * weight
                for tenant, state in self._states.items()
                for wl_class, weight in class_weights.items()}

    def result_cache_shares(self) -> dict[str, float]:
        return {name: state.quota.result_cache_share
                for name, state in self._states.items()
                if state.quota.result_cache_share > 0}

    def translation_cache_shares(self) -> dict[str, float]:
        return {name: state.quota.translation_cache_share
                for name, state in self._states.items()
                if state.quota.translation_cache_share > 0}

    # -- observability -----------------------------------------------------------

    def qps(self, tenant: str) -> float:
        state = self._states[tenant]
        now = self._clock()
        with self._lock:
            while state.arrivals and state.arrivals[0] < now - QPS_WINDOW:
                state.arrivals.popleft()
            return len(state.arrivals) / QPS_WINDOW

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant counters + queue-wait histogram + live gauges."""
        now = self._clock()
        with self._lock:
            report = {}
            for name, state in self._states.items():
                arrivals = sum(1 for t in state.arrivals
                               if t >= now - QPS_WINDOW)
                report[name] = {
                    **dict(state.counts),
                    "running": state.running,
                    "queued": state.queued,
                    "qps": arrivals / QPS_WINDOW,
                    "queue_wait": state.queue_wait.state_dict(),
                }
            return report


# -- fleet-wide reporting ------------------------------------------------------------


def histogram_quantile(state: dict, fraction: float) -> float:
    """Quantile estimate from a :meth:`Histogram.state_dict` (0.0 when
    nothing was observed)."""
    if not state.get("count"):
        return 0.0
    return Histogram().merge_state_dict(state).quantile(fraction)


def tenant_report(engine) -> dict[str, dict]:
    """One engine's per-tenant stats: registry counters plus the byte
    accounting the caches keep per inserting tenant. Plain dicts all the
    way down, so the gateway can pickle a worker's report over control
    RPC and :func:`merge_reports` can sum reports fleet-wide."""
    registry = getattr(engine, "tenancy", None)
    if registry is None:
        return {}
    report = registry.snapshot()
    result_bytes = {}
    translation_bytes = {}
    result_cache = getattr(engine, "result_cache", None)
    if result_cache is not None:
        result_bytes = result_cache.tenant_bytes()
    cache = getattr(engine, "cache", None)
    if cache is not None:
        translation_bytes = cache.tenant_bytes()
    for name, stats in report.items():
        stats["result_cache_bytes"] = result_bytes.get(name, 0)
        stats["translation_cache_bytes"] = translation_bytes.get(name, 0)
        stats["cache_bytes"] = (stats["result_cache_bytes"]
                                + stats["translation_cache_bytes"])
    return report


def merge_reports(reports) -> dict[str, dict]:
    """Sum per-worker tenant reports into one fleet-wide view: counters,
    gauges, QPS, and cache bytes add; queue-wait histograms merge by
    bucket addition."""
    merged: dict[str, dict] = {}
    for report in reports:
        for tenant, stats in report.items():
            into = merged.get(tenant)
            if into is None:
                into = {key: (dict(value) if isinstance(value, dict)
                              else value)
                        for key, value in stats.items()}
                merged[tenant] = into
                continue
            for key, value in stats.items():
                if key == "queue_wait":
                    into[key] = (Histogram().merge_state_dict(into[key])
                                 .merge_state_dict(value).state_dict())
                else:
                    into[key] = into.get(key, 0) + value
    return merged


def render_tenants(report: dict[str, dict], workers: int = 1) -> str:
    """The ``SHOW HYPERQ TENANTS`` text: one line per tenant with the
    fleet-summed QPS, shed count, queue-wait p99, and cache bytes."""
    lines = [f"# hyperq tenants ({len(report)} tenants, "
             f"{workers} worker{'s' if workers != 1 else ''})",
             "tenant\tqps\trequests\tadmitted\tshed\trunning\tqueued"
             "\tqueue_wait_p99_ms\tcache_bytes"]
    for name in sorted(report):
        stats = report[name]
        p99 = histogram_quantile(stats.get("queue_wait", {}), 0.99)
        lines.append(
            f"{name}\t{stats.get('qps', 0.0):.2f}"
            f"\t{stats.get('requests', 0)}"
            f"\t{stats.get('admitted', 0)}"
            f"\t{stats.get('shed', 0)}"
            f"\t{stats.get('running', 0)}"
            f"\t{stats.get('queued', 0)}"
            f"\t{p99 * 1e3:.1f}"
            f"\t{stats.get('cache_bytes', 0)}")
    return "\n".join(lines)
