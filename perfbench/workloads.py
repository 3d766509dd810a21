"""The four workloads and the closed loop that measures them.

Every workload takes the path a user takes: config text, optionally
``core.named_pipeline("paper")`` as ``click-optimize`` runs it by
default, then a router under ``ExecutionProfile.fdd()`` with library
defaults.  One driver process feeds a burst, runs scheduler passes until
one does no work, and only then feeds the next burst.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.configs.firewall import firewall_config
from repro.configs.iprouter import ip_router_config
from repro.control import ControlPlane, ControlPlaneError
from repro.core import Pipeline, load_config, named_pipeline, save_config
from repro.elements.devices import PollDevice
from repro.elements.runtime import Router, build_router
from repro.runtime import ExecutionProfile, FlowHasher, default_cache
from repro.sim.cpu import CycleMeter
from repro.sim.platforms import P0

from perfbench.check import (
    OutputCheck,
    apply_to_plane,
    apply_to_shards,
    drive,
    make_devices,
    seed_arp,
)
from perfbench.harness import (
    Tracer,
    between_windows,
    gc_paused,
    median,
    peak_rss_mb,
    percentile,
    perf,
)
from perfbench.traffic import (
    INTERFACES,
    SIZE_MIX,
    Stream,
    UpdateSchedule,
    firewall_pool,
    iprouter_pool,
)

FDD = ExecutionProfile.fdd()

#: Windows (or churn steps) every run completes, however short
#: ``--seconds`` is; count metrics are read when the first
#: ``COUNT_WINDOWS`` are done, so they repeat exactly for a seed.
COUNT_WINDOWS = 8
CHURN_COUNT_STEPS = 20

#: The churn workload runs whole cycles of its update schedule, at least
#: this many, so the update percentiles of every run are taken over the
#: same mix of update kinds and enough rule swaps to place its p90.
CHURN_CYCLES = 4

#: Warm-up gives up after this many frames without every fed chain
#: leaving tier 1.
WARM_CAP_FRAMES = 1 << 16

#: The process plane's tiers are not observable from the driver: it
#: warms on a fixed quota, eight times the promotion threshold per shard.
SHARD_WARM_FRAMES = 8192

#: Frames the CycleMeter run counts, after a short warm-up.
METER_FRAMES = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # "iprouter" or "firewall"
    passes: bool
    workers: int
    burst: int
    window_bursts: int
    setups: int
    churn_cycle: tuple = ()
    probe_cycle: tuple = ()
    probe_every: int = 1  # forwarding windows between probe rounds
    probe_round: int = 1  # probe updates per round

    def config_text(self):
        if self.config == "iprouter":
            return ip_router_config(INTERFACES)
        return firewall_config()

    @property
    def arp(self):
        return self.config == "iprouter"

    @property
    def device_names(self):
        return tuple(interface.device for interface in INTERFACES)

    def pool(self, seed):
        if self.config == "firewall":
            return firewall_pool(seed)[0]
        if self.workers:
            return iprouter_pool(seed, sizes=SIZE_MIX)
        return iprouter_pool(seed)

    def queues(self):
        graph = load_config(self.config_text(), "<queues>")
        return tuple(name for name, decl in graph.elements.items() if decl.class_name == "Queue")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="iprouter-skew",
            why="Figure 10 IP router, paper passes, FDD, 64-byte frames 90/10 skewed: "
            "the paper's path; hot-arm speculation hits. Loads lang, core, elements, runtime.",
            config="iprouter",
            passes=True,
            workers=0,
            burst=16,
            window_bursts=64,
            setups=5,
            probe_cycle=("routes",),
            probe_every=1,
        ),
        Workload(
            name="firewall-spread",
            why="17-rule IPFilter bridge, paper passes, FDD, frames spread over every rule: "
            "107-node diagram, speculation mostly misses. Loads classifier, runtime.fdd.",
            config="firewall",
            passes=True,
            workers=0,
            burst=16,
            window_bursts=64,
            setups=5,
            probe_cycle=("queue",),
            probe_every=4,
        ),
        Workload(
            name="iprouter-churn",
            why="Unoptimized IP router, FDD, bursts between seeded route/rule/queue updates: "
            "writes beside reads. Loads control, graph.diff, elements.hotswap, FDD rebuilds.",
            config="iprouter",
            passes=False,
            workers=0,
            burst=16,
            window_bursts=96,
            setups=5,
            # 16 route rewrites, 3 rule swaps and 1 queue resize.
            churn_cycle=(("routes",) * 5 + ("rules",)) * 3 + ("routes", "queue"),
        ),
        Workload(
            name="iprouter-shard2",
            why="iprouter-skew on 2 process workers, 64/594/1514-byte mix, 256-frame batches: "
            "loads runtime.shard and runtime.flowhash dispatch, pipes and merge.",
            config="iprouter",
            passes=True,
            workers=2,
            burst=256,
            window_bursts=8,
            setups=3,
            probe_cycle=("routes",),
            probe_every=1,
            probe_round=4,
        ),
    )
}


class Subject:
    """The measured router, its wire, and the control path into it."""

    def __init__(self, workload, router, devices, graph):
        self.workload = workload
        self.sharded = bool(workload.workers)
        self.devices = devices
        self.graph = graph  # the config the router was built from
        self.live_graph = graph  # the sharded plane's current config
        self._router = router
        self.plane = None if self.sharded else ControlPlane(router)
        # Scheduler passes per run_tasks call while draining: one on a
        # plain router; on the process plane each call is a round trip to
        # every worker, so one call covers a whole batch.
        self.passes = workload.burst // PollDevice.BURST if self.sharded else 1
        self.engine = None
        self.retired = {}
        self.check = None
        self.note_engine()

    @property
    def router(self):
        return self._router if self.sharded else self.plane.router

    def note_engine(self):
        """Follow the live adaptive engine.  A structural update retires
        it; its counters still belong to the run, so they are folded
        into ``retired`` (and the engine let go) when it is replaced."""
        engine = None if self.sharded else self.router.adaptive
        if engine is self.engine:
            return
        if self.engine is not None:
            for name, value in engine_counts(self.engine).items():
                self.retired[name] = self.retired.get(name, 0) + value
        self.engine = engine

    def apply(self, update):
        """Install one update; returns the SwapReport."""
        if self.sharded:
            report, self.live_graph = apply_to_shards(self._router, self.live_graph, update)
            return report
        report = apply_to_plane(self.plane, update)
        self.note_engine()
        return report

    def attach_check(self, warm):
        """Build the reference for this router and check its warm-up."""
        workload = self.workload
        self.check = OutputCheck(
            workload.config_text(), workload.device_names, workload.arp, sharded=self.sharded
        )
        self.check.run(warm, self.devices)

    def close(self):
        if self.sharded:
            self._router.close()


def _tiers(router):
    """``(tier-2 chains, chains with a verdict, chains still profiling
    with a full sample)``; chains that saw only a stray frame (an ARP
    seed) do not hold up warm-up."""
    report = router.adaptive.profile_report()
    minimum = report.config["min_samples"]
    chains = report.chains.values()
    promoted = sum(1 for info in chains if info["tier"] == 2)
    decided = promoted + sum(1 for info in chains if info["tier"] == 0)
    profiling = sum(1 for info in chains if info["tier"] == 1 and info["seen"] >= minimum)
    return promoted, decided, profiling


def setup(workload, stream, tracer):
    """Config text to a warm router; returns ``(subject, warm_bursts)``."""
    stream.restart()
    default_cache().clear()
    with tracer.span("bench.setup"):
        with tracer.span("lang.parse"):
            graph = load_config(workload.config_text(), "<%s>" % workload.name)
        if workload.passes:
            for pass_ in named_pipeline("paper").passes:
                with tracer.span("core.pass." + pass_.name):
                    graph = Pipeline([pass_], name=pass_.name).run(graph).graph
            with tracer.span("lang.archive_roundtrip"):
                graph = load_config(save_config(graph), "<optimized>")
        devices = make_devices(workload.device_names)
        if workload.workers:
            profile = FDD.with_workers(workload.workers, "process")
            with tracer.span("elements.build"):
                router = build_router(graph, devices=devices, profile=profile)
            with tracer.span("shard.spawn"):
                router.run_tasks(1)
        else:
            with tracer.span("elements.build"):
                router = Router(graph, devices=devices)
            with tracer.span("runtime.compile"):
                router.configure(FDD)
        if workload.arp:
            with tracer.span("elements.arp_seed"):
                seed_arp(router)
        subject = Subject(workload, router, devices, graph)
        with tracer.span("runtime.warmup"):
            warm = _warm(subject, stream)
    return subject, warm


def _warm(subject, stream):
    """Closed-loop bursts from the start of the stream until the hot
    chains promoted; returns the bursts fed."""
    bursts = []
    router, devices = subject.router, subject.devices
    if subject.sharded:
        while len(bursts) * stream.burst < SHARD_WARM_FRAMES:
            bursts.append(stream.next_burst())
            drive(router, devices, bursts[-1:], subject.passes)
        return bursts
    # Steady once nothing promoted for a promotion threshold's worth
    # of frames, with no fully sampled chain left profiling.
    steady_since, previous = 0, None
    threshold = router.adaptive.profile_report().config["threshold"]
    while len(bursts) * stream.burst < WARM_CAP_FRAMES:
        bursts.append(stream.next_burst())
        drive(router, devices, bursts[-1:], subject.passes)
        if len(bursts) % 4 == 0:
            promoted, decided, profiling = _tiers(router)
            if promoted != previous or profiling or not decided:
                steady_since, previous = len(bursts), promoted
            elif (len(bursts) - steady_since) * stream.burst >= threshold:
                break
    return bursts


class Run:
    """One measured run of one workload.

    Non-churn workloads also build a twin of the measured router; between
    forwarding windows the twin takes the workload's probe updates, so
    update latency is sampled across the whole run without disturbing
    the router whose forwarding is measured."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(trace)
        pool = workload.pool(seed)
        self.stream = Stream(pool, workload.burst)
        self.twin_stream = Stream(pool, workload.burst)
        self.setup_seconds = []
        self.late_setup_seconds = []
        self.window_seconds = 0.0
        self.pps = {True: [], False: []}  # traced sub-window -> samples
        self.speedup = {True: [], False: []}  # reference time / measured time
        self.update_cost = []  # measured update time / reference update time
        self.burst_seconds = []
        self.update_seconds = []
        self.updates = []  # (update, SwapReport or None, seconds)
        self.frames_fed = 0
        self.traced_frames = 0
        self.passes = 0
        self.idle_passes = 0
        self.repromote = []
        self.counts = None
        self.subject = None
        self.twin = None
        self.worker_rss_mb = 0.0

    @property
    def subjects(self):
        return [subject for subject in (self.subject, self.twin) if subject is not None]

    @property
    def attempted(self):
        return sum(subject.check.attempted for subject in self.subjects)

    @property
    def failed(self):
        return sum(subject.check.failed for subject in self.subjects)

    # -- the closed loop -------------------------------------------------

    def forward(self, bursts, traced, after_burst=None):
        """Feed ``bursts`` closed-loop with the collector paused; returns
        the window's elapsed seconds."""
        subject = self.subject
        receive = {name: device.receive_frame for name, device in subject.devices.items()}
        run, per_call = subject.router.run_tasks, subject.passes
        tracer = self.tracer
        drain_name = "shard.run" if subject.sharded else "runtime.drain"
        times = self.burst_seconds
        passes = 0
        with gc_paused():
            start = perf()
            for index, burst in enumerate(bursts):
                t0 = perf()
                for device, frame in burst:
                    receive[device](frame)
                t1 = perf()
                passes += 1
                while run(per_call):
                    passes += 1
                t2 = perf()
                if traced:
                    tracer.new_group()
                    root = tracer.record("bench.burst", t0, t2)
                    tracer.record("elements.ingress", t0, t1, parent=root)
                    tracer.record(drain_name, t1, t2, parent=root)
                    if after_burst is not None and index % 4 == 3:
                        after_burst(t2)
                else:
                    times.append(t2 - t0)
            elapsed = perf() - start
        self.passes += passes
        self.idle_passes += len(bursts)
        return elapsed

    def window(self, traced, after_burst=None):
        """One sub-window: forward, check against the reference, and
        record its rate over the frames that came out right."""
        subject = self.subject
        bursts = [self.stream.next_burst() for _ in range(self.workload.window_bursts)]
        frames = sum(len(burst) for burst in bursts)
        elapsed = self.forward(bursts, traced, after_burst)
        with self.tracer.span("check.reference"):
            failed = subject.check.run(bursts, subject.devices)
        self.speedup[traced].append(subject.check.seconds / elapsed)
        self.window_seconds += elapsed
        self.frames_fed += frames
        self.pps[traced].append((frames - failed) / elapsed)
        if traced:
            self.traced_frames += frames
            if subject.sharded:
                hasher = FlowHasher(self.workload.workers)
                with self.tracer.span("shard.hash"):
                    for burst in bursts:
                        for _device, frame in burst:
                            hasher(frame)

    def update(self, subject, update):
        """Install one update on ``subject`` and its reference; returns
        its seconds."""
        report = None
        with gc_paused():
            start = perf()
            try:
                report = subject.apply(update)
            except ControlPlaneError:
                pass
            elapsed = perf() - start
        if self.tracer.enabled:
            self.tracer.new_group()
            self.tracer.record("control.update", start, start + elapsed)
        subject.check.update(update, report is not None)
        self.update_cost.append(elapsed / subject.check.seconds)
        self.updates.append((update, report, elapsed))
        self.update_seconds.append(elapsed)
        return elapsed

    # -- phases ----------------------------------------------------------

    def set_up(self):
        if self.workload.probe_cycle:
            # Before the measured set-ups, which each start from a clear
            # codegen cache.
            self.twin, twin_warm = setup(self.workload, self.twin_stream, Tracer(False))
            self.twin.attach_check(twin_warm)
        for _ in range(self.workload.setups):
            if self.subject is not None:
                self.subject.close()
                self.subject = None
            between_windows()
            self.tracer.new_group()
            start = perf()
            with gc_paused():
                self.subject, warm = setup(self.workload, self.stream, self.tracer)
            self.setup_seconds.append(perf() - start)
        self.warm_frames = sum(len(burst) for burst in warm)
        self.subject.attach_check(warm)
        # Workers reaped so far did set-up and warm-up only.
        self.worker_rss_mb = peak_rss_mb(children=True)
        between_windows()

    def late_setups(self):
        """Set up the workload again after the measurement, a second
        sample of set-up time taken seconds after the first."""
        for _ in range(self.workload.setups):
            between_windows()
            self.tracer.new_group()
            start = perf()
            with gc_paused():
                subject, _warm = setup(self.workload, Stream(self.stream.pool, self.workload.burst), self.tracer)
            self.late_setup_seconds.append(perf() - start)
            subject.close()

    def measure_forwarding(self):
        schedule = UpdateSchedule(self.seed, self.workload.probe_cycle, self.workload.queues())
        windows = 0
        while windows < COUNT_WINDOWS or self.window_seconds < self.seconds:
            self.window(traced=self.tracer.enabled and windows % 2 == 0)
            windows += 1
            if windows % self.workload.probe_every == 0:
                for _ in range(self.workload.probe_round):
                    self.probe(schedule.next())
            if windows == COUNT_WINDOWS:
                self.read_counts()
            between_windows()

    def probe(self, update):
        """One update on the twin, then one burst through it."""
        twin = self.twin
        self.update(twin, update)
        bursts = [self.twin_stream.next_burst()]
        drive(twin.router, twin.devices, bursts, twin.passes)
        twin.check.run(bursts, twin.devices)

    def measure_churn(self):
        cycle = self.workload.churn_cycle
        schedule = UpdateSchedule(self.seed, cycle, self.workload.queues())
        steps = 0
        level = done = None
        while steps < CHURN_CYCLES * len(cycle) or steps % len(cycle) or self.window_seconds < self.seconds:
            # Traced and untraced steps alternate by whole cycles, so
            # both see the same mix of updates before their windows.
            traced = self.tracer.enabled and (steps // len(cycle)) % 2 == 0
            watch = self._repromote_watch(level, done) if traced and level else None
            self.window(traced, watch)
            next_traced = self.tracer.enabled and ((steps + 1) // len(cycle)) % 2 == 0
            level = self._tier2_chains() if next_traced else None
            self.window_seconds += self.update(self.subject, schedule.next())
            done = perf()
            steps += 1
            if steps == CHURN_COUNT_STEPS:
                self.read_counts()
            between_windows()

    def _repromote_watch(self, level, done):
        """A per-burst probe recording when the tier-2 chain count gets
        back to ``level``, counted from the update's end at ``done``."""
        found = []

        def after_burst(now):
            if not found and self._tier2_chains() >= level:
                found.append(now)
                self.repromote.append(now - done)

        return after_burst

    def _tier2_chains(self):
        chains = self.subject.router.adaptive.profile_report().chains.values()
        return sum(1 for info in chains if info["tier"] == 2)

    def run(self):
        try:
            self.set_up()
            if self.workload.churn_cycle:
                self.measure_churn()
            else:
                self.measure_forwarding()
            self.late_setups()
            if self.tracer.enabled:
                with self.tracer.span("sim.meter"):
                    self.modeled_ns = modeled_ns_per_pkt(self.workload, self.subject.graph, self.stream.pool)
        finally:
            for subject in self.subjects:
                subject.close()
        self.worker_end_rss_mb = peak_rss_mb(children=True)
        return self

    # -- results ---------------------------------------------------------

    def read_counts(self):
        """Counts from the program's own reports, and peak memory, at a
        point every run of a seed reaches in the same state."""
        self.rss_mb = peak_rss_mb() + self.workload.workers * self.worker_rss_mb
        self.counts = self._counts()

    def _counts(self):
        subject = self.subject
        cache = default_cache().stats()
        counts = {
            "core.elements_out": len(subject.graph.elements),
            "runtime.codegen_cache.hits": cache["hits"],
            "runtime.codegen_cache.misses": cache["misses"],
            "runtime.idle_pass_frac": self.idle_passes / self.passes,
            "control.chains_recompiled": sum(r.chains_recompiled for _, r, _ in self.updates if r),
            "control.chains_reused": sum(r.chains_reused for _, r, _ in self.updates if r),
        }
        if subject.sharded:
            report = subject.router.report()
            dispatched = report.dispatched
            counts["shard.balance"] = max(dispatched) / (sum(dispatched) / len(dispatched))
            counts["shard.frames_per_flush"] = report.flushed / report.runs
            if report.queue_high_water:
                counts["shard.queue_high_water"] = max(report.queue_high_water)
            return counts
        engine = subject.engine
        chains = engine.profile_report().chains.values()
        diagram = engine.diagram_report()
        tier1 = engine.tier1.report
        totals = dict(subject.retired)
        for name, value in engine_counts(engine).items():
            totals[name] = totals.get(name, 0) + value
        counts.update(
            {
                "runtime.tier2_frac": sum(1 for info in chains if info["tier"] == 2) / len(chains),
                "runtime.guard_miss_frac": totals["guard_misses"] / (self.warm_frames + self.frames_fed),
                "runtime.deopts": totals["deopts"],
                "runtime.recompiles": totals["recompiles"],
                "runtime.fastpath.specialized": tier1.specialized_terminals + tier1.specialized_actions,
                "runtime.fastpath.inlined_calls": tier1.inlined_calls,
                "runtime.fastpath.source_lines": tier1.source_lines,
                "runtime.fdd.nodes": diagram["totals"]["nodes"],
                "runtime.fdd.paths": diagram["totals"]["paths"],
                "runtime.fdd.loads_saved": diagram["totals"]["loads_saved"],
                "runtime.fdd.diagram_rebuilds": totals["rebuilds"],
            }
        )
        return counts

    def end_to_end(self):
        """The user-visible metrics.

        The ``_x`` metrics compare the measured router with the reference
        interpreter doing the same work moments later, so the speed of
        the host cancels: this host alternates between two speeds about
        2x apart for seconds to minutes, which moves every absolute time
        by more than any bound could allow.  The absolute metrics are
        reported beside them, with statistics that sit inside the slower
        state: the rate sustained in three windows of four, latency at
        the median and the 90th percentile, and the slower of two set-up
        samples taken before and after the measurement."""
        bursts, updates, cost = self.burst_seconds, self.update_seconds, self.update_cost
        return {
            "setup_s": (max(median(self.setup_seconds), median(self.late_setup_seconds)), "s"),
            "fwd_speedup_x": (median(self.speedup[False]), "x"),
            "update_cost_p50_x": (percentile(cost, 0.50), "x"),
            "update_cost_p90_x": (percentile(cost, 0.90), "x"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "fwd_pps": (percentile(self.pps[False], 0.25), "packets/s"),
            "fwd_burst_p50_us": (percentile(bursts, 0.50) * 1e6, "us"),
            "fwd_burst_p90_us": (percentile(bursts, 0.90) * 1e6, "us"),
            "update_p50_ms": (percentile(updates, 0.50) * 1e3, "ms"),
            "update_p90_ms": (percentile(updates, 0.90) * 1e3, "ms"),
        }

    def per_layer(self):
        """Every per-layer metric this workload exercises."""
        tracer = self.tracer
        metrics = {}
        for name, value in sorted(self.counts.items()):
            unit = "ratio" if name.endswith(("_frac", ".balance")) else "count"
            if name.endswith("frames_per_flush"):
                unit = "frames"
            metrics[name] = (value, unit)
        for span, metric in (
            ("lang.parse", "lang.parse_s"),
            ("lang.archive_roundtrip", "lang.archive_roundtrip_s"),
            ("elements.build", "elements.build_s"),
            ("runtime.compile", "runtime.compile_s"),
            ("shard.spawn", "shard.spawn_s"),
            ("runtime.warmup", "runtime.warmup_s"),
        ) + tuple(
            ("core.pass." + p.name, "core.pass_s." + p.name) for p in named_pipeline("paper").passes
        ):
            per_setup = _per_group(tracer, span)
            if per_setup:
                metrics[metric] = (median(per_setup), "s")
        frames = self.traced_frames
        drain = tracer.total("shard.run" if self.subject.sharded else "runtime.drain")
        metrics["elements.ingress_ns_per_pkt"] = (tracer.total("elements.ingress") / frames * 1e9, "ns")
        metrics["runtime.busy_ns_per_pkt"] = (drain / frames * 1e9, "ns")
        if self.subject.sharded:
            # The process plane compiles inside its first scheduler pass.
            metrics["runtime.compile_s"] = metrics["shard.spawn_s"]
            metrics["shard.run_ns_per_pkt"] = (drain / frames * 1e9, "ns")
            metrics["shard.hash_ns_per_pkt"] = (tracer.total("shard.hash") / frames * 1e9, "ns")
            metrics["shard.worker_rss_mb"] = (self.worker_end_rss_mb, "MB")
        metrics.update(self._control_metrics())
        if self.repromote:
            metrics["control.repromote_s"] = (median(self.repromote), "s")
        metrics["sim.modeled_ns_per_pkt"] = (self.modeled_ns, "ns")
        metrics["trace.overhead_frac"] = (1.0 - median(self.pps[True]) / median(self.pps[False]), "ratio")
        return metrics

    def _control_metrics(self):
        """Median update time per kind and per SwapReport phase."""
        by_kind, phases = {}, {}
        for update, report, seconds in self.updates:
            if report is None:
                continue
            label = {"in-place": "in_place_" + update[0]}.get(report.kind, report.kind.replace("-", "_"))
            by_kind.setdefault(label, []).append(seconds)
            for phase, value in report.phases.items():
                phases.setdefault(phase, []).append(value)
        metrics = {}
        for label, values in sorted(by_kind.items()):
            metrics["control.update_ms." + label] = (median(values) * 1e3, "ms")
        for phase, values in sorted(phases.items()):
            metrics["control.phase_ms." + phase] = (median(values) * 1e3, "ms")
        return metrics


def engine_counts(engine):
    """Deopts, recompiles, diagram rebuilds and guard misses of one
    engine, from its public reports.  A guard counter resets when it
    trips a deopt, so each guard-pressure deopt adds its limit back."""
    report = engine.profile_report()
    pressure = sum(1 for reason in report.deopts if reason.startswith("guard pressure"))
    return {
        "deopts": len(report.deopts),
        "recompiles": report.recompiles,
        "rebuilds": engine.diagram_report()["rebuilds"],
        "guard_misses": sum(report.guard_misses.values()) + pressure * report.config["guard_miss_limit"],
    }


def _per_group(tracer, name):
    """Summed duration of ``name`` spans per span group (one per setup)."""
    groups = {}
    for _id, _parent, group, span_name, start, end in tracer.spans:
        if span_name == name:
            groups[group] = groups.get(group, 0.0) + (end - start)
    return list(groups.values())


def modeled_ns_per_pkt(workload, graph, pool):
    """The CycleMeter's modeled ns per input frame on the same config and
    traffic (a plain router: the model is per packet, not per shard)."""
    meter = CycleMeter()
    devices = make_devices(workload.device_names)
    router = Router(graph, meter=meter, devices=devices, profile=FDD)
    if workload.arp:
        seed_arp(router)
    stream = Stream(pool, 16)
    drive(router, devices, [stream.next_burst() for _ in range(4)])
    meter.__init__()  # count only the measured frames, as Testbed.measure_cpu does
    bursts = [stream.next_burst() for _ in range(METER_FRAMES // 16)]
    drive(router, devices, bursts)
    return meter.report(METER_FRAMES, clock_mhz=P0.clock_mhz).true_total_ns
