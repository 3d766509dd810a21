"""Control-plane patches under the adaptive and FDD engines: route
patches revalidate tier 2's speculation instead of deoptimizing, rules
repatches and the re-promotion after them compile only the dirty
chains, and control-plane rebuilds do not spend the guard-pressure
recompile budget."""

import random

import pytest

from repro.control import ControlPlane
from repro.lang.lexer import split_config_args
from repro.runtime import ExecutionProfile
from repro.runtime import fastpath as fastpath_module
from repro.runtime.adaptive import AdaptiveConfig, AdaptiveEngine
from repro.runtime.codegen_cache import default_cache
from repro.sim.testbed import Testbed

EAGER = dict(threshold=48, sample=4, min_samples=12)
WARM = 512


def _dotted(raw):
    return "%d.%d.%d.%d" % tuple((raw >> shift) & 0xFF for shift in (24, 16, 8, 0))


class _Bed:
    """A router under test beside a reference-interpreter twin fed the
    same frames and the same patches."""

    def __init__(self, profile):
        self.testbed = Testbed(2)
        graph = self.testbed.variant_graph("base")
        self.router, self.devices = self.testbed.build_router(graph, profile=profile)
        self.ref_router, self.ref_devices = self.testbed.build_router(
            graph.copy(), profile=ExecutionProfile()
        )
        self.plane = ControlPlane(self.router)
        self.ref_plane = ControlPlane(self.ref_router)
        self.sent = 0

    @property
    def engine(self):
        return self.router.adaptive

    def feed(self, count):
        frames = self.testbed.evaluation_frames(self.sent + count)[self.sent :]
        self.sent += count
        for router, devices in ((self.router, self.devices), (self.ref_router, self.ref_devices)):
            for device_name, frame in frames:
                devices[device_name].receive_frame(frame)
            router.run_tasks(count)

    def routes(self):
        return split_config_args(self.router.graph.elements["rt"].config)

    def patch_routes(self, routes):
        self.ref_plane.update_routes("rt", routes)
        return self.plane.update_routes("rt", routes)

    def wire_matches(self):
        def wire(devices):
            return {name: [bytes(f) for f in d.transmitted] for name, d in devices.items()}

        return wire(self.devices) == wire(self.ref_devices)


def _warm(profile):
    bed = _Bed(profile)
    bed.feed(WARM)
    assert bed.engine.tier2_fp is not None
    return bed


def _hot_constant(engine):
    constant = engine.tier2_fp.policy.decisions.route["rt"]["constant"]
    assert constant is not None  # the workload must speculate a hot route
    return constant


PROFILES = {
    "fdd": lambda: ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER)),
    "tiered": lambda: ExecutionProfile.tiered(config=AdaptiveConfig(**EAGER)),
}


# -- route revalidation ------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(PROFILES))
def test_patch_leaving_hot_result_alone_keeps_tier2(mode):
    bed = _warm(PROFILES[mode]())
    engine = bed.engine
    tier2 = engine.tier2_fp
    recompiles = engine.recompiles
    deopts = list(engine.deopts)
    misses = default_cache().stats()["misses"]
    routes = bed.routes()
    random.Random(7).shuffle(routes)
    report = bed.patch_routes(routes + ["203.0.7.0/24 1", "203.5.0.0/16 2"])
    assert report.kind == "in-place"
    assert engine.tier2_fp is tier2
    assert engine.recompiles == recompiles
    assert engine.deopts == deopts
    assert engine.revalidated == ["route patch of rt"]
    assert engine.profile_report().as_dict()["revalidated"] == ["route patch of rt"]
    assert default_cache().stats()["misses"] == misses
    bed.feed(256)
    assert engine.tier2_fp is tier2
    assert engine.recompiles == recompiles
    assert bed.wire_matches()


def _random_table(rng, routes, hot, rehome):
    """A shuffled copy of ``routes`` plus random 203/8 routes no traffic
    addresses; with ``rehome`` also a /32 that moves the hot destination
    to the other port or through a new gateway."""
    table = list(routes)
    rng.shuffle(table)
    for _ in range(rng.randrange(0, 4)):
        table.append("203.%d.0.0/16 %d" % (rng.randrange(256), rng.randrange(1, 3)))
    hot_raw, _gateway, port = hot
    if rehome == "port":
        route = "%s/32 %d" % (_dotted(hot_raw), 3 - port)
    elif rehome == "gateway":
        route = "%s/32 9.9.9.%d %d" % (_dotted(hot_raw), rng.randrange(1, 250), port)
    else:
        return table
    table.insert(rng.randrange(len(table) + 1), route)
    return table


def _revalidation_failures(mode, seeds):
    """Run one seeded random route patch per seed on a warm router and
    return every way the outcome disagrees with the contract: a patch
    that re-homes the hot /32 must deopt, any other must keep tier 2,
    and the wire must match the reference interpreter either way."""
    failures = []
    for seed in seeds:
        rng = random.Random(seed)
        bed = _warm(PROFILES[mode]())
        engine = bed.engine
        tier2 = engine.tier2_fp
        rehome = rng.choice(["port", "gateway"]) if rng.random() < 0.5 else None
        bed.patch_routes(_random_table(rng, bed.routes(), _hot_constant(engine), rehome))
        kept = engine.tier2_fp is tier2
        if kept == bool(rehome):
            verdict = "kept" if kept else "dropped"
            failures.append((seed, "rehome=%s but tier 2 %s" % (rehome, verdict)))
        bed.feed(256)
        if not bed.wire_matches():
            failures.append((seed, "wire differs from the reference (rehome=%s)" % rehome))
    return failures


@pytest.mark.parametrize("mode", sorted(PROFILES))
def test_random_route_patches_revalidate_exactly(mode):
    # Seeds 0-9 re-home the hot /32 in six cases (four by port, two by
    # gateway) and leave it alone in four.
    assert _revalidation_failures(mode, range(10)) == []


def test_planted_always_holds_revalidation_is_caught(monkeypatch):
    """The property test has teeth: a revalidation that always keeps
    tier 2 forwards re-homed hot traffic through the stale constant,
    and the reference comparison sees it."""
    monkeypatch.setattr(AdaptiveEngine, "_route_speculation_holds", lambda self, name: True)
    failures = _revalidation_failures("fdd", range(10))
    assert any("wire differs" in reason for _seed, reason in failures)


# -- scoped recompiles -------------------------------------------------------


def _swapped_arp_rules(router, name):
    rules = split_config_args(router.graph.elements[name].config)
    rules[0], rules[1] = rules[1], rules[0]
    return rules


def _reaching(router, name, key):
    """Can chain ``key`` (a push chain) touch element ``name``?"""
    seen, frontier = set(), [key[1]]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        for port in router.elements[current]._output_ports:
            if port.target is not None:
                frontier.append(port.target.name)
    return name in seen


def test_rules_repatch_compiles_only_dirty_chains(monkeypatch):
    default_cache().clear()
    bed = _warm(PROFILES["fdd"]())
    engine, router = bed.engine, bed.router
    old_tier1, old_tier2 = engine.tier1, engine.tier2_fp
    compiled = []
    real = fastpath_module.compile_chain

    def counting(key, lines):
        compiled.append(key)
        return real(key, lines)

    monkeypatch.setattr(fastpath_module, "compile_chain", counting)
    report = bed.plane.update_rules("c0", _swapped_arp_rules(router, "c0"))
    bed.ref_plane.update_rules("c0", _swapped_arp_rules(bed.ref_router, "c0"))
    dirty = {key for key in old_tier1.chains if key[0] == "push" and _reaching(router, "c0", key)}
    assert dirty and len(dirty) < len(old_tier1.chains)
    # Both tier-1 flavors recompile exactly the chains reaching c0 and
    # re-execute every other chain's code object.
    assert sorted(compiled) == sorted(list(dirty) * 2)
    for key, code in engine.tier1._chain_codes.items():
        assert (code is old_tier1._chain_codes[key]) == (key not in dirty)
    total = len(engine.tier1.chains) + len(engine.profiled.chains)
    assert report.chains_recompiled == 2 * len(dirty)
    assert report.chains_reused == total - 2 * len(dirty)
    # Re-promotion splices the retired tier 2 the same way.
    del compiled[:]
    bed.feed(WARM)
    assert engine.tier2_fp is not None and engine.tier2_fp is not old_tier2
    assert engine.tier2_fp.report.reused_chains > 0
    assert set(compiled) <= dirty
    assert bed.wire_matches()


def test_control_plane_repromotions_spare_the_recompile_budget():
    """Twenty rules repatches with traffic between them: every one
    re-promotes, although the default budget is sixteen recompiles."""
    bed = _warm(PROFILES["fdd"]())
    engine = bed.engine
    assert engine.config.max_recompiles < 20
    for _ in range(20):
        bed.plane.update_rules("c0", _swapped_arp_rules(bed.router, "c0"))
        bed.ref_plane.update_rules("c0", _swapped_arp_rules(bed.ref_router, "c0"))
        bed.feed(256)
        assert engine.tier2_fp is not None
    assert engine.recompiles == 21
    assert engine.pressure_deopts == 0
    chains = engine.profile_report().as_dict()["chains"].values()
    assert any(chain["tier"] == 2 for chain in chains)
    assert bed.wire_matches()


def test_guard_pressure_still_spends_the_budget():
    profile = ExecutionProfile.fdd(config=AdaptiveConfig(max_recompiles=1, **EAGER))
    bed = _warm(profile)
    engine = bed.engine
    counter = engine.guard_counter_for(("guard", "rt", "route"))
    engine._on_guard_pressure(counter)  # rebuild 1 of 1
    bed.feed(WARM)
    assert engine.tier2_fp is not None
    engine._on_guard_pressure(counter)  # budget spent: stays on tier 1
    bed.feed(WARM)
    assert engine.tier2_fp is None
    assert engine.recompiles == 2
    assert bed.wire_matches()
