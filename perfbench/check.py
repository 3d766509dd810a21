"""The output check behind ``failed``: a reference interpreter fed the
same frames and the same updates as the measured router.

The reference runs ``ExecutionProfile()`` on the *unoptimized* config
text, so a bug in an optimizer pass shows up as a failure too.  Output
is drained from both sides after every window and compared, then
dropped, so memory stays flat however long a run lasts.
"""

from __future__ import annotations

from collections import Counter

from repro.control import ControlPlane
from repro.core import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router
from repro.runtime import ExecutionProfile
from repro.sim.testbed import HOST_ETHERS, host_ip
from repro.verify.oracle import sharded_transmit_difference

from perfbench.harness import gc_paused, perf

#: Transmit rings never fill: the closed loop drains them every window.
TX_CAPACITY = 1 << 30


def make_devices(names):
    return {name: LoopbackDevice(name, tx_capacity=TX_CAPACITY) for name in names}


def seed_arp(router, interfaces=2):
    """Point-to-point links: each interface's single host is known, as
    the evaluation testbed sets it up."""
    for index in range(interfaces):
        querier = router.find("arpq%d" % index)
        if querier is not None:
            querier.insert(host_ip(index), HOST_ETHERS[index])


def drive(router, devices, bursts, passes=1):
    """Closed loop: feed one burst, call ``run_tasks(passes)`` until a
    call does no work, then feed the next."""
    for burst in bursts:
        for device, frame in burst:
            devices[device].receive_frame(frame)
        while router.run_tasks(passes):
            pass


def drain(devices):
    """Take every transmitted frame off the devices."""
    out = {}
    for name, device in sorted(devices.items()):
        out[name] = list(device.transmitted)
        device.transmitted.clear()
    return out


def mismatches(expected, actual):
    """Frames lost, extra or corrupted between two transmit sequences;
    with equal multisets, the positions that differ."""
    if expected == actual:
        return 0
    want, got = Counter(expected), Counter(actual)
    count = max(sum((want - got).values()), sum((got - want).values()))
    if count == 0:
        count = sum(1 for a, b in zip(expected, actual) if a != b)
    return count


def _hex(side):
    return {name: [bytes(frame).hex() for frame in frames] for name, frames in side.items()}


def config_with(graph, name, config):
    """A copy of ``graph`` with element ``name`` reconfigured."""
    updated = graph.copy()
    updated.elements[name].config = config
    return updated


def update_config(update):
    kind, _name, arg = update
    if kind == "queue":
        return str(arg)
    return ", ".join(arg)


def apply_to_plane(plane, update):
    """Install ``update`` through a :class:`ControlPlane`; returns its
    SwapReport."""
    kind, name, arg = update
    if kind == "routes":
        return plane.update_routes(name, arg)
    if kind == "rules":
        return plane.update_rules(name, arg)
    return plane.apply(config_with(plane.router.graph, name, update_config(update)))


def apply_to_shards(router, graph, update):
    """Install ``update`` on a sharded plane as new config text; returns
    ``(report, new_graph)``."""
    _kind, name, _arg = update
    updated = config_with(graph, name, update_config(update))
    return router.apply_update(save_config(updated)), updated


class OutputCheck:
    """Reference output for the measured router's input.

    ``sharded`` compares under the sharding contract: per device the
    same multiset, per flow the same sequence."""

    def __init__(self, config_text, device_names, arp, sharded=False):
        self.devices = make_devices(device_names)
        router = Router(load_config(config_text, "<reference>"), devices=self.devices,
                        profile=ExecutionProfile())
        if arp:
            seed_arp(router)
        self.plane = ControlPlane(router)
        self.sharded = sharded
        self.frames = 0
        self.failed_frames = 0
        self.updates = 0
        self.failed_updates = 0
        self.seconds = 0.0  # the reference's time for the last run or update

    def run(self, bursts, measured_devices):
        """Feed the reference the bursts the measured router just took,
        then compare; returns the frames that do not match.  The
        reference's own time is kept in ``seconds``."""
        with gc_paused():
            start = perf()
            drive(self.plane.router, self.devices, bursts)
            self.seconds = perf() - start
        self.frames += sum(len(burst) for burst in bursts)
        return self.compare(measured_devices)

    def update(self, update, measured_ok):
        """Apply the update the measured router just took (or failed)."""
        self.updates += 1
        if not measured_ok:
            self.failed_updates += 1
        # The schedule is valid by construction, so a reference refusal
        # (ControlPlaneError) means the check itself is broken: let it
        # end the run.
        with gc_paused():
            start = perf()
            apply_to_plane(self.plane, update)
            self.seconds = perf() - start

    def compare(self, measured_devices):
        """Drain both sides; returns the frames that do not match."""
        expected = drain(self.devices)
        actual = drain(measured_devices)
        if self.sharded:
            if sharded_transmit_difference(_hex(expected), _hex(actual)) is None:
                failed = 0
            else:
                failed = max(1, sum(
                    mismatches(sorted(expected[name]), sorted(actual.get(name, [])))
                    for name in expected
                ))
        else:
            failed = sum(mismatches(expected[name], actual.get(name, [])) for name in expected)
        self.failed_frames += failed
        return failed

    @property
    def attempted(self):
        return self.frames + self.updates

    @property
    def failed(self):
        return self.failed_frames + self.failed_updates
