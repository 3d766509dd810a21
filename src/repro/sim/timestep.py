"""Time-stepped testbed simulation.

The fluid model (:mod:`repro.sim.fluid`) computes equilibria; this
simulator runs the same hardware — Tulip NICs with FIFOs and DMA rings,
a shared PCI bus, a CPU with a per-packet cost, Click queues — forward
in time, so transients (ring fill, FIFO build-up) and the discrete
drop mechanisms are visible.  The tests cross-validate its steady state
against the fluid solver.

The CPU is abstracted to a time budget per step: each forwarded packet
costs the configuration's measured per-packet nanoseconds (the same
number the fluid model uses), spent moving one frame from an RX ring
through the (abstract) forwarding path into a Click queue, and from
queue into a TX ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fluid import Outcomes
from .nic import TulipNIC
from .pci import PCIBus

_QUEUE_CAPACITY = 64


@dataclass
class _Port:
    nic: TulipNIC
    arrival_credit: float = 0.0
    queue: list = None

    def __post_init__(self):
        self.queue = []


class TimesteppedTestbed:
    """Hardware-level simulation of one configuration at one load."""

    def __init__(self, platform, cpu_ns_per_packet, frame_bytes=64):
        self.platform = platform
        self.cpu_ns = cpu_ns_per_packet
        self.frame_bytes = frame_bytes
        self.pci = PCIBus(platform.pci_bytes_per_sec)
        port_pairs = max(1, platform.nic_ports // 2)
        self.ports = [
            _Port(TulipNIC("rxtx%d" % i, self.pci, platform.line_rate_pps, frame_bytes))
            for i in range(port_pairs)
        ]
        self.queue_drops = 0
        self.forwarded = 0
        self._frame = bytes(frame_bytes)

    def run(self, input_rate_pps, duration_s, dt=20e-6):
        """Simulate ``duration_s`` of offered load; returns Outcomes."""
        per_port_rate = input_rate_pps / len(self.ports)
        steps = int(duration_s / dt)
        for _ in range(steps):
            self.pci.refill(dt)
            # Arrivals from the wire into each NIC FIFO.
            for port in self.ports:
                port.arrival_credit += per_port_rate * dt
                while port.arrival_credit >= 1.0:
                    port.nic.receive_frame(self._frame)
                    port.arrival_credit -= 1.0
            # NIC DMA engines move frames across the bus.
            for port in self.ports:
                port.nic.advance(dt)
            # The CPU: polling loop, bounded by its per-packet budget.
            cpu_budget = dt * 1e9 / self.cpu_ns
            progress = True
            while cpu_budget >= 1.0 and progress:
                progress = False
                for port in self.ports:
                    if cpu_budget < 1.0:
                        break
                    frame = port.nic.rx_dequeue()
                    if frame is None:
                        continue
                    cpu_budget -= 1.0
                    progress = True
                    if len(port.queue) >= _QUEUE_CAPACITY:
                        self.queue_drops += 1
                        continue
                    port.queue.append(frame)
                    # ToDevice side: move from queue to the TX ring when
                    # there is room (same CPU pass, cost already counted
                    # in the per-packet budget).
                    if port.queue and port.nic.tx_room() > 0:
                        port.nic.tx_enqueue(port.queue.pop(0))
            # Drain queues into TX rings opportunistically.
            for port in self.ports:
                while port.queue and port.nic.tx_room() > 0:
                    port.nic.tx_enqueue(port.queue.pop(0))

        sent = sum(p.nic.transmitted for p in self.ports)
        missed = sum(p.nic.missed_frames for p in self.ports)
        fifo = sum(p.nic.fifo_overflows for p in self.ports)
        return Outcomes(
            input_rate=input_rate_pps,
            sent=sent / duration_s,
            missed_frames=missed / duration_s,
            fifo_overflows=fifo / duration_s,
            queue_drops=self.queue_drops / duration_s,
        )


def simulate(input_rate_pps, cpu_ns_per_packet, platform, duration_s=0.05):
    """One operating point through the time-stepped simulator."""
    return TimesteppedTestbed(platform, cpu_ns_per_packet).run(input_rate_pps, duration_s)
