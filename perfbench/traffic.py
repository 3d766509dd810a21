"""Seeded inputs for the workloads: frame pools and update schedules.

Everything here is a pure function of the seed, and everything is built
before any timed window starts.  Frame lengths are bytes on the wire
without the CRC, so a 64-byte frame carries a 22-byte UDP payload.
"""

from __future__ import annotations

import random

from repro.classifier.ipfilter import compile_expressions
from repro.configs.firewall import (
    DNS_SERVER,
    FIREWALL_RULES,
    MAIL_SERVER,
    NEWS_FEED,
    NEWS_SERVER,
    WEB_SERVER,
)
from repro.configs.iprouter import default_interfaces
from repro.net.headers import IP_PROTO_TCP, IP_PROTO_UDP, IPHeader, build_ether_udp_packet
from repro.sim.testbed import HOST_ETHERS, host_ip

INTERFACES = default_interfaces(2)

#: Distinct frames per pool; the stream cycles through the pool.
POOL_FRAMES = 4096

#: Frame length mix of the sharded workload: (bytes, weight).
SIZE_MIX = ((64, 7), (594, 4), (1514, 1))

_UDP_OVERHEAD = 14 + 20 + 8
_TCP_OVERHEAD = 14 + 20 + 20
_FIREWALL_ETHER = b"\x00\x50\x56\x00\x00\x01" + b"\x00\x50\x56\x00\x00\x02" + b"\x08\x00"


class Stream:
    """An endless closed-loop input: ``(device, frame)`` bursts cycling
    through a fixed pool.  ``restart`` rewinds it, so every fresh router
    sees the same prefix."""

    def __init__(self, pool, burst):
        self.pool = pool
        self.burst = burst
        self.position = 0

    def restart(self):
        self.position = 0

    def next_burst(self):
        start = self.position % len(self.pool)
        burst = self.pool[start : start + self.burst]
        if len(burst) < self.burst:
            burst = burst + self.pool[: self.burst - len(burst)]
        self.position += self.burst
        return burst


def iprouter_pool(seed, flows=64, forward_share=0.9, sizes=((64, 1),)):
    """Frames for the two-interface IP router: ``flows`` UDP flows, half
    each way, with ``forward_share`` of the frames going eth0 -> host on
    eth1, and lengths drawn from the weighted ``sizes``."""
    rng = random.Random(seed)
    lengths = [length for length, weight in sizes for _ in range(weight)]
    per_direction = flows // 2
    pool = []
    for sequence in range(POOL_FRAMES):
        rx = 0 if rng.random() < forward_share else 1
        tx = 1 - rx
        flow = rng.randrange(per_direction)
        length = rng.choice(lengths)
        frame = build_ether_udp_packet(
            HOST_ETHERS[rx],
            INTERFACES[rx].ether,
            host_ip(rx),
            host_ip(tx),
            src_port=1000 + flow,
            dst_port=2000 + rx,
            payload=bytes(length - _UDP_OVERHEAD),
            identification=sequence & 0xFFFF,
        )
        pool.append((INTERFACES[rx].device, frame))
    return pool


# -- the 17-rule firewall ----------------------------------------------------


def _external(rng):
    """An outside address no firewall rule names: 10.x.y.z avoiding the
    news feed's 10.5/16."""
    second = rng.randrange(255)
    if second >= 5:
        second += 1
    return "10.%d.%d.%d" % (second, rng.randrange(256), rng.randrange(1, 255))


def _ephemeral(rng):
    return rng.randrange(1024, 65536)


def _rule_packet(index, rng):
    """``(src, dst, proto, sport, dport, ack)`` that hits rule ``index``
    of ``FIREWALL_RULES`` first."""
    ext, eph, ack = _external(rng), _ephemeral(rng), rng.random() < 0.5
    proto = IP_PROTO_TCP if rng.random() < 0.5 else IP_PROTO_UDP
    tcp, udp = IP_PROTO_TCP, IP_PROTO_UDP
    table = [
        ("172.16.%d.%d" % (rng.randrange(256), rng.randrange(1, 255)), ext, proto, eph, 25, ack),
        ("127.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)), ext, proto, eph, 53, ack),
        (ext, MAIL_SERVER, tcp, eph, 25, ack),
        (MAIL_SERVER, ext, tcp, 25, eph, True),
        (MAIL_SERVER, ext, tcp, eph, 25, False),
        (ext, MAIL_SERVER, tcp, 25, eph, True),
        (NEWS_FEED, NEWS_SERVER, tcp, eph, 119, ack),
        (NEWS_SERVER, NEWS_FEED, tcp, 119, eph, True),
        (NEWS_SERVER, NEWS_FEED, tcp, eph, 119, False),
        (ext, WEB_SERVER, tcp, eph, 80, ack),
        (WEB_SERVER, ext, tcp, 80, eph, True),
        (ext, DNS_SERVER, udp, eph, 53, False),
        (DNS_SERVER, ext, udp, 53, eph, False),
        (ext, DNS_SERVER, tcp, eph, 53, ack),
        (ext, DNS_SERVER, udp, 53, eph, False),
        (DNS_SERVER, ext, tcp, 53, eph, True),
        (ext, _external(rng), proto, eph, _ephemeral(rng), ack),
    ]
    return table[index]


def _ip_packet(src, dst, proto, sport, dport, ack, identification):
    """An IP datagram padded so its frame is 64 bytes."""
    ports = sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
    if proto == IP_PROTO_TCP:
        flags = 0x10 if ack else 0x02
        transport = ports + bytes(8) + bytes([0x50, flags]) + bytes(6) + bytes(64 - _TCP_OVERHEAD)
    else:
        payload = bytes(64 - _UDP_OVERHEAD)
        transport = ports + (8 + len(payload)).to_bytes(2, "big") + bytes(2) + payload
    header = IPHeader(
        src=src,
        dst=dst,
        protocol=proto,
        total_length=20 + len(transport),
        identification=identification,
    )
    return header.pack() + transport


def rule_matcher():
    """The firewall's rules as a first-match classifier: ``match(ip)``
    gives the index of the rule a datagram hits."""
    return compile_expressions([rule.split(None, 1)[1] for _, rule in FIREWALL_RULES])


def firewall_pool(seed):
    """Frames for the firewall bridge, each drawn to hit a uniformly
    chosen rule (the last is the deny-all), so no rule dominates.
    Returns ``(pool, rule_of_each_frame)``."""
    rng = random.Random(seed)
    matcher = rule_matcher()
    pool, rules = [], []
    for sequence in range(POOL_FRAMES):
        index = rng.randrange(len(FIREWALL_RULES))
        datagram = _ip_packet(*_rule_packet(index, rng), identification=sequence & 0xFFFF)
        hit = matcher.match(datagram)
        if hit != index:
            raise AssertionError(
                "frame for rule %s hits rule %r instead" % (FIREWALL_RULES[index][0], hit)
            )
        pool.append(("eth0", _FIREWALL_ETHER + datagram))
        rules.append(index)
    return pool, rules


# -- control-plane updates ---------------------------------------------------
#
# An update is ``(kind, target, args)``: ``("routes", element, table)``,
# ``("rules", element, patterns)`` or ``("queue", element, capacity)``.
# Every one preserves forwarding of the generated traffic, so the
# reference check holds across any schedule.

BASE_ROUTES = ["1.0.0.1/32 0", "2.0.0.1/32 0", "1.0.0.0/8 1", "2.0.0.0/8 2"]
BASE_RULES = ["12/0806 20/0001", "12/0806 20/0002", "12/0800", "-"]
QUEUE_CAPACITIES = (64, 96, 128, 192, 256)


def route_update(rng):
    """The base table shuffled, plus one to three /24 routes into
    203.0.0.0/16, which the traffic never addresses."""
    table = list(BASE_ROUTES)
    rng.shuffle(table)
    for _ in range(rng.randint(1, 3)):
        table.append("203.0.%d.0/24 %d" % (rng.randrange(1, 250), rng.randrange(3)))
    return ("routes", "rt", table)


class UpdateSchedule:
    """A seeded endless sequence of updates following a fixed ``cycle``
    of kinds, so every run of a workload interleaves reads and writes
    the same way and only the update contents depend on the seed.

    ``queues`` names the queue elements a ``"queue"`` update may resize;
    each starts at 64, the configs' capacity.
    Rule updates swap the two ARP patterns of ``c0`` or ``c1``, which
    leaves IP forwarding alone."""

    def __init__(self, seed, cycle, queues=("out0", "out1")):
        self.rng = random.Random(seed)
        self.cycle = cycle
        self.queues = queues
        self.position = 0
        self.rules = {"c0": list(BASE_RULES), "c1": list(BASE_RULES)}
        self.resizes = {name: 0 for name in queues}

    def next(self):
        kind = self.cycle[self.position % len(self.cycle)]
        self.position += 1
        if kind == "routes":
            return route_update(self.rng)
        if kind == "rules":
            name = self.rng.choice(sorted(self.rules))
            rules = self.rules[name]
            rules[0], rules[1] = rules[1], rules[0]
            return ("rules", name, list(rules))
        # Capacities step through a fixed ring, so which resizes repeat a
        # configuration already compiled does not depend on the seed.
        name = self.rng.choice(self.queues)
        self.resizes[name] += 1
        return ("queue", name, QUEUE_CAPACITIES[self.resizes[name] % len(QUEUE_CAPACITIES)])
