"""The benchmark's four named workloads, generated from a seed.

Each workload is a capture the sensor reads from disk plus the
generator's ground truth: which sources are attackers.  The sensor only
ever sees the pcap; generation happens before anything is timed.

Sizes are fixed here, not per run: a later change is measured on the
same traffic.  ``scale`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: repro-sensord's dark-space setup for the Table 3 networks: the /8 is
#: unused except the monitored web-server /24.
DARK_NET = "10.0.0.0/8"
DARK_EXCLUDE = "10.10.0.0/24"
TEMPLATE_SET = "paper"
FLEET_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str  # "serial" or "fleet"
    classify: bool
    capture: str  # which generator builds the capture

    def nids_options(self) -> dict:
        """The ``SemanticNids`` keyword arguments repro-sensord passes."""
        return dict(honeypots=[], dark_networks=[DARK_NET],
                    dark_exclude=[DARK_EXCLUDE], dark_threshold=5,
                    classification_enabled=self.classify)


WORKLOADS = {w.name: w for w in (
    Workload("worm-sweep",
             "Table 3 production mix with Code Red II worms sweeping many "
             "victims; serial, classification on: stresses decode and "
             "classify, analysis is frame-cache replay",
             "serial", True, "worm-sweep"),
    Workload("benign-inspect",
             "the 5.4 benign mix with classification off: every payload is "
             "extracted and analyzed, every stream tracked and "
             "checkpointed, zero alerts expected",
             "serial", False, "benign-inspect"),
    Workload("polymorphic",
             "Table 2 ADMmutate (both decoders) and Clet instances in "
             "overlapping IP fragments: defrag, cache misses, deep matches "
             "and many journal writes",
             "serial", True, "polymorphic"),
    Workload("worm-sweep-fleet",
             "the worm-sweep capture through a 2-worker SensorFleet as "
             "repro-sensord --fleet-workers 2 runs it: the fleet-versus-"
             "serial row",
             "fleet", True, "worm-sweep"),
)}


@dataclass
class Capture:
    """A generated capture with its ground truth: every attacker must
    alert, and no other source may."""

    packets: list
    attackers: set[str] = field(default_factory=set)


def _scan(src: str, rng: random.Random, count: int, t0: float) -> list:
    """SYN probes into the dark /8 (outside the monitored /24), enough to
    cross the dark-space threshold."""
    from repro.net.layers import TCP_SYN
    from repro.net.packet import tcp_packet

    out = []
    for i in range(count):
        dst = f"10.{rng.randrange(20, 250)}.{rng.randrange(256)}." \
              f"{rng.randrange(1, 255)}"
        out.append(tcp_packet(src, dst, sport=1024 + rng.randrange(60000),
                              dport=80, flags=TCP_SYN,
                              seq=rng.randrange(1 << 32),
                              timestamp=t0 + i * 0.01))
    return out


def worm_sweep(seed: int, scale: float = 1.0) -> Capture:
    """Table 3 trace 10 (six CRII instances in a production mix with
    background radiation), plus Code Red II hosts that each exploit many
    web servers of the monitored /24.  Every exploit is a new TCP stream
    carrying the identical Figure 5 request, so analysis is one frame-cache
    miss and then replays."""
    from repro.engines import CodeRedHost
    from repro.traffic import build_table3_trace

    duration = 300.0
    trace = build_table3_trace(
        10, target_packets=max(200, int(20_000 * scale)), seed=seed,
        duration=duration)
    rng = random.Random(seed ^ 0x5EED)
    packets = list(trace.packets)
    attackers = set(trace.crii_sources)
    worms, victims = max(1, int(6 * scale)), max(2, int(20 * scale))
    for k in range(worms):
        src = f"10.{40 + k}.{rng.randrange(1, 254)}.{rng.randrange(1, 254)}"
        worm = CodeRedHost(ip=src, seed=seed + 131 * k)
        t = rng.uniform(5.0, duration / 3)
        packets.extend(worm.scan_packets(count=40, base_time=t))
        for _ in range(victims):
            t += rng.uniform(0.5, 5.0)
            victim = f"10.10.0.{rng.randrange(2, 250)}"
            packets.extend(worm.exploit_packets(victim, base_time=t))
        attackers.add(src)
    packets.sort(key=lambda p: p.timestamp)
    return Capture(packets, attackers)


def benign_inspect(seed: int, scale: float = 1.0) -> Capture:
    """The 5.4 benign month, scaled down; nothing in it may alert."""
    from repro.traffic import month_of_traffic

    packets, _ = month_of_traffic(
        seed=seed, payload_bytes=max(4096, int(600_000 * scale)))
    return Capture(packets, set())


def polymorphic(seed: int, scale: float = 1.0) -> Capture:
    """Table 2 campaigns: each ADMmutate or Clet instance of the classic
    execve payload rides the 5.2 generic overflow request from its own
    attacker, segmented at a small MSS, to a few victims, and every
    attack datagram is split into overlapping IP fragments with a forged
    duplicate (the fragment-overlap evasion).  A light benign mix runs
    underneath.  Each attacker first scans the dark /8, so classification
    forwards it."""
    from repro.engines import AdmMutateEngine, CletEngine, get_shellcode
    from repro.engines.exploit import generic_overflow_request
    from repro.net.wire import Host, Wire
    from repro.traffic import BenignMixGenerator, apply_evasion

    rng = random.Random(seed ^ 0xAD3)
    shellcode = get_shellcode("classic-execve").assemble()
    adm = AdmMutateEngine(seed=seed)
    clet = CletEngine(seed=seed + 1)
    background = BenignMixGenerator(seed=seed, mean_gap=0.05)
    packets = background.generate_packets(max(10, int(400 * scale)))
    attackers: set[str] = set()
    instances = max(3, int(80 * scale))
    t = 1.0
    for i in range(instances):
        kind = i % 3
        if kind == 0:
            data = adm.mutate(shellcode, instance=i, family="xor").data
        elif kind == 1:
            data = adm.mutate(shellcode, instance=i,
                              family="mov-or-and-not").data
        else:
            data = clet.mutate(shellcode, instance=i).data
        src = f"203.0.{113 + i // 250}.{1 + i % 250}"
        attackers.add(src)
        attack: list = _scan(src, rng, 6, t)
        wire = Wire(start_time=t + 0.1)
        wire.attach(attack.append)
        host = Host(ip=src, wire=wire)
        request = generic_overflow_request(data, seed=i)
        for _ in range(3):
            session = host.open_tcp(f"10.10.0.{rng.randrange(2, 250)}", 80)
            session.mss = 256
            session.send(request)
            session.close()
        packets.extend(apply_evasion("fragment-overlap", attack,
                                     seed=seed + i))
        t += rng.uniform(0.2, 0.6)
    packets.sort(key=lambda p: p.timestamp)
    return Capture(packets, attackers)


GENERATORS = {
    "worm-sweep": worm_sweep,
    "benign-inspect": benign_inspect,
    "polymorphic": polymorphic,
}


def generate(workload: Workload, seed: int, scale: float = 1.0) -> Capture:
    return GENERATORS[workload.capture](seed, scale)
