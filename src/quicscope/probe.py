"""Active measurement campaigns over a pluggable transport.

The default transport is an in-process loopback onto the deployment
simulator; a raw-network adapter exists for lab use but is off by default,
rate limited, and deliberately minimal (it observes the server's first
response without completing the cryptographic handshake). Campaigns cover
host-ID harvesting, discovery curves, Jaccard clustering of VIPs, and
load-balancer-type detection via connection-state probing. None of this
should be pointed at anycast targets: a follow-up probe may reach a
different site entirely.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Protocol

from . import CheckedTuple, PreconditionError
from .scid import facebook_host_id
from .sim import QUIC_PORT, DeploymentSimulator, NotAVip, client_initial_payload
from .wire import WireError, parse_long_header

DEFAULT_PROBE_INTERVAL = 1.0
DEFAULT_MAX_WAIT = 600.0
# detect_lb_type's bound on follow-up handshakes per VIP, max_wait / probe_interval
MAX_FOLLOW_UPS = 100_000
DEFAULT_JACCARD_THRESHOLD = 0.5
FAILURE_ABORT_RATE = 0.5
FAILURE_ABORT_MIN_ATTEMPTS = 20
# the client address of simulated handshakes, from TEST-NET-1 (RFC 5737)
SIMULATOR_CLIENT_IP = "192.0.2.99"
# RawNetworkTransport binds every local address, waits this long for a
# response and leaves at least this gap between two sends
RAW_BIND_IP = "0.0.0.0"
RAW_TIMEOUT = 2.0
RAW_MIN_GAP = 0.2


class ProbeError(RuntimeError, PreconditionError):
    pass


class TransportUnavailable(ProbeError):
    pass


class EmptyHarvest(ProbeError):
    pass


class ExcessiveFailureRate(ProbeError):
    pass


class Transport(Protocol):
    """Minimal surface the campaign logic needs from any transport. A
    handshake returns the server's SCID, or None when no response came."""

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...

    def handshake(
        self,
        vip: str,
        src_port: int,
        dcid: Optional[bytes] = None,
        scid: Optional[bytes] = None,
    ) -> Optional[bytes]: ...


class SimulatorTransport:
    """Loopback transport driving a DeploymentSimulator on its virtual clock.

    A handshake is one deliver() of the client Initial from
    SIMULATOR_CLIENT_IP; it returns the SCID of the connection that opened,
    which the server's response carries. No ACK follows.
    """

    def __init__(self, sim: DeploymentSimulator, seed: int = 0):
        self.sim = sim
        self.rng = random.Random(seed)

    def now(self) -> float:
        return self.sim.clock.now

    def sleep(self, seconds: float) -> None:
        self.sim.clock.run_until(self.sim.clock.now + seconds)

    def handshake(
        self,
        vip: str,
        src_port: int,
        dcid: Optional[bytes] = None,
        scid: Optional[bytes] = None,
    ) -> Optional[bytes]:
        if dcid is None:
            dcid = self.rng.randbytes(8)
        if scid is None:
            scid = self.rng.randbytes(8)
        try:
            conn = self.sim.deliver(SIMULATOR_CLIENT_IP, vip, src_port, client_initial_payload(dcid, scid))
        except NotAVip as exc:
            raise TransportUnavailable(str(exc)) from exc
        return None if conn is None else conn.server_cid


class RawNetworkTransport:
    """Best-effort UDP adapter for lab targets. Off by default, rate limited.

    Sends a padded Initial and reports the SCID of whatever long-header
    response arrives. It does not complete the TLS handshake, so production
    stacks that require a valid ClientHello will not answer it; use it only
    against endpoints you operate. Not part of the acceptance surface.
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self._last_send = 0.0

    def now(self) -> float:
        import time

        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        import time

        time.sleep(seconds)

    def handshake(
        self,
        vip: str,
        src_port: int,
        dcid: Optional[bytes] = None,
        scid: Optional[bytes] = None,
    ) -> Optional[bytes]:
        import socket
        import time

        gap = RAW_MIN_GAP - (time.monotonic() - self._last_send)
        if gap > 0:
            time.sleep(gap)
        if dcid is None:
            dcid = self.rng.randbytes(8)
        if scid is None:
            scid = self.rng.randbytes(8)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind((RAW_BIND_IP, src_port))
            sock.settimeout(RAW_TIMEOUT)
            self._last_send = time.monotonic()
            sock.sendto(client_initial_payload(dcid, scid), (vip, QUIC_PORT))
            data, _addr = sock.recvfrom(65535)
        except OSError:
            return None
        finally:
            sock.close()
        try:
            return parse_long_header(data).scid
        except WireError:
            return None


class PortStrategy(Enum):
    DECREASING_FROM_MAX = "decreasing_from_max"
    RANDOM_SEEDED = "random_seeded"


def port_sequence(strategy: PortStrategy, n: int, seed: int = 0) -> Iterator[int]:
    """n client ports: down from 65535, wrapping from 1024 back to 65535, or
    drawn from 1024 to 65535 by a generator seeded with `seed`."""
    span = 65535 - 1024 + 1
    if strategy == PortStrategy.DECREASING_FROM_MAX:
        for i in range(n):
            yield 65535 - i % span
    else:
        rng = random.Random(seed)
        for _ in range(n):
            yield rng.randint(1024, 65535)


class HostIdHarvest:
    """Decoded host IDs of one VIP, in handshake order; with no
    observations, each harvest starts an empty list of its own."""

    __slots__ = ("vip", "observations", "attempts", "failures")

    def __init__(
        self, vip: str, observations: Optional[list[tuple[int, int]]] = None, attempts: int = 0, failures: int = 0
    ):
        self.vip = vip
        self.observations = [] if observations is None else observations
        self.attempts = attempts
        self.failures = failures

    @property
    def unique_ids(self) -> set[int]:
        return {host_id for _, host_id in self.observations}


def harvest_host_ids(
    vip: str,
    n: int,
    transport: Transport,
    port_strategy: PortStrategy = PortStrategy.DECREASING_FROM_MAX,
    inter_probe_gap: float = 0.0,
    seed: int = 0,
) -> HostIdHarvest:
    """Complete up to n handshakes against one VIP, varying the client port,
    and decode the host ID out of each server SCID as a Facebook SCID.

    Individual failures (timeouts, undecodable SCIDs) are recorded and do not
    stop the harvest, but a failure rate above 50% aborts the campaign.
    Both n and inter_probe_gap are checked before the first handshake.
    """
    if n < 1:
        raise ProbeError("need at least one handshake")
    # a negative or NaN gap would be slept as no gap at all, an infinite
    # one as a jump past every pending event
    if not 0 <= inter_probe_gap < math.inf:
        raise ProbeError(f"inter_probe_gap must be a finite number >= 0, got {inter_probe_gap}")
    harvest = HostIdHarvest(vip=vip)
    for index, port in enumerate(port_sequence(port_strategy, n, seed=seed)):
        if inter_probe_gap and index:
            transport.sleep(inter_probe_gap)
        server_scid = transport.handshake(vip, port)
        harvest.attempts += 1
        host_id = None if server_scid is None else facebook_host_id(server_scid)
        if host_id is None:
            harvest.failures += 1
        else:
            harvest.observations.append((index, host_id))
        if (
            harvest.attempts >= FAILURE_ABORT_MIN_ATTEMPTS
            and harvest.failures / harvest.attempts > FAILURE_ABORT_RATE
        ):
            raise ExcessiveFailureRate(
                f"{harvest.failures}/{harvest.attempts} probes to {vip} failed"
            )
    return harvest


def discovery_curve(harvest: HostIdHarvest) -> list[tuple[int, float]]:
    """Fraction of the final unique host-ID set discovered after each
    handshake; monotone non-decreasing, ends at exactly 1.0."""
    final = len(harvest.unique_ids)
    if final == 0:
        raise EmptyHarvest(f"no host IDs harvested from {harvest.vip}")
    seen: set[int] = set()
    by_index = {index: host_id for index, host_id in harvest.observations}
    curve = []
    for attempt in range(harvest.attempts):
        host_id = by_index.get(attempt)
        if host_id is not None:
            seen.add(host_id)
        curve.append((attempt + 1, len(seen) / final))
    return curve


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union


class ClusterReport(NamedTuple):
    """VIP partition under host-ID set similarity."""

    vips: list[str]
    signatures: dict[str, frozenset]
    clusters: list[list[str]]
    threshold: float

    def jaccard(self, vip_a: str, vip_b: str) -> float:
        return jaccard(self.signatures[vip_a], self.signatures[vip_b])


def check_threshold(threshold: float) -> None:
    """Raise ProbeError unless `threshold` is a Jaccard similarity, in [0, 1]."""
    if not 0 <= threshold <= 1:
        raise ProbeError(f"threshold must be in [0, 1], got {threshold}")


def cluster_vips(
    harvests: dict[str, HostIdHarvest] | Iterable[HostIdHarvest],
    threshold: float = DEFAULT_JACCARD_THRESHOLD,
) -> ClusterReport:
    """Partition VIPs into connected components under Jaccard >= threshold.

    Identical host-ID sets are deduplicated before the pairwise pass, which
    keeps hypergiant-scale inputs (thousands of VIPs sharing a few hundred
    distinct sets) fast.
    """
    check_threshold(threshold)
    if not isinstance(harvests, dict):
        harvests = {h.vip: h for h in harvests}
    if len(harvests) < 2:
        raise ProbeError("clustering needs at least two VIPs")
    vips = sorted(harvests)
    signatures = {vip: frozenset(harvests[vip].unique_ids) for vip in vips}
    distinct = sorted({signatures[v] for v in vips}, key=sorted)
    parent = list(range(len(distinct)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            if jaccard(distinct[i], distinct[j]) >= threshold:
                parent[find(i)] = find(j)
    sig_index = {s: i for i, s in enumerate(distinct)}
    groups: dict[int, list[str]] = {}
    for vip in vips:
        groups.setdefault(find(sig_index[signatures[vip]]), []).append(vip)
    clusters = sorted(groups.values(), key=lambda g: g[0])
    return ClusterReport(vips=vips, signatures=signatures, clusters=clusters, threshold=threshold)


class LbType(Enum):
    CID_AWARE = "cid_aware"
    FIVE_TUPLE = "five_tuple"
    INCONCLUSIVE = "inconclusive"


class _LbTypeVerdictFields(NamedTuple):
    kind: LbType
    fail_window: Optional[float] = None
    held_host_id: Optional[int] = None
    followup_host_id: Optional[int] = None


class LbTypeVerdict(CheckedTuple, _LbTypeVerdictFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == LbType.CID_AWARE and not (self.fail_window and self.fail_window > 0):
            raise ProbeError("CID-aware verdict requires a positive fail window")
        return self


def check_lbtype_timing(probe_interval: float, max_wait: float) -> None:
    """Raise ProbeError unless both are positive and finite and allow at most
    MAX_FOLLOW_UPS follow-ups. detect_lb_type sleeps probe_interval between
    follow-ups until max_wait has passed, so a zero, negative or NaN interval
    never advances the clock and probes forever, a tiny one probes for hours
    against a CID-aware VIP, and a wait that is not positive never probes."""
    for name, value in (("probe_interval", probe_interval), ("max_wait", max_wait)):
        if not 0 < value < math.inf:
            raise ProbeError(f"{name} must be a positive finite number of seconds, got {value}")
    if max_wait / probe_interval > MAX_FOLLOW_UPS:
        raise ProbeError(
            f"max_wait / probe_interval must be at most {MAX_FOLLOW_UPS} follow-ups per VIP, "
            f"got {max_wait} / {probe_interval}"
        )


def detect_lb_type(
    vip: str,
    transport: Transport,
    probe_interval: float = DEFAULT_PROBE_INTERVAL,
    max_wait: float = DEFAULT_MAX_WAIT,
    seed: int = 0,
) -> LbTypeVerdict:
    """Infer the load-balancer type of a VIP from connection-state probing.

    Complete a handshake, hold the connection idle, and once per
    probe_interval attempt a follow-up handshake from a fresh 5-tuple and
    client CID while reusing the held server CID. An immediate follow-up
    success indicates 5-tuple balancing; a window of timeouts that ends in a
    success indicates CID-aware balancing (the window, from the held
    handshake to that success, tracks the server's connection-state
    lifetime). A single timeout between successes is a
    5-tuple collision, not a window: under 5-tuple balancing the fresh tuple
    can hash onto the instance holding the idle connection, which discards
    it; probing then goes on. Unsuitable for anycast targets.
    """
    check_lbtype_timing(probe_interval, max_wait)
    rng = random.Random(seed)
    first_port = rng.randint(40000, 65000)
    held_scid = transport.handshake(vip, first_port)
    if held_scid is None:
        raise TransportUnavailable(f"initial handshake with {vip} failed")
    held_host = facebook_host_id(held_scid)
    start = transport.now()
    failures = 0
    port = first_port
    while transport.now() - start < max_wait:
        transport.sleep(probe_interval)
        port = port - 1 if port > 1024 else 65535
        server_scid = transport.handshake(vip, port, dcid=held_scid, scid=rng.randbytes(8))
        if server_scid is None:
            failures += 1
            continue
        if failures == 1:
            failures = 0
            continue
        followup_host = facebook_host_id(server_scid)
        if failures == 0:
            return LbTypeVerdict(
                LbType.FIVE_TUPLE,
                held_host_id=held_host,
                followup_host_id=followup_host,
            )
        return LbTypeVerdict(
            LbType.CID_AWARE,
            fail_window=transport.now() - start,
            held_host_id=held_host,
            followup_host_id=followup_host,
        )
    return LbTypeVerdict(LbType.INCONCLUSIVE, held_host_id=held_host)

