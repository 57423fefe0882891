"""Deterministic simulation of hypergiant frontend clusters.

Models VIPs fronting layer-7 load balancer instances with QUIC server state
machines: connection-ID generation per operator scheme, retransmission
schedules, 5-tuple or CID-aware routing, and silent discard of packets that
are inconsistent with live connection state. A seeded virtual clock makes
every scenario replayable down to identical capture bytes.

The pcap writer the simulator is given is its only sink: each connection's
response round is encoded once, held by the connection without its zero
padding, and written again, padding appended, at each resend time until the
client ACKs. With no writer, no response is built and no resend scheduled.
Ground-truth rows go only to the list or writer the simulator is given, so
probe campaigns keep none.
"""

from __future__ import annotations

import heapq
import ipaddress
import random
import sys
from collections import deque
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

# the built-in that hashlib.blake2b names; hashlib would also load OpenSSL
# through _hashlib, about 2.8 MB of a stage's peak RSS
from _blake2 import blake2b

from . import CheckedTuple, InputError
from .scid import CodecError, facebook_host_id, facebook_scid_packer
from .tables import (
    json_integer, json_number, json_object, json_string, list_of, object_of, of_type, read_json, read_profiles,
)
from .wire import MAX_CID_LENGTH, LongHeader, PacketType, WireError, encode_long_header, parse_long_header

if TYPE_CHECKING:
    # pcap loads only where a capture is written
    from .pcap import PcapWriter
    from .tables import TruthWriter

QUIC_PORT = 443
PROTO_UDP = 17
INITIAL_FILLER = b"\x5a" * 120
HANDSHAKE_FILLER = b"\x5b" * 90
DEFAULT_STATE_LIFETIME = 240.0
DEFAULT_VERSION = 0x00000001
# read per datagram or per connection; an Enum member read as a class
# attribute costs about 100 ns more than a module name
_INITIAL, _HANDSHAKE = PacketType.INITIAL, PacketType.HANDSHAKE


def client_initial_payload(dcid: bytes, scid: bytes) -> bytes:
    """A client's first Initial, zero-padded to the 1,200-byte minimum
    datagram size of RFC 9000 section 14.1."""
    return encode_long_header(_INITIAL, DEFAULT_VERSION, dcid, scid, INITIAL_FILLER).ljust(1200, b"\x00")


def client_ack_payload(server_scid: bytes, client_scid: bytes) -> bytes:
    """The unpadded client Initial that acknowledges a server's response."""
    return encode_long_header(_INITIAL, DEFAULT_VERSION, server_scid, client_scid, b"\x01")


class SimError(ValueError):
    pass


class InvalidConfig(SimError, InputError):
    """A deployment config the simulator cannot run, its server CIDs too short included."""


class NotAVip(SimError):
    pass


class ScidSchemeKind(Enum):
    FACEBOOK_V1 = "facebook_v1"
    FACEBOOK_V2 = "facebook_v2"
    CLOUDFLARE_FIXED = "cloudflare_fixed"
    ECHO_CLIENT_DCID = "echo_client_dcid"
    UNIFORM_RANDOM = "uniform_random"


# codec version field of each structured-SCID scheme
FACEBOOK_SCID_VERSIONS = {ScidSchemeKind.FACEBOOK_V1: 1, ScidSchemeKind.FACEBOOK_V2: 2}


class RoutingMode(Enum):
    FIVE_TUPLE = "five_tuple"
    CID_AWARE = "cid_aware"


class _StackProfileFields(NamedTuple):
    operator: str
    initial_rto: float
    max_retransmissions: int
    backoff_base: float = 2.0
    coalescence: bool = False
    scid_scheme: ScidSchemeKind = ScidSchemeKind.UNIFORM_RANDOM
    scid_length: int = 8
    version: int = DEFAULT_VERSION
    process_id: int = 0
    padding_policy: Optional[dict[str, int]] = None


# the largest UDP payload of an IPv4 packet: 65,535 octets less the IPv4 and UDP headers
MAX_UDP_PAYLOAD = 65_535 - 20 - 8


class StackProfile(CheckedTuple, _StackProfileFields):
    """Server stack configuration driving response behavior; with no
    padding policy, each profile gets an empty one of its own."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.initial_rto <= 0:
            raise InvalidConfig("initial_rto must be positive")
        if self.max_retransmissions < 0:
            raise InvalidConfig(f"max_retransmissions must be >= 0, got {self.max_retransmissions}")
        # a base below 1 would schedule each resend before the one it follows
        if not self.backoff_base >= 1:  # NaN included
            raise InvalidConfig(f"backoff_base must be >= 1, got {self.backoff_base}")
        # connections are keyed by server CID, so an empty one is not unique
        if not 1 <= self.scid_length <= MAX_CID_LENGTH:
            raise InvalidConfig(f"scid_length must be 1 to {MAX_CID_LENGTH}")
        if self.padding_policy is None:
            self = tuple.__new__(cls, (*self[:-1], {}))
        for category, size in self.padding_policy.items():
            if not 0 <= size <= MAX_UDP_PAYLOAD:
                raise InvalidConfig(f"padding_policy {category!r}: size must be 0 to {MAX_UDP_PAYLOAD}, got {size}")
        return self


def default_stack_profile(operator: str) -> StackProfile:
    """Stack profile for a named operator from the shipped table, whose
    simulator keys are read by the profile field table."""
    try:
        cfg = read_profiles(None)[operator]
    except KeyError as exc:
        raise InvalidConfig(f"no profile for operator {operator!r}") from exc
    return StackProfile(
        operator=operator, max_retransmissions=cfg["simulated_retransmissions"], **object_of(_PROFILE_FIELDS)(cfg)
    )


class Connection:
    """One server connection on the instance that serves it; every probe
    handshake keeps one for the state lifetime, so it carries no dict.
    `packets` holds the response round's (IPv4+UDP packet, zero padding)
    pairs while resend rounds are pending; it is None once the client ACKs
    or the last round has been written."""

    __slots__ = ("server_cid", "client_cid", "five_tuple", "instance", "expires_at", "packets")

    def __init__(
        self, server_cid: bytes, client_cid: bytes, five_tuple: tuple, instance: L7LBInstance, expires_at: float
    ):
        self.server_cid = server_cid
        self.client_cid = client_cid
        self.five_tuple = five_tuple
        self.instance = instance
        self.expires_at = expires_at
        self.packets: Optional[list[tuple[bytes, int]]] = None


class L7LBInstance(NamedTuple):
    """One layer-7 load balancer endpoint behind the cluster's VIPs; its
    table holds the live connections, keyed by server CID. Under a Facebook
    SCID scheme it packs its SCIDs with its own `facebook_scid_packer`, a
    function of (worker ID, random bits); under any other, `pack_scid` is
    None."""

    host_id: int
    connection_table: dict[bytes, Connection]
    pack_scid: Optional[Callable[[int, Optional[int]], bytes]]


# --- virtual clock -----------------------------------------------------------


class VirtualClock:
    """Event-driven clock over a heap of (time, seq, callback); identical
    schedules replay identically, since entries order by (time, seq), a
    total order while at most one entry is scheduled `first` at a time.
    Nothing is cancelled: a callback with nothing left to do returns at
    once."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, at: float, fn: Callable[[], None], first: bool = False) -> None:
        """Fire `fn` at time `at`, after the events scheduled earlier for
        that time, or with `first` before every other event at that time."""
        if at < self.now:
            raise SimError(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._heap, (at, -1 if first else self._seq, fn))
        self._seq += 1

    def run_until(self, t: float) -> None:
        """Fire all events with time <= t, then advance to t."""
        heap = self._heap
        while heap and heap[0][0] <= t:
            self.now, _, fn = heapq.heappop(heap)
            fn()
        if t > self.now:
            self.now = t


# --- routing -----------------------------------------------------------------


_MASK64 = (1 << 64) - 1
_LANE_BITS = 128  # a 64x64-bit product fits in one lane
# The lanes, written out in the host's byte order and read as 64-bit words:
# little-endian, lane i's low half is word 2i; big-endian, the last lane comes
# first and each low half second, so lane i's low half is word 2n - 1 - 2i.
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _key64(text: str) -> int:
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


class _ClusterConfigFields(NamedTuple):
    vips: list[str]
    profile: StackProfile
    l7lb_count: int = 0
    host_ids: Optional[list[int]] = None
    host_id_base: int = 0
    workers: int = 4
    routing_mode: RoutingMode = RoutingMode.FIVE_TUPLE
    state_lifetime: float = DEFAULT_STATE_LIFETIME
    name: str = ""


class ClusterConfig(CheckedTuple, _ClusterConfigFields):
    """One cluster's VIPs and L7LB instances: an explicit host-ID list, or
    `l7lb_count` sequential IDs from `host_id_base`. Checked when built, so a
    config that reads is one the simulator can run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.vips:
            raise InvalidConfig("cluster needs at least one VIP: vips is empty or vip_count is 0")
        host_ids = self.instance_host_ids()
        if not host_ids:
            raise InvalidConfig("cluster needs at least one L7LB instance")
        if len(set(host_ids)) != len(host_ids):
            raise InvalidConfig("duplicate host IDs in cluster")
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if not self.state_lifetime > 0:  # NaN included
            raise InvalidConfig("state_lifetime must be > 0")
        version = FACEBOOK_SCID_VERSIONS.get(self.profile.scid_scheme)
        if version is not None:
            # the lowest and highest IDs the cluster's SCIDs carry must fit the codec's fields
            try:
                for host_id in (min(host_ids), max(host_ids)):
                    facebook_scid_packer(version, host_id, self.profile.process_id, self.workers)
            except CodecError as exc:
                raise InvalidConfig(str(exc)) from None
        return self

    def instance_host_ids(self) -> list[int]:
        if self.host_ids is not None:
            return list(self.host_ids)
        return list(range(self.host_id_base, self.host_id_base + self.l7lb_count))


class FrontendCluster:
    """A cluster config's VIPs fronting its L7LB instances under one routing
    policy. Every VIP maps to the full instance set. The rendezvous keys hash
    the cluster's name, which defaults to its first VIP.

    The instance tables and, in CID-aware mode, the CID directory hold live
    connections only: `expire` drops each one when its state lifetime ends."""

    def __init__(self, config: ClusterConfig):
        self.vips = list(config.vips)
        self.vip_set = set(config.vips)
        # the codec version of a Facebook scheme, else None; read per handshake
        self.scid_version = version = FACEBOOK_SCID_VERSIONS.get(config.profile.scid_scheme)
        process_id, workers = config.profile.process_id, config.workers
        self.instances = [
            L7LBInstance(h, {}, None if version is None else facebook_scid_packer(version, h, process_id, workers))
            for h in config.instance_host_ids()
        ]
        self.cid_aware = config.routing_mode is RoutingMode.CID_AWARE
        self.profile = config.profile
        self.workers = config.workers
        self.state_lifetime = config.state_lifetime
        self.name = config.name or config.vips[0]
        self.by_host_id = {inst.host_id: inst for inst in self.instances}
        self.cid_directory: dict[bytes, Connection] = {}
        # every connection opened and not yet expired, oldest first
        self.connections: deque[Connection] = deque()
        # instance i's 64-bit key sits in the low half of lane i, bits 128i up
        n = len(self.instances)
        self._lanes_ones = sum(1 << (_LANE_BITS * i) for i in range(n))
        self._lanes_mask = self._lanes_ones * _MASK64
        self._lanes_golden = self._lanes_ones * 0x9E3779B97F4A7C15
        self._lanes_keys = sum(
            _key64(f"l7lb|{self.name}|{inst.host_id}") << (_LANE_BITS * i) for i, inst in enumerate(self.instances)
        )
        # the weights are read through a view of one buffer, not unpacked to a
        # tuple per call: CPython 3.11 parks a freed 20-item tuple on a free
        # list that never hands one out, up to 2,000 of them
        self._lanes_buffer = bytearray(n * _LANE_BITS // 8)
        self._lanes_weights = memoryview(self._lanes_buffer).cast("Q")[_LOW_HALVES]

    def rendezvous(self, five_tuple: tuple) -> L7LBInstance:
        """The instance whose splitmix64(instance key ^ tuple key) weight is
        highest; the first one on a tie.

        Every instance's splitmix64 runs at once, in its own 128-bit lane of
        one int: each lane is cut back to 64 bits before a multiply, so the
        product stays in the lane, and a right shift's spill from the lane
        above lands in the upper half, which the next mask or the read clears."""
        mask = self._lanes_mask
        z = ((self._lanes_keys ^ _key64("%s|%s|%s|%s|%s" % five_tuple) * self._lanes_ones) + self._lanes_golden) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        self._lanes_buffer[:] = (z ^ (z >> 31)).to_bytes(len(self._lanes_buffer), sys.byteorder)
        weights = self._lanes_weights.tolist()
        return self.instances[weights.index(max(weights))]

    def expire(self, now: float) -> None:
        """Drop every connection whose state lifetime has ended by `now`.

        The instances share one lifetime and the clock never goes back, so
        connections expire in the order they opened. An echo-scheme server
        CID can be taken over by a later connection, so a table or directory
        entry goes only while it still names the expired connection."""
        connections = self.connections
        while connections and connections[0].expires_at <= now:
            conn = connections.popleft()
            cid = conn.server_cid
            table = conn.instance.connection_table
            if table.get(cid) is conn:
                del table[cid]
            if self.cid_directory.get(cid) is conn:
                del self.cid_directory[cid]


def route(cluster: FrontendCluster, five_tuple: tuple, dcid: Optional[bytes] = None) -> L7LBInstance:
    """Pick the serving instance for a packet addressed to a cluster VIP.

    Five-tuple mode uses rendezvous hashing. CID-aware mode first honors a
    live connection entry, then the host ID of a Facebook-scheme DCID, then
    falls back to the tuple hash.
    """
    dst_ip = five_tuple[1]
    if dst_ip not in cluster.vip_set:
        raise NotAVip(f"{dst_ip} is not a VIP of this cluster")
    if cluster.cid_aware and dcid:
        conn = cluster.cid_directory.get(dcid)
        if conn is not None:
            return conn.instance
        instance = None if cluster.scid_version is None else cluster.by_host_id.get(facebook_host_id(dcid))
        if instance is not None:
            return instance
    return cluster.rendezvous(five_tuple)


# --- deployment + flood ------------------------------------------------------


class _FloodConfigFields(NamedTuple):
    sources: list[str]
    duration: float
    sessions_per_vip: Optional[int] = None
    arrival_window: float = 0.0
    ack_probability: float = 0.0
    ack_delay: float = 0.05


class FloodConfig(CheckedTuple, _FloodConfigFields):
    """Spoofed-source flood: who spoofs, how long, and whether anyone ACKs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.sources:
            raise InvalidConfig("flood needs at least one source")
        # an arrival or ACK before clock time 0 cannot be scheduled
        if self.arrival_window < 0 or self.ack_delay < 0:
            raise InvalidConfig("arrival_window and ack_delay must be >= 0")
        # either would run a flood that emits nothing
        if self.duration < 0:
            raise InvalidConfig(f"duration must be >= 0, got {self.duration}")
        if self.sessions_per_vip is not None and self.sessions_per_vip < 1:
            raise InvalidConfig(f"sessions_per_vip must be >= 1, got {self.sessions_per_vip}")
        if not 0 <= self.ack_probability <= 1:
            raise InvalidConfig(f"ack_probability must be in [0, 1], got {self.ack_probability}")
        return self


def _required(section: dict, key: str, where: str):
    if key not in section:
        raise InvalidConfig(f"{where} is missing {key!r}")
    return section[key]


def _address_range(section: dict, stem: str, where: str) -> list[str]:
    """The `{stem}_count` consecutive addresses from `{stem}_base`."""
    base = ipaddress.IPv4Address(_required(section, f"{stem}_base", where))
    return [str(base + i) for i in range(_required(section, f"{stem}_count", where))]


def _build(cls, section: dict, where: str, name_checks: bool = False):
    """`cls` from the keys of a parsed section that are its fields; the other
    keys are the ones from_dict derives fields from. A field with no default
    that the section lacks raises InvalidConfig naming it, and with
    `name_checks`, so does a check of `cls` that fails, as `where: ...`."""
    values = {}
    for name in cls._fields:
        if name in section:
            values[name] = section[name]
        elif name not in cls._field_defaults:
            raise InvalidConfig(f"{where} is missing {name!r}")
    if not name_checks:
        return cls(**values)
    try:
        return cls(**values)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{where}: {exc}") from None


_str, _int, _float = json_string, json_integer, json_number


def _ipv4(value) -> str:
    """A dotted IPv4 address, kept as written; anything else raises ValueError."""
    ipaddress.IPv4Address(_str(value))
    return value


# One table per config section: the JSON type of each key. A key is a field
# of the section's class, which holds its default, or one of the keys
# from_dict derives fields from: operator, profile, vip_base, vip_count,
# source_base and source_count.
_PROFILE_FIELDS = {
    "operator": _str,
    "initial_rto": _float,
    "max_retransmissions": _int,
    "backoff_base": _float,
    "coalescence": of_type(bool),
    "scid_scheme": ScidSchemeKind,
    "scid_length": _int,
    "version": _int,
    "process_id": _int,
    "padding_policy": lambda value: {category: _int(size) for category, size in json_object(value).items()},
}
_CLUSTER_FIELDS = {
    "operator": _str,
    "vips": list_of(_ipv4),
    "vip_base": _ipv4,
    "vip_count": _int,
    "profile": object_of(_PROFILE_FIELDS),
    "l7lb_count": _int,
    "host_ids": list_of(_int),
    "host_id_base": _int,
    "workers": _int,
    "routing_mode": RoutingMode,
    "state_lifetime": _float,
    "name": _str,
}
_FLOOD_FIELDS = {
    "sources": list_of(_ipv4),
    "source_base": _ipv4,
    "source_count": _int,
    "duration": _float,
    "sessions_per_vip": _int,
    "arrival_window": _float,
    "ack_probability": _float,
    "ack_delay": _float,
}
_DEPLOYMENT_FIELDS = {
    "operator": _str,
    "clusters": list_of(object_of(_CLUSTER_FIELDS)),
    "flood": object_of(_FLOOD_FIELDS),
    "seed": _int,
}


class _DeploymentConfigFields(NamedTuple):
    clusters: list[ClusterConfig]
    flood: Optional[FloodConfig] = None
    seed: int = 0


class DeploymentConfig(CheckedTuple, _DeploymentConfigFields):
    """Clusters with disjoint VIPs, an optional flood and the seed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.clusters:
            raise InvalidConfig("deployment needs at least one cluster")
        seen: set[str] = set()
        for vip in (vip for cluster in self.clusters for vip in cluster.vips):
            if vip in seen:
                raise InvalidConfig(f"VIP {vip} assigned to two clusters")
            seen.add(vip)
        return self

    @classmethod
    def from_json(cls, path: str | Path) -> "DeploymentConfig":
        """Read a deployment config file; invalid JSON, or a config from_dict
        rejects, raises InputError naming the file and the key."""
        return read_json(path, cls.from_dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "DeploymentConfig":
        """A config from its JSON object, every check included: each section
        is parsed by its field table and built into its class. Derived
        here are a cluster's profile (its own, whose operator defaults to the
        cluster's or the top-level `operator`, else "custom"; or the shipped
        profile of that operator), a cluster's name `cluster{i}`, and the
        `vips` and `sources` ranges for an absent or empty list."""
        raw = object_of(_DEPLOYMENT_FIELDS)(raw)
        clusters = _required(raw, "clusters", "deployment config")
        for i, c in enumerate(clusters):
            where = f"cluster {i}"
            operator = c.get("operator", raw.get("operator"))
            if "profile" in c:
                profile = {"operator": operator or "custom", **c["profile"]}
                c["profile"] = _build(StackProfile, profile, f"{where} profile", name_checks=True)
            elif operator is not None:
                try:
                    c["profile"] = default_stack_profile(operator)
                except InvalidConfig as exc:
                    raise InvalidConfig(f"{where}: {exc}") from None
            else:
                raise InvalidConfig(f"{where}: neither operator nor profile given")
            if not c.get("vips"):
                c["vips"] = _address_range(c, "vip", where)
            clusters[i] = _build(ClusterConfig, {"name": f"cluster{i}", **c}, where, name_checks=True)
        if "flood" in raw:
            flood = raw["flood"]
            if not flood.get("sources"):
                flood["sources"] = _address_range(flood, "source", "flood")
            raw["flood"] = _build(FloodConfig, flood, "flood")
        return _build(cls, raw, "deployment config")


class SessionTruth(NamedTuple):
    """Ground truth for one served handshake."""

    vip: str
    source: str
    source_port: int
    operator: str
    server_scid: bytes
    client_dcid: bytes
    client_scid: bytes
    host_id: int
    worker_id: Optional[int]


class DeploymentSimulator:
    """Single-threaded deterministic event loop over one deployment.

    Server datagrams go to `capture`. With none, the simulator builds no
    response and schedules no resend, since nothing could observe either. A
    `SessionTruth` row per served handshake is appended to `truth` when it is
    given: a list, or a writer that streams each row to its files.
    """

    def __init__(
        self,
        config: DeploymentConfig,
        capture: Optional[PcapWriter] = None,
        truth: Optional[list[SessionTruth] | TruthWriter] = None,
    ):
        self.config = config
        self.clock = VirtualClock()
        self.rng = random.Random(config.seed)
        self.clusters = [FrontendCluster(c) for c in config.clusters]
        self.vip_map = {vip: cluster for cluster in self.clusters for vip in cluster.vips}
        self._capture = capture
        self.truth = truth

    # -- plumbing --

    def cluster_for(self, vip: str) -> FrontendCluster:
        cluster = self.vip_map.get(vip)
        if cluster is None:
            raise NotAVip(f"{vip} is not a configured VIP")
        return cluster

    # -- server behavior --

    def _generate_scid(
        self, cluster: FrontendCluster, instance: L7LBInstance, client_initial: LongHeader
    ) -> tuple[bytes, Optional[int]]:
        profile = cluster.profile
        scheme = profile.scid_scheme
        pack_scid = instance.pack_scid
        for _ in range(8):
            worker_id: Optional[int] = None
            if pack_scid is not None:
                worker_id = self.rng.randrange(cluster.workers)
                scid = pack_scid(worker_id, self.rng.getrandbits(64))
            elif scheme is ScidSchemeKind.CLOUDFLARE_FIXED:
                scid = b"\x01" + self.rng.randbytes(profile.scid_length - 1)
            elif scheme is ScidSchemeKind.ECHO_CLIENT_DCID:
                prefix = client_initial.dcid[:8]
                if len(prefix) < 8:
                    prefix += self.rng.randbytes(8 - len(prefix))
                return prefix, None
            else:
                scid = self.rng.randbytes(profile.scid_length)
            # unique among the instance's live connections
            if scid not in instance.connection_table:
                return scid, worker_id
        raise InvalidConfig(
            f"{cluster.name}: could not generate a unique server CID (profile scid_length {profile.scid_length})"
        )

    def _response_round(self, profile: StackProfile, conn: Connection) -> list[tuple[bytes, int]]:
        """The (packet, padding) pairs of one response round (Initial +
        Handshake), from the VIP and port the client addressed back to the
        client: each payload is zero-padded up to its category's size in the
        padding policy, and the packet leaves those zeros to the writer. IP
        ID 0 and TTL 64 leave the checksums depending only on addresses,
        ports and payload, so every round's packets are the same bytes."""
        from .pcap import build_ipv4_udp

        dcid, scid = conn.client_cid, conn.server_cid
        initial = encode_long_header(_INITIAL, profile.version, dcid, scid, INITIAL_FILLER)
        handshake = encode_long_header(_HANDSHAKE, profile.version, dcid, scid, HANDSHAKE_FILLER)
        if profile.coalescence:
            bodies = ((initial + handshake, "Initial & Handshake"),)
        else:
            bodies = ((initial, "Initial"), (handshake, "Handshake"))
        client_ip, vip, client_port, vip_port, _ = conn.five_tuple
        policy = profile.padding_policy
        pairs = []
        for body, category in bodies:
            padding = max(policy.get(category, 0) - len(body), 0)
            pairs.append((build_ipv4_udp(vip, client_ip, vip_port, client_port, body, padding), padding))
        return pairs

    def serve_initial(
        self,
        cluster: FrontendCluster,
        instance: L7LBInstance,
        client_initial: LongHeader,
        five_tuple: tuple,
    ) -> Connection:
        """Open a connection for the Initial that arrived on `five_tuple` and,
        with a capture, write the response schedule: one immediate round plus
        up to max_retransmissions resend rounds at offsets initial_rto *
        backoff_base**k, stopped by a client ACK. The round is built once;
        every resend repeats its bytes at the resend's time."""
        profile = cluster.profile
        now = self.clock.now
        scid, worker_id = self._generate_scid(cluster, instance, client_initial)
        conn = Connection(scid, client_initial.scid, five_tuple, instance, now + cluster.state_lifetime)
        instance.connection_table[scid] = conn
        cluster.connections.append(conn)
        # route() reads the directory only in CID-aware mode
        if cluster.cid_aware:
            cluster.cid_directory[scid] = conn
        if self.truth is not None:
            client_ip, vip, client_port = five_tuple[:3]
            self.truth.append(
                SessionTruth(
                    vip=vip,
                    source=client_ip,
                    source_port=client_port,
                    operator=profile.operator,
                    server_scid=scid,
                    client_dcid=client_initial.dcid,
                    client_scid=client_initial.scid,
                    host_id=instance.host_id,
                    worker_id=worker_id,
                )
            )

        if self._capture is not None:
            conn.packets = self._response_round(profile, conn)
            self._emit_round(conn, profile, now, 0)
        return conn

    def _emit_round(self, conn: Connection, profile: StackProfile, start: float, k: int) -> None:
        """Write round k of the schedule that opened at `start` at the
        current time, then schedule round k + 1, or drop the packets after
        the last round. A round whose connection was ACKed writes nothing.
        A method, not a closure in serve_initial: a closure that schedules
        itself is a reference cycle, which would keep each connection's
        packets until the garbage collector runs."""
        packets = conn.packets
        if packets is None:
            return
        now = self.clock.now
        for packet, padding in packets:
            self._capture.write(now, packet, padding)
        if k < profile.max_retransmissions:
            at = start + profile.initial_rto * profile.backoff_base**k
            self.clock.schedule(at, lambda: self._emit_round(conn, profile, start, k + 1))
        else:
            conn.packets = None

    def deliver(self, src_ip: str, vip: str, src_port: int, payload: bytes) -> Optional[Connection]:
        """Process one client datagram from (src_ip, src_port) to a VIP's
        QUIC port at the current time, after the connections that expired by
        then are dropped; returns the connection it opened, if any.

        The first packet's DCID is looked up on the instance it routes to. An
        unknown CID opens a connection only for an Initial. A fresh Initial
        reusing a live server CID, from another client CID or 5-tuple, is
        silently discarded. Any other packet on a live CID is a consistent
        continuation, which confirms the handshake and drops the packets its
        pending resends would write."""
        cluster = self.cluster_for(vip)
        cluster.expire(self.clock.now)
        # only the first packet of a datagram is read; one that does not
        # parse, padding or an empty payload included, is no packet
        try:
            packet = parse_long_header(payload)
        except WireError:
            return None
        tup = (src_ip, vip, src_port, QUIC_PORT, PROTO_UDP)
        instance = route(cluster, tup, dcid=packet.dcid)
        conn = instance.connection_table.get(packet.dcid)
        initial = packet.packet_type is _INITIAL
        if conn is None:
            return self.serve_initial(cluster, instance, packet, tup) if initial else None
        # every packet but a fresh Initial continues the connection
        if not initial or (packet.scid == conn.client_cid and tup == conn.five_tuple):
            conn.packets = None
        return None

    # -- flood scenario --

    def run_flood(self) -> None:
        """Run the config's flood to its end: a capture record per server
        datagram, and a truth row per served handshake. Deterministic given
        (config, seed)."""
        flood = self.config.flood
        vips = [vip for cluster in self.clusters for vip in cluster.vips]
        arrivals: list[tuple[float, str, str]] = []  # (time, source, vip)
        if flood.sessions_per_vip is not None:
            source_cycle = 0
            for vip in vips:
                for _ in range(flood.sessions_per_vip):
                    src = flood.sources[source_cycle % len(flood.sources)]
                    source_cycle += 1
                    at = self.rng.uniform(0.0, flood.arrival_window) if flood.arrival_window else 0.0
                    arrivals.append((at, src, vip))
        else:
            for src in flood.sources:
                vip = self.rng.choice(vips)
                at = self.rng.uniform(0.0, flood.arrival_window) if flood.arrival_window else 0.0
                arrivals.append((at, src, vip))
        # Only the next arrival waits on the clock, scheduled first at its
        # time: each fires before any other event at its time, in sorted
        # order, as if all were scheduled up front. The list is popped from
        # its end, so it is reversed after the stable sort.
        arrivals.sort(key=lambda a: a[0])
        arrivals.reverse()

        def arrive() -> None:
            _, src, vip = arrivals.pop()
            if arrivals:
                self.clock.schedule(arrivals[-1][0], arrive, first=True)
            src_port = self.rng.randint(1024, 65535)
            dcid = self.rng.randbytes(8)
            scid = self.rng.randbytes(8)
            body = client_initial_payload(dcid, scid)
            conn = self.deliver(src, vip, src_port, body)
            # the ACK draw happens whether or not a connection opened, so
            # the random stream does not depend on it
            if flood.ack_probability > 0 and self.rng.random() < flood.ack_probability and conn is not None:
                ack_body = client_ack_payload(conn.server_cid, scid)
                self.clock.schedule(
                    self.clock.now + flood.ack_delay, lambda: self.deliver(src, vip, src_port, ack_body)
                )

        # a flood has at least one source and a deployment at least one VIP
        self.clock.schedule(arrivals[-1][0], arrive, first=True)
        self.clock.run_until(flood.duration)
