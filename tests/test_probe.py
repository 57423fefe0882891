"""Active probing on the simulator loopback: harvests, discovery curves,
Jaccard clustering, and load-balancer-type detection."""


import gc
import io
import random
import socket
import time

import pytest

from quicscope.probe import (
    MAX_FOLLOW_UPS,
    EmptyHarvest,
    ExcessiveFailureRate,
    HostIdHarvest,
    LbType,
    PortStrategy,
    RAW_BIND_IP,
    RAW_MIN_GAP,
    RAW_TIMEOUT,
    SIMULATOR_CLIENT_IP,
    ProbeError,
    RawNetworkTransport,
    SimulatorTransport,
    TransportUnavailable,
    check_lbtype_timing,
    cluster_vips,
    detect_lb_type,
    discovery_curve,
    harvest_host_ids,
    jaccard,
    port_sequence,
)
from quicscope.pcap import PcapWriter
from quicscope.sim import (
    ClusterConfig,
    DeploymentConfig,
    DeploymentSimulator,
    RoutingMode,
    client_ack_payload,
    client_initial_payload,
    default_stack_profile,
)
from quicscope.wire import parse_long_header

from conftest import NO_PACKET_PAYLOADS, harvest_from_ids, written_datagrams


def make_sim(l7lb_count=40, mode=RoutingMode.FIVE_TUPLE, operator="Facebook", vip_count=1, seed=5, capture=None):
    cfg = DeploymentConfig(
        clusters=[
            ClusterConfig(
                vips=[f"203.0.113.{i + 1}" for i in range(vip_count)],
                l7lb_count=l7lb_count,
                routing_mode=mode,
                profile=default_stack_profile(operator),
            )
        ],
        seed=seed,
    )
    return DeploymentSimulator(cfg, capture=capture)


class TestHarvest:
    def test_single_handshake(self):
        sim = make_sim()
        transport = SimulatorTransport(sim, seed=1)
        harvest = harvest_host_ids("203.0.113.1", 1, transport)
        assert harvest.attempts == 1
        assert len(harvest.observations) == 1
        assert len(harvest.unique_ids) == 1

    def test_ids_stay_within_cluster_set(self):
        sim = make_sim(l7lb_count=30)
        transport = SimulatorTransport(sim, seed=2)
        harvest = harvest_host_ids("203.0.113.1", 500, transport)
        assert harvest.unique_ids <= set(sim.clusters[0].by_host_id)
        assert harvest.failures == 0

    def test_uniform_discovery_expectation(self):
        # 1000 draws over 400 instances: expected unique fraction
        # 1 - (1 - 1/400)^1000 ~ 0.918; seeded run must be within +-0.05
        sim = make_sim(l7lb_count=400)
        transport = SimulatorTransport(sim, seed=3)
        harvest = harvest_host_ids("203.0.113.1", 1000, transport)
        expected = 1 - (1 - 1 / 400) ** 1000
        assert abs(len(harvest.unique_ids) / 400 - expected) < 0.05

    def test_handshakes_leave_no_reference_cycles(self):
        # refcounting alone must free what each handshake makes; a cycle
        # would hold it until the garbage collector runs
        sim = make_sim(l7lb_count=30)
        transport = SimulatorTransport(sim, seed=4)
        gc.collect()
        gc.disable()
        try:
            harvest_host_ids("203.0.113.1", 50, transport)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_harvest_leaves_the_heap_empty(self):
        # with no capture nothing could observe a resend, so none is scheduled
        sim = make_sim(l7lb_count=30)
        harvest_host_ids("203.0.113.1", 300, SimulatorTransport(sim, seed=4))
        assert sim.clock._heap == []

    def test_ack_drops_the_response_packets(self, tmp_path):
        # an ACK lets go of the connection's response bytes at once; the
        # pending round still fires, and writes and schedules nothing
        buffer = io.BytesIO()
        sim = make_sim(l7lb_count=30, capture=PcapWriter(buffer))
        client = ("192.0.2.1", "203.0.113.1", 5000)
        conn = sim.deliver(*client, client_initial_payload(b"d" * 8, b"c" * 8))
        assert len(conn.packets) == 2
        sim.deliver(*client, client_ack_payload(conn.server_cid, b"c" * 8))
        assert conn.packets is None
        assert len(sim.clock._heap) == 1
        sim.clock.run_until(sim.clusters[0].profile.initial_rto)
        assert sim.clock._heap == []
        assert [d.timestamp for d in written_datagrams(buffer, tmp_path / "capture.pcap")] == [0.0, 0.0]

    @pytest.mark.parametrize("mode", [RoutingMode.FIVE_TUPLE, RoutingMode.CID_AWARE])
    def test_state_held_for_one_lifetime(self, mode):
        # one handshake a second against the 240 s state lifetime: by the
        # last, at clock 999 s, those opened at 760 s or later are live
        sim = make_sim(l7lb_count=30, mode=mode)
        harvest_host_ids("203.0.113.1", 1000, SimulatorTransport(sim, seed=4), inter_probe_gap=1.0)
        cluster = sim.clusters[0]
        assert sim.clock.now == 999.0
        assert sum(len(instance.connection_table) for instance in cluster.instances) == 240
        assert len(cluster.cid_directory) == (240 if mode is RoutingMode.CID_AWARE else 0)
        assert [conn.expires_at for conn in cluster.connections] == [float(t + 240) for t in range(760, 1000)]

    @pytest.mark.parametrize("mode", [RoutingMode.FIVE_TUPLE, RoutingMode.CID_AWARE])
    def test_cid_directory_only_for_cid_aware_routing(self, mode):
        # route() reads the directory in CID-aware mode alone
        sim = make_sim(l7lb_count=30, mode=mode)
        harvest_host_ids("203.0.113.1", 50, SimulatorTransport(sim, seed=4))
        directory = sim.clusters[0].cid_directory
        assert len(directory) == (50 if mode is RoutingMode.CID_AWARE else 0)

    def test_unknown_vip_unavailable(self):
        sim = make_sim()
        transport = SimulatorTransport(sim)
        with pytest.raises(TransportUnavailable):
            harvest_host_ids("8.8.8.8", 5, transport)

    def test_undecodable_scids_abort_when_dominant(self):
        # Google echoes the client DCID, which never decodes as a host ID
        sim = make_sim(operator="Google")
        transport = SimulatorTransport(sim, seed=4)
        with pytest.raises(ExcessiveFailureRate):
            harvest_host_ids("203.0.113.1", 40, transport)

    @pytest.mark.parametrize("operator", ["Facebook", "Google", "Cloudflare"])
    def test_each_handshake_returns_the_scid_of_its_response(self, tmp_path, operator):
        # on a simulator with a capture, the response written for a handshake
        # carries the SCID the handshake returned; a follow-up that reuses the
        # held server CID from a fresh 5-tuple is discarded, with no response
        buffer = io.BytesIO()
        sim = make_sim(l7lb_count=8, mode=RoutingMode.CID_AWARE, operator=operator, capture=PcapWriter(buffer))
        transport = SimulatorTransport(sim, seed=4)
        vip = "203.0.113.1"
        returned = {port: transport.handshake(vip, port) for port in range(40000, 40030)}
        followups = {port: transport.handshake(vip, port, dcid=returned[40000]) for port in range(41000, 41005)}
        assert None not in returned.values()
        assert list(followups.values()) == [None] * 5
        responses: dict[int, set[bytes]] = {}
        for d in written_datagrams(buffer, tmp_path / "capture.pcap"):
            assert (d.timestamp, d.src_ip, d.dst_ip) == (0.0, vip, SIMULATOR_CLIENT_IP)
            responses.setdefault(d.dst_port, set()).add(parse_long_header(d.payload).scid)
        assert responses == {port: {scid} for port, scid in returned.items()}

    def test_campaign_runs_all_targets(self):
        sim = make_sim(vip_count=3, l7lb_count=10)
        transport = SimulatorTransport(sim, seed=6)
        harvests = {vip: harvest_host_ids(vip, 50, transport) for vip in sim.clusters[0].vips}
        assert set(harvests) == set(sim.clusters[0].vips)
        for h in harvests.values():
            assert h.unique_ids <= set(sim.clusters[0].by_host_id)


class TestRawNetworkTransport:
    """The UDP adapter against a fake socket, so no packet leaves the host."""

    VIP = "203.0.113.1"

    @pytest.fixture
    def fake(self, monkeypatch):
        class FakeSocket:
            opened = []
            reply = b""  # the payload recvfrom returns, or an exception it raises

            def __init__(self, family, kind):
                self.kind = (family, kind)
                self.sent, self.bound, self.timeout, self.closed = [], None, None, False
                FakeSocket.opened.append(self)

            def bind(self, address):
                self.bound = address

            def settimeout(self, timeout):
                self.timeout = timeout

            def sendto(self, payload, address):
                self.sent.append((payload, address))

            def recvfrom(self, size):
                if isinstance(self.reply, Exception):
                    raise self.reply
                return self.reply, (TestRawNetworkTransport.VIP, 443)

            def close(self):
                self.closed = True

        clock, sleeps = [100.0], []
        monkeypatch.setattr(socket, "socket", FakeSocket)
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(time, "sleep", sleeps.append)
        return FakeSocket, clock, sleeps

    def server_response(self, tmp_path):
        """The first datagram of a simulated Facebook server's response round,
        and the server CID it carries."""
        buffer = io.BytesIO()
        sim = make_sim(capture=PcapWriter(buffer))
        conn = sim.deliver("192.0.2.1", self.VIP, 5000, client_initial_payload(b"d" * 8, b"c" * 8))
        return written_datagrams(buffer, tmp_path / "capture.pcap")[0].payload, conn.server_cid

    def test_handshake_returns_the_server_scid(self, fake, tmp_path):
        FakeSocket, _, _ = fake
        FakeSocket.reply, server_cid = self.server_response(tmp_path)
        transport = RawNetworkTransport(seed=1)
        assert transport.handshake(self.VIP, 40000, dcid=b"\x10" * 8, scid=b"\x20" * 8) == server_cid
        [sock] = FakeSocket.opened
        assert sock.kind == (socket.AF_INET, socket.SOCK_DGRAM)
        assert sock.bound == (RAW_BIND_IP, 40000)
        assert sock.timeout == RAW_TIMEOUT
        assert sock.sent == [(client_initial_payload(b"\x10" * 8, b"\x20" * 8), (self.VIP, 443))]
        assert sock.closed

    def test_timeout_gives_none(self, fake):
        FakeSocket, _, _ = fake
        FakeSocket.reply = TimeoutError("timed out")
        assert RawNetworkTransport(seed=1).handshake(self.VIP, 40000) is None
        [sock] = FakeSocket.opened
        assert len(sock.sent) == 1
        assert sock.closed

    @pytest.mark.parametrize("reply", NO_PACKET_PAYLOADS.values(), ids=list(NO_PACKET_PAYLOADS))
    def test_reply_without_a_packet_gives_none(self, fake, reply):
        FakeSocket, _, _ = fake
        FakeSocket.reply = reply
        assert RawNetworkTransport(seed=1).handshake(self.VIP, 40000) is None
        [sock] = FakeSocket.opened
        assert sock.closed

    def test_second_send_sleeps_out_the_gap(self, fake, tmp_path):
        FakeSocket, clock, sleeps = fake
        FakeSocket.reply, server_cid = self.server_response(tmp_path)
        transport = RawNetworkTransport(seed=1)
        assert transport.handshake(self.VIP, 40000) == server_cid
        assert sleeps == []
        clock[0] += 0.05
        assert transport.now() == clock[0]
        assert transport.handshake(self.VIP, 39999) == server_cid
        assert sleeps == [pytest.approx(RAW_MIN_GAP - 0.05)]
        transport.sleep(1.5)
        assert sleeps[1:] == [1.5]


class TestPortSequence:
    def test_decreasing_from_max(self):
        ports = list(port_sequence(PortStrategy.DECREASING_FROM_MAX, 5))
        assert ports == [65535, 65534, 65533, 65532, 65531]

    def test_wrap_stays_in_range(self):
        ports = list(port_sequence(PortStrategy.DECREASING_FROM_MAX, 70000))
        assert all(1024 <= p <= 65535 for p in ports)

    def test_random_seeded_deterministic(self):
        a = list(port_sequence(PortStrategy.RANDOM_SEEDED, 100, seed=9))
        b = list(port_sequence(PortStrategy.RANDOM_SEEDED, 100, seed=9))
        assert a == b
        assert all(1024 <= p <= 65535 for p in a)


class TestDiscoveryCurve:
    def test_every_handshake_new_id_is_linear(self):
        harvest = HostIdHarvest(vip="v", observations=[(i, i) for i in range(10)], attempts=10)
        curve = discovery_curve(harvest)
        assert curve[0] == (1, 0.1)
        assert curve[-1] == (10, 1.0)

    def test_monotone_and_ends_at_one(self):
        sim = make_sim(l7lb_count=25)
        transport = SimulatorTransport(sim, seed=7)
        harvest = harvest_host_ids("203.0.113.1", 300, transport)
        curve = discovery_curve(harvest)
        fractions = [f for _, f in curve]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_single_instance_cluster_constant(self):
        sim = make_sim(l7lb_count=1)
        transport = SimulatorTransport(sim, seed=8)
        harvest = harvest_host_ids("203.0.113.1", 20, transport)
        curve = discovery_curve(harvest)
        assert all(f == 1.0 for _, f in curve)

    def test_empty_harvest(self):
        with pytest.raises(EmptyHarvest):
            discovery_curve(HostIdHarvest(vip="v", attempts=3, failures=3))


class TestJaccardClustering:
    def test_jaccard_basics(self):
        assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0
        assert jaccard(frozenset({1, 2}), frozenset({3})) == 0.0
        assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1 / 3)
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_disjoint_vips_singleton_clusters(self):
        report = cluster_vips(
            {
                "a": harvest_from_ids("a", [1, 2, 3]),
                "b": harvest_from_ids("b", [4, 5]),
            }
        )
        assert report.clusters == [["a"], ["b"]]
        assert report.jaccard("a", "b") == 0.0
        assert report.jaccard("a", "a") == 1.0

    def test_shared_sets_cluster_together(self):
        report = cluster_vips(
            {
                "a": harvest_from_ids("a", range(100)),
                "b": harvest_from_ids("b", range(100)),
                "c": harvest_from_ids("c", range(200, 300)),
            }
        )
        assert report.clusters == [["a", "b"], ["c"]]

    def test_partition_covers_all_vips(self):
        harvests = {f"v{i}": harvest_from_ids(f"v{i}", range(i * 10, i * 10 + 10)) for i in range(6)}
        report = cluster_vips(harvests)
        flat = sorted(v for cluster in report.clusters for v in cluster)
        assert flat == sorted(harvests)

    def test_partial_harvest_still_clusters(self):
        # two partial views of the same 100-instance cluster overlap enough
        full = list(range(100))
        report = cluster_vips(
            {
                "a": harvest_from_ids("a", full[:80]),
                "b": harvest_from_ids("b", full[15:95]),
            },
            threshold=0.5,
        )
        assert report.clusters == [["a", "b"]]

    def test_matrix_shape_and_symmetry(self):
        harvests = {
            "a": harvest_from_ids("a", [1, 2]),
            "b": harvest_from_ids("b", [1, 2]),
            "c": harvest_from_ids("c", [9]),
        }
        report = cluster_vips(harvests)
        m = [[report.jaccard(a, b) for b in report.vips] for a in report.vips]
        assert len(m) == 3 and all(len(row) == 3 for row in m)
        assert m == [list(column) for column in zip(*m)]
        assert [m[i][i] for i in range(3)] == [1.0] * 3


class TestDetectLbType:
    def test_cid_aware_fail_window(self):
        sim = make_sim(l7lb_count=60, mode=RoutingMode.CID_AWARE, operator="Facebook")
        transport = SimulatorTransport(sim, seed=11)
        verdict = detect_lb_type("203.0.113.1", transport, seed=11)
        assert verdict.kind == LbType.CID_AWARE
        assert abs(verdict.fail_window - 240.0) <= 1.0 + 1e-9

    def test_cid_aware_fail_window_from_held_handshake(self):
        # the window runs from the held handshake, not from the first failed
        # follow-up one probe interval later
        sim = make_sim(l7lb_count=60, mode=RoutingMode.CID_AWARE, operator="Facebook")
        transport = SimulatorTransport(sim, seed=11)
        verdict = detect_lb_type("203.0.113.1", transport, probe_interval=5.0, seed=11)
        assert verdict.kind == LbType.CID_AWARE
        assert verdict.fail_window == pytest.approx(240.0, abs=1e-9)

    def test_five_tuple_immediate_followup(self):
        sim = make_sim(l7lb_count=60, mode=RoutingMode.FIVE_TUPLE, operator="Facebook")
        transport = SimulatorTransport(sim, seed=12)
        verdict = detect_lb_type("203.0.113.1", transport, seed=12)
        assert verdict.kind == LbType.FIVE_TUPLE
        assert verdict.followup_host_id != verdict.held_host_id

    def test_five_tuple_first_followup_collision(self):
        # the first follow-up's fresh 5-tuple hashes onto the instance holding
        # the idle connection, which discards it; that single timeout is no
        # CID-aware window
        sim = make_sim(l7lb_count=24, mode=RoutingMode.FIVE_TUPLE)
        transport = SimulatorTransport(sim, seed=7)
        first_port = random.Random(7).randint(40000, 65000)

        def instance(port):
            return sim.clusters[0].rendezvous((SIMULATOR_CLIENT_IP, "203.0.113.1", port, 443, 17))

        assert instance(first_port - 1) is instance(first_port)
        verdict = detect_lb_type("203.0.113.1", transport, seed=7)
        assert verdict.kind == LbType.FIVE_TUPLE
        assert verdict.fail_window is None
        assert verdict.followup_host_id != verdict.held_host_id

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            sim = make_sim(l7lb_count=20, mode=RoutingMode.CID_AWARE)
            transport = SimulatorTransport(sim, seed=13)
            results.append(detect_lb_type("203.0.113.1", transport, seed=13))
        assert results[0] == results[1]

    def test_unreachable_vip(self):
        sim = make_sim()
        transport = SimulatorTransport(sim)
        with pytest.raises(TransportUnavailable):
            detect_lb_type("198.18.0.1", transport)

    def test_inconclusive_when_window_exceeds_max_wait(self):
        sim = make_sim(l7lb_count=10, mode=RoutingMode.CID_AWARE)
        transport = SimulatorTransport(sim, seed=14)
        verdict = detect_lb_type("203.0.113.1", transport, max_wait=30.0, seed=14)
        assert verdict.kind == LbType.INCONCLUSIVE


class CountingTransport(SimulatorTransport):
    """A simulator loopback that counts the handshakes it was asked for."""

    def __init__(self, sim):
        super().__init__(sim)
        self.handshakes = 0

    def handshake(self, *args, **kwargs):
        self.handshakes += 1
        return super().handshake(*args, **kwargs)


class TestProbeValuesRejected:
    """Values that would hang a probe, or that it would quietly ignore, are
    ProbeErrors raised before the first handshake."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probe_interval": 0.0},
            {"probe_interval": -1.0},
            {"probe_interval": float("nan")},
            {"probe_interval": float("inf")},
            {"max_wait": -5.0},
            {"max_wait": 0.0},
            {"max_wait": float("nan")},
        ],
        ids=repr,
    )
    def test_lbtype_timing(self, kwargs):
        transport = CountingTransport(make_sim(l7lb_count=10, mode=RoutingMode.CID_AWARE))
        name = next(iter(kwargs))
        with pytest.raises(ProbeError, match=f"^{name} must be a positive finite number"):
            detect_lb_type("203.0.113.1", transport, **kwargs)
        assert transport.handshakes == 0

    @pytest.mark.parametrize(
        "kwargs", [{"probe_interval": 1e-6}, {"max_wait": 1e9}, {"probe_interval": 0.01, "max_wait": 1000.01}], ids=repr
    )
    def test_lbtype_follow_up_bound(self, kwargs):
        transport = CountingTransport(make_sim(l7lb_count=10, mode=RoutingMode.CID_AWARE))
        with pytest.raises(ProbeError, match=f"^max_wait / probe_interval must be at most {MAX_FOLLOW_UPS} "):
            detect_lb_type("203.0.113.1", transport, **kwargs)
        assert transport.handshakes == 0
        check_lbtype_timing(1.0, float(MAX_FOLLOW_UPS))  # the bound itself is allowed

    @pytest.mark.parametrize("gap", [-1.0, float("nan"), float("inf")], ids=repr)
    def test_inter_probe_gap(self, gap):
        transport = CountingTransport(make_sim(l7lb_count=10))
        with pytest.raises(ProbeError, match="^inter_probe_gap must be a finite number >= 0"):
            harvest_host_ids("203.0.113.1", 5, transport, inter_probe_gap=gap)
        assert transport.handshakes == 0

    @pytest.mark.parametrize("threshold", [2.0, -0.1, float("nan")], ids=repr)
    def test_threshold(self, threshold):
        harvests = [harvest_from_ids("a", [1, 2]), harvest_from_ids("b", [2, 3])]
        with pytest.raises(ProbeError, match=r"^threshold must be in \[0, 1\]"):
            cluster_vips(harvests, threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_bounds_accepted(self, threshold):
        harvests = [harvest_from_ids("a", [1, 2]), harvest_from_ids("b", [2, 3])]
        assert cluster_vips(harvests, threshold=threshold).threshold == threshold
