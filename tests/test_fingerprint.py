"""Fingerprinting statistics against constructed mixes and doubling oracles."""

import json
import random

import pytest

from quicscope.fingerprint import (
    FingerprintError,
    FingerprintProfile,
    InsufficientData,
    RtoEstimate,
    estimate_rto,
    load_known_profiles,
    match_profile,
    resend_count_distribution,
    rto_distance,
    version_tally,
)
from quicscope.ingest import Session, SessionKey, Timeline, group_traits, ingest
from quicscope.tables import read_profiles
from quicscope.wire import Direction, PacketType, VersionRegistry

from conftest import make_response, sessions_of


def session_from_offsets(
    offsets,
    types=None,
    direction=Direction.RESPONSE,
    version=1,
    operator=None,
    key_suffix=b"\x00",
):
    """Build a Session directly from resend offsets (one entry per offset)."""
    key = SessionKey("198.51.100.1", "172.16.0.9", b"s" * 7 + key_suffix, b"d" * 8)
    timeline = Timeline()
    for i, o in enumerate(offsets):
        timeline.add(o, (types[i] if types else PacketType.INITIAL), 1200, False)
    return Session(key=key, timeline=timeline, direction=direction, version=version, operator=operator)


def doubling_offsets(rto: float, resends: int) -> list[float]:
    """Oracle schedule: first response at 0, resend k at rto * 2**k."""
    return [0.0] + [rto * 2**k for k in range(resends)]


class TestVersionTally:
    def test_table_shaped_mix(self):
        registry = VersionRegistry.default()
        mix = [(0x00000001, 7770), (0xFACEB002, 2120), (0xFF00001D, 50), (0xDEAD0001, 60)]
        sessions = []
        i = 0
        for version, count in mix:
            for _ in range(count):
                s = session_from_offsets([0.0], direction=Direction.REQUEST, version=version)
                sessions.append(s)
                i += 1
        tally = version_tally(sessions, registry)
        assert abs(tally.share("client", "QUICv1") - 0.777) < 0.005
        assert abs(tally.share("client", "Facebook mvfst 2") - 0.212) < 0.005
        assert abs(tally.share("client", "draft-29") - 0.005) < 0.005
        assert abs(tally.share("client", "others") - 0.006) < 0.005

    def test_session_counted_once_despite_many_datagrams(self):
        registry = VersionRegistry.default()

        records = list(ingest([make_response(t) for t in (0.0, 0.3, 0.6, 0.9, 1.2)]))
        sessions = sessions_of(records)
        tally = version_tally(sessions, registry)
        assert tally.counts == {("server", "QUICv1"): 1}

    def test_empty_input(self):
        tally = version_tally([], VersionRegistry.default())
        assert tally.counts == {}
        assert tally.role_total("client") == 0

    def test_shares_sum_to_one(self):
        registry = VersionRegistry.default()
        rng = random.Random(5)
        sessions = [
            session_from_offsets(
                [0.0],
                direction=rng.choice([Direction.REQUEST, Direction.RESPONSE]),
                version=rng.choice([1, 0xFACEB002, 0xABCDEF01]),
            )
            for _ in range(500)
        ]
        tally = version_tally(sessions, registry)
        for role in ("client", "server"):
            if tally.role_total(role):
                total_share = sum(tally.share(role, label) for (r, label) in tally.counts if r == role)
                assert abs(total_share - 1.0) < 1e-9

    def test_permutation_invariance(self):
        registry = VersionRegistry.default()
        sessions = [session_from_offsets([0.0], version=v) for v in (1, 1, 0xFACEB002)]
        a = version_tally(sessions, registry)
        b = version_tally(sessions[::-1], registry)
        assert a.counts == b.counts


def traits_by_operator(records):
    """The fold as fingerprint keys it."""
    return group_traits(records, lambda r: r.operator or "Unknown")


def percentages(traits) -> dict[str, float]:
    counts = traits.type_counts()
    total = sum(counts.values())
    return {category: 100.0 * n / total for category, n in sorted(counts.items())}


class TestPacketTypeStats:
    def test_coalesced_is_its_own_category(self):
        records = list(
            ingest(
                [
                    make_response(0.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE)),
                    make_response(0.1, types=(PacketType.INITIAL,), dst="172.16.0.2"),
                ]
            )
        )
        records = [r._replace(operator="Google") for r in records]
        traits = traits_by_operator(records)["Google"]
        assert traits.type_counts() == {"Initial & Handshake": 1, "Initial": 1}
        assert traits.coalescence
        pct = percentages(traits)
        assert pct["Initial & Handshake"] == 50.0
        assert pct["Initial"] == 50.0

    def test_facebook_coalesced_share_is_exactly_zero(self):
        records = [
            r._replace(operator="Facebook")
            for r in ingest([make_response(0.1 * i, dst=f"172.16.0.{i}") for i in range(10)])
        ]
        traits = traits_by_operator(records)["Facebook"]
        assert percentages(traits) == {"Initial": 100.0}
        assert not traits.coalescence

    def test_single_initial_corpus(self):
        records = list(ingest([make_response(0.0)]))
        assert percentages(traits_by_operator(records)["Unknown"]) == {"Initial": 100.0}

    def test_percentages_sum_to_100(self):
        rng = random.Random(2)
        datagrams = []
        for i in range(200):
            types = (
                (PacketType.INITIAL, PacketType.HANDSHAKE)
                if rng.random() < 0.5
                else (rng.choice([PacketType.INITIAL, PacketType.HANDSHAKE]),)
            )
            datagrams.append(make_response(0.01 * i, dst=f"172.16.{i % 9}.1", types=types))
        records = list(ingest(datagrams))
        traits = traits_by_operator(records)["Unknown"]
        assert sum(traits.type_counts().values()) == 200
        assert abs(sum(percentages(traits).values()) - 100.0) < 0.01


class TestLengthHistogram:
    def test_padded_initial_corpus(self):
        records = list(
            ingest([make_response(0.1 * i, dst=f"172.16.0.{i}", pad_to=1200) for i in range(5)])
        )
        top = traits_by_operator(records)["Unknown"].top_shapes(1)
        assert top == [(("Initial",), 1200, 5)]

    def test_coalesced_key(self):
        records = list(
            ingest(
                [
                    make_response(
                        0.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE), pad_to=1252
                    )
                ]
            )
        )
        assert traits_by_operator(records)["Unknown"].top_shapes(7) == [(("Initial", "Handshake"), 1252, 1)]

    def test_empty(self):
        assert traits_by_operator([]) == {}

    def test_ties_rank_by_shape(self):
        records = list(
            ingest(
                [make_response(0.1 * i, dst=f"172.16.0.{i}", pad_to=1300) for i in range(3)]
                + [make_response(1 + 0.1 * i, dst=f"172.16.1.{i}", pad_to=1200) for i in range(3)]
                + [make_response(2.0, dst="172.16.2.1", pad_to=1250)]
            )
        )
        assert traits_by_operator(records)["Unknown"].top_shapes(2) == [
            (("Initial",), 1200, 3),
            (("Initial",), 1300, 3),
        ]


class TestGroupTraits:
    def test_scids_come_from_responses_only(self):
        from conftest import make_request

        records = list(
            ingest([make_response(0.0, scid=b"\x01" * 8), make_request(0.5, scid=b"\x02" * 8)])
        )
        traits = traits_by_operator(records)["Unknown"]
        assert traits.scids == {b"\x01" * 8}
        assert sum(traits.shapes.values()) == 2

    def test_operator_with_only_requests_has_no_scids(self):
        from conftest import make_request

        records = [r._replace(operator="Requested") for r in ingest([make_request(0.1 * i, dst="192.0.2.9") for i in range(3)])]
        traits = traits_by_operator(records)["Requested"]
        assert traits.scids == set()
        assert traits.type_counts() == {"Initial": 3}

    def test_without_shapes_keeps_scids(self):
        records = list(ingest([make_response(0.1 * i, scid=bytes([i]) * 8) for i in range(3)]))
        traits = group_traits(records, lambda r: r.src_ip, shapes=False)
        assert traits["198.51.100.1"].shapes == {}
        assert traits["198.51.100.1"].scids == {bytes([i]) * 8 for i in range(3)}


class TestEstimateRto:
    def test_doubling_oracle_schedule(self):
        sessions = [session_from_offsets(doubling_offsets(0.3, 5), key_suffix=bytes([i])) for i in range(40)]
        est = estimate_rto(sessions)
        assert est.initial_rto == pytest.approx(0.3)
        assert est.backoff_base == pytest.approx(2.0)
        assert est.sample_count == 40

    def test_cumulative_doubling_oracle(self):
        # alternative doubling oracle: each wait doubles, so offsets are
        # rto * (2**(k+1) - 1): 0.3, 0.9, 2.1, 4.5, ...
        offsets = [0.0] + [0.3 * (2 ** (k + 1) - 1) for k in range(4)]
        assert offsets[1:] == pytest.approx([0.3, 0.9, 2.1, 4.5])
        sessions = [session_from_offsets(offsets, key_suffix=bytes([i])) for i in range(35)]
        est = estimate_rto(sessions)
        assert est.initial_rto == pytest.approx(0.3)
        assert est.backoff_base == pytest.approx(2.0)

    def test_facebook_like_range(self):
        rng = random.Random(11)
        sessions = [
            session_from_offsets(doubling_offsets(0.4, rng.choice([7, 8, 9])), key_suffix=bytes([i]))
            for i in range(60)
        ]
        est = estimate_rto(sessions)
        assert est.initial_rto == pytest.approx(0.4)
        lo, hi = est.max_retransmissions
        assert lo >= 7 and hi <= 9 and lo <= hi

    def test_insufficient_sessions(self):
        sessions = [session_from_offsets(doubling_offsets(0.3, 4), key_suffix=bytes([i])) for i in range(5)]
        with pytest.raises(InsufficientData):
            estimate_rto(sessions, min_sessions=30)

    def test_jitter_robustness(self):
        rng = random.Random(3)
        sessions = []
        for i in range(50):
            offsets = [0.0] + [0.3 * 2**k + rng.uniform(-0.01, 0.01) for k in range(5)]
            sessions.append(session_from_offsets(offsets, key_suffix=bytes([i])))
        est = estimate_rto(sessions)
        assert abs(est.initial_rto - 0.3) < 0.02
        assert abs(est.backoff_base - 2.0) < 0.15

    def test_sessions_without_resends_excluded(self):
        sessions = [session_from_offsets([0.0], key_suffix=bytes([i])) for i in range(50)]
        with pytest.raises(InsufficientData):
            estimate_rto(sessions)


class TestResendCounts:
    def test_distribution_mass_equals_sessions(self):
        rng = random.Random(9)
        sessions = [
            session_from_offsets(doubling_offsets(0.4, rng.randint(0, 9)), key_suffix=bytes([i]))
            for i in range(100)
        ]
        hist = resend_count_distribution(sessions)
        assert sum(hist.values()) == 100

    def test_two_datagram_rounds_count_once(self):
        # Initial and Handshake at the same instant belong to one round.
        offsets = [0.0, 0.0, 0.4, 0.4, 0.8, 0.8]
        types = [PacketType.INITIAL, PacketType.HANDSHAKE] * 3
        session = session_from_offsets(offsets, types=types)
        hist = resend_count_distribution([session])
        assert hist == {2: 1}

    def test_one_response_only(self):
        sessions = [session_from_offsets([0.0], key_suffix=bytes([i])) for i in range(4)]
        assert resend_count_distribution(sessions) == {0: 4}


class TestMatchProfile:
    def setup_method(self):
        self.known = load_known_profiles()

    @staticmethod
    def observed(rto, coalescence, structured, counts, backoff=2.0):
        return FingerprintProfile(
            operator="observed",
            rto=RtoEstimate(rto, backoff, counts, 100),
            coalescence=coalescence,
            structured_scids=structured,
        )

    def test_google_like(self):
        assert match_profile(self.observed(0.31, True, False, (3, 6)), self.known) == "Google"

    def test_cloudflare_like(self):
        assert match_profile(self.observed(1.0, True, True, (3, 6)), self.known) == "Cloudflare"

    def test_facebook_like(self):
        assert match_profile(self.observed(0.41, False, True, (8, 8)), self.known) == "Facebook"

    def test_unknown_when_out_of_tolerance(self):
        assert match_profile(self.observed(5.0, False, False, (3, 6)), self.known) is None

    def test_rto_separates_google_from_cloudflare(self):
        # both coalesce; structured flag and RTO disambiguate
        assert match_profile(self.observed(0.9, True, True, (3, 6)), self.known) == "Cloudflare"
        assert match_profile(self.observed(0.9, True, False, (3, 6)), self.known) is None

    @pytest.mark.parametrize("backoff", [1.4, 2.6])
    def test_unknown_when_only_the_backoff_differs(self, backoff):
        assert match_profile(self.observed(0.41, False, True, (8, 8)), self.known) == "Facebook"
        assert match_profile(self.observed(0.41, False, True, (8, 8), backoff), self.known) is None

    @pytest.mark.parametrize(
        "rto, coalescence, structured, counts, operator",
        [
            (0.41, False, True, (3, 6), "Facebook"),
            (0.41, False, True, (10, 12), "Facebook"),
            (0.31, True, False, (7, 9), "Google"),
            (1.0, True, True, (7, 9), "Cloudflare"),
        ],
        ids=["facebook-fewer", "facebook-more", "google-more", "cloudflare-more"],
    )
    def test_unknown_when_only_the_count_range_differs(self, rto, coalescence, structured, counts, operator):
        known_counts = next(p.rto.max_retransmissions for p in self.known if p.operator == operator)
        assert match_profile(self.observed(rto, coalescence, structured, known_counts), self.known) == operator
        assert match_profile(self.observed(rto, coalescence, structured, counts), self.known) is None

    def test_count_ranges_that_share_one_end_overlap(self):
        assert match_profile(self.observed(0.41, False, True, (5, 7)), self.known) == "Facebook"
        assert match_profile(self.observed(0.41, False, True, (9, 11)), self.known) == "Facebook"

    def test_known_profile_table_values(self):
        by_name = {p.operator: p for p in self.known}
        assert by_name["Cloudflare"].rto.initial_rto == 1.0
        assert by_name["Cloudflare"].rto.max_retransmissions == (3, 6)
        assert by_name["Facebook"].rto.initial_rto == 0.4
        assert by_name["Facebook"].rto.max_retransmissions == (7, 9)
        assert not by_name["Facebook"].coalescence
        assert by_name["Google"].rto.initial_rto == 0.3
        assert by_name["Google"].rto.max_retransmissions == (3, 6)
        assert not by_name["Google"].structured_scids


class TestRtoDistance:
    REFERENCE = RtoEstimate(0.4, 2.0, (7, 9), 0)

    def test_relative_distance_of_the_initial_rto(self):
        assert rto_distance(RtoEstimate(0.5, 2.0, (8, 8), 10), self.REFERENCE) == pytest.approx(0.25)
        assert rto_distance(RtoEstimate(0.4, 2.0, (8, 8), 10), self.REFERENCE) == 0.0

    @pytest.mark.parametrize(
        "observed",
        [RtoEstimate(0.51, 2.0, (8, 8), 10), RtoEstimate(0.4, 2.6, (8, 8), 10), RtoEstimate(0.4, 2.0, (10, 11), 10)],
        ids=["initial-rto", "backoff", "count-range"],
    )
    def test_none_where_one_part_of_the_signature_differs(self, observed):
        assert rto_distance(observed, self.REFERENCE) is None

    def test_tolerances(self):
        observed = RtoEstimate(0.46, 2.4, (8, 8), 10)
        assert rto_distance(observed, self.REFERENCE) == pytest.approx(0.15)
        assert rto_distance(observed, self.REFERENCE, rto_tolerance=0.1) is None
        assert rto_distance(observed, self.REFERENCE, backoff_tolerance=0.3) is None


class TestKnownProfiles:
    def write(self, tmp_path, **facebook):
        shipped = read_profiles(None)
        path = tmp_path / "prof.json"
        path.write_text(json.dumps({"profiles": dict(shipped, Facebook=dict(shipped["Facebook"], **facebook))}))
        return path

    @pytest.mark.parametrize("n", [7, 9])
    def test_simulated_retransmissions_inside_the_range(self, tmp_path, n):
        assert load_known_profiles(self.write(tmp_path, simulated_retransmissions=n)) == load_known_profiles()

    @pytest.mark.parametrize("n", [6, 10])
    def test_simulated_retransmissions_outside_the_range(self, tmp_path, n):
        path = self.write(tmp_path, simulated_retransmissions=n)
        with pytest.raises(FingerprintError, match=r"profile 'Facebook': simulated_retransmissions is outside"):
            load_known_profiles(path)

    def test_simulated_retransmissions_is_optional(self, tmp_path):
        path = tmp_path / "prof.json"
        row = {k: v for k, v in read_profiles(None)["Facebook"].items() if k != "simulated_retransmissions"}
        path.write_text(json.dumps({"profiles": {"Facebook": row}}))
        assert load_known_profiles(path) == [p for p in load_known_profiles() if p.operator == "Facebook"]
