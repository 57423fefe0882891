"""Long-header wire format: hand-crafted vectors, round trips, and fuzz safety.

The hand-encoded packets below are built field by field from the wire layout
(first byte, 4-byte version, length-prefixed CIDs, varints) independently of
the encoder under test.
"""

import itertools
import random
import struct
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quicscope.tables import load_version_registry
from quicscope.wire import (
    FIXED_BIT,
    FORM_BIT,
    MAX_CID_LENGTH,
    TYPE_MASK,
    Direction,
    InvalidCidLength,
    LongHeader,
    NotLongHeader,
    PacketType,
    PlausibilityConfig,
    TruncatedPacket,
    VersionRegistry,
    WireError,
    check_cid_lengths,
    classify_direction,
    decode_varint,
    encode_long_header,
    encode_varint,
    is_plausible_quic,
    parse_long_header,
    split_coalesced,
)

# Initial, version 1, 8-byte DCID aa.., 8-byte SCID bb.., empty token,
# length 5, body "hello". First byte 0xc3: form|fixed|type=00|pn_len bits 11.
HAND_INITIAL = bytes.fromhex(
    "c3"
    "00000001"
    "08" + "aa" * 8 +
    "08" + "bb" * 8 +
    "00"            # token length varint
    "05" + b"hello".hex()
)

# Same header bytes but version 0x00000000: forced version negotiation.
HAND_VN = bytes.fromhex(
    "c3"
    "00000000"
    "08" + "aa" * 8 +
    "08" + "bb" * 8
) + bytes.fromhex("00000001ff00001d")  # supported versions list

# Handshake (type bits 10), version 1, 4-byte CIDs, length 3.
HAND_HANDSHAKE = bytes.fromhex(
    "e0"
    "00000001"
    "04" + "11" * 4 +
    "04" + "22" * 4 +
    "03" + "616263"
)


class TestParseLongHeader:
    def test_hand_encoded_initial(self):
        h = parse_long_header(HAND_INITIAL)
        assert h.packet_type == PacketType.INITIAL
        assert h.version == 1
        assert h.dcid == b"\xaa" * 8 and len(h.dcid) == 8
        assert h.scid == b"\xbb" * 8 and len(h.scid) == 8
        assert h.token == b""
        assert h.payload == b"hello"
        assert h.wire_length == len(HAND_INITIAL)

    def test_version_zero_forces_negotiation(self):
        h = parse_long_header(HAND_VN)
        assert h.packet_type == PacketType.VERSION_NEGOTIATION
        assert h.version == 0
        assert h.payload == bytes.fromhex("00000001ff00001d")
        assert h.wire_length == len(HAND_VN)

    def test_handshake(self):
        h = parse_long_header(HAND_HANDSHAKE)
        assert h.packet_type == PacketType.HANDSHAKE
        assert h.payload == b"abc"

    def test_cid_length_21_rejected(self):
        bad = bytearray(HAND_INITIAL)
        bad[5] = 21
        with pytest.raises(InvalidCidLength):
            parse_long_header(bytes(bad))

    def test_form_bit_clear(self):
        with pytest.raises(NotLongHeader):
            parse_long_header(b"\x40" + HAND_INITIAL[1:])

    def test_truncation_at_every_prefix(self):
        for cut in range(len(HAND_INITIAL)):
            try:
                parse_long_header(HAND_INITIAL[:cut])
            except TruncatedPacket:
                continue
            pytest.fail(f"prefix of {cut} octets parsed without error")

    def test_offset_parsing(self):
        padded = b"\xff" * 3 + HAND_INITIAL
        h = parse_long_header(padded, 3)
        assert h.packet_type == PacketType.INITIAL
        assert h.wire_length == len(HAND_INITIAL)

    def test_offset_past_end(self):
        with pytest.raises(TruncatedPacket):
            parse_long_header(HAND_INITIAL, len(HAND_INITIAL))

    def test_retry_consumes_rest(self):
        retry = bytes.fromhex("f0" "00000001" "0411111111" "0422222222") + b"tok" + b"\x99" * 16
        h = parse_long_header(retry)
        assert h.packet_type == PacketType.RETRY
        assert h.wire_length == len(retry)

    def test_initial_with_token(self):
        pkt = bytes.fromhex("c0" "00000001" "00" "00" "03") + b"TOK" + bytes.fromhex("02") + b"pp"
        h = parse_long_header(pkt)
        assert h.token == b"TOK"
        assert h.payload == b"pp"

    @pytest.mark.parametrize(
        "token_len, length",
        [
            ("00", "05"),  # the shortest forms a handshake carries
            ("4003", "4005"),  # 2-octet forms of small values
            ("80000003", "c000000000000005"),  # 4- and 8-octet forms
            ("03", "4105"),  # a 2-octet Length over 63
        ],
    )
    def test_varint_widths_and_their_truncations(self, token_len, length):
        head = bytes.fromhex("c0" "00000001" "00" "00")
        token = b"TOK"[: int(bytes.fromhex(token_len)[-1])]
        body_len = decode_varint(bytes.fromhex(length), 0)[0]
        pkt = head + bytes.fromhex(token_len) + token + bytes.fromhex(length) + b"b" * body_len
        h = parse_long_header(pkt)
        assert (h.token, h.payload, h.wire_length) == (token, b"b" * body_len, len(pkt))
        # each cut names the field it ends in
        length_at = len(head) + len(token_len) // 2 + len(token)
        expected = {len(head): "varint starts past end of buffer", length_at: "varint starts past end of buffer"}
        for cut in range(len(head) + 1, len(head) + len(token_len) // 2):
            expected[cut] = "buffer ends inside varint"
        for cut in range(len(head) + len(token_len) // 2, length_at):
            expected[cut] = "payload ends inside Initial token"
        for cut in range(length_at + 1, length_at + len(length) // 2):
            expected[cut] = "buffer ends inside varint"
        for cut in range(length_at + len(length) // 2, len(pkt)):
            expected[cut] = "payload ends inside declared packet length"
        for cut, message in expected.items():
            with pytest.raises(TruncatedPacket, match=message):
                parse_long_header(pkt[:cut])


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, "00"),
            (37, "25"),
            (63, "3f"),
            (64, "4040"),
            (15293, "7bbd"),
            (494878333, "9d7f3e7d"),
            (151288809941952652, "c2197c5eff14e88c"),
        ],
    )
    def test_known_vectors(self, value, encoded):
        assert encode_varint(value) == bytes.fromhex(encoded)
        decoded, consumed = decode_varint(bytes.fromhex(encoded), 0)
        assert decoded == value and consumed == len(encoded) // 2

    @given(st.integers(min_value=0, max_value=(1 << 62) - 1))
    def test_round_trip(self, value):
        buf = encode_varint(value)
        assert decode_varint(buf, 0) == (value, len(buf))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_varint(1 << 62)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^varint cannot be negative$"):
            encode_varint(-1)


def round_trip(packet_type, version, dcid, scid, token=b"", payload=b""):
    """Encode the fields, parse them back, and require the same header; a
    parsed header re-encodes to the same bytes through its first byte."""
    data = encode_long_header(packet_type, version, dcid, scid, payload, token)
    h = parse_long_header(data)
    assert h == LongHeader(packet_type, version, dcid, scid, token, payload, data[0], len(data))
    assert encode_long_header(h.packet_type, h.version, h.dcid, h.scid, h.payload, h.token, h.first_byte) == data
    return h


class TestEncode:
    def test_encode_matches_hand_layout(self):
        expected = bytes.fromhex("c0" "00000001" "08" + "aa" * 8 + "08" + "bb" * 8 + "00" "05") + b"hello"
        assert encode_long_header(PacketType.INITIAL, 1, b"\xaa" * 8, b"\xbb" * 8, b"hello") == expected
        # a parsed header's first byte keeps its reserved and packet-number bits
        h = parse_long_header(HAND_INITIAL)
        assert encode_long_header(h.packet_type, h.version, h.dcid, h.scid, h.payload, h.token, h.first_byte) == HAND_INITIAL

    def test_round_trip_identity(self):
        h = round_trip(PacketType.INITIAL, 1, b"\x01" * 8, b"\x02" * 8, payload=b"xyz")
        assert h.first_byte == 0xC0

    def test_version_negotiation_round_trip(self):
        versions = bytes.fromhex("00000001") + bytes.fromhex("faceb002")
        back = round_trip(PacketType.VERSION_NEGOTIATION, 0, b"\xaa" * 8, b"\xbb" * 8, payload=versions)
        assert back.packet_type == PacketType.VERSION_NEGOTIATION

    def test_oversized_scid_rejected(self):
        with pytest.raises(InvalidCidLength, match="CID of 21 octets exceeds 20"):
            encode_long_header(PacketType.INITIAL, 1, b"\x01" * 8, b"\x02" * 21)

    def test_build_rejects_mismatched_version_zero(self):
        with pytest.raises(WireError):
            encode_long_header(PacketType.INITIAL, 0, b"", b"")
        with pytest.raises(WireError):
            encode_long_header(PacketType.VERSION_NEGOTIATION, 1, b"", b"")

    def test_token_only_on_initial(self):
        with pytest.raises(WireError, match="only Initial"):
            encode_long_header(PacketType.HANDSHAKE, 1, b"", b"", b"x", token=b"t")

    @given(
        packet_type=st.sampled_from([PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE]),
        version=st.integers(min_value=1, max_value=0xFFFFFFFF),
        dcid=st.binary(min_size=0, max_size=20),
        scid=st.binary(min_size=0, max_size=20),
        token=st.binary(min_size=0, max_size=40),
        payload=st.binary(min_size=0, max_size=200),
    )
    @settings(max_examples=300)
    def test_round_trip_property(self, packet_type, version, dcid, scid, token, payload):
        if packet_type != PacketType.INITIAL:
            token = b""
        round_trip(packet_type, version, dcid, scid, token=token, payload=payload)


class TestSplitCoalesced:
    def test_initial_then_handshake(self):
        initial = encode_long_header(PacketType.INITIAL, 1, b"\xaa" * 8, b"\xbb" * 8, b"i" * 40)
        handshake = encode_long_header(PacketType.HANDSHAKE, 1, b"\xaa" * 8, b"\xbb" * 8, b"h" * 30)
        data = initial + handshake
        got = split_coalesced(data)
        assert [p.packet_type for p in got] == [PacketType.INITIAL, PacketType.HANDSHAKE]
        assert sum(p.wire_length for p in got) == len(data)

    def test_padding_to_1200_ignored(self):
        data = encode_long_header(PacketType.INITIAL, 1, b"\xaa" * 8, b"\xbb" * 8, b"i" * 40)
        data += b"\x00" * (1200 - len(data))
        got = split_coalesced(data)
        assert len(got) == 1 and got[0].packet_type == PacketType.INITIAL
        assert len(data) == 1200

    def test_empty_payload(self):
        assert split_coalesced(b"") == []

    def test_garbage_after_valid_packet(self):
        initial = encode_long_header(PacketType.INITIAL, 1, b"\xaa" * 4, b"\xbb" * 4, b"x")
        data = initial + b"\x85\x01"  # long-header-ish but truncated
        got = split_coalesced(data)
        assert len(got) == 1

    def test_byte_conservation_with_trailing_padding(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            data = b""
            for _ in range(n):
                data += encode_long_header(
                    PacketType.HANDSHAKE,
                    1,
                    rng.randbytes(rng.randint(0, 20)),
                    rng.randbytes(rng.randint(0, 20)),
                    rng.randbytes(rng.randint(0, 60)),
                )
            padding = rng.randint(0, 100)
            data += b"\x00" * padding
            got = split_coalesced(data)
            assert len(got) == n
            assert sum(p.wire_length for p in got) + padding == len(data)


class TestClassifyDirection:
    def test_response(self):
        assert classify_direction(443, 50000) == Direction.RESPONSE

    def test_request(self):
        assert classify_direction(50000, 443) == Direction.REQUEST

    def test_non_quic(self):
        assert classify_direction(53, 53) == Direction.NON_QUIC

    def test_both_443_is_response(self):
        assert classify_direction(443, 443) == Direction.RESPONSE

    def test_total_over_random_ports(self):
        rng = random.Random(1)
        for _ in range(200):
            direction = classify_direction(rng.randint(0, 65535), rng.randint(0, 65535))
            assert direction in (Direction.REQUEST, Direction.RESPONSE, Direction.NON_QUIC)


class TestPlausibility:
    # built once, as a run builds it
    STRICT = PlausibilityConfig(VersionRegistry.default())

    def test_valid_initial_is_plausible(self):
        assert is_plausible_quic(split_coalesced(HAND_INITIAL), self.STRICT)

    def test_all_zero_payload(self):
        assert not is_plausible_quic(split_coalesced(b"\x00" * 1200), self.STRICT)

    def test_unknown_version_strict(self):
        h = parse_long_header(encode_long_header(PacketType.INITIAL, 0xDEAD0001, b"\xaa" * 8, b"\xbb" * 8, b"x"))
        assert not is_plausible_quic([h], self.STRICT)

    def test_unknown_version_allowed_by_config(self):
        h = parse_long_header(encode_long_header(PacketType.INITIAL, 0xDEAD0001, b"\xaa" * 8, b"\xbb" * 8, b"x"))
        cfg = PlausibilityConfig(VersionRegistry.default(), allow_unknown=True)
        assert is_plausible_quic([h], cfg)

    def test_greased_version_flag(self):
        h = parse_long_header(encode_long_header(PacketType.INITIAL, 0x1A2A3A4A, b"\xaa" * 8, b"\xbb" * 8, b"x"))
        assert not is_plausible_quic([h], self.STRICT)
        assert is_plausible_quic([h], PlausibilityConfig(VersionRegistry.default(), allow_greased=True))

    def test_negotiation_version_always_plausible(self):
        assert is_plausible_quic(split_coalesced(HAND_VN), self.STRICT)

    def test_config_is_required(self):
        with pytest.raises(TypeError):
            is_plausible_quic(split_coalesced(HAND_INITIAL))
        with pytest.raises(TypeError):
            PlausibilityConfig()


class TestVersionRegistry:
    def test_default_labels(self):
        reg = VersionRegistry.default()
        assert reg.label(0x00000001) == "QUICv1"
        assert reg.label(0xFACEB002) == "Facebook mvfst 2"
        assert reg.label(0xFF00001D) == "draft-29"
        assert reg.label(0x12345678) is None

    def test_load_custom_file(self, tmp_path):
        f = tmp_path / "reg.tsv"
        f.write_text("# comment\n0x00000099\tmy-version\n")
        reg = load_version_registry(f)
        assert reg.known(0x99) and reg.label(0x99) == "my-version"
        assert not reg.known(1)


class TestFuzzSafety:
    def test_random_buffers_never_crash(self):
        rng = random.Random(12345)
        for _ in range(20000):
            buf = rng.randbytes(rng.randint(0, 80))
            try:
                parse_long_header(buf) if buf else None
            except (TruncatedPacket, InvalidCidLength, NotLongHeader):
                pass
            split_coalesced(buf)

    def test_mutated_valid_packets_never_crash(self):
        rng = random.Random(99)
        base = bytearray(HAND_INITIAL + HAND_HANDSHAKE)
        for _ in range(20000):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            split_coalesced(bytes(buf))


# -- the reference codec --
# parse_long_header and encode_long_header as written field by field, one
# check and one slice or concatenation at a time. The package's codec must
# agree with them on every input: the same header or bytes, or the same
# exception type with the same message.

_U32 = struct.Struct(">I").unpack_from
_HEAD = struct.Struct(">BIB").pack
_U16 = struct.Struct(">H").pack
_new_header = tuple.__new__
_TYPE_BITS = (PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE, PacketType.RETRY)
_FIRST_BYTE = {t: FORM_BIT | FIXED_BIT | (bits << 4) for bits, t in enumerate(_TYPE_BITS)}
_FIRST_BYTE[PacketType.VERSION_NEGOTIATION] = FORM_BIT | FIXED_BIT


def reference_parse_long_header(payload: bytes, offset: int = 0) -> LongHeader:
    end = len(payload)
    if offset >= end:
        raise TruncatedPacket("offset past end of payload")
    first = payload[offset]
    if not first & FORM_BIT:
        raise NotLongHeader(f"form bit clear in first octet 0x{first:02x}")
    pos = offset + 5
    if pos > end:
        raise TruncatedPacket("payload ends inside version field")
    version = _U32(payload, offset + 1)[0]

    if pos >= end:
        raise TruncatedPacket("payload ends before DCID length octet")
    cid_len = payload[pos]
    if cid_len > MAX_CID_LENGTH:
        raise InvalidCidLength(f"DCID length {cid_len} exceeds {MAX_CID_LENGTH}")
    pos += 1
    if pos + cid_len > end:
        raise TruncatedPacket("payload ends inside DCID")
    dcid = payload[pos : pos + cid_len]
    pos += cid_len
    if pos >= end:
        raise TruncatedPacket("payload ends before SCID length octet")
    cid_len = payload[pos]
    if cid_len > MAX_CID_LENGTH:
        raise InvalidCidLength(f"SCID length {cid_len} exceeds {MAX_CID_LENGTH}")
    pos += 1
    if pos + cid_len > end:
        raise TruncatedPacket("payload ends inside SCID")
    scid = payload[pos : pos + cid_len]
    pos += cid_len

    token = b""
    if version == 0:
        packet_type = PacketType.VERSION_NEGOTIATION
        body = payload[pos:]
        pos = end
    else:
        packet_type = _TYPE_BITS[(first & TYPE_MASK) >> 4]
        if packet_type is PacketType.INITIAL:
            if pos < end and payload[pos] < 0x40:
                token_len = payload[pos]
                pos += 1
            else:
                token_len, consumed = decode_varint(payload, pos)
                pos += consumed
            if pos + token_len > end:
                raise TruncatedPacket("payload ends inside Initial token")
            token = payload[pos : pos + token_len]
            pos += token_len
        if packet_type is PacketType.RETRY:
            body = payload[pos:]
            pos = end
        else:
            if pos + 1 < end and payload[pos] >> 6 == 1:
                length = (payload[pos] & 0x3F) << 8 | payload[pos + 1]
                pos += 2
            elif pos < end and payload[pos] < 0x40:
                length = payload[pos]
                pos += 1
            else:
                length, consumed = decode_varint(payload, pos)
                pos += consumed
            if pos + length > end:
                raise TruncatedPacket("payload ends inside declared packet length")
            body = payload[pos : pos + length]
            pos += length

    return _new_header(LongHeader, (packet_type, version, dcid, scid, token, body, first, pos - offset))


def reference_encode_long_header(
    packet_type: PacketType,
    version: int,
    dcid: bytes,
    scid: bytes,
    payload: bytes = b"",
    token: bytes = b"",
    first_byte: Optional[int] = None,
) -> bytes:
    dcid_length, scid_length = len(dcid), len(scid)
    if dcid_length > MAX_CID_LENGTH or scid_length > MAX_CID_LENGTH:
        check_cid_lengths(dcid, scid)  # raises, naming the longer CID
    if (packet_type is PacketType.VERSION_NEGOTIATION) != (version == 0):
        raise WireError("version 0 is reserved for (and required by) version negotiation")
    if token and packet_type is not PacketType.INITIAL:
        raise WireError("only Initial packets carry a token")
    if first_byte is None:
        first_byte = _FIRST_BYTE[packet_type]
    head = _HEAD(first_byte | FORM_BIT, version, dcid_length) + dcid + bytes((scid_length,)) + scid
    if packet_type is PacketType.RETRY or packet_type is PacketType.VERSION_NEGOTIATION:
        return head + payload
    # the Length varint, its 1- and 2-octet forms built in place
    n = len(payload)
    length = bytes((n,)) if n < 0x40 else _U16(n | 0x4000) if n < 0x4000 else encode_varint(n)
    if packet_type is PacketType.INITIAL:
        return head + (encode_varint(len(token)) + token if token else b"\x00") + length + payload
    return head + length + payload


def outcome(function, *args):
    """What a call gives: its result with the type of each field, or the
    type and message of what it raised."""
    try:
        result = function(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    fields = tuple(map(type, result)) if isinstance(result, tuple) else None
    return "returned", type(result), result, fields


def oracle_packets() -> list[bytes]:
    """Packets of every type, built octet by octet: Initials without and with
    a token and with 1-, 2- and 4-octet Lengths, a Handshake, a 0-RTT, a
    Retry, a Version Negotiation, and an Initial coalesced with padding."""
    cids = "08" + "aa" * 8 + "08" + "bb" * 8
    return [
        bytes.fromhex("c3" "00000001" + cids + "00" "05") + b"hello",
        bytes.fromhex("c1" "00000001" + cids + "03") + b"TOK" + bytes.fromhex("4005") + b"hello",
        bytes.fromhex("c0" "00000001" "00" "00" "4003") + b"TOK" + bytes.fromhex("80000005") + b"hello",
        bytes.fromhex("c0" "ff00001d" "14" + "11" * 20 + "14" + "22" * 20 + "00" "4041") + b"p" * 65,
        bytes.fromhex("c0" "00000001" "00" "08" + "bb" * 8 + "00" "c000000000000003") + b"abc",
        bytes.fromhex("e0" "00000001" "04" + "11" * 4 + "04" + "22" * 4 + "03") + b"abc",
        bytes.fromhex("d1" "00000001" + cids + "4004") + b"rtt0",
        bytes.fromhex("f0" "00000001" "04" + "11" * 4 + "00") + b"tok" + b"\x99" * 16,
        bytes.fromhex("80" "00000000" + cids + "00000001" "ff00001d"),
        bytes.fromhex("c0" "00000001" + cids + "00" "02") + b"ok" + b"\x00" * 6,
    ]


class TestCodecOracle:
    def test_parse_matches_reference(self):
        rng = random.Random(23)
        cases = []
        for packet in oracle_packets():
            for offset in range(3):
                buf = rng.randbytes(offset) + packet
                # every truncation, and byte flips weighted to the header
                cases.extend((buf[:cut], offset) for cut in range(len(buf) + 1))
                for _ in range(1500):
                    flipped = bytearray(buf)
                    for _ in range(rng.randint(1, 3)):
                        at = rng.randrange(min(len(flipped), offset + 48))
                        flipped[at] = rng.choice((rng.randrange(256), flipped[at] ^ 1 << rng.randrange(8)))
                    cut = len(flipped) if rng.random() < 0.7 else rng.randrange(len(flipped) + 1)
                    cases.append((bytes(flipped[:cut]), offset))
        mismatches = [
            case
            for case in cases
            if outcome(parse_long_header, *case) != outcome(reference_parse_long_header, *case)
        ]
        assert len(cases) > 45000
        assert mismatches[:3] == []

    def test_encode_matches_reference(self):
        rng = random.Random(29)
        cases = list(
            itertools.product(
                PacketType, (0, 1, 0xFF00001D), (0, 8, 20, 21), (0, 8, 20, 21), (b"", b"tok", b"T" * 70), (False, True)
            )
        )
        mismatches = []
        for packet_type, version, dcid_length, scid_length, token, set_first_byte in cases * 8:
            args = (
                packet_type,
                version,
                rng.randbytes(dcid_length),
                rng.randbytes(scid_length),
                rng.randbytes(rng.choice((0, 5, 63, 64, 300, 16383, 16384))),
                token,
                rng.randrange(256) if set_first_byte else None,
            )
            if outcome(encode_long_header, *args) != outcome(reference_encode_long_header, *args):
                mismatches.append(args)
        assert mismatches[:3] == []
