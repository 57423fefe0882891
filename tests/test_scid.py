"""SCID analysis: codec vs. an independent bit-packing oracle, nybble
statistics, uniformity calibration, and scheme classification."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quicscope.scid import (
    BadLength,
    FacebookScidFields,
    FieldOverflow,
    InsufficientSamples,
    MixedLengths,
    PositionVerdict,
    SchemeKind,
    UnknownScidVersion,
    chi2_sf_15,
    classify_scheme,
    decode_facebook_scid,
    detect_cloudflare_signature,
    encode_facebook_scid,
    low_host_id,
    nybble_frequencies,
    position_chi2,
    uniformity_test,
)
from quicscope.wire import PacketType, encode_long_header, parse_long_header

from conftest import run_python


def oracle_pack(fields: FacebookScidFields) -> bytes:
    """Independent packer: place each field bit by bit into a 64-slot array.

    Field layouts (by SCID version): v1 has version at bits 0-1, host at 2-17,
    worker at 18-25, process at 26; v2 has version at 0-1, host at 8-31,
    worker at 32-39, process at 40. Bit b maps to octet b // 8, position
    7 - b % 8. Field values are written most significant bit first.
    """
    if fields.scid_version == 2:
        spans = [(fields.scid_version, 0, 2), (fields.host_id, 8, 24), (fields.worker_id, 32, 8), (fields.process_id, 40, 1)]
    else:
        spans = [(fields.scid_version, 0, 2), (fields.host_id, 2, 16), (fields.worker_id, 18, 8), (fields.process_id, 26, 1)]
    bits = [0] * 64
    for value, start, width in spans:
        for i in range(width):
            bits[start + i] = (value >> (width - 1 - i)) & 1
    out = bytearray(8)
    for b, bit in enumerate(bits):
        if bit:
            out[b // 8] |= 1 << (7 - (b % 8))
    return bytes(out)


class TestFacebookCodec:
    def test_worked_vector_against_oracle(self):
        fields = FacebookScidFields(scid_version=1, host_id=5, worker_id=3, process_id=1)
        expected = bytes.fromhex("400140e000000000")
        assert oracle_pack(fields) == expected
        assert bytes(encode_facebook_scid(fields)) == expected

    def test_all_zero_fields_give_zero_octets(self):
        fields = FacebookScidFields(scid_version=0, host_id=0, worker_id=0, process_id=0)
        scid = encode_facebook_scid(fields)
        assert bytes(scid) == b"\x00" * 8
        with pytest.raises(UnknownScidVersion) as exc:
            decode_facebook_scid(scid)
        assert exc.value.version == 0

    def test_host_overflow_v1(self):
        with pytest.raises(FieldOverflow):
            encode_facebook_scid(FacebookScidFields(1, 70000, 0, 0))

    def test_worker_overflow(self):
        with pytest.raises(FieldOverflow):
            encode_facebook_scid(FacebookScidFields(1, 0, 256, 0))

    def test_process_overflow(self):
        with pytest.raises(FieldOverflow):
            encode_facebook_scid(FacebookScidFields(1, 0, 0, 2))

    def test_bad_length(self):
        with pytest.raises(BadLength):
            decode_facebook_scid(b"\x01" * 20)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (FacebookScidFields(4, 0, 0, 0), "scid_version 4 does not fit in 2 bits"),
            (FacebookScidFields(-1, 0, 0, 0), "scid_version -1 does not fit in 2 bits"),
            (FacebookScidFields(1, 1 << 16, 0, 0), "host_id 65536 does not fit in 16 bits"),
            (FacebookScidFields(2, 1 << 24, 0, 0), "host_id 16777216 does not fit in 24 bits"),
            (FacebookScidFields(3, 1 << 16, 0, 0), "host_id 65536 does not fit in 16 bits"),
            (FacebookScidFields(1, -1, 0, 0), "host_id -1 does not fit in 16 bits"),
            (FacebookScidFields(2, 0, 256, 0), "worker_id 256 does not fit in 8 bits"),
            (FacebookScidFields(1, 0, -3, 0), "worker_id -3 does not fit in 8 bits"),
            (FacebookScidFields(2, 0, 0, 2), "process_id 2 does not fit in 1 bits"),
            (FacebookScidFields(1, 0, 0, -1), "process_id -1 does not fit in 1 bits"),
            # fields are checked in order, so the first bad one is named
            (FacebookScidFields(1, -1, 256, 2), "host_id -1 does not fit in 16 bits"),
        ],
    )
    def test_field_overflow_messages(self, fields, message):
        with pytest.raises(FieldOverflow) as exc:
            encode_facebook_scid(fields, random_bits=1)
        assert str(exc.value) == message

    @pytest.mark.parametrize("version", [0, 3])
    def test_versions_outside_layouts_pack_as_v1(self, version):
        fields = FacebookScidFields(version, 0xBEEF, 0xA5, 1)
        assert encode_facebook_scid(fields) == oracle_pack(fields)
        # the random bits fill the v1 free bits exactly as for version 1
        v1 = encode_facebook_scid(fields._replace(scid_version=1), random_bits=0x9E3779B97F4A7C15)
        other = encode_facebook_scid(fields, random_bits=0x9E3779B97F4A7C15)
        assert bytes([v1[0] & 0x3F | version << 6]) + v1[1:] == other
        with pytest.raises(UnknownScidVersion) as exc:
            decode_facebook_scid(other)
        assert exc.value.version == version
        assert str(exc.value) == f"SCID version bits decode to {version}, expected 1 or 2"

    @pytest.mark.parametrize("length", [0, 7, 9, 20])
    def test_bad_length_message(self, length):
        with pytest.raises(BadLength) as exc:
            decode_facebook_scid(b"\x41" * length)
        assert str(exc.value) == f"expected 8 octets, got {length}"

    def test_decode_inverts_oracle(self):
        rng = random.Random(42)
        for _ in range(2000):
            version = rng.choice([1, 2])
            host_max = (1 << 16) - 1 if version == 1 else (1 << 24) - 1
            fields = FacebookScidFields(
                scid_version=version,
                host_id=rng.randint(0, host_max),
                worker_id=rng.randint(0, 255),
                process_id=rng.randint(0, 1),
            )
            assert decode_facebook_scid(oracle_pack(fields)) == fields

    def test_encode_matches_oracle_randomized(self):
        rng = random.Random(7)
        for _ in range(2000):
            version = rng.choice([1, 2])
            host_max = (1 << 16) - 1 if version == 1 else (1 << 24) - 1
            fields = FacebookScidFields(
                version, rng.randint(0, host_max), rng.randint(0, 255), rng.randint(0, 1)
            )
            assert bytes(encode_facebook_scid(fields)) == oracle_pack(fields)

    @pytest.mark.parametrize("version", [1, 2])
    def test_random_bits_do_not_disturb_fields(self, version):
        fields = FacebookScidFields(version, 1234, 56, 1)
        rng = random.Random(version)
        # all ones sets every free bit and every bit above them
        for bits in [(1 << 64) - 1, (1 << 200) - 1] + [rng.getrandbits(64) for _ in range(50)]:
            scid = encode_facebook_scid(fields, random_bits=bits)
            assert decode_facebook_scid(scid) == fields

    def test_random_bits_deterministic_per_draw(self):
        fields = FacebookScidFields(2, 99, 3, 0)
        a = encode_facebook_scid(fields, random_bits=0xDEADBEEF11)
        b = encode_facebook_scid(fields, random_bits=0xDEADBEEF11)
        c = encode_facebook_scid(fields, random_bits=0xDEADBEEF12)
        assert bytes(a) == bytes(b)
        assert bytes(a) != bytes(c)

    @given(
        version=st.sampled_from([1, 2]),
        host=st.integers(min_value=0, max_value=(1 << 16) - 1),
        big_host=st.integers(min_value=0, max_value=(1 << 24) - 1),
        worker=st.integers(min_value=0, max_value=255),
        process=st.integers(min_value=0, max_value=1),
        bits=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
    )
    @settings(max_examples=500)
    def test_round_trip_property(self, version, host, big_host, worker, process, bits):
        fields = FacebookScidFields(version, big_host if version == 2 else host, worker, process)
        assert decode_facebook_scid(encode_facebook_scid(fields, bits)) == fields


class TestFacebookScidGolden:
    """sha256 of encode_facebook_scid over 200 64-bit draws per layout,
    pinned so a rewrite of the free-bit placement keeps every SCID
    byte-identical."""

    EXPECTED = {
        1: "2547206ba35c492f9ac34a0ede069ef261bbdbf6058e385615c00e0be97cef92",
        2: "6ec204442fee7d2276f0fbe09cbed854740898b8a6086a6bddde0c358d9826fd",
    }

    @pytest.mark.parametrize("version", [1, 2])
    def test_digest_over_draws(self, version):
        width = 16 if version == 1 else 24
        digest = hashlib.sha256()
        for i in range(200):
            fields = FacebookScidFields(version, (i * 7919) % (1 << width), i % 256, i % 2)
            bits = (i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
            digest.update(bytes(encode_facebook_scid(fields, random_bits=bits)))
        assert digest.hexdigest() == self.EXPECTED[version]


def free_bits(version: int) -> list[int]:
    """The bit indices no field of the layout covers, ascending; out-of-range
    versions use the v1 layout."""
    if version == 2:
        used = set(range(0, 2)) | set(range(8, 41))
    else:
        used = set(range(0, 27))
    return [bit for bit in range(64) if bit not in used]


def reference_random_bits(fields: FacebookScidFields, bits: int) -> bytes:
    """oracle_pack plus the free bits, set one at a time: the low n bits of
    `bits`, written as n binary digits most significant first, go to the n
    free bits in ascending order."""
    free = free_bits(fields.scid_version)
    digits = format(bits & ((1 << len(free)) - 1), f"0{len(free)}b")
    acc = int.from_bytes(oracle_pack(fields), "big")
    for bit, digit in zip(free, digits):
        if digit == "1":
            acc |= 1 << (63 - bit)
    return acc.to_bytes(8, "big")


class TestFacebookScidRandomBits:
    """encode_facebook_scid's free bits against the per-bit reference, over
    1,000 draws per layout and for a version with no layout of its own."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_matches_per_bit_reference(self, version):
        width = 24 if version == 2 else 16
        rng = random.Random(version)
        for i in range(1000):
            fields = FacebookScidFields(version, rng.randrange(1 << width), rng.randrange(256), i % 2)
            bits = i if i < 500 else rng.getrandbits(64 if i < 900 else 100)
            assert encode_facebook_scid(fields, random_bits=bits) == reference_random_bits(fields, bits)

    @pytest.mark.parametrize("version", [1, 2])
    def test_each_draw_bit_lands_on_one_free_bit(self, version):
        fields = FacebookScidFields(version, 77, 5, 1)
        base = int.from_bytes(oracle_pack(fields), "big")
        free = free_bits(version)
        assert len(free) == (37 if version == 1 else 29)
        for j in range(64):
            scid = int.from_bytes(encode_facebook_scid(fields, random_bits=1 << j), "big")
            if j < len(free):
                # bit j of the draw, counted from the least significant
                assert scid ^ base == 1 << (63 - free[len(free) - 1 - j])
            else:
                assert scid == base


class TestLowHostId:
    @pytest.mark.parametrize("host,expected", [(5, True), (127, True), (128, False), (9000, False), (0, True)])
    def test_boundary(self, host, expected):
        assert low_host_id(FacebookScidFields(1, host, 0, 0)) is expected


class TestNybbleFrequencies:
    def test_exhaustive_position_zero(self):
        # 16 SCIDs enumerating every value at position 0, fixed elsewhere
        scids = [bytes([v << 4 | 0x01]) + b"\x23" * 3 for v in range(16)]
        m = nybble_frequencies(scids)
        assert m.total == 16
        assert m.positions == 8
        assert list(m.counts[0]) == [1] * 16
        assert m.counts[1][1] == 16  # low nybble of octet 0 always 0x1

    def test_facebook_population_concentrates_version_bits(self):
        rng = random.Random(3)
        scids = [
            bytes(
                encode_facebook_scid(
                    FacebookScidFields(1, rng.randint(0, 65535), rng.randint(0, 255), rng.randint(0, 1)),
                    random_bits=rng.getrandbits(64),
                )
            )
            for _ in range(10000)
        ]
        m = nybble_frequencies(scids)
        # version bits "01" pin the high half of position 0 to nybbles 4-7
        assert sum(m.counts[0][:4]) == 0
        assert sum(m.counts[0][8:]) == 0
        assert sum(m.counts[0][4:8]) == 10000

    def test_empty_population(self):
        m = nybble_frequencies([])
        assert m.total == 0
        assert m.positions == 0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(MixedLengths):
            nybble_frequencies([b"\x01" * 8, b"\x02" * 20])

    def test_row_sums_equal_total(self):
        rng = np.random.default_rng(5)
        scids = [rng.bytes(8) for _ in range(777)]
        m = nybble_frequencies(scids)
        assert all(sum(row) == m.total for row in m.counts)

    def test_accepts_connection_ids(self):
        # CIDs as the wire parser returns them
        packet = parse_long_header(encode_long_header(PacketType.INITIAL, 1, b"", b"\xab" * 8))
        m = nybble_frequencies([packet.scid] * 3)
        assert m.total == 3
        assert m.counts[0][0xA] == 3

    @pytest.mark.parametrize("octets", [1, 8, 20])
    def test_matches_naive_count(self, octets):
        rng = random.Random(octets)
        # uniform SCIDs plus a skewed share, so the counts are not all alike
        scids = [rng.randbytes(octets) for _ in range(1500)]
        scids += [bytes(rng.choice(b"\x00\x01\x1f\xf0") for _ in range(octets)) for _ in range(500)]
        expected = [[0] * 16 for _ in range(2 * octets)]
        for s in scids:
            for octet, value in enumerate(s):
                expected[2 * octet][value >> 4] += 1
                expected[2 * octet + 1][value & 0x0F] += 1
        m = nybble_frequencies(scids)
        assert m.total == len(scids)
        assert m.counts == tuple(tuple(row) for row in expected)


class TestUniformityTest:
    def test_uniform_population_mostly_clean(self):
        rng = np.random.default_rng(2024)
        scids = [rng.bytes(8) for _ in range(100000)]
        verdicts = uniformity_test(nybble_frequencies(scids))
        assert verdicts.count(PositionVerdict.SKEWED) == 0

    def test_facebook_position_zero_flagged(self):
        rng = random.Random(8)
        scids = [
            bytes(
                encode_facebook_scid(
                    FacebookScidFields(1, rng.randint(0, 65535), rng.randint(0, 255), 0),
                    random_bits=rng.getrandbits(64),
                )
            )
            for _ in range(10000)
        ]
        verdicts = uniformity_test(nybble_frequencies(scids))
        assert verdicts[0] == PositionVerdict.SKEWED

    def test_insufficient_samples(self):
        scids = [bytes(8) for _ in range(100)]
        with pytest.raises(InsufficientSamples):
            uniformity_test(nybble_frequencies(scids), min_samples=500)

    @pytest.mark.parametrize("scids", [[b""] * 3, []], ids=["zero-length", "empty"])
    def test_no_positions_is_insufficient(self, scids):
        with pytest.raises(InsufficientSamples, match="no nybble positions"):
            uniformity_test(nybble_frequencies(scids), min_samples=0)

    def test_statistic_matches_numpy_exactly(self):
        # numpy is the oracle here: the statistic was once computed as below
        rng = np.random.default_rng(77)
        for total in [500, 501, 4096, 9973, 100000]:
            for row in rng.multinomial(total, [1 / 16] * 16, size=400):
                expected = total / 16.0
                oracle = float(((row - expected) ** 2 / expected).sum())
                assert position_chi2(tuple(int(c) for c in row), total) == oracle

    def test_verdicts_follow_numpy_statistic(self):
        rng = random.Random(21)
        scids = [
            bytes(
                encode_facebook_scid(
                    FacebookScidFields(1, rng.randint(0, 65535), rng.randint(0, 255), 0),
                    random_bits=rng.getrandbits(64),
                )
            )
            for _ in range(3000)
        ]
        m = nybble_frequencies(scids)
        expected = m.total / 16.0
        threshold = 0.001 / m.positions
        oracle = [
            chi2_sf_15(float(((np.asarray(row) - expected) ** 2 / expected).sum())) < threshold
            for row in m.counts
        ]
        verdicts = uniformity_test(m, alpha=0.001)
        assert [v == PositionVerdict.SKEWED for v in verdicts] == oracle
        assert any(oracle) and not all(oracle)


def modules_after_cli_import() -> set[str]:
    """Names in sys.modules of a fresh interpreter after `import quicscope.cli`."""
    out = run_python("-c", "import sys, quicscope.cli; print('\\n'.join(sys.modules))", check=True)
    return set(out.stdout.split())


def chi2_15_tail_by_integration(x: float, steps: int = 20000) -> float:
    """1 - CDF of chi-square(15) by composite Simpson over the density
    t^6.5 e^(-t/2) / (2^7.5 Gamma(7.5)) on [0, x]."""
    log_norm = 7.5 * math.log(2) + math.lgamma(7.5)

    def density(t: float) -> float:
        return math.exp(6.5 * math.log(t) - t / 2 - log_norm) if t > 0 else 0.0

    h = x / steps
    total = density(0.0) + density(x)
    for i in range(1, steps):
        total += (4 if i % 2 else 2) * density(i * h)
    return 1.0 - total * h / 3


class TestChiSquareTail:
    @pytest.mark.parametrize(
        "critical,p", [(24.9958, 0.05), (30.5779, 0.01), (37.6973, 0.001)]
    )
    def test_tabulated_critical_values(self, critical, p):
        assert abs(chi2_sf_15(critical) - p) < 1e-6

    @pytest.mark.parametrize("x", [0.01, 0.5, 2.0, 7.0, 14.0, 24.9958, 37.6973, 60.0, 120.0, 200.0])
    def test_matches_numeric_integration(self, x):
        assert abs(chi2_sf_15(x) - chi2_15_tail_by_integration(x)) < 1e-10

    def test_non_positive_statistic(self):
        assert chi2_sf_15(0.0) == 1.0
        assert chi2_sf_15(-3.0) == 1.0

    def test_cli_import_leaves_scipy_out(self):
        assert "scipy" not in modules_after_cli_import()

    def test_cli_import_leaves_numpy_out(self):
        assert "numpy" not in modules_after_cli_import()


class TestClassifyScheme:
    def test_uniform_random_population(self):
        rng = np.random.default_rng(31)
        scids = [rng.bytes(8) for _ in range(5000)]
        scheme = classify_scheme(scids)
        assert scheme.kind == SchemeKind.RANDOM
        assert not scheme.flagged_positions

    def test_facebook_population_structured(self):
        rng = random.Random(17)
        scids = [
            bytes(
                encode_facebook_scid(
                    FacebookScidFields(1, rng.randint(0, 65535), rng.randint(0, 3), 0),
                    random_bits=rng.getrandbits(64),
                )
            )
            for _ in range(5000)
        ]
        scheme = classify_scheme(scids)
        assert scheme.kind == SchemeKind.STRUCTURED
        assert 0 in scheme.flagged_positions

    def test_echo_population_takes_precedence(self):
        rng = np.random.default_rng(12)
        dcids = [rng.bytes(8) for _ in range(2000)]
        scids = [d[:8] for d in dcids]
        scheme = classify_scheme(scids, client_dcids=dcids)
        assert scheme.kind == SchemeKind.ECHO_OF_CLIENT_DCID

    def test_echo_tolerates_small_loss(self):
        rng = np.random.default_rng(13)
        dcids = [rng.bytes(8) for _ in range(2000)]
        scids = [d[:8] for d in dcids]
        scids[0] = b"\xff" * 8  # one mismatch: 99.95% still matches
        assert classify_scheme(scids, client_dcids=dcids).kind == SchemeKind.ECHO_OF_CLIENT_DCID

    def test_non_echo_pairs_fall_through(self):
        rng = np.random.default_rng(14)
        dcids = [rng.bytes(8) for _ in range(2000)]
        scids = [rng.bytes(8) for _ in range(2000)]
        scheme = classify_scheme(scids, client_dcids=dcids)
        assert scheme.kind == SchemeKind.RANDOM


class TestCloudflareSignature:
    def test_conforming_population(self):
        rng = np.random.default_rng(9)
        scids = [b"\x01" + rng.bytes(19) for _ in range(170)]
        assert detect_cloudflare_signature(scids) is True

    def test_one_short_scid_breaks_it(self):
        rng = np.random.default_rng(10)
        scids = [b"\x01" + rng.bytes(19) for _ in range(10)] + [rng.bytes(8)]
        assert detect_cloudflare_signature(scids) is False

    def test_wrong_first_byte(self):
        scids = [b"\x02" + bytes(19)]
        assert detect_cloudflare_signature(scids) is False

    def test_monotone_under_nonconforming_additions(self):
        rng = np.random.default_rng(11)
        scids = [b"\x01" + rng.bytes(19) for _ in range(5)]
        assert detect_cloudflare_signature(scids)
        assert not detect_cloudflare_signature(scids + [b"\x01" + rng.bytes(7)])


class TestScidLengthStats:
    """Unique-SCID counts per length, as `quicscope scid --scids` writes them
    to scid_lengths.tsv."""

    @staticmethod
    def length_stats(tmp_path, scids) -> dict[int, int]:
        from quicscope.cli import main

        scid_file = tmp_path / "scids.txt"
        scid_file.write_text("\n".join(s.hex() for s in scids))
        out = tmp_path / "out"
        assert main(["scid", "--scids", str(scid_file), "--out-dir", str(out)]) == 0
        header, *rows = (out / "scid_lengths.tsv").read_text().splitlines()
        assert header == "operator\tlength\tunique_scids"
        stats = {}
        for row in rows:
            population, length, unique = row.split("\t")
            assert population == "all"
            stats[int(length)] = int(unique)
        return stats

    def test_unique_per_length(self, tmp_path):
        stats = self.length_stats(tmp_path, [b"\x01" * 8, b"\x01" * 8, b"\x02" * 8])
        assert stats == {8: 2}

    def test_mixed_lengths(self, tmp_path):
        stats = self.length_stats(tmp_path, [b"\x01" * 8, b"\x02" * 20])
        assert stats == {8: 1, 20: 1}

    def test_synthetic_facebook_population(self, tmp_path):
        rng = np.random.default_rng(6)
        unique = {rng.bytes(8) for _ in range(5000)}
        stats = self.length_stats(tmp_path, list(unique))
        assert stats == {8: len(unique)}
