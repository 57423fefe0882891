"""Server connection-ID analysis: positional nybble statistics, randomness
testing, scheme classification, and codecs for known hypergiant layouts.

Bit indices follow network convention: bit b of an SCID lives in octet b // 8
at position 7 - (b % 8), i.e. bit 0 is the most significant bit of octet 0.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Sequence

from . import CheckedTuple, InputError, PreconditionError

DEFAULT_ALPHA = 0.001
DEFAULT_MIN_SAMPLES = 500
ECHO_PREFIX_OCTETS = 8
ECHO_MATCH_THRESHOLD = 0.99
CLOUDFLARE_SCID_LENGTH = 20
CLOUDFLARE_FIRST_OCTET = 0x01
LOW_HOST_ID_ZERO_BITS = 9


class ScidAnalysisError(ValueError):
    pass


class MixedLengths(ScidAnalysisError, PreconditionError):
    """Nybble statistics need a single-length population; group by length first."""


class InsufficientSamples(ScidAnalysisError, PreconditionError):
    pass


class CodecError(ValueError):
    pass


class FieldOverflow(CodecError):
    pass


class BadLength(CodecError):
    pass


class UnknownScidVersion(CodecError):
    def __init__(self, version: int):
        super().__init__(f"SCID version bits decode to {version}, expected 1 or 2")
        self.version = version


# octet value -> its high / low nybble, for bytes.translate
_HIGH_NYBBLE = bytes(b >> 4 for b in range(256))
_LOW_NYBBLE = bytes(b & 0x0F for b in range(256))


class NybbleFrequencyMatrix(NamedTuple):
    """Counts of nybble values by position over an SCID population."""

    counts: tuple[tuple[int, ...], ...]  # one 16-tuple per position
    total: int

    @property
    def positions(self) -> int:
        return len(self.counts)

    def relative(self) -> tuple[tuple[float, ...], ...]:
        # an empty population, the only one of total 0, has no positions
        return tuple(tuple(c / self.total for c in row) for row in self.counts)

    def rows(self) -> Iterable[tuple[int, int, int, float]]:
        """(position, value, count, relative frequency) rows for export."""
        for pos, (row, rel) in enumerate(zip(self.counts, self.relative())):
            for value in range(16):
                yield pos, value, row[value], rel[value]


def nybble_frequencies(scids: Sequence[bytes]) -> NybbleFrequencyMatrix:
    """Count nybble values per position; position 0 is the high nybble of
    octet 0. All SCIDs must share one length."""
    if not scids:
        return NybbleFrequencyMatrix((), 0)
    lengths = {len(s) for s in scids}
    if len(lengths) != 1:
        raise MixedLengths(f"population mixes SCID lengths {sorted(lengths)}")
    octets = lengths.pop()
    blob = b"".join(scids)
    counts = []
    for octet in range(octets):
        column = blob[octet::octets]
        for table in (_HIGH_NYBBLE, _LOW_NYBBLE):
            nybbles = column.translate(table)
            counts.append(tuple(nybbles.count(value) for value in range(16)))
    return NybbleFrequencyMatrix(tuple(counts), len(scids))


def chi2_sf_15(x: float) -> float:
    """Upper tail P(X > x) of the chi-square law with 15 degrees of freedom.

    Closed form for odd k = 2m + 1 (here m = 7):
    erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) sum_{j=1..m} x^(j-1) / (1*3*...*(2j-1)).
    """
    if x <= 0:
        return 1.0
    term = 1.0
    series = 1.0
    for j in range(2, 8):
        term *= x / (2 * j - 1)
        series += term
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * series


def position_chi2(row: Sequence[int], total: int) -> float:
    """Pearson chi-square statistic of one position's 16 counts against the
    uniform 1/16 law.

    The 16 terms are added pairwise (t_i + t_(i+8), then a balanced tree over
    the eight partial sums), the order this statistic has always been summed
    in; a left-to-right sum can differ in the last place and flip a verdict
    that sits on the threshold.
    """
    expected = total / 16.0
    terms = []
    for count in row:
        delta = count - expected
        terms.append(delta * delta / expected)
    r = [terms[i] + terms[i + 8] for i in range(8)]
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))


class PositionVerdict(Enum):
    UNIFORM = "uniform"
    SKEWED = "skewed"


def check_alpha(alpha: float) -> None:
    """Raise InputError unless `alpha` is a significance level, in
    (0, 1): at 1 or above, the bound on flagging a uniform position bounds
    nothing; at 0, below it or NaN, no position can be flagged."""
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")


def uniformity_test(
    matrix: NybbleFrequencyMatrix,
    alpha: float = DEFAULT_ALPHA,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> list[PositionVerdict]:
    """Pearson chi-square of each position against the uniform 1/16 law,
    Bonferroni-corrected across positions."""
    check_alpha(alpha)
    if matrix.total < min_samples:
        raise InsufficientSamples(f"{matrix.total} SCIDs < required {min_samples}")
    if matrix.positions == 0:
        # zero-length SCIDs (RFC 9000 allows them) have no nybble to test
        raise InsufficientSamples("SCIDs have no nybble positions")
    threshold = alpha / matrix.positions
    verdicts = []
    for row in matrix.counts:
        p_value = chi2_sf_15(position_chi2(row, matrix.total))
        verdicts.append(
            PositionVerdict.SKEWED if p_value < threshold else PositionVerdict.UNIFORM
        )
    return verdicts


def length_groups(scids: Iterable[bytes]) -> dict[int, list[bytes]]:
    """The SCIDs of each length, in input order; nybble statistics need a
    single-length population."""
    groups: dict[int, list[bytes]] = {}
    for s in scids:
        groups.setdefault(len(s), []).append(s)
    return groups


def modal_group(groups: dict[int, list[bytes]]) -> list[bytes]:
    """The largest of the `length_groups` groups, the population an
    operator's scheme is classified over; on a tie, the length met first.
    Empty when there are no SCIDs."""
    return max(groups.values(), key=len, default=[])


class SchemeKind(Enum):
    RANDOM = "random"
    STRUCTURED = "structured"
    ECHO_OF_CLIENT_DCID = "echo_of_client_dcid"


class _ScidSchemeFields(NamedTuple):
    kind: SchemeKind
    flagged_positions: frozenset[int] = frozenset()


class ScidScheme(CheckedTuple, _ScidSchemeFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == SchemeKind.STRUCTURED and not self.flagged_positions:
            raise ScidAnalysisError("structured scheme requires flagged positions")
        return self


def classify_scheme(
    scids: Sequence[bytes],
    client_dcids: Optional[Sequence[bytes]] = None,
    alpha: float = DEFAULT_ALPHA,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> ScidScheme:
    """Classify an SCID population as random, structured, or an echo of the
    client-chosen DCID.

    Echo detection takes precedence and requires the paired client DCIDs; the
    first 8 octets must match on at least ECHO_MATCH_THRESHOLD of pairs
    (tolerating capture loss). Otherwise positional uniformity decides.
    """
    if client_dcids is not None:
        pairs = list(zip(scids, client_dcids))
        if pairs:
            matches = sum(
                1
                for s, d in pairs
                if len(s) >= ECHO_PREFIX_OCTETS
                and s[:ECHO_PREFIX_OCTETS] == d[:ECHO_PREFIX_OCTETS]
            )
            if matches / len(pairs) >= ECHO_MATCH_THRESHOLD:
                return ScidScheme(SchemeKind.ECHO_OF_CLIENT_DCID)
    matrix = nybble_frequencies(scids)
    verdicts = uniformity_test(matrix, alpha=alpha, min_samples=min_samples)
    flagged = frozenset(
        pos for pos, v in enumerate(verdicts) if v == PositionVerdict.SKEWED
    )
    if flagged:
        return ScidScheme(SchemeKind.STRUCTURED, flagged)
    return ScidScheme(SchemeKind.RANDOM)


# Facebook SCID field layout: (start bit, width) per field, by SCID version.
# v2 leaves bits 2-7 random, so its host field starts on octet 1.
FACEBOOK_SCID_OCTETS = 8
_FB_LAYOUTS = {
    1: {"host_id": (2, 16), "worker_id": (18, 8), "process_id": (26, 1)},
    2: {"host_id": (8, 24), "worker_id": (32, 8), "process_id": (40, 1)},
}
_VERSION_FIELD = (0, 2)
_VERSION_SHIFT = 64 - sum(_VERSION_FIELD)


class FacebookScidFields(NamedTuple):
    scid_version: int
    host_id: int
    worker_id: int
    process_id: int


def _fb_codec(layout: dict[str, tuple[int, int]]) -> tuple:
    """A layout's codec tables, built once:
    - a packer (shift, limit, width, name) per field, in FacebookScidFields order;
    - an extractor (shift, mask) per field after the version;
    - (drop, mask, shift) per contiguous run of free bits, which cuts the
      run's slice out of the low n bits of a draw (n the free-bit count, the
      first free bit taking the most significant) and puts it in place."""
    spans = [("scid_version", _VERSION_FIELD), *layout.items()]
    packers = tuple((64 - start - width, 1 << width, width, name) for name, (start, width) in spans)
    extractors = tuple((64 - start - width, (1 << width) - 1) for start, width in layout.values())
    used = {bit for _, (start, width) in spans for bit in range(start, start + width)}
    free = [bit for bit in range(64) if bit not in used]
    runs = []
    first = 0
    for i, bit in enumerate(free):
        if i + 1 == len(free) or free[i + 1] != bit + 1:
            runs.append((len(free) - i - 1, (1 << (i + 1 - first)) - 1, 63 - bit))
            first = i + 1
    return packers, extractors, tuple(runs)


_FB_CODECS = {version: _fb_codec(layout) for version, layout in _FB_LAYOUTS.items()}
# the host ID's (shift, mask) indexed by the version bits; None where no layout decodes
_FB_HOST_FIELDS = tuple(_FB_CODECS[v][1][0] if v in _FB_CODECS else None for v in range(1 << _VERSION_FIELD[1]))


def facebook_scid_packer(
    scid_version: int, host_id: int, process_id: int, workers: int
) -> Callable[[int, Optional[int]], bytes]:
    """The packer of one L7LB process's SCIDs: a function of (worker ID,
    random bits) that gives the 8-octet SCID `encode_facebook_scid` gives
    for those fields. Every field is checked here, once, in
    FacebookScidFields order, the worker ID at its largest (`workers` - 1),
    so FieldOverflow is raised when the packer is built; the packer itself
    checks nothing and takes worker IDs from 0 to `workers` - 1."""
    packers, _, runs = _FB_CODECS.get(scid_version) or _FB_CODECS[1]
    for value, (_, limit, width, name) in zip((scid_version, host_id, workers - 1, process_id), packers):
        if value < 0 or value >= limit:
            raise FieldOverflow(f"{name} {value} does not fit in {width} bits")
    version_shift, host_shift, worker_shift, process_shift = (shift for shift, *_ in packers)
    base = scid_version << version_shift | host_id << host_shift | process_id << process_shift

    def pack(worker_id: int, random_bits: Optional[int] = None) -> bytes:
        acc = base | worker_id << worker_shift
        if random_bits is not None:
            # each run's mask stops at the n-th bit, so higher bits never land
            for drop, mask, shift in runs:
                acc |= (random_bits >> drop & mask) << shift
        return acc.to_bytes(FACEBOOK_SCID_OCTETS, "big")

    return pack


def encode_facebook_scid(fields: FacebookScidFields, random_bits: Optional[int] = None) -> bytes:
    """Pack fields into an 8-octet SCID.

    Bits outside the field layout (the free bits: 37 in v1, 29 in v2) are
    zero when `random_bits` is None. Otherwise they take the low n bits of
    `random_bits`, n being the layout's free-bit count, in ascending bit
    order: the first free bit takes the most significant of those n bits and
    the last free bit (bit 63) the least. Higher bits of `random_bits` are
    ignored, so a 64-bit draw fills either layout. The layout follows
    fields.scid_version; version values outside {1, 2} are packed with the
    v1 layout and will not decode. A field that does not fit raises
    FieldOverflow naming the first such field.
    """
    version, host_id, worker_id, process_id = fields
    return facebook_scid_packer(version, host_id, process_id, worker_id + 1)(worker_id, random_bits)


def decode_facebook_scid(scid: bytes) -> FacebookScidFields:
    """Inverse of encode_facebook_scid over the field bits.

    Raises BadLength for anything but 8 octets and UnknownScidVersion when
    the version bits are not 1 or 2 (the exception carries the decoded value).
    """
    if len(scid) != FACEBOOK_SCID_OCTETS:
        raise BadLength(f"expected {FACEBOOK_SCID_OCTETS} octets, got {len(scid)}")
    raw = int.from_bytes(scid, "big")
    version = raw >> _VERSION_SHIFT
    codec = _FB_CODECS.get(version)
    if codec is None:
        raise UnknownScidVersion(version)
    (host_shift, host_mask), (worker_shift, worker_mask), (process_shift, process_mask) = codec[1]
    return FacebookScidFields(
        version, raw >> host_shift & host_mask, raw >> worker_shift & worker_mask, raw >> process_shift & process_mask
    )


def facebook_fields(scid: bytes) -> Optional[FacebookScidFields]:
    """The fields of an SCID read as a Facebook SCID; None for one that is
    not 8 octets or whose version bits are not 1 or 2."""
    if len(scid) != FACEBOOK_SCID_OCTETS:
        return None
    try:
        return decode_facebook_scid(scid)
    except CodecError:
        return None


def facebook_host_id(scid: bytes) -> Optional[int]:
    """The host ID of an SCID read as a Facebook SCID, `facebook_fields(scid)
    .host_id`; None for one that does not decode. Read straight from the
    SCID's bits, since routing and harvesting read it per handshake."""
    if len(scid) != FACEBOOK_SCID_OCTETS:
        return None
    raw = int.from_bytes(scid, "big")
    field = _FB_HOST_FIELDS[raw >> _VERSION_SHIFT]
    if field is None:
        return None
    shift, mask = field
    return raw >> shift & mask


def low_host_id(fields: FacebookScidFields) -> bool:
    """True iff the 9 most significant bits of the v1 host ID are zero
    (host_id < 128). Off-net deployments draw from this low range."""
    return fields.host_id < 1 << (16 - LOW_HOST_ID_ZERO_BITS)


def detect_cloudflare_signature(scids: Collection[bytes]) -> bool:
    """True iff every SCID is 20 octets starting with 0x01."""
    if not scids:
        raise ScidAnalysisError("signature check needs at least one SCID")
    return all(
        len(s) == CLOUDFLARE_SCID_LENGTH and s[0] == CLOUDFLARE_FIRST_OCTET for s in scids
    )

