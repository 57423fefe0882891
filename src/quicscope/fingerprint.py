"""Per-operator stack fingerprinting: version usage, coalescence, packet
lengths, and retransmission timing, matched against known configurations.

RTO estimation is median-based: robust to capture jitter and free of any
histogram binning choice.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from . import CheckedTuple, PreconditionError
from .ingest import Session, Traits
from .scid import ScidScheme, SchemeKind
from .tables import list_of, object_of, of_type, read_profiles
from .wire import Direction, PacketType, VersionRegistry

DEFAULT_MIN_SESSIONS = 30
RTO_TOLERANCE = 0.25
BACKOFF_TOLERANCE = 0.5
# Offsets closer than this merge into one resend round (a server that sends
# Initial and Handshake as two datagrams emits them back to back).
ROUND_MERGE_TOLERANCE = 1e-3
OTHERS_LABEL = "others"


class FingerprintError(ValueError):
    pass


class InsufficientData(FingerprintError, PreconditionError):
    pass


class Role:
    CLIENT = "client"
    SERVER = "server"


class VersionTally(NamedTuple):
    """Session counts and shares per (role, version label). Each session
    counts exactly once regardless of how many datagrams it spans."""

    counts: dict[tuple[str, str], int]

    def add(self, role: str, label: str, n: int = 1) -> None:
        key = (role, label)
        self.counts[key] = self.counts.get(key, 0) + n

    def role_total(self, role: str) -> int:
        return sum(n for (r, _), n in self.counts.items() if r == role)

    def share(self, role: str, label: str) -> float:
        total = self.role_total(role)
        if total == 0:
            return 0.0
        return self.counts.get((role, label), 0) / total

    def rows(self) -> list[tuple[str, str, int, float]]:
        return [
            (role, label, n, self.share(role, label))
            for (role, label), n in sorted(self.counts.items())
        ]


def version_tally(sessions: Iterable[Session], registry: VersionRegistry) -> VersionTally:
    """Count each session once under its negotiated version label; versions
    missing from the registry land in the `others` bucket. Response sessions
    reflect the server side, request sessions the client side."""
    tally = VersionTally({})
    response = Direction.RESPONSE
    for session in sessions:
        role = Role.SERVER if session.direction is response else Role.CLIENT
        label = registry.label(session.version)
        tally.add(role, label if label is not None else OTHERS_LABEL)
    return tally


class _RtoEstimateFields(NamedTuple):
    initial_rto: float
    backoff_base: float
    max_retransmissions: tuple[int, int]
    sample_count: int


class RtoEstimate(CheckedTuple, _RtoEstimateFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.initial_rto <= 0:
            raise FingerprintError("initial RTO must be positive")
        if self.backoff_base < 1:
            raise FingerprintError("backoff base below 1 is not a backoff")
        if self.max_retransmissions[0] > self.max_retransmissions[1]:
            raise FingerprintError("retransmission range inverted")
        return self


# resend_rounds reads these per session
_ROUND_TYPES = (PacketType.INITIAL, PacketType.HANDSHAKE)


def resend_rounds(session: Session) -> list[float]:
    """Distinct send instants of Initial/Handshake packets in a session.

    Entries closer than ROUND_MERGE_TOLERANCE collapse into one round, so a
    server that ships Initial and Handshake as two datagrams still counts one
    round per timeout, matching how retransmission counts are reported.
    """
    offsets = sorted(session.timeline.offsets(_ROUND_TYPES))
    rounds: list[float] = []
    for off in offsets:
        if not rounds or off - rounds[-1] > ROUND_MERGE_TOLERANCE:
            rounds.append(off)
    return rounds


def resend_count_distribution(sessions: Iterable[Session]) -> dict[int, int]:
    """Histogram of per-session resend counts, the rounds after the first
    response; total mass equals the number of sessions."""
    histogram: dict[int, int] = {}
    for session in sessions:
        n = max(0, len(resend_rounds(session)) - 1)
        histogram[n] = histogram.get(n, 0) + 1
    return dict(sorted(histogram.items()))


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _percentile(values: Sequence[int], q: float) -> int:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def estimate_rto(
    sessions: Iterable[Session], min_sessions: int = DEFAULT_MIN_SESSIONS
) -> RtoEstimate:
    """Estimate the retransmission configuration of one operator.

    initial RTO: median offset of the first resend round. Backoff: median
    ratio of consecutive gaps between resend rounds (needs sessions with at
    least three resends). Retransmission count reported as the 5th-95th
    percentile range of per-session resend counts.
    """
    # one pass that keeps what the medians need, not each session's rounds
    first_offsets: list[float] = []
    ratios: list[float] = []
    counts: list[int] = []
    for session in sessions:
        rounds = resend_rounds(session)
        if len(rounds) < 3:  # first response + >= 2 resends
            continue
        first_offsets.append(rounds[1])
        resends = rounds[1:]
        gaps = [b - a for a, b in zip(resends, resends[1:])]
        ratios.extend(b / a for a, b in zip(gaps, gaps[1:]) if a > 0)
        counts.append(len(rounds) - 1)
    if len(counts) < min_sessions:
        raise InsufficientData(
            f"{len(counts)} sessions with >=2 resends, need {min_sessions}"
        )
    if not ratios:
        raise InsufficientData("no session has enough resends to estimate backoff")
    return RtoEstimate(
        initial_rto=_median(first_offsets),
        backoff_base=_median(ratios),
        max_retransmissions=(_percentile(counts, 0.05), _percentile(counts, 0.95)),
        sample_count=len(counts),
    )


class FingerprintProfile(NamedTuple):
    """One row of the known-configuration table."""

    operator: str
    rto: RtoEstimate
    coalescence: bool
    structured_scids: bool


def _int_pair(value) -> tuple[int, int]:
    lo, hi = list_of(of_type(int))(value)
    return lo, hi


_KNOWN_PROFILE_FIELDS = {
    "retransmission_range": _int_pair,
    "initial_rto": of_type(float),
    "backoff_base": of_type(float),
    "coalescence": of_type(bool),
    "structured_scids": of_type(bool),
}
_known_profile = object_of(
    {**_KNOWN_PROFILE_FIELDS, "simulated_retransmissions": of_type(int)}, required=tuple(_KNOWN_PROFILE_FIELDS)
)


def load_known_profiles(path: Optional[str | Path] = None) -> list[FingerprintProfile]:
    """Load the known-configuration table (ships with measured defaults for
    the three profiled hypergiants; the file is editable). A key that is
    missing or of the wrong JSON type, or a simulated_retransmissions outside
    the row's retransmission_range, raises FingerprintError naming the file,
    the profile and the key."""
    profiles = []
    for operator, raw in read_profiles(path).items():
        try:
            cfg = _known_profile(raw)
            rto = RtoEstimate(cfg["initial_rto"], cfg["backoff_base"], cfg["retransmission_range"], 0)
            lo, hi = rto.max_retransmissions
            if not lo <= cfg.get("simulated_retransmissions", lo) <= hi:
                raise ValueError(f"simulated_retransmissions is outside retransmission_range [{lo}, {hi}]")
        except KeyError as exc:
            raise FingerprintError(f"{path}: profile {operator!r} is missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise FingerprintError(f"{path}: profile {operator!r}: {exc}") from None
        profiles.append(FingerprintProfile(operator, rto, cfg["coalescence"], cfg["structured_scids"]))
    return profiles


def rto_distance(
    observed: RtoEstimate, reference: RtoEstimate, rto_tolerance=RTO_TOLERANCE, backoff_tolerance=BACKOFF_TOLERANCE
) -> Optional[float]:
    """The relative distance of the observed initial RTO from the reference
    one, or None where the signatures differ: that distance exceeds
    `rto_tolerance`, the backoff bases (RFC 9002's PTO backoff) differ by more
    than `backoff_tolerance`, or the retransmission ranges do not overlap."""
    distance = abs(observed.initial_rto - reference.initial_rto) / reference.initial_rto
    if distance > rto_tolerance or abs(observed.backoff_base - reference.backoff_base) > backoff_tolerance:
        return None
    (lo, hi), (ref_lo, ref_hi) = observed.max_retransmissions, reference.max_retransmissions
    return distance if lo <= ref_hi and hi >= ref_lo else None


def match_profile(observed: FingerprintProfile, known: Sequence[FingerprintProfile]) -> Optional[str]:
    """The known configuration an observed fingerprint matches: coalescence
    and structured-SCID flags agree exactly and rto_distance finds the RTO
    signatures alike. Ties break toward the smallest distance, then table
    order; None means no profile qualifies."""
    matches = [
        (distance, candidate.operator)
        for candidate in known
        if (candidate.coalescence, candidate.structured_scids) == (observed.coalescence, observed.structured_scids)
        and (distance := rto_distance(observed.rto, candidate.rto)) is not None
    ]
    return min(matches, key=lambda match: match[0])[1] if matches else None


def observed_profile(
    operator: str,
    rto: RtoEstimate,
    traits: Traits,
    scheme: Optional[ScidScheme] = None,
) -> FingerprintProfile:
    """Assemble the observed fingerprint of one operator from the RTO
    estimate of its sessions, the traits of its datagrams, and (optionally)
    an SCID scheme classification."""
    structured = scheme is not None and scheme.kind == SchemeKind.STRUCTURED
    return FingerprintProfile(operator=operator, rto=rto, coalescence=traits.coalescence, structured_scids=structured)
