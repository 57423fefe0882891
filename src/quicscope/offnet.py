"""Off-net deployment detection: per-source feature vectors, named
classification rules, and confusion-matrix evaluation against ground truth.

TLS-certificate and PTR collection happen elsewhere; ground-truth labels
arrive as a plain `ip<TAB>label` file.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import PreconditionError
from .fingerprint import (
    BACKOFF_TOLERANCE, RTO_TOLERANCE, FingerprintProfile, InsufficientData, RtoEstimate, estimate_rto,
    load_known_profiles, rto_distance,
)
from .ingest import Session, Traits
from .scid import detect_cloudflare_signature, facebook_fields, low_host_id
from .tables import list_of, load_listing, of_type, read_json_fields

NOT_OPERATOR = "NotOperator"
DEFAULT_SOURCE_MIN_SESSIONS = 5

RULE_NAMES = (
    "Inter arrival time",
    "SCID & Inter arrival time",
    "SCID & coalescence & Inter arrival time",
    "QUIC packet length",
    "SCID & coalescence & QUIC packet length",
    "Coalescence",
    "SCID",
    "SCID & coalescence",
    "SCID off-net (low host ID)",
)


class ClassifierError(ValueError):
    pass


class UnknownRule(ClassifierError, PreconditionError):
    pass


class MissingLabel(ClassifierError, PreconditionError):
    pass


class SourceFeatures(NamedTuple):
    """Observable traits of one backscatter source address.

    Absent features are None, never defaulted: a source with one packet has
    no retransmission signature, and low_host_id exists only when at least
    one SCID decoded under the Facebook v1 layout.
    """

    scid_structured: bool
    scid_scheme_match: Optional[str]
    coalescence: bool
    rto_signature: Optional[RtoEstimate]
    length_signature: frozenset[tuple[tuple[str, ...], int]]
    low_host_id: Optional[bool]


def extract_features(
    traits: Traits,
    sessions: Sequence[Session],
    min_rto_sessions: int = DEFAULT_SOURCE_MIN_SESSIONS,
) -> SourceFeatures:
    """Deterministically assemble the feature vector of one source from the
    traits of its responses and their sessions. Each unique SCID is decoded
    once."""
    scids = traits.scids
    decoded = [fields for fields in map(facebook_fields, scids) if fields is not None]
    scheme_match: Optional[str] = None
    if scids:
        if detect_cloudflare_signature(scids):
            scheme_match = "Cloudflare"
        elif len(decoded) == len(scids):
            scheme_match = "Facebook"
    v1_fields = [f for f in decoded if f.scid_version == 1]
    low = all(low_host_id(f) for f in v1_fields) if v1_fields else None
    try:
        rto: Optional[RtoEstimate] = estimate_rto(sessions, min_sessions=min_rto_sessions)
    except InsufficientData:
        rto = None
    return SourceFeatures(
        scid_structured=scheme_match is not None,
        scid_scheme_match=scheme_match,
        coalescence=traits.coalescence,
        rto_signature=rto,
        length_signature=frozenset(traits.shapes),
        low_host_id=low,
    )


class RuleParams(NamedTuple):
    """Thresholds shared by all rules, loadable from a JSON rule-set file, and
    their reference, the target operator's row of the profile table."""

    target_operator: str = "Facebook"
    rto_tolerance: float = RTO_TOLERANCE
    backoff_tolerance: float = BACKOFF_TOLERANCE
    reference_shapes: Optional[frozenset[tuple[tuple[str, ...], int]]] = None
    reference: Optional[FingerprintProfile] = None

    @classmethod
    def load(cls, path: str | Path) -> "RuleParams":
        """Read a JSON rule set; keys that are not fields, such as _comment,
        are ignored. A bad value, or a reference key the profile table now
        holds, raises StoreError naming the file and the key."""
        return cls(**read_json_fields(path, _RULE_FIELDS))

    def with_reference(self, profiles: Optional[str | Path] = None) -> "RuleParams":
        """These params with the target operator's row of the profile table
        (the shipped one when `profiles` is None) as the reference."""
        for profile in load_known_profiles(profiles):
            if profile.operator == self.target_operator:
                return self._replace(reference=profile)
        raise ClassifierError(f"{profiles or 'shipped profile table'}: no profile for {self.target_operator!r}")


_number = of_type(float)


def _shape(value) -> tuple[tuple[str, ...], int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected [[packet type, ...], datagram length], got {value}")
    return tuple(list_of(of_type(str))(value[0])), _number(value[1])


def _reference_shapes(value) -> Optional[frozenset[tuple[tuple[str, ...], int]]]:
    # null or empty: the shapes come from on-net reference traffic at run time
    if value is None:
        return None
    return frozenset(list_of(_shape)(value)) or None


def _moved_to_profiles(value):
    raise ValueError("is no longer read; the target operator's row of the --profiles table holds it")


_RULE_FIELDS = {
    "target_operator": of_type(str),
    "rto_tolerance": _number,
    "backoff_tolerance": _number,
    "reference_shapes": _reference_shapes,
    **dict.fromkeys(("rto_reference", "backoff_reference", "count_range", "expected_coalescence"), _moved_to_profiles),
}


def _rto_matches(features: SourceFeatures, params: RuleParams) -> bool:
    rto = features.rto_signature
    if rto is None:
        return False
    return rto_distance(rto, params.reference.rto, params.rto_tolerance, params.backoff_tolerance) is not None


def _scid_matches(features: SourceFeatures, params: RuleParams) -> bool:
    return features.scid_scheme_match == params.target_operator


def _coalescence_matches(features: SourceFeatures, params: RuleParams) -> bool:
    return features.coalescence == params.reference.coalescence


def _length_matches(features: SourceFeatures, params: RuleParams) -> bool:
    if params.reference_shapes is None or not features.length_signature:
        return False
    return features.length_signature <= params.reference_shapes


def _low_host_matches(features: SourceFeatures, params: RuleParams) -> bool:
    return _scid_matches(features, params) and features.low_host_id is True


_RULES = {
    "Inter arrival time": (_rto_matches,),
    "SCID & Inter arrival time": (_scid_matches, _rto_matches),
    "SCID & coalescence & Inter arrival time": (_scid_matches, _coalescence_matches, _rto_matches),
    "QUIC packet length": (_length_matches,),
    "SCID & coalescence & QUIC packet length": (_scid_matches, _coalescence_matches, _length_matches),
    "Coalescence": (_coalescence_matches,),
    "SCID": (_scid_matches,),
    "SCID & coalescence": (_scid_matches, _coalescence_matches),
    "SCID off-net (low host ID)": (_low_host_matches,),
}


def classify(features: SourceFeatures, rule: str, params: Optional[RuleParams] = None) -> str:
    """Apply one named rule; returns the target operator or NotOperator.
    Params without a reference take it from the shipped profile table."""
    predicates = _RULES.get(rule)
    if predicates is None:
        raise UnknownRule(f"no rule named {rule!r}; known: {', '.join(RULE_NAMES)}")
    if params is None or params.reference is None:
        params = (params or RuleParams()).with_reference()
    if all(p(features, params) for p in predicates):
        return params.target_operator
    return NOT_OPERATOR


class GroundTruth(dict):
    """Source address -> operator label (or NotOperator)."""

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        """Read `address<TAB>label` lines; `#` starts a comment line."""
        return cls(load_listing(path, _truth_entry))


def _truth_entry(line: str) -> tuple[str, str]:
    fields = line.split("\t")
    if len(fields) != 2:
        raise ValueError(f"expected 2 tab-separated fields (address, label), got {len(fields)}")
    return fields[0], fields[1].strip()


class EvalMetrics(NamedTuple):
    """Confusion-matrix metrics; a None rate marks a zero denominator."""

    tp: int
    fp: int
    tn: int
    fn: int
    tpr: Optional[float]
    fpr: Optional[float]
    tnr: Optional[float]
    fnr: Optional[float]
    precision: Optional[float]
    recall: Optional[float]

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "EvalMetrics":
        def ratio(num: int, den: int) -> Optional[float]:
            return num / den if den else None

        return cls(
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            tpr=ratio(tp, tp + fn),
            fpr=ratio(fp, fp + tn),
            tnr=ratio(tn, fp + tn),
            fnr=ratio(fn, tp + fn),
            precision=ratio(tp, tp + fp),
            recall=ratio(tp, tp + fn),
        )


def evaluate(
    predictions: dict[str, str], truth: GroundTruth, positive_label: str
) -> EvalMetrics:
    """Score predictions against ground truth for one operator.

    Every predicted source must carry a truth label; sources labelled with a
    different operator than `positive_label` count as negatives.
    """
    tp = fp = tn = fn = 0
    for ip in sorted(predictions):
        if ip not in truth:
            raise MissingLabel(f"no ground-truth label for {ip}")
        predicted_positive = predictions[ip] == positive_label
        actually_positive = truth[ip] == positive_label
        if predicted_positive and actually_positive:
            tp += 1
        elif predicted_positive:
            fp += 1
        elif actually_positive:
            fn += 1
        else:
            tn += 1
    return EvalMetrics.from_counts(tp, fp, tn, fn)
