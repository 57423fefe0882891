"""Off-net classifier: feature extraction, rule predicates, metric arithmetic."""

import random

import pytest

from quicscope import fingerprint
from quicscope.fingerprint import RtoEstimate, resend_rounds
from quicscope.ingest import sum_traits
from quicscope.offnet import (
    NOT_OPERATOR,
    RULE_NAMES,
    GroundTruth,
    MissingLabel,
    RuleParams,
    SourceFeatures,
    UnknownRule,
    classify,
    evaluate,
    extract_features,
)
from quicscope.scid import FacebookScidFields, encode_facebook_scid
from quicscope.sim import DeploymentConfig, FloodConfig, ClusterConfig, RoutingMode, default_stack_profile
from quicscope.wire import Direction

from conftest import fold, make_response, simulate_to_pcap


def features(**overrides) -> SourceFeatures:
    base = dict(
        scid_structured=False,
        scid_scheme_match=None,
        coalescence=False,
        rto_signature=None,
        length_signature=frozenset(),
        low_host_id=None,
    )
    base.update(overrides)
    return SourceFeatures(**base)


def source_features(folded, source, min_rto_sessions=5) -> SourceFeatures:
    """Features of one source address, summed from the response rows of
    fold_capture's (rows, sessions) the way classify sums them."""
    responses = [row for row in folded[0] if row.direction is Direction.RESPONSE]
    traits = sum_traits(responses, lambda row: row.src_ip)
    rounds = [resend_rounds(s.offsets) for row in responses if row.src_ip == source for s in row.sessions]
    return extract_features(traits[source], rounds, min_rto_sessions=min_rto_sessions)


def facebook_scid(host, worker=1, bits=0):
    return bytes(encode_facebook_scid(FacebookScidFields(1, host, worker, 0), random_bits=bits))


class TestExtractFeatures:
    def run_flood(self, tmp_path, operator, sources=3, l7lb=4, host_base=0):
        cfg = DeploymentConfig(
            clusters=[
                ClusterConfig(
                    vips=["203.0.113.1"],
                    l7lb_count=l7lb,
                    host_id_base=host_base,
                    routing_mode=RoutingMode.FIVE_TUPLE,
                    profile=default_stack_profile(operator),
                )
            ],
            flood=FloodConfig(sources=[f"100.64.0.{i + 1}" for i in range(sources)], duration=60.0),
            seed=21,
        )
        _, datagrams = simulate_to_pcap(cfg, tmp_path / "capture.pcap")
        return fold(datagrams)

    def test_facebook_source_features(self, tmp_path):
        folded = self.run_flood(tmp_path, "Facebook")
        # the source is the VIP that emitted the backscatter
        f = source_features(folded, "203.0.113.1", min_rto_sessions=3)
        assert f.scid_scheme_match == "Facebook"
        assert f.scid_structured
        assert not f.coalescence
        assert f.rto_signature is not None
        assert abs(f.rto_signature.initial_rto - 0.4) < 0.01
        assert f.low_host_id is True

    def test_high_host_ids_not_low(self, tmp_path):
        folded = self.run_flood(tmp_path, "Facebook", host_base=9000)
        f = source_features(folded, "203.0.113.1", min_rto_sessions=3)
        assert f.scid_scheme_match == "Facebook"
        assert f.low_host_id is False

    def test_cloudflare_scheme_match(self, tmp_path):
        folded = self.run_flood(tmp_path, "Cloudflare")
        f = source_features(folded, "203.0.113.1", min_rto_sessions=3)
        assert f.scid_scheme_match == "Cloudflare"
        assert f.coalescence

    def test_single_packet_source_has_no_rto(self):
        f = source_features(fold([make_response(0.0, src="198.51.100.9")]), "198.51.100.9")
        assert f.rto_signature is None

    def test_random_scids_do_not_match_facebook(self):
        rng = random.Random(1)
        # 4 random SCIDs: the chance all four decode as valid versions is 1/16
        folded = fold([
            make_response(0.1 * i, src="198.51.100.9", scid=rng.randbytes(8), dcid=rng.randbytes(8)) for i in range(4)
        ])
        f = source_features(folded, "198.51.100.9")
        # seeded draw picks at least one scid with version bits outside {1,2}
        assert f.scid_scheme_match is None

    def test_mixed_lengths_match_no_scheme(self):
        scids = [facebook_scid(5), facebook_scid(6, bits=(1 << 37) - 1), b"\x01" * 20]
        responses = [make_response(0.1 * i, src="198.51.100.9", scid=s, dst=f"172.16.0.{i}") for i, s in enumerate(scids)]
        f = source_features(fold(responses), "198.51.100.9")
        assert f.scid_scheme_match is None
        assert not f.scid_structured
        # the two 8-octet SCIDs still decode under the v1 layout
        assert f.low_host_id is True

    def test_each_unique_scid_decoded_once(self, monkeypatch):
        import quicscope.scid as scid

        calls = []
        decode = scid.decode_facebook_scid
        monkeypatch.setattr(scid, "decode_facebook_scid", lambda s: calls.append(s) or decode(s))
        scids = [facebook_scid(5), facebook_scid(6, bits=(1 << 37) - 1), b"\x01" * 20]
        datagrams = [
            make_response(0.1 * i, src="198.51.100.9", scid=scids[i % 3], dst=f"172.16.0.{i}") for i in range(9)
        ]
        source_features(fold(datagrams), "198.51.100.9")
        assert sorted(calls) == sorted(scids[:2])


class TestLowHostIdPredicate:
    @pytest.mark.parametrize("host,expected", [(5, True), (127, True), (128, False)])
    def test_predicate(self, host, expected):
        from quicscope.scid import decode_facebook_scid, low_host_id

        assert low_host_id(decode_facebook_scid(facebook_scid(host))) is expected


# the shipped profile table's Facebook row as the reference, read once
PARAMS = RuleParams().with_reference()


class TestClassify:
    def test_low_host_rule_positive(self):
        f = features(scid_scheme_match="Facebook", scid_structured=True, low_host_id=True)
        assert classify(f, "SCID off-net (low host ID)", PARAMS) == "Facebook"

    def test_low_host_rule_high_host(self):
        f = features(scid_scheme_match="Facebook", scid_structured=True, low_host_id=False)
        assert classify(f, "SCID off-net (low host ID)", PARAMS) == NOT_OPERATOR

    def test_unknown_rule(self):
        with pytest.raises(UnknownRule):
            classify(features(), "made-up rule", PARAMS)

    def test_scid_rule(self):
        assert classify(features(scid_scheme_match="Facebook"), "SCID", PARAMS) == "Facebook"
        assert classify(features(scid_scheme_match="Cloudflare"), "SCID", PARAMS) == NOT_OPERATOR

    def test_coalescence_rule_matches_absence_for_facebook(self):
        assert classify(features(coalescence=False), "Coalescence", PARAMS) == "Facebook"
        assert classify(features(coalescence=True), "Coalescence", PARAMS) == NOT_OPERATOR

    def test_inter_arrival_rule(self):
        good = RtoEstimate(0.41, 2.0, (8, 8), 10)
        f = features(rto_signature=good)
        assert classify(f, "Inter arrival time", PARAMS) == "Facebook"
        slow = RtoEstimate(1.0, 2.0, (8, 8), 10)
        assert classify(features(rto_signature=slow), "Inter arrival time", PARAMS) == NOT_OPERATOR
        assert classify(features(rto_signature=None), "Inter arrival time", PARAMS) == NOT_OPERATOR

    @pytest.mark.parametrize(
        "signature",
        [RtoEstimate(0.41, 1.4, (8, 8), 10), RtoEstimate(0.41, 2.0, (3, 6), 10), RtoEstimate(0.41, 2.0, (10, 12), 10)],
        ids=["backoff", "fewer-resends", "more-resends"],
    )
    def test_inter_arrival_rule_compares_the_whole_signature(self, signature):
        assert classify(features(rto_signature=signature), "Inter arrival time", PARAMS) == NOT_OPERATOR

    def test_inter_arrival_rule_takes_its_tolerances_from_the_params(self):
        f = features(rto_signature=RtoEstimate(0.46, 2.4, (8, 8), 10))
        assert classify(f, "Inter arrival time", PARAMS) == "Facebook"
        assert classify(f, "Inter arrival time", PARAMS._replace(rto_tolerance=0.1)) == NOT_OPERATOR
        assert classify(f, "Inter arrival time", PARAMS._replace(backoff_tolerance=0.3)) == NOT_OPERATOR

    def test_rules_compare_against_the_target_operators_row(self):
        # Google's row: 0.3 s, coalescence
        params = RuleParams(target_operator="Google").with_reference()
        assert classify(features(rto_signature=RtoEstimate(0.31, 2.0, (4, 4), 10)), "Inter arrival time", params) == "Google"
        assert classify(features(coalescence=True), "Coalescence", params) == "Google"
        assert classify(features(coalescence=False), "Coalescence", params) == NOT_OPERATOR

    def test_conjunction_rules(self):
        f = features(
            scid_scheme_match="Facebook",
            rto_signature=RtoEstimate(0.4, 2.0, (7, 9), 10),
            coalescence=False,
        )
        assert classify(f, "SCID & Inter arrival time", PARAMS) == "Facebook"
        assert classify(f, "SCID & coalescence & Inter arrival time", PARAMS) == "Facebook"
        f_coalescing = features(
            scid_scheme_match="Facebook",
            rto_signature=RtoEstimate(0.4, 2.0, (7, 9), 10),
            coalescence=True,
        )
        assert classify(f_coalescing, "SCID & coalescence & Inter arrival time", PARAMS) == NOT_OPERATOR

    def test_packet_length_rule_needs_reference(self):
        shapes = frozenset({(("Initial",), 1200)})
        f = features(length_signature=shapes)
        assert classify(f, "QUIC packet length", PARAMS) == NOT_OPERATOR  # no reference
        params = PARAMS._replace(reference_shapes=frozenset({(("Initial",), 1200), (("Handshake",), 115)}))
        assert classify(f, "QUIC packet length", params) == "Facebook"
        off = features(length_signature=frozenset({(("Initial",), 999)}))
        assert classify(off, "QUIC packet length", params) == NOT_OPERATOR

    def test_deterministic_and_order_independent(self):
        f = features(scid_scheme_match="Facebook", low_host_id=True)
        results = {classify(f, "SCID off-net (low host ID)", PARAMS) for _ in range(5)}
        assert results == {"Facebook"}

    def test_profile_table_is_read_once_for_any_number_of_calls(self, monkeypatch):
        reads = []

        def counted(path=None):
            reads.append(path)
            return fingerprint.load_known_profiles(path)

        monkeypatch.setattr("quicscope.offnet.load_known_profiles", counted)
        params = RuleParams().with_reference()
        f = features(scid_scheme_match="Facebook", rto_signature=RtoEstimate(0.41, 2.0, (8, 8), 10), low_host_id=True)
        for rule in RULE_NAMES * 500:
            classify(f, rule, params)
        assert reads == [None]

    def test_params_with_a_reference_are_required(self):
        # so that no call can fall back to reading the table itself
        with pytest.raises(TypeError):
            classify(features(), "SCID")
        with pytest.raises(ValueError, match="RuleParams.with_reference"):
            classify(features(), "SCID", RuleParams())


class TestEvaluate:
    def test_hand_built_confusion_matrix(self):
        # TP 3, FP 1, TN 5, FN 1 -> TPR 0.75, FPR 1/6
        predictions = {}
        truth_labels = {}
        for i in range(3):
            predictions[f"tp{i}"] = "Facebook"
            truth_labels[f"tp{i}"] = "Facebook"
        predictions["fp0"] = "Facebook"
        truth_labels["fp0"] = NOT_OPERATOR
        for i in range(5):
            predictions[f"tn{i}"] = NOT_OPERATOR
            truth_labels[f"tn{i}"] = NOT_OPERATOR
        predictions["fn0"] = NOT_OPERATOR
        truth_labels["fn0"] = "Facebook"
        metrics = evaluate(predictions, GroundTruth(truth_labels), "Facebook")
        assert metrics.tpr == pytest.approx(0.75)
        assert metrics.fpr == pytest.approx(1 / 6)
        assert metrics.tnr == pytest.approx(5 / 6)
        assert metrics.fnr == pytest.approx(0.25)
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.recall == pytest.approx(0.75)

    def test_perfect_classifier(self):
        predictions = {f"ip{i}": ("Facebook" if i < 5 else NOT_OPERATOR) for i in range(10)}
        truth = GroundTruth(dict(predictions))
        metrics = evaluate(predictions, truth, "Facebook")
        assert metrics.tpr == 1.0 and metrics.fpr == 0.0

    def test_rate_identities(self):
        rng = random.Random(4)
        predictions = {}
        truth_labels = {}
        for i in range(200):
            predictions[f"ip{i}"] = rng.choice(["Facebook", NOT_OPERATOR])
            truth_labels[f"ip{i}"] = rng.choice(["Facebook", NOT_OPERATOR])
        metrics = evaluate(predictions, GroundTruth(truth_labels), "Facebook")
        assert metrics.tpr + metrics.fnr == pytest.approx(1.0)
        assert metrics.tnr + metrics.fpr == pytest.approx(1.0)

    def test_zero_denominator_is_none_not_zero(self):
        predictions = {"a": NOT_OPERATOR}
        truth = GroundTruth({"a": NOT_OPERATOR})
        metrics = evaluate(predictions, truth, "Facebook")
        assert metrics.tpr is None
        assert metrics.fnr is None
        assert metrics.fpr == 0.0

    def test_missing_label(self):
        with pytest.raises(MissingLabel):
            evaluate({"a": "Facebook"}, GroundTruth({}), "Facebook")

    def test_truth_file_loading(self, tmp_path):
        f = tmp_path / "truth.tsv"
        f.write_text("# labels\n192.0.2.1\tFacebook\n192.0.2.2\tNotOperator\n")
        truth = GroundTruth.load(f)
        assert truth["192.0.2.1"] == "Facebook"
        assert "192.0.2.9" not in truth


class TestRuleParams:
    def test_load_from_json(self, tmp_path):
        f = tmp_path / "rules.json"
        f.write_text(
            '{"target_operator": "Facebook", "rto_tolerance": 0.1, '
            '"reference_shapes": [[["Initial"], 1200]]}'
        )
        params = RuleParams.load(f)
        assert params.target_operator == "Facebook"
        assert params.rto_tolerance == 0.1
        assert params.reference_shapes == frozenset({(("Initial",), 1200)})
        assert params.reference is None

    def test_shipped_defaults(self):
        from importlib import resources

        ref = resources.files("quicscope").joinpath("data/rules.json")
        with resources.as_file(ref) as p:
            params = RuleParams.load(p)
        assert params == RuleParams()

    def test_reference_from_the_shipped_table_equals_the_retired_constants(self):
        # rules.json held Facebook's row as rto_reference 0.4, backoff_reference
        # 2.0, count_range [7, 9] and expected_coalescence false
        reference = RuleParams().with_reference().reference
        assert reference.operator == "Facebook"
        assert (reference.rto.initial_rto, reference.rto.backoff_base) == (0.4, 2.0)
        assert reference.rto.max_retransmissions == (7, 9)
        assert reference.coalescence is False
        assert (RuleParams().rto_tolerance, RuleParams().backoff_tolerance) == (0.25, 0.5)

    def test_reference_follows_the_target_operator(self):
        reference = RuleParams(target_operator="Google").with_reference().reference
        assert reference.rto.initial_rto == 0.3 and reference.coalescence is True
        with pytest.raises(ValueError, match="shipped profile table: no profile for 'Akamai'"):
            RuleParams(target_operator="Akamai").with_reference()
