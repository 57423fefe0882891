"""CLI subcommands: pipeline wiring, manifests, exit codes, reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import pytest

from quicscope import tables
from quicscope.cli import build_parser, main
from quicscope.scid import decode_facebook_scid, encode_facebook_scid

from conftest import run_python

DEPLOY = {
    "seed": 7,
    "operator": "Facebook",
    "clusters": [
        {"vip_base": "198.51.100.0", "vip_count": 2, "l7lb_count": 12, "routing_mode": "five_tuple"}
    ],
    "flood": {"source_base": "100.64.0.0", "source_count": 50, "duration": 60.0},
}


@pytest.fixture
def deploy_config(tmp_path):
    path = tmp_path / "deploy.json"
    path.write_text(json.dumps(DEPLOY))
    return path


@pytest.fixture
def prefix_table(tmp_path):
    path = tmp_path / "prefixes.tsv"
    path.write_text("198.51.100.0/24\t32934\tFacebook\n")
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestSimulate:
    def test_outputs_and_manifest(self, deploy_config, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--config", deploy_config, "--out-dir", out) == 0
        assert (out / "capture.pcap").exists()
        assert (out / "truth.jsonl").exists()
        assert (out / "pairs.tsv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 7

    def test_seed_flag_overrides_the_config_seed(self, deploy_config, tmp_path):
        def simulate(name, *seed):
            out = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                assert run("simulate", "--config", deploy_config, *seed, "--out-dir", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            return manifest["seed"], manifest["arguments"]["seed"], (out / "capture.pcap").read_bytes()

        seed, flag, first = simulate("a", "--seed", "11")
        assert (seed, flag) == (11, 11)
        assert simulate("b", "--seed", "11") == (11, 11, first)
        seed, flag, other = simulate("c", "--seed", "12")
        assert (seed, flag) == (12, 12)
        assert other != first
        # without the flag the config's seed 7 drives the run, as --seed 7 does
        seed, flag, from_config = simulate("d")
        assert (seed, flag) == (7, None)
        assert from_config != first
        assert simulate("e", "--seed", "7")[2] == from_config

    def test_missing_config_is_input_error(self, tmp_path):
        assert run("simulate", "--config", tmp_path / "nope.json", "--out-dir", tmp_path / "o") == 2

    def test_missing_config_key_is_input_error(self, tmp_path, capsys):
        cluster = {k: v for k, v in DEPLOY["clusters"][0].items() if k != "vip_base"}
        config = tmp_path / "deploy.json"
        config.write_text(json.dumps(dict(DEPLOY, clusters=[cluster])))
        assert run("simulate", "--config", config, "--out-dir", tmp_path / "o") == 2
        assert "vip_base" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        assert pytest.raises(SystemExit, run, "simulate").value.code == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("profile", "initial_rto"),
            ("profile", "backoff_base"),
            ("cluster", "state_lifetime"),
            ("flood", "duration"),
            ("flood", "arrival_window"),
            ("flood", "ack_delay"),
            ("flood", "ack_probability"),
        ],
    )
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, section, key, value):
        # json reads NaN and Infinity, which the simulator's clock cannot order
        cluster, flood = dict(DEPLOY["clusters"][0]), dict(DEPLOY["flood"])
        if section == "profile":
            cluster["profile"] = {"initial_rto": 0.4, "max_retransmissions": 3, key: value}
        else:
            (cluster if section == "cluster" else flood)[key] = value
        config = tmp_path / "deploy.json"
        config.write_text(json.dumps(dict(DEPLOY, clusters=[cluster], flood=flood)))
        out = tmp_path / "o"
        assert run("simulate", "--config", config, "--out-dir", out) == 2
        assert f"key {key!r}: expected a finite number, got {json.dumps(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_without_flood_leaves_no_output(self, tmp_path):
        config = tmp_path / "deploy.json"
        config.write_text(json.dumps({k: v for k, v in DEPLOY.items() if k != "flood"}))
        out = tmp_path / "o"
        assert run("simulate", "--config", config, "--out-dir", out) == 2
        assert not out.exists()

    def test_failed_run_leaves_no_capture(self, deploy_config, tmp_path, monkeypatch):
        from quicscope.sim import SessionTruth

        def fail(config, capture, truth):
            capture.write(0.0, b"partial")
            truth.append(SessionTruth("203.0.113.1", "100.64.0.1", 1024, "Facebook", b"\x01", b"\x02", b"\x03", 7, 0))
            raise OSError("disk full")

        monkeypatch.setattr("quicscope.sim.simulate_flood", fail)
        # neither the capture nor truth.jsonl nor pairs.tsv is left
        with pytest.raises(OSError):
            run("simulate", "--config", deploy_config, "--out-dir", tmp_path / "o")
        assert list((tmp_path / "o").iterdir()) == []

    def test_format_is_a_usage_error(self, deploy_config, tmp_path):
        # tables are TSV only; there is no --format to choose another form
        argv = ("simulate", "--config", deploy_config, "--format", "jsonl", "--out-dir", tmp_path / "o")
        exit = pytest.raises(SystemExit, run, *argv)
        assert exit.value.code == 1
        assert not (tmp_path / "o").exists()


class TestIngest:
    def test_full_ingest(self, deploy_config, prefix_table, tmp_path):
        sim_out = tmp_path / "sim"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        ing = tmp_path / "ing"
        rc = run(
            "ingest", "--capture", sim_out / "capture.pcap",
            "--prefix-table", prefix_table, "--out-dir", ing,
        )
        assert rc == 0
        assert (ing / "sessions.jsonl").exists()
        assert (ing / "datagrams.jsonl").exists()
        counters = dict(
            line.split("\t") for line in (ing / "counters.tsv").read_text().splitlines()[1:]
        )
        assert counters["sanitization_removed_fraction"] == "0"
        assert int(counters["records_emitted"]) > 0

    def test_missing_prefix_table_no_partial_output(self, deploy_config, tmp_path):
        sim_out = tmp_path / "sim"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        ing = tmp_path / "ing"
        rc = run(
            "ingest", "--capture", sim_out / "capture.pcap",
            "--prefix-table", tmp_path / "missing.tsv", "--out-dir", ing,
        )
        assert rc == 2
        assert not ing.exists()

    def test_sanitization_counter_reports_removal(self, tmp_path, prefix_table):
        # capture dominated by scanner requests: counter must expose the share
        from quicscope.pcap import write_pcap
        from conftest import make_request, make_response

        datagrams = [make_request(0.1 * i, src="172.16.5.5") for i in range(92)]
        datagrams += [make_response(10 + 0.1 * i, dst=f"172.16.9.{i}") for i in range(8)]
        datagrams.sort(key=lambda d: d.timestamp)
        capture = tmp_path / "mix.pcap"
        write_pcap(capture, datagrams)
        scanners = tmp_path / "scanners.txt"
        scanners.write_text("172.16.5.0/24\n")
        out = tmp_path / "out"
        assert run("ingest", "--capture", capture, "--scanner-list", scanners, "--out-dir", out) == 0
        counters = dict(
            line.split("\t") for line in (out / "counters.tsv").read_text().splitlines()[1:]
        )
        assert counters["requests_dropped_by_sanitization"] == "92"
        assert float(counters["sanitization_removed_fraction"]) == pytest.approx(0.92)

    def test_garbage_capture_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"not a capture at all, sorry")
        assert run("ingest", "--capture", bad, "--out-dir", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_missing_scanner_list_no_partial_output(self, deploy_config, tmp_path):
        sim_out, ing = tmp_path / "sim", tmp_path / "ing"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        rc = run(
            "ingest", "--capture", sim_out / "capture.pcap", "--scanner-list", tmp_path / "missing.txt", "--out-dir", ing
        )
        assert rc == 2
        assert not ing.exists()

    def test_failed_run_leaves_no_partial_stores(self, deploy_config, tmp_path, monkeypatch):
        from quicscope.pcap import PcapReader

        sim_out, ing = tmp_path / "sim", tmp_path / "ing"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        read = PcapReader.datagrams

        def fail_midway(reader):
            for index, datagram in enumerate(read(reader)):
                if index == 20:
                    raise OSError("read error")
                yield datagram

        monkeypatch.setattr(PcapReader, "datagrams", fail_midway)
        with pytest.raises(OSError):
            run("ingest", "--capture", sim_out / "capture.pcap", "--out-dir", ing)
        assert not (ing / "datagrams.jsonl").exists() and not (ing / "sessions.jsonl").exists()


class TestFingerprintAndReport:
    @pytest.fixture
    def pipeline(self, deploy_config, prefix_table, tmp_path):
        sim_out, ing, fp_out = tmp_path / "sim", tmp_path / "ing", tmp_path / "fp"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        run("ingest", "--capture", sim_out / "capture.pcap", "--prefix-table", prefix_table, "--out-dir", ing)
        rc = run(
            "fingerprint", "--sessions", ing / "sessions.jsonl", "--datagrams", ing / "datagrams.jsonl",
            "--out-dir", fp_out, "--min-scids", "40",
        )
        assert rc == 0
        return tmp_path

    def test_fingerprint_matches_facebook(self, pipeline):
        rows = (pipeline / "fp" / "matches.tsv").read_text().splitlines()
        assert len(rows) == 2
        fields = rows[1].split("\t")
        assert fields[0] == "Facebook" and fields[1] == "Facebook"
        assert fields[3] == "false"  # no coalescence

    def test_report_joins_tables(self, pipeline):
        rep = pipeline / "rep"
        assert run("report", "--in-dir", pipeline / "fp", "--out-dir", rep) == 0
        table = (rep / "deployment_table.tsv").read_text().splitlines()
        assert table[0].startswith("operator\t")
        assert any(line.startswith("Facebook\t") for line in table[1:])

    def test_report_empty_inputs_ok(self, tmp_path):
        rep = tmp_path / "rep"
        (tmp_path / "nothing").mkdir()
        assert run("report", "--in-dir", tmp_path / "nothing", "--out-dir", rep) == 0
        assert (rep / "deployment_table.tsv").read_text().splitlines()[0].startswith("operator")

    def test_report_missing_in_dir_is_input_error(self, tmp_path, capsys):
        rep = tmp_path / "rep"
        assert run("report", "--in-dir", tmp_path / "nothing", "--out-dir", rep) == 2
        assert "input directory not found" in capsys.readouterr().err
        assert not rep.exists()

    def test_unlabeled_sessions_count_under_unknown(self, chain):
        # the chain ingests without a prefix table, so no record names its operator
        for name in ("packet_types.tsv", "lengths.tsv", "resends.tsv", "rto.tsv", "matches.tsv"):
            rows = tables.read_table(chain / "fingerprint" / name)
            assert rows and {row["operator"] for row in rows} == {"Unknown"}, name

    def test_fingerprint_and_scid_classify_the_modal_length_group(self, tmp_path):
        # one more cluster, labeled Facebook, whose SCIDs are 12 random octets
        config = tmp_path / "deploy.json"
        profile = {"initial_rto": 0.4, "max_retransmissions": 8, "scid_scheme": "uniform_random", "scid_length": 12}
        config.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "operator": "Facebook",
                    "clusters": [
                        {"vip_base": "198.51.100.0", "vip_count": 2, "l7lb_count": 24},
                        {"vip_base": "198.51.100.16", "vip_count": 1, "l7lb_count": 4, "profile": profile},
                    ],
                    "flood": {"source_base": "100.64.0.0", "source_count": 600, "duration": 60.0},
                }
            )
        )
        prefixes = tmp_path / "prefixes.tsv"
        prefixes.write_text("198.51.100.0/24\t32934\tFacebook\n")
        ing = tmp_path / "ing"
        assert run("simulate", "--config", config, "--out-dir", tmp_path / "sim") == 0
        assert run("ingest", "--capture", tmp_path / "sim" / "capture.pcap", "--prefix-table", prefixes, "--out-dir", ing) == 0
        fp_argv = ["--sessions", ing / "sessions.jsonl", "--datagrams", ing / "datagrams.jsonl", "--min-scids", "40"]
        assert run("fingerprint", *fp_argv, "--out-dir", tmp_path / "fp") == 0
        assert run("scid", "--datagrams", ing / "datagrams.jsonl", "--min-samples", "40", "--out-dir", tmp_path / "scid") == 0
        lengths = tables.read_table(tmp_path / "scid" / "scid_lengths.tsv")
        assert [(row["length"], row["unique_scids"]) for row in lengths] == [("8", "388"), ("12", "212")]
        (scheme,) = tables.read_table(tmp_path / "scid" / "schemes.tsv")
        (match,) = tables.read_table(tmp_path / "fp" / "matches.tsv")
        assert scheme["scheme"] == match["scheme"] == "structured"
        assert match["matched"] == "Facebook"


class TestScidCommand:
    def test_hex_scid_input(self, tmp_path):
        import random

        rng = random.Random(5)
        scids = tmp_path / "scids.txt"
        scids.write_text("\n".join(rng.randbytes(8).hex() for _ in range(1000)))
        out = tmp_path / "scid"
        assert run("scid", "--scids", scids, "--out-dir", out, "--min-samples", "500") == 0
        schemes = (out / "schemes.tsv").read_text().splitlines()
        assert "random" in schemes[1].split("\t")

    def test_echo_detection_with_pairs(self, tmp_path):
        config = dict(DEPLOY, operator="Google")
        config_path = tmp_path / "g.json"
        config_path.write_text(json.dumps(config))
        sim_out = tmp_path / "sim"
        run("simulate", "--config", config_path, "--out-dir", sim_out)
        ing = tmp_path / "ing"
        run("ingest", "--capture", sim_out / "capture.pcap", "--out-dir", ing)
        out = tmp_path / "scid"
        rc = run(
            "scid", "--datagrams", ing / "datagrams.jsonl", "--pairs", sim_out / "pairs.tsv",
            "--out-dir", out, "--min-samples", "40",
        )
        assert rc == 0
        schemes = (out / "schemes.tsv").read_text()
        assert "echo_of_client_dcid" in schemes

    def test_needs_some_input(self, tmp_path):
        assert run("scid", "--out-dir", tmp_path / "o") == 2

    def test_empty_scid_file_is_precondition_error(self, tmp_path):
        scids = tmp_path / "empty.txt"
        scids.write_text("\n")
        out = run_python("-m", "quicscope.cli", "scid", "--scids", scids, "--out-dir", tmp_path / "scid")
        assert out.returncode == 3
        assert f"{scids}: no SCIDs to analyze" in out.stderr
        assert "Traceback" not in out.stderr

    @staticmethod
    def save_store(path, datagrams, operators):
        from quicscope.ingest import ingest

        records = [record._replace(operator=operators(record)) for record in ingest(datagrams)]
        return tables.save_datagrams(path, records)

    def test_zero_length_scids_are_insufficient_data(self, tmp_path):
        from conftest import make_response

        datagrams = [make_response(0.1 * i, scid=b"", dst=f"172.16.0.{i}") for i in range(5)]
        store = self.save_store(tmp_path / "d.jsonl", datagrams, lambda record: None)
        out = run_python("-m", "quicscope.cli", "scid", "--datagrams", store, "--min-samples", "1", "--out-dir", tmp_path / "scid")
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr
        schemes = (tmp_path / "scid" / "schemes.tsv").read_text().splitlines()
        assert schemes[1].split("\t") == ["Unknown", "1", "0", "insufficient_data", "", "false"]

    def test_operator_with_only_requests_has_no_population(self, tmp_path):
        from conftest import make_request, make_response

        datagrams = [make_response(0.1 * i, scid=bytes([i]) * 8, dst=f"172.16.0.{i}") for i in range(4)]
        datagrams += [make_request(1 + 0.1 * i, dst="192.0.2.9") for i in range(4)]
        store = self.save_store(
            tmp_path / "d.jsonl", datagrams, lambda record: "Responder" if record.src_ip == "198.51.100.1" else "Requested"
        )
        assert run("scid", "--datagrams", store, "--min-samples", "1", "--out-dir", tmp_path / "scid") == 0
        lengths = (tmp_path / "scid" / "scid_lengths.tsv").read_text().splitlines()
        assert lengths[1:] == ["Responder\t8\t4"]
        schemes = (tmp_path / "scid" / "schemes.tsv").read_text()
        assert "Requested" not in schemes


class TestClassifyCommand:
    def test_missing_truth_label_is_precondition_error(self, deploy_config, tmp_path):
        sim_out, ing = tmp_path / "sim", tmp_path / "ing"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        run("ingest", "--capture", sim_out / "capture.pcap", "--out-dir", ing)
        truth = tmp_path / "truth.tsv"
        truth.write_text("")  # no labels at all
        rc = run(
            "classify", "--datagrams", ing / "datagrams.jsonl", "--truth", truth,
            "--out-dir", tmp_path / "cls", "--min-rto-sessions", "3",
        )
        assert rc == 3

    def test_unknown_rule_is_precondition_error(self, deploy_config, prefix_table, tmp_path):
        sim_out, ing = tmp_path / "sim", tmp_path / "ing"
        run("simulate", "--config", deploy_config, "--out-dir", sim_out)
        run("ingest", "--capture", sim_out / "capture.pcap", "--prefix-table", prefix_table, "--out-dir", ing)
        truth = tmp_path / "truth.tsv"
        truth.write_text("")
        rc = run(
            "classify", "--datagrams", ing / "datagrams.jsonl", "--truth", truth,
            "--out-dir", tmp_path / "cls", "--rule", "bogus rule",
        )
        assert rc == 3

    def test_unknown_rule_exits_3_before_the_store_is_read(self, tmp_path, capsys):
        datagrams, truth = tmp_path / "d.jsonl", tmp_path / "truth.tsv"
        datagrams.write_text("not a row\n")
        truth.write_text("")
        argv = ["classify", "--datagrams", datagrams, "--truth", truth, "--out-dir", tmp_path / "cls"]
        assert run(*argv, "--rule", "bogus rule") == 3
        assert "no rule named 'bogus rule'" in capsys.readouterr().err
        # the store's first row is bad: a known rule reads it and exits 2
        assert run(*argv, "--rule", "SCID") == 2
        assert f"{datagrams}:1:" in capsys.readouterr().err

    def test_profiles_set_the_rto_reference(self, chain, tmp_path):
        # the chain's Facebook VIPs resend after 0.4 s, the shipped Facebook row's initial RTO
        shipped = tables.read_profiles(None)
        profiles = tmp_path / "prof.json"
        profiles.write_text(json.dumps({"profiles": dict(shipped, Facebook=dict(shipped["Facebook"], initial_rto=1.0))}))
        argv = ["--datagrams", chain / "ingest" / "datagrams.jsonl", "--truth", chain / "truth.tsv"]
        assert run("classify", *argv, "--profiles", profiles, "--out-dir", tmp_path / "cls") == 0

        def labels(directory, rule):
            return {row["source"]: row["label"] for row in tables.read_table(directory / "predictions.tsv") if row["rule"] == rule}

        assert set(labels(chain / "classify", "Inter arrival time").values()) == {"Facebook"}
        assert set(labels(tmp_path / "cls", "Inter arrival time").values()) == {"NotOperator"}
        assert labels(tmp_path / "cls", "SCID") == labels(chain / "classify", "SCID")
        assert (tmp_path / "cls" / "features.tsv").read_bytes() == (chain / "classify" / "features.tsv").read_bytes()

    @pytest.mark.parametrize("with_profiles", [False, True], ids=["shipped", "profiles"])
    def test_target_operator_without_a_profile_exits_2(self, tmp_path, capsys, with_profiles):
        datagrams, truth, rules = tmp_path / "d.jsonl", tmp_path / "truth.tsv", tmp_path / "rules.json"
        datagrams.write_text("")
        truth.write_text("")
        rules.write_text('{"target_operator": "Akamai"}')
        argv = ["classify", "--datagrams", datagrams, "--truth", truth, "--rules", rules, "--out-dir", tmp_path / "cls"]
        profiles = tmp_path / "prof.json"
        profiles.write_text(json.dumps({"profiles": tables.read_profiles(None)}))
        assert run(*argv, *(["--profiles", profiles] if with_profiles else [])) == 2
        table = profiles if with_profiles else "shipped profile table"
        assert f"{table}: no profile for 'Akamai'" in capsys.readouterr().err
        assert not (tmp_path / "cls").exists()


class TestProbeCommand:
    def test_harvest_outputs(self, deploy_config, tmp_path):
        out = tmp_path / "probe"
        rc = run(
            "probe", "--sim-config", deploy_config, "--targets", "all",
            "--handshakes", "200", "--out-dir", out, "--seed", "5",
        )
        assert rc == 0
        unique = (out / "unique.tsv").read_text().splitlines()
        assert len(unique) == 3  # header + 2 vips
        assert (out / "clusters.tsv").exists()
        assert (out / "discovery.tsv").exists()

    def test_simulator_freed_before_the_tables(self, deploy_config, tmp_path, monkeypatch):
        # the harvests are all the tables read; the simulator's connection
        # state must be gone by the time they are built
        from quicscope import probe, sim

        simulators = []
        alive_at_tables = []
        simulator_class, discovery_curve = sim.DeploymentSimulator, probe.discovery_curve

        def tracked_simulator(*args, **kwargs):
            simulator = simulator_class(*args, **kwargs)
            simulators.append(weakref.ref(simulator))
            return simulator

        def checked_curve(harvest):
            alive_at_tables.append(simulators[0]() is not None)
            return discovery_curve(harvest)

        monkeypatch.setattr(sim, "DeploymentSimulator", tracked_simulator)
        monkeypatch.setattr(probe, "discovery_curve", checked_curve)
        argv = ["--sim-config", deploy_config, "--handshakes", "50", "--out-dir", tmp_path / "probe"]
        assert run("probe", *argv) == 0
        assert len(simulators) == 1
        assert alive_at_tables == [False, False]

    def test_campaign_config_file(self, deploy_config, tmp_path):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps(
                {
                    "targets": ["198.51.100.0"],
                    "handshakes_per_vip": 120,
                    "port_strategy": "random_seeded",
                    "seed": 9,
                }
            )
        )
        out = tmp_path / "probe"
        rc = run(
            "probe", "--sim-config", deploy_config, "--campaign-config", campaign,
            "--out-dir", out,
        )
        assert rc == 0
        unique = (out / "unique.tsv").read_text().splitlines()
        assert len(unique) == 2
        assert unique[1].split("\t")[1] == "120"

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_target_list_is_input_error(self, deploy_config, tmp_path, capsys, source):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"targets": []}))
        argv = ["--targets", ","] if source == "flag" else ["--campaign-config", campaign]
        assert run("probe", "--sim-config", deploy_config, *argv, "--out-dir", tmp_path / "probe") == 2
        assert "no targets to probe" in capsys.readouterr().err
        assert not (tmp_path / "probe").exists()

    def test_flags_override_the_campaign_file(self, deploy_config, tmp_path):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps(
                {
                    "targets": ["198.51.100.0", "198.51.100.1"],
                    "handshakes_per_vip": 30,
                    "port_strategy": "random_seeded",
                    "inter_probe_gap": 0.5,
                    "seed": 9,
                }
            )
        )
        flags = {
            "targets": "198.51.100.1",
            "handshakes": 50,
            "port_strategy": "decreasing_from_max",
            "inter_probe_gap": 0.0,
            "seed": 4,
        }
        argv = ["probe", "--sim-config", deploy_config]
        for dest, value in flags.items():
            argv += ["--" + dest.replace("_", "-"), value]
        assert run(*argv, "--campaign-config", campaign, "--out-dir", tmp_path / "with") == 0
        assert run(*argv, "--out-dir", tmp_path / "without") == 0
        manifest = json.loads((tmp_path / "with" / "manifest.json").read_text())
        assert {dest: manifest["arguments"][dest] for dest in flags} == flags
        assert manifest["seed"] == 4
        assert [row["attempts"] for row in tables.read_table(tmp_path / "with" / "unique.tsv")] == ["50"]
        for name in ("harvest.tsv", "unique.tsv", "discovery.tsv"):
            assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()

    def test_unknown_port_strategy_is_usage_error(self, tmp_path):
        from quicscope.cli import PORT_STRATEGIES
        from quicscope.probe import PortStrategy

        assert PORT_STRATEGIES == tuple(s.value for s in PortStrategy)
        rc = pytest.raises(SystemExit, run, "probe", "--port-strategy", "bogus", "--out-dir", tmp_path / "p")
        assert rc.value.code == 1

    @pytest.fixture
    def no_handshakes(self, monkeypatch):
        from quicscope.probe import SimulatorTransport

        def handshake(*args, **kwargs):
            raise AssertionError("a handshake was made")

        monkeypatch.setattr(SimulatorTransport, "handshake", handshake)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--mode", "lbtype", "--probe-interval", "0"),
            ("--mode", "lbtype", "--probe-interval", "-1"),
            ("--mode", "lbtype", "--probe-interval", "nan"),
            ("--mode", "lbtype", "--max-wait", "-5"),
            ("--mode", "lbtype", "--probe-interval", "1e-6"),
            ("--mode", "lbtype", "--max-wait", "1e9"),
            ("--inter-probe-gap", "-1"),
            ("--threshold", "2"),
            ("--handshakes", "0"),
        ],
        ids=" ".join,
    )
    def test_bad_values_exit_3_before_any_handshake(self, deploy_config, tmp_path, no_handshakes, argv):
        out = tmp_path / "p"
        rc = run("probe", "--sim-config", deploy_config, "--targets", "all", *argv, "--out-dir", out, "--seed", "1")
        assert rc == 3
        assert not out.exists()

    def test_campaign_file_gap_checked_before_any_handshake(self, deploy_config, tmp_path, no_handshakes):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"targets": ["198.51.100.0"], "inter_probe_gap": -1.0}))
        out = tmp_path / "p"
        assert run("probe", "--sim-config", deploy_config, "--campaign-config", campaign, "--out-dir", out) == 3
        assert not out.exists()

    def test_campaign_file_infinite_gap_is_input_error(self, deploy_config, tmp_path, capsys, no_handshakes):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"targets": ["198.51.100.0"], "inter_probe_gap": math.inf}))
        out = tmp_path / "p"
        assert run("probe", "--sim-config", deploy_config, "--campaign-config", campaign, "--out-dir", out) == 2
        assert f"{campaign}: key 'inter_probe_gap': expected a finite number, got Infinity" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_target_is_precondition_error(self, deploy_config, tmp_path):
        rc = run(
            "probe", "--sim-config", deploy_config, "--targets", "10.9.9.9",
            "--handshakes", "10", "--out-dir", tmp_path / "p", "--seed", "1",
        )
        assert rc == 3

    def test_lbtype_mode(self, tmp_path):
        config = {
            "seed": 3,
            "operator": "Facebook",
            "clusters": [
                {"vip_base": "198.51.100.0", "vip_count": 1, "l7lb_count": 40, "routing_mode": "cid_aware"}
            ],
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "lb"
        rc = run(
            "probe", "--sim-config", config_path, "--mode", "lbtype",
            "--targets", "198.51.100.0", "--out-dir", out, "--seed", "3",
        )
        assert rc == 0
        verdicts = (out / "verdicts.tsv").read_text()
        assert "cid_aware" in verdicts


class TestReproducibility:
    # sha256 of every non-manifest output of the chain below; manifests
    # record absolute input paths, so they differ between directories.
    GOLDEN = {
        "fp/lengths.tsv": "38e7dde6ec9cca8d1294bcf4330e474e75b80c28629921d7e82523b1e6b0ff96",
        "fp/matches.tsv": "163993a2ea63686d4c8a356c0a148bd47af2a8a2028122bf119053eebd8b8eab",
        "fp/packet_types.tsv": "953b3ba23b0dac03cffe36388dd37c8b746189c6ff466cdc7b16617b8c78f269",
        "fp/resends.tsv": "141762aa1335a15aa30ee856583222ae7a41dff86103b2c8ccc5a3c4fa97e1d6",
        "fp/rto.tsv": "7c5fd2317bca281f423367d008bf492fd3934342410c4e441a48406ce423efdc",
        "fp/version_tally.tsv": "7f9b59d8b67ef63a1283acf8aaa14d86ab5e0a1c7944c7c38f1e7db894aa78d2",
        "ing/counters.tsv": "a498276733084cb5b970b238c7b39eaa8ebc094687b634a1ff0a1d08d0d3c681",
        "ing/datagrams.jsonl": "3478b5b5946ff8df29e3116a830a2bc4ee4cc4eb0f6f73cbf2b1fd9c6f3ee7e5",
        "ing/sessions.jsonl": "338f12f5b4d48cd22823d9a9b73dbbf7a5275c5b3dbaf998b30251ee62b4f7dc",
        "probe/clusters.tsv": "5e81cad906676f3f9315c5a8c6220ed1fbf855d229ff7c1faa4f8ccecc9a196b",
        "probe/discovery.tsv": "3867deb00ae24e139036a7d85e201bd65614327031247c41bcd4df796c59b2c4",
        "probe/harvest.tsv": "996f707f4fa1380cd816b006ffd12e35905d523f5ca1eb2bb639d6d21f5a8f94",
        "probe/unique.tsv": "00503c475310b77db5ae7bf1b8f120db52b9312e2851bd81611aae17eba62e4a",
        "rep/deployment_table.tsv": "0130fd0118e5e8b0e2a151f6d9f7fdd962b02c5b533ab33a214dde24e1ec5e27",
        "rep/packet_type_table.tsv": "29e408c0757d72042039056056a9b87b58f91ac6e35c79ee98622c32fc5f744b",
        "rep/version_table.tsv": "855278d9cf9337a174951475ad081050f5a39ed96673804ef3e7eb425bf3fa08",
        "scid/nybbles.tsv": "bf6dbc62377cb8224b31a5c7de912822969ac5e3f6eef1ca028f96e67d316cc3",
        "scid/schemes.tsv": "19d75040bee2a1f4f6f082aa4877e1ba4fd29bd2373914dfe9be3f455b9acc2b",
        "scid/scid_lengths.tsv": "1af621fb732766b85d096f6797b9bb98cd0a26b76039828dbdda27aa02fecded",
        "scid/uniformity.tsv": "2943aad008b7a920f069e6a3e4d4420c6f724f93368e036fbf88fefd860db1f4",
        "sim/capture.pcap": "55cb94cdeda522ee90c8a34ccc8663d6e3d20143ebaacbd3a990652709cd746d",
        "sim/pairs.tsv": "b3ff066193bc71c3b05261b6fa1dcff4da354b427fcc31561ca0105025e2610d",
        "sim/truth.jsonl": "109c4c9fcd616dcd42dce33180f91799ab8401efe2ae855506c894a11fd543d8",
    }

    @staticmethod
    def run_all(base: Path, deploy_config: Path, prefix_table: Path) -> dict[str, bytes]:
        assert run("simulate", "--config", deploy_config, "--out-dir", base / "sim") == 0
        assert run("ingest", "--capture", base / "sim" / "capture.pcap", "--prefix-table", prefix_table, "--out-dir", base / "ing") == 0
        assert run("fingerprint", "--sessions", base / "ing" / "sessions.jsonl", "--datagrams", base / "ing" / "datagrams.jsonl", "--out-dir", base / "fp", "--min-scids", "40") == 0
        assert run("scid", "--datagrams", base / "ing" / "datagrams.jsonl", "--pairs", base / "sim" / "pairs.tsv", "--out-dir", base / "scid", "--min-samples", "40") == 0
        assert run("probe", "--sim-config", deploy_config, "--mode", "harvest", "--targets", "all", "--handshakes", "200", "--seed", "5", "--out-dir", base / "probe") == 0
        assert run("report", "--in-dir", base / "fp", "--out-dir", base / "rep") == 0
        return {
            p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    def test_same_args_byte_identical(self, deploy_config, prefix_table, tmp_path):
        base = tmp_path / "runs"
        first = self.run_all(base, deploy_config, prefix_table)
        for p in sorted(base.rglob("*"), reverse=True):
            p.unlink() if p.is_file() else p.rmdir()
        second = self.run_all(base, deploy_config, prefix_table)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

    def test_outputs_match_golden_digests(self, deploy_config, prefix_table, tmp_path):
        outputs = self.run_all(tmp_path / "runs", deploy_config, prefix_table)
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()
            if not name.endswith("manifest.json")
        }
        assert digests == self.GOLDEN


class TestFreeBitEquivalence:
    """The TestReproducibility chain's truth, pairs, datagram and session
    files with every server SCID masked to its fields-only encoding,
    encode_facebook_scid(decode_facebook_scid(s)). The digests were pinned
    while the free bits still came from a generator reseeded per SCID, so a
    match shows that changing how the free bits are filled moved nothing
    else: no field, no other CID, no port, no timestamp."""

    MASKED = {
        "ing/datagrams.jsonl": "fa0d0d888f1ab423381d9d1c4bff79f67ae7f06c97235c04f6fadc6dbcca553b",
        "ing/sessions.jsonl": "8096f7f923091ad1e206cb6cfe1616974fee2b6220288412b2f5fa7b2262a2cf",
        "sim/pairs.tsv": "d005ee6d2d66e88979fd64a989efd53cfdab7fa3f87f2a90cbf76873629dc378",
        "sim/truth.jsonl": "d3a217100c89265b250bd132fc96f8dae843c52054d3f4deb3b732e6cfbd5d9a",
    }

    def test_masked_outputs_match_pinned_digests(self, deploy_config, prefix_table, tmp_path):
        assert run("simulate", "--config", deploy_config, "--out-dir", tmp_path / "sim") == 0
        assert run("ingest", "--capture", tmp_path / "sim" / "capture.pcap", "--prefix-table", prefix_table, "--out-dir", tmp_path / "ing") == 0
        truth = [json.loads(line) for line in (tmp_path / "sim" / "truth.jsonl").read_text().splitlines()]
        masked = {
            row["server_scid"]: encode_facebook_scid(decode_facebook_scid(bytes.fromhex(row["server_scid"]))).hex()
            for row in truth
        }
        assert len(masked) == len(truth) == 50
        # the free bits were drawn, so masking changes every SCID
        assert all(scid != fields_only for scid, fields_only in masked.items())
        cid = re.compile(r"\b[0-9a-f]{16}\b")
        digests = {}
        for name in self.MASKED:
            text = cid.sub(lambda m: masked.get(m.group(), m.group()), (tmp_path / name).read_text())
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
        assert digests == self.MASKED


class TestScannerAndPrefixGolden:
    """Ingest with both --scanner-list and --prefix-table, which the
    TestReproducibility chain leaves out: scanner requests to a labeled
    server address, requests from outside the list, and responses from
    inside a listed prefix."""

    GOLDEN = {
        "counters.tsv": "463edc2df0e0a2660c0ac114c350635b46f9a3f096dbd97766871b11494f7161",
        "datagrams.jsonl": "53360ff669d592f24dbec3f8ccfe3729b52fa22334d4ed853df328e53b088771",
        "sessions.jsonl": "dd7120c343e0a65980d77aa65d80342cf474291ead4ee87bce933c5a62b238e4",
    }

    def test_outputs_match_golden_digests(self, tmp_path):
        from quicscope.pcap import write_pcap
        from quicscope.wire import PacketType
        from conftest import make_request, make_response

        datagrams = [make_request(0.1 * i, src=f"172.16.5.{i}", dst="198.51.100.7", scid=bytes([i]) * 8) for i in range(6)]
        datagrams += [
            make_request(1 + 0.1 * i, src=f"192.0.2.{i}", dst="203.0.113.5" if i % 2 else "10.9.9.9", scid=bytes([0x20 + i]) * 8)
            for i in range(4)
        ]
        datagrams += [
            make_response(
                2 + 0.3 * i, src="198.51.100.1", dst=f"100.64.0.{i % 3}", scid=bytes([0x40 + i % 3]) * 8,
                types=(PacketType.INITIAL, PacketType.HANDSHAKE) if i % 2 else (PacketType.INITIAL,),
            )
            for i in range(6)
        ]
        capture, scanners, prefixes = tmp_path / "c.pcap", tmp_path / "scanners.txt", tmp_path / "prefixes.tsv"
        write_pcap(capture, datagrams)
        # the responses' source lies in a scanner prefix; responses are never dropped
        scanners.write_text("172.16.5.0/24\n198.51.100.0/24\n")
        prefixes.write_text("198.51.100.0/24\t32934\tFacebook\n203.0.113.0/24\t13335\tCloudflare\n")
        out = tmp_path / "ing"
        argv = ["ingest", "--capture", capture, "--scanner-list", scanners, "--prefix-table", prefixes, "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert run(*argv) == 0
        assert stdout.getvalue() == "ingest: 16 records, 7 sessions, 37.5% removed by sanitization\n"
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.GOLDEN}
        assert digests == self.GOLDEN


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> Path:
    """Every stage run once on DEPLOY, ingested without a prefix table."""
    # each stage writes to a directory named after its subcommand
    base = tmp_path_factory.mktemp("chain")
    config, truth = base / "deploy.json", base / "truth.tsv"
    config.write_text(json.dumps(DEPLOY))
    truth.write_text("198.51.100.0\tFacebook\n198.51.100.1\tFacebook\n")
    store = base / "ingest" / "datagrams.jsonl"

    def stage(subcommand, *argv):
        # each stage's stdout is kept beside its out-dir as <subcommand>.stdout
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert run(subcommand, *argv, "--out-dir", base / subcommand) == 0
        (base / f"{subcommand}.stdout").write_text(stdout.getvalue())

    stage("simulate", "--config", config)
    stage("ingest", "--capture", base / "simulate" / "capture.pcap")
    stage("fingerprint", "--sessions", base / "ingest" / "sessions.jsonl", "--datagrams", store)
    stage("scid", "--datagrams", store, "--min-samples", "40")
    stage("classify", "--datagrams", store, "--truth", truth)
    stage("probe", "--sim-config", config, "--handshakes", "20", "--seed", "5")
    stage("report", "--in-dir", base / "fingerprint")
    return base


class TestManifest:
    """Each manifest records every option of its run, so runs that differ in
    any option write different manifests."""

    @staticmethod
    def manifest(out: Path) -> dict:
        return json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("subcommand", ["simulate", "ingest", "fingerprint", "scid", "classify", "probe", "report"])
    def test_arguments_name_every_option(self, chain, subcommand):
        (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for action in subparsers.choices[subcommand]._actions} - {"out_dir", "help"}
        manifest = self.manifest(chain / subcommand)
        assert manifest["subcommand"] == subcommand
        assert set(manifest["arguments"]) == dests

    # each stage's stdout, {base} standing for the chain's directory
    SUMMARIES = {
        "simulate": "simulate: 50 handshakes, 900 datagrams -> {base}/simulate/capture.pcap",
        "ingest": "ingest: 900 records, 50 sessions, 0.0% removed by sanitization",
        "fingerprint": "fingerprint: 1 operators, 1 matched rows",
        "scid": "scid: 1 populations analyzed",
        "classify": "classify: 2 candidate sources, 9 rules",
        "probe": "probe: mode=harvest, 2 targets",
        "report": "report: 1 operators summarized",
    }

    @pytest.mark.parametrize("subcommand", sorted(SUMMARIES))
    def test_summary_line(self, chain, subcommand):
        stdout = (chain / f"{subcommand}.stdout").read_text()
        assert stdout == self.SUMMARIES[subcommand].format(base=chain) + "\n"

    @pytest.mark.parametrize("subcommand", sorted(SUMMARIES))
    def test_outputs_are_the_files_written(self, chain, subcommand):
        written = sorted(p.name for p in (chain / subcommand).iterdir() if p.name != "manifest.json")
        assert self.manifest(chain / subcommand)["outputs"] == written

    def test_counts_and_seed(self, chain):
        simulate, ingest, probe = (self.manifest(chain / name) for name in ("simulate", "ingest", "probe"))
        assert simulate["seed"] == DEPLOY["seed"] and simulate["arguments"]["seed"] is None
        assert set(simulate["counts"]) == {"datagrams", "handshakes"}
        assert set(ingest["counts"]) == {"sessions", "records"} and ingest["seed"] is None
        assert probe["seed"] == 5 and probe["counts"] == {}

    def test_probe_without_seed_records_the_seed_it_ran_with(self, chain, tmp_path):
        argv = ("probe", "--sim-config", chain / "deploy.json", "--handshakes", "20")
        assert run(*argv, "--out-dir", tmp_path / "unseeded") == 0
        assert run(*argv, "--seed", str(DEPLOY["seed"]), "--out-dir", tmp_path / "seeded") == 0
        unseeded, seeded = self.manifest(tmp_path / "unseeded"), self.manifest(tmp_path / "seeded")
        # the deployment config's seed drives both the simulator and the campaign
        assert unseeded["seed"] == seeded["seed"] == DEPLOY["seed"]
        for name in unseeded["outputs"]:
            assert (tmp_path / "unseeded" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, option, values",
        [
            (["fingerprint", "--sessions", "{base}/ingest/sessions.jsonl", "--datagrams", "{base}/ingest/datagrams.jsonl"], "--top-lengths", ("7", "1")),
            (["scid", "--datagrams", "{base}/ingest/datagrams.jsonl", "--min-samples", "40"], "--operator", (None, "Nobody")),
            (["probe", "--sim-config", "{base}/deploy.json", "--handshakes", "20", "--seed", "5"], "--threshold", ("0.5", "0.9")),
        ],
        ids=["fingerprint-top-lengths", "scid-operator", "probe-threshold"],
    )
    def test_runs_differing_in_one_option_differ_in_manifest(self, chain, tmp_path, argv, option, values):
        argv = [a.format(base=chain) for a in argv]
        manifests = []
        for index, value in enumerate(values):
            out = tmp_path / str(index)
            assert run(*argv, *([option, value] if value is not None else []), "--out-dir", out) == 0
            manifests.append((out / "manifest.json").read_text())
        assert manifests[0] != manifests[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--capture", "c.pcap"],
            ["fingerprint", "--sessions", "s.jsonl", "--datagrams", "d.jsonl"],
            ["scid", "--scids", "s.txt"],
            ["classify", "--datagrams", "d.jsonl", "--truth", "t.tsv"],
            ["report", "--in-dir", "in"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_is_a_usage_error_where_nothing_is_seeded(self, tmp_path, capsys, argv):
        exit = pytest.raises(SystemExit, run, *argv, "--seed", "3", "--out-dir", tmp_path / "o")
        assert exit.value.code == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestOptionValues:
    """Option values that would silently corrupt the output exit 2 before
    any output is written."""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--capture", "{base}/simulate/capture.pcap"],
            ["classify", "--datagrams", "{base}/ingest/datagrams.jsonl", "--truth", "{base}/truth.tsv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_idle_gap_not_positive_and_finite(self, chain, tmp_path, capsys, argv, value):
        argv = [a.format(base=chain) for a in argv]
        assert run(*argv, "--idle-gap", value, "--out-dir", tmp_path / "out") == 2
        assert "idle gap must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_top_lengths_negative(self, chain, tmp_path, capsys):
        stores = ["--sessions", chain / "ingest" / "sessions.jsonl", "--datagrams", chain / "ingest" / "datagrams.jsonl"]
        assert run("fingerprint", *stores, "--top-lengths", "-1", "--out-dir", tmp_path / "out") == 2
        assert "--top-lengths must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_top_lengths_negative_on_empty_stores(self, tmp_path, capsys):
        sessions, datagrams = tmp_path / "sessions.jsonl", tmp_path / "datagrams.jsonl"
        sessions.write_text("")
        datagrams.write_text("")
        argv = ["--sessions", sessions, "--datagrams", datagrams, "--top-lengths", "-1"]
        assert run("fingerprint", *argv, "--out-dir", tmp_path / "out") == 2
        assert "--top-lengths must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["fingerprint", "--sessions", "{absent}", "--datagrams", "{absent}"], "--min-sessions"),
            (["fingerprint", "--sessions", "{absent}", "--datagrams", "{absent}"], "--min-scids"),
            (["scid", "--datagrams", "{absent}"], "--min-samples"),
            (["classify", "--datagrams", "{absent}", "--truth", "{absent}"], "--min-rto-sessions"),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_negative_minimum_count(self, tmp_path, capsys, argv, option):
        # no input exists, so reading one first would exit 2 naming it instead
        argv = [a.format(absent=tmp_path / "absent") for a in argv]
        assert run(*argv, option, "-3", "--out-dir", tmp_path / "out") == 2
        assert f"{option} must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "1", "-1", "2", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fingerprint", "--sessions", "{base}/ingest/sessions.jsonl", "--datagrams", "{base}/ingest/datagrams.jsonl"],
            ["scid", "--datagrams", "{base}/ingest/datagrams.jsonl", "--min-samples", "40"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_alpha_outside_the_unit_interval(self, chain, tmp_path, capsys, argv, value):
        argv = [a.format(base=chain) for a in argv]
        assert run(*argv, "--alpha", value, "--out-dir", tmp_path / "out") == 2
        assert f"alpha must be in (0, 1), got {float(value)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# options that take a value but name no file
NOT_PATHS = {"--out-dir", "--operator", "--rule", "--targets"}


def path_options():
    """A (subcommand, option) param for every option that names an input."""
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for subcommand, parser in subparsers.choices.items():
        for action in parser._actions:
            option = action.option_strings[0]
            if action.nargs is None and action.type is None and action.choices is None and option not in NOT_PATHS:
                yield pytest.param(subcommand, option, id=f"{subcommand} {option}")


class TestMissingInput:
    # a run of each subcommand that succeeds on the chain's files
    ARGV = {
        "simulate": ["--config", "{base}/deploy.json"],
        "ingest": ["--capture", "{base}/simulate/capture.pcap"],
        "fingerprint": ["--sessions", "{base}/ingest/sessions.jsonl", "--datagrams", "{base}/ingest/datagrams.jsonl"],
        "scid": ["--datagrams", "{base}/ingest/datagrams.jsonl"],
        "classify": ["--datagrams", "{base}/ingest/datagrams.jsonl", "--truth", "{base}/truth.tsv"],
        "probe": ["--sim-config", "{base}/deploy.json", "--handshakes", "20"],
        "report": ["--in-dir", "{base}/fingerprint"],
    }

    @pytest.mark.parametrize("subcommand, option", path_options())
    def test_path_that_does_not_exist_exits_2_before_any_output(self, chain, tmp_path, capsys, subcommand, option):
        argv = [a.format(base=chain) for a in self.ARGV[subcommand]]
        missing = str(tmp_path / "no" / "such" / "path")
        if option in argv:
            argv[argv.index(option) + 1] = missing
        else:
            argv += [option, missing]
        assert run(subcommand, *argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"not found: {missing}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # report --in-dir takes a directory; the test below gives it a file
    @pytest.mark.parametrize("subcommand, option", [p for p in path_options() if p.values[1] != "--in-dir"])
    def test_path_that_is_a_directory_exits_2_before_any_output(self, chain, tmp_path, capsys, subcommand, option):
        argv = [a.format(base=chain) for a in self.ARGV[subcommand]]
        if option in argv:
            argv[argv.index(option) + 1] = str(tmp_path)
        else:
            argv += [option, str(tmp_path)]
        assert run(subcommand, *argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"is not a file: {tmp_path}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_in_dir_that_is_a_file_exits_2_before_any_output(self, chain, tmp_path, capsys):
        afile = chain / "fingerprint" / "rto.tsv"
        assert run("report", "--in-dir", afile, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"input directory is not a directory: {afile}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestClassifyGolden:
    # on-net Facebook VIPs (in the prefix table), off-net Facebook VIPs with
    # low and with high host IDs, and coalescing background servers with
    # random SCIDs and Facebook's retransmission timing
    DEPLOY = {
        "seed": 11,
        "clusters": [
            {"name": "onnet", "operator": "Facebook", "vip_base": "157.240.8.1", "vip_count": 3,
             "l7lb_count": 12, "host_id_base": 4000},
            {"name": "offnet", "operator": "Facebook", "vip_base": "45.60.0.1", "vip_count": 4,
             "l7lb_count": 6, "host_id_base": 20},
            {"name": "offnet-high", "operator": "Facebook", "vip_base": "45.61.0.1", "vip_count": 2,
             "l7lb_count": 6, "host_id_base": 9000},
            {"name": "background", "vip_base": "198.18.0.1", "vip_count": 6, "l7lb_count": 4,
             "profile": {"operator": "background", "initial_rto": 0.4, "max_retransmissions": 8,
                         "coalescence": True, "scid_scheme": "uniform_random"}},
        ],
        "flood": {"source_base": "100.64.0.0", "source_count": 15, "sessions_per_vip": 5,
                  "duration": 140.0, "arrival_window": 30.0},
    }
    # sha256 of classify's outputs for the chain below
    GOLDEN = {
        "features.tsv": "6e68658c278368ce3e89f97faeac0369a9edd06be01e2cdaea3ea7f58fb7e90e",
        "metrics.tsv": "398ce97dc2cfd85881c7599fc99d914262d9d416a2d7b9b7972fb536dd236a39",
        "predictions.tsv": "ff4b5718b39a5b4062415d4f6a52c927093ebbb5e94572df10b1493a21189661",
    }

    def test_outputs_match_golden_digests(self, tmp_path):
        config, prefixes, truth = tmp_path / "deploy.json", tmp_path / "prefixes.tsv", tmp_path / "truth.tsv"
        config.write_text(json.dumps(self.DEPLOY))
        prefixes.write_text("157.240.0.0/16\t32934\tFacebook\n")
        labels = [f"157.240.8.{i}\tFacebook" for i in range(1, 4)]
        labels += [f"45.60.0.{i}\tFacebook" for i in range(1, 5)]
        labels += [f"45.61.0.{i}\tFacebook" for i in range(1, 3)]
        labels += [f"198.18.0.{i}\tNotOperator" for i in range(1, 7)]
        truth.write_text("\n".join(labels) + "\n")
        assert run("simulate", "--config", config, "--out-dir", tmp_path / "sim") == 0
        assert run("ingest", "--capture", tmp_path / "sim" / "capture.pcap", "--prefix-table", prefixes, "--out-dir", tmp_path / "ing") == 0
        assert run("classify", "--datagrams", tmp_path / "ing" / "datagrams.jsonl", "--truth", truth, "--out-dir", tmp_path / "cls") == 0
        digests = {name: hashlib.sha256((tmp_path / "cls" / name).read_bytes()).hexdigest() for name in self.GOLDEN}
        assert digests == self.GOLDEN


class TestStreamedStages:
    """Ingest and classify stream the records: eight resend rounds per
    handshake cost them no more memory than one, where a stage holding every
    record needs about four times as much."""

    SOURCES = [f"100.64.{i // 250}.{i % 250 + 1}" for i in range(1000)]

    @pytest.fixture(scope="class")
    def captures(self, tmp_path_factory) -> dict[int, Path]:
        from quicscope.pcap import PcapWriter
        from quicscope.sim import ClusterConfig, DeploymentConfig, FloodConfig, default_stack_profile, simulate_flood

        base = tmp_path_factory.mktemp("floods")
        paths = {}
        for retransmissions in (1, 8):
            profile = default_stack_profile("Facebook")._replace(max_retransmissions=retransmissions)
            config = DeploymentConfig(
                clusters=[ClusterConfig(vips=["203.0.113.1", "203.0.113.2"], l7lb_count=8, profile=profile)],
                flood=FloodConfig(sources=self.SOURCES, duration=60.0),
                seed=5,
            )
            paths[retransmissions] = base / f"r{retransmissions}.pcap"
            with paths[retransmissions].open("wb") as fh:
                simulate_flood(config, PcapWriter(fh))
        return paths

    @staticmethod
    def peak(*argv) -> int:
        """tracemalloc's peak over one in-process run of the CLI."""
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peaks(self, stage_argv) -> dict[int, int]:
        # an untraced first run fills the interpreter's free lists and
        # imports the stage's modules, so neither traced run pays for that
        assert run(*stage_argv(1, "warm-up")) == 0
        return {rounds: self.peak(*stage_argv(rounds, f"r{rounds}")) for rounds in (1, 8)}

    def test_ingest_peak_memory_independent_of_rounds(self, captures, tmp_path):
        peaks = self.peaks(lambda rounds, name: ("ingest", "--capture", captures[rounds], "--out-dir", tmp_path / name))
        assert peaks[8] <= 1.5 * peaks[1]
        assert peaks[1] <= 1.5 * peaks[8]

    def test_classify_peak_memory_independent_of_rounds(self, captures, tmp_path):
        truth = tmp_path / "truth.tsv"
        truth.write_text("203.0.113.1\tFacebook\n203.0.113.2\tFacebook\n")
        for rounds in (1, 8):
            assert run("ingest", "--capture", captures[rounds], "--out-dir", tmp_path / f"ing{rounds}") == 0
        peaks = self.peaks(
            lambda rounds, name: (
                "classify", "--datagrams", tmp_path / f"ing{rounds}" / "datagrams.jsonl", "--truth", truth,
                "--out-dir", tmp_path / name,
            )
        )
        assert peaks[8] <= 1.5 * peaks[1]
        assert peaks[1] <= 1.5 * peaks[8]


# a rule-set key whose value the profile table's target_operator row now holds
MOVED = "is no longer read; the target operator's row of the --profiles table holds it"


class TestStoreRows:
    """A store, table, list or profile entry missing a field or holding a
    bad value is an input error (exit 2) that names the file and the line or
    key; no traceback reaches the user."""

    def test_session_row_missing_key(self, tmp_path):
        sessions, datagrams = tmp_path / "sessions.jsonl", tmp_path / "datagrams.jsonl"
        sessions.write_text("\n" + json.dumps({"src": "1.2.3.4"}) + "\n")
        datagrams.write_text("")
        out = run_python(
            "-m", "quicscope.cli", "fingerprint",
            "--sessions", sessions, "--datagrams", datagrams, "--out-dir", tmp_path / "fp",
        )
        assert out.returncode == 2
        assert f"{sessions}:2: missing key 'dst'" in out.stderr
        assert "Traceback" not in out.stderr

    def test_datagram_row_missing_key(self, tmp_path):
        datagrams = tmp_path / "datagrams.jsonl"
        datagrams.write_text(json.dumps({"ts": 1.0}) + "\n")
        out = run_python("-m", "quicscope.cli", "scid", "--datagrams", datagrams, "--out-dir", tmp_path / "scid")
        assert out.returncode == 2
        assert f"{datagrams}:1: missing key 'packets'" in out.stderr
        assert "Traceback" not in out.stderr

    def test_datagram_row_unknown_direction(self, tmp_path):
        datagrams = tmp_path / "d.jsonl"
        row = {
            "ts": 1.0, "src": "198.51.100.1", "dst": "172.16.5.5", "sport": 443, "dport": 50000,
            "direction": "sideways", "length": 100, "operator": "Facebook", "asn": 32934,
            "packets": [["initial", 1, "aa" * 8, "bb" * 8]],
        }
        datagrams.write_text(json.dumps(dict(row, direction="response")) + "\n" + json.dumps(row) + "\n")
        out = run_python("-m", "quicscope.cli", "scid", "--datagrams", datagrams, "--out-dir", tmp_path / "scid")
        assert out.returncode == 2
        assert f"{datagrams}:2: 'sideways' is not a valid Direction" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "scid").exists()

    def test_datagram_row_without_packets(self, tmp_path):
        datagrams = tmp_path / "d.jsonl"
        row = {
            "ts": 1.0, "src": "198.51.100.1", "dst": "172.16.5.5", "sport": 443, "dport": 50000,
            "direction": "response", "length": 100, "operator": "Facebook", "asn": 32934, "packets": [],
        }
        datagrams.write_text(json.dumps(row) + "\n")
        out = run_python("-m", "quicscope.cli", "scid", "--datagrams", datagrams, "--out-dir", tmp_path / "scid")
        assert out.returncode == 2
        assert f"{datagrams}:1: datagram row has no packets" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "stage, argv",
        [
            ("fingerprint", ["--sessions", "{dir}/sessions.jsonl"]),
            ("scid", []),
            ("classify", ["--truth", "{dir}/truth.tsv"]),
        ],
        ids=["fingerprint", "scid", "classify"],
    )
    def test_datagram_store_last_row_malformed(self, tmp_path, stage, argv):
        # the store is read as the stage runs, so a bad row at its end must
        # still stop the stage before it writes anything
        from quicscope.ingest import ingest
        from conftest import make_response

        records = list(ingest([make_response(0.1 * i, dst=f"172.16.0.{i}") for i in range(5)]))
        store = tables.save_datagrams(tmp_path / "datagrams.jsonl", records)
        with store.open("a") as fh:
            fh.write(json.dumps({"ts": 9.0, "src": "198.51.100.1"}) + "\n")
        (tmp_path / "sessions.jsonl").write_text("")
        (tmp_path / "truth.tsv").write_text("198.51.100.1\tFacebook\n")
        out_dir = tmp_path / "out"
        out = run_python(
            "-m", "quicscope.cli", stage, "--datagrams", store, *(a.format(dir=tmp_path) for a in argv),
            "--out-dir", out_dir,
        )
        assert out.returncode == 2
        assert f"{store}:6: missing key " in out.stderr
        assert "Traceback" not in out.stderr
        assert not out_dir.exists()

    def test_session_row_timeline_value_out_of_range(self, tmp_path):
        sessions, datagrams = tmp_path / "sessions.jsonl", tmp_path / "datagrams.jsonl"
        row = {
            "src": "198.51.100.1", "dst": "172.16.5.5", "scid": "bb", "dcid": "aa", "direction": "response",
            "version": 1, "operator": "Facebook", "asn": 32934, "start_ts": 0.0,
            "timeline": [[0.0, "initial", 1200, False], [0.4, "initial", -1, False]],
        }
        sessions.write_text(json.dumps(row) + "\n")
        datagrams.write_text("")
        out = run_python(
            "-m", "quicscope.cli", "fingerprint",
            "--sessions", sessions, "--datagrams", datagrams, "--out-dir", tmp_path / "fp",
        )
        assert out.returncode == 2
        assert f"{sessions}:1: timeline entry [0.4, initial, -1]" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "fp").exists()

    def test_datagram_row_cid_too_long(self, tmp_path):
        datagrams = tmp_path / "d.jsonl"
        row = {
            "ts": 1.0, "src": "198.51.100.1", "dst": "172.16.5.5", "sport": 443, "dport": 50000,
            "direction": "response", "length": 100, "operator": "Facebook", "asn": 32934,
            "packets": [["initial", 1, "ab" * 21, "cd" * 8]],
        }
        datagrams.write_text(json.dumps(row) + "\n")
        out = run_python("-m", "quicscope.cli", "scid", "--datagrams", datagrams, "--out-dir", tmp_path / "scid")
        assert out.returncode == 2
        assert f"{datagrams}:1: CID of 21 octets exceeds 20" in out.stderr
        assert "Traceback" not in out.stderr

    def test_pairs_table_without_client_dcid(self, tmp_path):
        scids, pairs = tmp_path / "scids.txt", tmp_path / "pairs.tsv"
        scids.write_text("abcd\n")
        pairs.write_text("operator\tserver_scid\nFacebook\tabcd\n")
        out = run_python(
            "-m", "quicscope.cli", "scid", "--scids", scids, "--pairs", pairs, "--out-dir", tmp_path / "scid",
        )
        assert out.returncode == 2
        assert f"{pairs}:2: missing key 'client_dcid'" in out.stderr
        assert "Traceback" not in out.stderr

    def test_pairs_table_cell_not_hex(self, tmp_path):
        scids, pairs = tmp_path / "scids.txt", tmp_path / "pairs.tsv"
        scids.write_text("abcd\n")
        pairs.write_text("operator\tserver_scid\tclient_dcid\nFacebook\tzz\tabcd\n")
        out = run_python(
            "-m", "quicscope.cli", "scid", "--scids", scids, "--pairs", pairs, "--out-dir", tmp_path / "scid",
        )
        assert out.returncode == 2
        assert f"{pairs}:2: non-hexadecimal" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "option, text, message",
        [
            ("--prefix-table", "# prefixes\n198.51.100.0/24\tAS32934\tFacebook\n", ":2: invalid literal for int()"),
            ("--prefix-table", "198.51.100.0/24 32934 Facebook\n", ":1: expected 3 tab-separated fields"),
            ("--prefix-table", "2001:db8::/48\t64496\tExample\n", ":1: Expected 4 octets in '2001:db8::'"),
            ("--scanner-list", "203.0.113.99\n\n192.0.2.0/33\n", ":3: '33' is not a valid netmask"),
        ],
        ids=["asn-not-integer", "space-separated", "ipv6-prefix", "prefix-length-33"],
    )
    def test_ingest_list_entry_invalid(self, tmp_path, option, text, message):
        listing, capture = tmp_path / "listing.txt", tmp_path / "capture.pcap"
        listing.write_text(text)
        capture.write_bytes(b"")
        out = run_python(
            "-m", "quicscope.cli", "ingest", "--capture", capture, option, listing, "--out-dir", tmp_path / "ing",
        )
        assert out.returncode == 2
        assert f"{listing}{message}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_scid_list_line_not_hex(self, tmp_path):
        scids = tmp_path / "scids.txt"
        scids.write_text("abcd\n\nzz-not-hex\n")
        out = run_python("-m", "quicscope.cli", "scid", "--scids", scids, "--out-dir", tmp_path / "scid")
        assert out.returncode == 2
        assert f"{scids}:3: non-hexadecimal" in out.stderr
        assert "Traceback" not in out.stderr

    def test_profile_table_missing_key(self, tmp_path):
        sessions, datagrams, profiles = (tmp_path / n for n in ("sessions.jsonl", "datagrams.jsonl", "prof.json"))
        sessions.write_text("")
        datagrams.write_text("")
        profiles.write_text(json.dumps({"profiles": {"X": {"initial_rto": 1.0}}}))
        out = run_python(
            "-m", "quicscope.cli", "fingerprint", "--sessions", sessions, "--datagrams", datagrams,
            "--profiles", profiles, "--out-dir", tmp_path / "fp",
        )
        assert out.returncode == 2
        assert f"{profiles}: profile 'X' is missing key 'retransmission_range'" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("subcommand", ["fingerprint", "classify"])
    def test_profile_table_simulated_retransmissions_outside_range(self, tmp_path, subcommand):
        stores, profiles = tmp_path / "empty.jsonl", tmp_path / "prof.json"
        stores.write_text("")
        shipped = tables.read_profiles(None)
        profiles.write_text(json.dumps({"profiles": dict(shipped, Google=dict(shipped["Google"], simulated_retransmissions=7))}))
        inputs = {
            "fingerprint": ["--sessions", stores, "--datagrams", stores],
            "classify": ["--datagrams", stores, "--truth", stores],
        }
        out = run_python(
            "-m", "quicscope.cli", subcommand, *inputs[subcommand], "--profiles", profiles, "--out-dir", tmp_path / "out",
        )
        assert out.returncode == 2
        assert f"{profiles}: profile 'Google': simulated_retransmissions is outside retransmission_range [3, 6]" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("coalescence", "false", "expected boolean, got \"false\""),
            ("initial_rto", True, "expected number, got true"),
            ("initial_rto", math.nan, "expected a finite number, got NaN"),
            ("backoff_base", math.inf, "expected a finite number, got Infinity"),
        ],
    )
    def test_profile_table_matching_key_wrong_type(self, tmp_path, key, value, message):
        sessions, datagrams, profiles = (tmp_path / n for n in ("sessions.jsonl", "datagrams.jsonl", "prof.json"))
        sessions.write_text("")
        datagrams.write_text("")
        shipped = tables.read_profiles(None)
        profiles.write_text(json.dumps({"profiles": dict(shipped, Facebook=dict(shipped["Facebook"], **{key: value}))}))
        out = run_python(
            "-m", "quicscope.cli", "fingerprint", "--sessions", sessions, "--datagrams", datagrams,
            "--profiles", profiles, "--out-dir", tmp_path / "fp",
        )
        assert out.returncode == 2
        assert f"{profiles}: profile 'Facebook': key '{key}': {message}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_registry_line_not_hex(self, tmp_path):
        registry, capture = tmp_path / "reg.tsv", tmp_path / "capture.pcap"
        registry.write_text("zz\tbogus\n")
        capture.write_bytes(b"")
        out = run_python(
            "-m", "quicscope.cli", "ingest", "--capture", capture, "--registry", registry,
            "--out-dir", tmp_path / "ing",
        )
        assert out.returncode == 2
        assert f"{registry}:1: invalid literal for int() with base 16: 'zz'" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"count_range": 5}', f": key 'count_range': {MOVED}"),
            ("5", ": expected object, got 5"),
            ('{"reference_shapes": [[["Initial"]]]}', ": key 'reference_shapes': expected [[packet type"),
            ('{"rto_reference": 0.4,}', ": Expecting property name"),
            # a NaN tolerance would let every RTO match its reference
            ('{"rto_tolerance": NaN}', ": key 'rto_tolerance': expected a finite number, got NaN"),
            ('{"rto_reference": Infinity}', f": key 'rto_reference': {MOVED}"),
            ('{"count_range": [7, -Infinity]}', f": key 'count_range': {MOVED}"),
            ('{"backoff_reference": 2.0}', f": key 'backoff_reference': {MOVED}"),
            ('{"expected_coalescence": false}', f": key 'expected_coalescence': {MOVED}"),
        ],
        ids=[
            "count-range-not-list", "not-an-object", "shape-without-length", "json-syntax", "nan-tolerance",
            "infinite-reference", "infinite-count", "dropped-backoff-reference", "dropped-expected-coalescence",
        ],
    )
    def test_rule_set_invalid(self, tmp_path, text, message):
        datagrams, truth, rules = tmp_path / "d.jsonl", tmp_path / "truth.tsv", tmp_path / "rules.json"
        datagrams.write_text("")
        truth.write_text("198.18.0.1\tFacebook\n")
        rules.write_text(text)
        out = run_python(
            "-m", "quicscope.cli", "classify", "--datagrams", datagrams, "--truth", truth, "--rules", rules,
            "--out-dir", tmp_path / "cls",
        )
        assert out.returncode == 2
        assert f"{rules}{message}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_truth_line_space_separated(self, tmp_path):
        datagrams, truth = tmp_path / "d.jsonl", tmp_path / "truth.tsv"
        datagrams.write_text("")
        truth.write_text("198.18.0.1 Facebook\n")
        out = run_python(
            "-m", "quicscope.cli", "classify", "--datagrams", datagrams, "--truth", truth,
            "--out-dir", tmp_path / "cls",
        )
        assert out.returncode == 2
        assert f"{truth}:1: expected 2 tab-separated fields (address, label)" in out.stderr
        assert "Traceback" not in out.stderr

    def test_campaign_config_not_an_object(self, tmp_path):
        campaign = tmp_path / "campaign.json"
        campaign.write_text("[]")
        out = run_python(
            "-m", "quicscope.cli", "probe", "--campaign-config", campaign, "--out-dir", tmp_path / "probe",
        )
        assert out.returncode == 2
        assert f"{campaign}: expected object, got []" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["simulate", "probe"])
    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]", ": expected object, got []"),
            ('{"clusters": 5}', ": key 'clusters': expected array, got 5"),
            ('{"clusters": [{"vip_base": "198.51.100.0", "vip_count": "2"}]}', ": key 'clusters': key 'vip_count': "),
            ('{"clusters": [{"vip_count": 2, "operator": "Facebook"}]}', ": cluster 0 is missing 'vip_base'"),
        ],
    )
    def test_deployment_config_bad_shape(self, tmp_path, command, text, message):
        config = tmp_path / "deploy.json"
        config.write_text(text)
        flag = "--config" if command == "simulate" else "--sim-config"
        out = run_python("-m", "quicscope.cli", command, flag, config, "--out-dir", tmp_path / "out")
        assert out.returncode == 2
        assert f"{config}{message}" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "command,cluster,message",
        [
            ("simulate", {"vips": ["1.2.3.4"], "l7lb_count": 2}, ": VIP 1.2.3.4 assigned to two clusters"),
            ("probe", {"vips": ["1.2.3.5"], "host_ids": [1, 1]}, ": duplicate host IDs in cluster"),
            ("simulate", {"vips": ["1.2.3.5"], "l7lb_count": 0}, ": cluster needs at least one L7LB instance"),
            ("probe", {"vips": ["1.2.3.5"], "host_ids": [1 << 16]}, ": host_id 65536 does not fit in 16 bits"),
            ("probe", {"vips": ["300.1.1.1"], "l7lb_count": 1}, ": key 'clusters': key 'vips': Octet 300 (> 255) not permitted in '300.1.1.1'"),
            ("simulate", {"vips": ["1.2.3.5"], "l7lb_count": 1, "workers": 0}, ": workers must be >= 1"),
            ("simulate", {"vips": ["1.2.3.5"], "l7lb_count": 1, "workers": 257}, ": worker_id 256 does not fit in 8 bits"),
            (
                "simulate",
                {"vips": ["1.2.3.5"], "l7lb_count": 1, "profile": {"initial_rto": 1.0, "max_retransmissions": 1, "scid_length": 21}},
                ": scid_length must be 1 to 20",
            ),
            # with no lifetime, every connection expires before its next datagram
            ("simulate", {"vips": ["1.2.3.5"], "l7lb_count": 1, "state_lifetime": -5}, ": state_lifetime must be > 0"),
            ("simulate", {"vips": ["1.2.3.5"], "l7lb_count": 1, "state_lifetime": 0}, ": state_lifetime must be > 0"),
            ("probe", {"vips": ["1.2.3.5"], "l7lb_count": 1, "state_lifetime": -5}, ": state_lifetime must be > 0"),
            ("probe", {"vips": ["1.2.3.5"], "l7lb_count": 1, "state_lifetime": 0}, ": state_lifetime must be > 0"),
            # a base below 1 schedules each resend before the one it follows
            (
                "simulate",
                {"vips": ["1.2.3.5"], "l7lb_count": 1, "profile": {"initial_rto": 0.4, "max_retransmissions": 3, "backoff_base": 0.5}},
                ": backoff_base must be >= 1, got 0.5",
            ),
            (
                "probe",
                {"vips": ["1.2.3.5"], "l7lb_count": 1, "profile": {"initial_rto": 0.4, "max_retransmissions": 3, "backoff_base": -2}},
                ": backoff_base must be >= 1, got -2",
            ),
        ],
        ids=[
            "vip-in-two-clusters", "duplicate-host-ids", "no-instances", "host-id-width", "vip-not-ipv4", "no-workers",
            "worker-id-width", "scid-length", "negative-state-lifetime", "zero-state-lifetime",
            "negative-state-lifetime-probe", "zero-state-lifetime-probe", "backoff-base-below-one",
            "negative-backoff-base-probe",
        ],
    )
    def test_deployment_config_rejected_before_any_output(self, tmp_path, command, cluster, message):
        config = tmp_path / "deploy.json"
        clusters = [{"vips": ["1.2.3.4"], "l7lb_count": 2}, cluster]
        config.write_text(json.dumps(dict(DEPLOY, clusters=clusters)))
        flag = "--config" if command == "simulate" else "--sim-config"
        out = run_python("-m", "quicscope.cli", command, flag, config, "--out-dir", tmp_path / "out")
        assert out.returncode == 2
        assert f"{config}{message}" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"clusters": [], "flood": {"sources": ["100.64.0.1"], "duration": 1.0}}', ": deployment needs at least one cluster"),
            ('{"flood": {"sources": ["100.64.0.1"], "duration": 1.0}}', ": deployment config is missing 'clusters'"),
            ('{"operator": "Facebook", "clusters": [{"vips": ["1.2.3.4"], "l7lb_count": 1}]}', ": missing key 'flood'"),
            (
                json.dumps(dict(DEPLOY, flood={"source_base": "100.64.0.0", "source_count": 0, "sessions_per_vip": 2, "duration": 1.0})),
                ": flood needs at least one source",
            ),
            (
                json.dumps(dict(DEPLOY, flood={"sources": ["100.64.0.1"], "duration": 1.0, "arrival_window": -1.0})),
                ": arrival_window and ack_delay must be >= 0",
            ),
            (
                json.dumps(dict(DEPLOY, flood={"sources": ["nohost"], "duration": 1.0})),
                ": key 'flood': key 'sources': Expected 4 octets in 'nohost'",
            ),
            (
                json.dumps(dict(DEPLOY, flood={"sources": ["100.64.0.1"], "duration": -5, "sessions_per_vip": 2})),
                ": duration must be >= 0, got -5",
            ),
            (
                json.dumps(dict(DEPLOY, flood={"sources": ["100.64.0.1"], "duration": 5, "sessions_per_vip": -2})),
                ": sessions_per_vip must be >= 1, got -2",
            ),
            (
                json.dumps(dict(DEPLOY, flood={"sources": ["100.64.0.1"], "duration": 5, "ack_probability": 1.5})),
                ": ack_probability must be in [0, 1], got 1.5",
            ),
            (
                json.dumps(dict(DEPLOY, flood={"sources": ["100.64.0.1"], "duration": 5, "ack_probability": -3})),
                ": ack_probability must be in [0, 1], got -3",
            ),
        ],
        ids=[
            "empty-clusters", "no-clusters", "no-flood", "no-sources", "negative-arrival-window", "source-not-ipv4",
            "negative-duration", "negative-sessions-per-vip", "ack-probability-above-one", "negative-ack-probability",
        ],
    )
    def test_simulate_config_rejected_before_any_output(self, tmp_path, text, message):
        config = tmp_path / "deploy.json"
        config.write_text(text)
        out = run_python("-m", "quicscope.cli", "simulate", "--config", config, "--out-dir", tmp_path / "out")
        assert out.returncode == 2
        assert f"{config}{message}" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "out").exists()

    def test_report_table_missing_column(self, tmp_path):
        tally = tmp_path / "version_tally.tsv"
        tally.write_text("version\tshare\n0x00000001\t1\n")
        out = run_python("-m", "quicscope.cli", "report", "--in-dir", tmp_path, "--out-dir", tmp_path / "report")
        assert out.returncode == 2
        assert f"{tally}:2: missing key 'role'" in out.stderr
        assert "Traceback" not in out.stderr

    def test_report_table_cell_not_a_number(self, tmp_path):
        types = tmp_path / "packet_types.tsv"
        types.write_text("operator\tcategory\tdatagrams\tpercent\nFacebook\tInitial\t3\t100\nGoogle\tInitial\t3\tmany\n")
        out = run_python("-m", "quicscope.cli", "report", "--in-dir", tmp_path, "--out-dir", tmp_path / "report")
        assert out.returncode == 2
        assert f"{types}:3: could not convert string to float: 'many'" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "report").exists()


class TestStageImports:
    """Each stage loads only the quicscope modules it runs."""

    # runs main() on argv, then prints the loaded quicscope.* modules, and
    # socket, dataclasses, inspect, hashlib and _hashlib if they were loaded;
    # hashlib loads OpenSSL, which would add to every stage's peak RSS
    SCRIPT = (
        "import sys\n"
        "from quicscope.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(' '.join(sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.startswith('quicscope.') or m in ('socket', 'dataclasses', 'inspect', 'hashlib', '_hashlib')\n"
        ")))\n"
        "sys.exit(code)\n"
    )

    def loaded(self, *argv) -> set[str]:
        out = run_python("-c", self.SCRIPT, *argv)
        assert out.returncode == 0, out.stderr
        return {name.removeprefix("quicscope.") for name in out.stdout.splitlines()[-1].split()}

    @pytest.fixture
    def ingested(self, tmp_path, prefix_table):
        from quicscope.pcap import write_pcap
        from conftest import make_request, make_response

        capture, scanners = tmp_path / "capture.pcap", tmp_path / "scanners.txt"
        write_pcap(capture, [make_response(0.0), make_request(0.5), make_response(1.0)])
        scanners.write_text("172.16.5.0/24\n")
        argv = ("ingest", "--capture", capture, "--prefix-table", prefix_table, "--scanner-list", scanners)
        return argv, tmp_path / "ing"

    HASHLIB = {"hashlib", "_hashlib"}

    def test_version_loads_only_cli(self):
        assert self.loaded("--version") == {"cli"}

    def test_ingest_leaves_analysis_and_simulator_out(self, ingested):
        argv, out = ingested
        loaded = self.loaded(*argv, "--out-dir", out)
        assert {"ingest", "pcap", "tables", "wire"} <= loaded
        # the address converters come from _socket, without the socket module
        assert not loaded & {"sim", "probe", "offnet", "fingerprint", "scid", "socket", "dataclasses", "inspect"}
        assert not loaded & self.HASHLIB

    def test_analysis_stages_leave_simulator_out(self, ingested, tmp_path):
        argv, ing = ingested
        assert run(*argv, "--out-dir", ing) == 0
        truth = tmp_path / "truth.tsv"
        truth.write_text("198.51.100.1\tFacebook\n")
        fingerprint = self.loaded(
            "fingerprint", "--sessions", ing / "sessions.jsonl", "--datagrams", ing / "datagrams.jsonl",
            "--out-dir", tmp_path / "fp",
        )
        scid = self.loaded("scid", "--datagrams", ing / "datagrams.jsonl", "--min-samples", "1", "--out-dir", tmp_path / "scid")
        classify = self.loaded(
            "classify", "--datagrams", ing / "datagrams.jsonl", "--truth", truth, "--out-dir", tmp_path / "cls",
        )
        assert "fingerprint" in fingerprint and "scid" in scid and "offnet" in classify
        # the analyses read the datagram store, never a capture
        assert not (fingerprint | scid | classify) & {"sim", "probe", "pcap", "socket", "dataclasses", "inspect"}
        assert not (fingerprint | scid | classify) & self.HASHLIB

    def test_probe_leaves_capture_and_analyses_out(self, deploy_config, tmp_path):
        loaded = self.loaded(
            "probe", "--sim-config", deploy_config, "--handshakes", "5", "--out-dir", tmp_path / "probe"
        )
        assert {"sim", "probe", "scid", "wire", "tables"} <= loaded
        # a probe writes no capture, so neither pcap nor socket is loaded
        assert not loaded & {"pcap", "socket", "ingest", "fingerprint", "offnet", "dataclasses", "inspect"}
        assert not loaded & self.HASHLIB

    def test_simulate_and_lbtype_load_neither_dataclasses_nor_inspect(self, deploy_config, tmp_path):
        simulate = self.loaded("simulate", "--config", deploy_config, "--out-dir", tmp_path / "sim")
        lbtype = self.loaded(
            "probe", "--sim-config", deploy_config, "--mode", "lbtype", "--targets", "198.51.100.0",
            "--out-dir", tmp_path / "lb",
        )
        assert {"sim", "pcap", "tables"} <= simulate and {"sim", "probe"} <= lbtype
        # the record and config classes are named tuples and plain classes
        assert not (simulate | lbtype) & {"dataclasses", "inspect"}
        assert not (simulate | lbtype) & self.HASHLIB

    def test_report_leaves_capture_side_out(self, tmp_path):
        (tmp_path / "nothing").mkdir()
        loaded = self.loaded("report", "--in-dir", tmp_path / "nothing", "--out-dir", tmp_path / "rep")
        assert "tables" in loaded
        # report reads and writes tables only: no store types, no wire codec
        assert not loaded & {
            "ingest", "wire", "dataclasses", "inspect", "pcap", "sim", "probe", "fingerprint", "scid", "offnet"
        }
        assert not loaded & self.HASHLIB
