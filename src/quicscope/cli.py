"""Command-line entry point wiring the toolkit into reproducible pipelines.

Subcommands: simulate, ingest, fingerprint, scid, classify, probe, report.
Each builds its results as (file name, header, rows) tables and hands them
to one writer, which writes them and a manifest listing every output;
identical manifests yield byte-identical outputs. Exit codes: 0 success,
1 usage, 2 input error (an InputError), 3 analysis precondition unmet (a
PreconditionError); any other exception is a bug and keeps its traceback.

Each subcommand imports the modules it runs when it runs, so a stage (or
`--version`) never pays for loading the others.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import InputError, PreconditionError, __version__

if TYPE_CHECKING:
    from pathlib import Path

    from .wire import VersionRegistry

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

ANYCAST_WARNING = (
    "warning: load-balancer probing against real networks is unreliable under "
    "IP anycast; follow-up probes may reach a different site entirely"
)
PROFILES_HELP = "known-configuration table (JSON; default: the shipped profiles.json)"
# the values of probe.PortStrategy, named here so the parser needs no probe import
PORT_STRATEGIES = ("decreasing_from_max", "random_seeded")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _require(path: str | None, what: str, directory: bool = False) -> Path | None:
    """The path of an input that must be a file (or, with `directory`, a
    directory); None stays None."""
    from pathlib import Path

    if path is None:
        return None
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} not found: {p}")
    if not (p.is_dir() if directory else p.is_file()):
        raise InputError(f"{what} is not a {'directory' if directory else 'file'}: {p}")
    return p


def _registry(args) -> VersionRegistry:
    from . import tables
    from .wire import VersionRegistry

    if getattr(args, "registry", None):
        return tables.load_version_registry(_require(args.registry, "version registry"))
    return VersionRegistry.default()


def _out_dir(args) -> Path:
    from pathlib import Path

    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file at the path or above it
        raise InputError(f"cannot make --out-dir {out}: {exc.strerror}") from None
    return out


def _write_outputs(
    args,
    summary: str,
    tables: Iterable[tuple[str, Sequence[str], Iterable[Sequence]]] = (),
    stores: Iterable[Path] = (),
    seed: int | None = None,
    **counts: int,
) -> int:
    """Write each (file name, header, rows) table into --out-dir, making it if
    the stage has not, then `manifest.json`, then print the stage's summary.

    The manifest's outputs are the tables written here and the `stores` the
    stage streamed itself. It records every option of the run as parsed
    (paths as given), so that no option that changes an output can be left
    out, and the seed that drove the run. Identical manifests imply
    byte-identical outputs, so nothing time- or host-dependent belongs in
    it; `counts` only records what the run derived."""
    import json

    from .tables import write_table

    out = _out_dir(args)
    outputs = [store.name for store in stores]
    for name, header, rows in tables:
        write_table(out / name, header, rows)
        outputs.append(name)
    manifest = {
        "tool": "quicscope",
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "seed": seed,
        "arguments": {k: v for k, v in vars(args).items() if k not in ("handler", "subcommand", "out_dir")},
        "outputs": sorted(outputs),
        "counts": counts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(summary)
    return EXIT_OK


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    from . import sim, tables
    from .pcap import PcapWriter

    config_path = _require(args.config, "deployment config")
    config = sim.DeploymentConfig.from_json(config_path)
    if args.seed is not None:
        config = config._replace(seed=args.seed)
    if config.flood is None:
        raise InputError(f"{config_path}: missing key 'flood'")
    out = _out_dir(args)
    stores = capture_path, truth_path, pairs_path = out / "capture.pcap", out / "truth.jsonl", out / "pairs.tsv"
    try:
        with (
            capture_path.open("wb", buffering=tables.WRITE_BLOCK) as fh,
            truth_path.open("w", buffering=tables.WRITE_BLOCK) as truth_fh,
            pairs_path.open("w", buffering=tables.WRITE_BLOCK) as pairs_fh,
        ):
            capture, truth = PcapWriter(fh), tables.TruthWriter(truth_fh, pairs_fh)
            sim.DeploymentSimulator(config, capture, truth).run_flood()
    except BaseException:
        # no manifest names an output cut short, so none is left behind
        for path in stores:
            path.unlink(missing_ok=True)
        raise
    return _write_outputs(
        args,
        f"simulate: {truth.rows} handshakes, {capture.records} datagrams -> {capture_path}",
        stores=stores,
        seed=config.seed,
        datagrams=capture.records,
        handshakes=truth.rows,
    )


# --- ingest ------------------------------------------------------------------


def cmd_ingest(args) -> int:
    from . import tables
    from .ingest import IngestCounters, fold_capture
    from .pcap import PcapReader
    from .wire import PlausibilityConfig

    capture_path = _require(args.capture, "capture file")
    prefix_table = None
    if args.prefix_table:
        prefix_table = tables.load_prefix_table(_require(args.prefix_table, "prefix table"))
    scanners = None
    if args.scanner_list:
        scanners = tables.load_scanner_list(_require(args.scanner_list, "scanner list"))
    registry = _registry(args)
    plausibility = PlausibilityConfig(
        registry=registry,
        allow_greased=args.allow_greased,
        allow_unknown=args.allow_unknown_versions,
    )
    # a file that is not a capture fails here, before any output exists
    capture = PcapReader(capture_path)
    counters = IngestCounters()
    rows, sessions = fold_capture(
        capture.datagrams(), plausibility, counters, scanners, prefix_table, capture.counters, args.idle_gap
    )

    out = _out_dir(args)
    stores = out / "datagrams.jsonl", out / "sessions.jsonl"
    try:
        tables.save_stores(*stores, rows, sessions)
    except BaseException:
        # no manifest names a store cut short, so none is left behind
        for path in stores:
            path.unlink(missing_ok=True)
        raise
    return _write_outputs(
        args,
        f"ingest: {counters.emitted} records, {len(sessions)} sessions, "
        f"{counters.removed_fraction():.1%} removed by sanitization",
        [("counters.tsv", ["metric", "value"], sorted(counters.as_dict().items()))],
        stores=stores,
        sessions=len(sessions),
        # emitted counts the scanner requests that sanitization then drops
        records=counters.emitted - counters.requests_dropped,
    )


# --- fingerprint -------------------------------------------------------------


def _operator_or_unknown(row) -> str:
    """The operator a store row or session is counted under; one the prefix
    table does not name counts as Unknown."""
    return row.operator or "Unknown"


def _check_minimums(args, *options: str) -> None:
    """Raise InputError for a count option below 0. A negative minimum would
    act as 0, and a negative --top-lengths would drop the last shape, so the
    manifest would record a setting the run did not use as written."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value < 0:
            raise InputError(f"{option} must be >= 0, got {value}")


def cmd_fingerprint(args) -> int:
    from . import fingerprint as fp, scid, tables
    from .ingest import Traits, sum_traits

    _check_minimums(args, "--min-sessions", "--min-scids", "--top-lengths")
    scid.check_alpha(args.alpha)
    registry = _registry(args)
    rounds_by_operator: dict[str, list] = {}

    def keep_rounds(session):
        # a session's resend rounds are all that is kept of it once it is tallied
        rounds_by_operator.setdefault(_operator_or_unknown(session), []).append(fp.resend_rounds(session.offsets))
        return session

    tally = fp.version_tally(map(keep_rounds, tables.read_sessions(_require(args.sessions, "session store"))), registry)
    # each operator's rounds are let go once its resends and RTO are read off them
    operators = sorted(rounds_by_operator)
    resend_rows = []
    estimates = {}
    for op in operators:
        rounds = rounds_by_operator.pop(op)
        for count, n in fp.resend_count_distribution(rounds).items():
            resend_rows.append((op, count, n))
        try:
            estimates[op] = fp.estimate_rto(rounds, min_sessions=args.min_sessions)
        except fp.InsufficientData:
            pass
    traits = sum_traits(tables.read_key_rows(_require(args.datagrams, "datagram store")), _operator_or_unknown)
    known = fp.load_known_profiles(_require(args.profiles, "profile table"))

    stats_rows = []
    hist_rows = []
    for operator in sorted(traits):
        counts = traits[operator].type_counts()
        total = sum(counts.values())
        for category, n in sorted(counts.items()):
            stats_rows.append((operator, category, n, 100.0 * n / total))
        for types, length, n in traits[operator].top_shapes(args.top_lengths):
            hist_rows.append((operator, ",".join(types), length, n))

    rto_rows = []
    match_rows = []
    for op, estimate in estimates.items():
        low, high = estimate.max_retransmissions
        rto_rows.append((op, estimate.sample_count, estimate.initial_rto, estimate.backoff_base, low, high))
        # a session store from another capture may name an operator the datagram store lacks
        op_traits = traits.get(op, Traits({}, set()))
        population = scid.modal_group(scid.length_groups(sorted(op_traits.scids)))
        scheme = None
        try:
            scheme = scid.classify_scheme(population, alpha=args.alpha, min_samples=args.min_scids)
        except scid.ScidAnalysisError:
            pass
        profile = fp.observed_profile(op, estimate, op_traits, scheme)
        matched = fp.match_profile(profile, known)
        match_rows.append(
            (
                op,
                matched or "Unknown",
                profile.rto.initial_rto,
                profile.coalescence,
                profile.structured_scids,
                scheme.kind.value if scheme else "",
            )
        )
    return _write_outputs(
        args,
        f"fingerprint: {len(operators)} operators, {len(match_rows)} matched rows",
        [
            ("version_tally.tsv", ["role", "version", "sessions", "share"], tally.rows()),
            ("packet_types.tsv", ["operator", "category", "datagrams", "percent"], stats_rows),
            ("lengths.tsv", ["operator", "types", "length", "count"], hist_rows),
            ("resends.tsv", ["operator", "resend_rounds", "sessions"], resend_rows),
            ("rto.tsv", ["operator", "sessions", "initial_rto", "backoff_base", "count_p5", "count_p95"], rto_rows),
            (
                "matches.tsv",
                ["operator", "matched", "initial_rto", "coalescence", "structured_scids", "scheme"],
                match_rows,
            ),
        ],
    )


# --- scid --------------------------------------------------------------------


def cmd_scid(args) -> int:
    from . import scid, tables
    from .ingest import sum_traits
    from .wire import Direction

    _check_minimums(args, "--min-samples")
    scid.check_alpha(args.alpha)
    if args.scids:
        scids = sorted(set(tables.load_lines(_require(args.scids, "SCID file"), bytes.fromhex)))
        if not scids:
            raise scid.InsufficientSamples(f"{args.scids}: no SCIDs to analyze")
        populations = {"all": scids}
    elif args.datagrams:
        rows = tables.read_key_rows(_require(args.datagrams, "datagram store"))
        response = Direction.RESPONSE
        traits = sum_traits((row for row in rows if row.direction is response), _operator_or_unknown)
        populations = {op: sorted(t.scids) for op, t in traits.items() if not args.operator or op == args.operator}
    else:
        raise InputError("need --scids or --datagrams")

    pairs = []
    if args.pairs:
        pairs = tables.read_table(
            _require(args.pairs, "pairs file"),
            from_row=lambda row: (row["operator"], bytes.fromhex(row["server_scid"]), bytes.fromhex(row["client_dcid"])),
        )
    nybble_rows = []
    uniformity_rows = []
    scheme_rows = []
    length_rows = []
    for op in sorted(populations):
        by_length = scid.length_groups(populations[op])
        for length in sorted(by_length):
            group = by_length[length]
            length_rows.append((op, length, len(group)))
            matrix = scid.nybble_frequencies(group)
            for pos, value, count, rel in matrix.rows():
                nybble_rows.append((op, length, pos, value, count, rel))
            try:
                verdicts = scid.uniformity_test(matrix, alpha=args.alpha, min_samples=args.min_samples)
            except scid.InsufficientSamples:
                continue
            for pos, verdict in enumerate(verdicts):
                uniformity_rows.append((op, length, pos, verdict.value))
        group = scid.modal_group(by_length)
        op_pairs = [pair for pair in pairs if pair[0] == op]
        if not op_pairs and len(populations) == 1:
            # unlabeled population: apply the whole pairs file
            op_pairs = pairs
        # echo detection needs the client DCIDs, which only a pairs file has
        _, scids, client_dcids = zip(*op_pairs) if op_pairs else (None, group, None)
        flagged = ""
        try:
            result = scid.classify_scheme(scids, client_dcids, alpha=args.alpha, min_samples=args.min_samples)
            scheme_kind = result.kind.value
            flagged = ",".join(str(p) for p in sorted(result.flagged_positions))
        except scid.ScidAnalysisError:
            scheme_kind = "insufficient_data"
        scheme_rows.append(
            (op, len(group), len(group[0]), scheme_kind, flagged, scid.detect_cloudflare_signature(group))
        )

    return _write_outputs(
        args,
        f"scid: {len(populations)} populations analyzed",
        [
            ("nybbles.tsv", ["operator", "length", "position", "value", "count", "rel_freq"], nybble_rows),
            ("uniformity.tsv", ["operator", "length", "position", "verdict"], uniformity_rows),
            (
                "schemes.tsv",
                ["operator", "scids", "length", "scheme", "flagged_positions", "cloudflare_signature"],
                scheme_rows,
            ),
            ("scid_lengths.tsv", ["operator", "length", "unique_scids"], length_rows),
        ],
    )


# --- classify ----------------------------------------------------------------


def cmd_classify(args) -> int:
    from . import offnet, tables
    from .fingerprint import resend_rounds
    from .ingest import sum_traits
    from .wire import Direction

    _check_minimums(args, "--min-rto-sessions")
    if args.rule != "all" and args.rule not in offnet.RULE_NAMES:
        raise offnet.UnknownRule(f"no rule named {args.rule!r}")
    datagrams = _require(args.datagrams, "datagram store")
    truth = offnet.GroundTruth.load(_require(args.truth, "ground-truth labels"))
    params = offnet.RuleParams.load(_require(args.rules, "rule set")) if args.rules else offnet.RuleParams()
    params = params.with_reference(_require(args.profiles, "profile table"))

    response = Direction.RESPONSE
    # each session's resend rounds are all that classify reads of it
    responses = [row for row in tables.read_key_rows(datagrams, resend_rounds) if row.direction is response]
    traits = sum_traits(responses, lambda row: (row.src_ip, row.operator))
    sessions: dict[str, list] = {}
    for row in responses:
        sessions.setdefault(row.src_ip, []).extend(row.sessions)
    # on-net responses of the target operator provide the packet-length reference
    reference_shapes = frozenset(
        shape for (_, operator), t in traits.items() if operator == params.target_operator for shape in t.shapes
    )
    if reference_shapes and params.reference_shapes is None:
        params = params._replace(reference_shapes=reference_shapes)

    labeled_sources = {src for src, operator in traits if operator is not None}
    candidates = sorted(src for src, _ in traits if src not in labeled_sources)
    features = {
        src: offnet.extract_features(traits[src, None], sessions.get(src, []), min_rto_sessions=args.min_rto_sessions)
        for src in candidates
    }

    rules = offnet.RULE_NAMES if args.rule == "all" else (args.rule,)
    feature_rows = []
    for src in candidates:
        f = features[src]
        feature_rows.append(
            (
                src,
                f.scid_scheme_match or "",
                f.scid_structured,
                f.coalescence,
                f.rto_signature.initial_rto if f.rto_signature else None,
                f.rto_signature.backoff_base if f.rto_signature else None,
                f.low_host_id,
                len(f.length_signature),
            )
        )
    prediction_rows = []
    metric_rows = []
    for rule in rules:
        predictions = {src: offnet.classify(features[src], rule, params) for src in candidates}
        prediction_rows.extend((rule, src, predictions[src]) for src in candidates)
        metric_rows.append((rule, *offnet.evaluate(predictions, truth, params.target_operator)))
    return _write_outputs(
        args,
        f"classify: {len(candidates)} candidate sources, {len(rules)} rules",
        [
            (
                "features.tsv",
                ["source", "scheme_match", "structured", "coalescence", "initial_rto", "backoff", "low_host_id", "shapes"],
                feature_rows,
            ),
            ("predictions.tsv", ["rule", "source", "label"], prediction_rows),
            ("metrics.tsv", ["rule", *offnet.EvalMetrics._fields], metric_rows),
        ],
    )


# --- probe -------------------------------------------------------------------


def _build_transport(args):
    """The probe transport and the VIPs it knows. Resolves `args.seed` to the
    one seed the run uses: --seed (or the campaign file's), else the
    deployment config's seed, else 0."""
    from . import probe, sim

    if args.transport == "sim":
        config = sim.DeploymentConfig.from_json(_require(args.sim_config, "deployment config"))
        if args.seed is None:
            args.seed = config.seed
        else:
            config = config._replace(seed=args.seed)
        simulator = sim.DeploymentSimulator(config)
        transport = probe.SimulatorTransport(simulator, seed=config.seed)
        all_vips = [vip for cluster in simulator.clusters for vip in cluster.vips]
        return transport, all_vips
    print(ANYCAST_WARNING, file=sys.stderr)
    if args.seed is None:
        args.seed = 0
    return probe.RawNetworkTransport(seed=args.seed), []


def cmd_probe(args) -> int:
    from . import probe, tables

    campaign_file = {}
    if args.campaign_config:
        campaign_file = tables.read_json_fields(
            _require(args.campaign_config, "campaign config"),
            {
                "targets": lambda value: ",".join(map(tables.json_string, tables.json_array(value))),
                "handshakes_per_vip": tables.json_integer,
                "port_strategy": tables.one_of({strategy: strategy for strategy in PORT_STRATEGIES}),
                "inter_probe_gap": tables.json_number,
                "seed": tables.json_integer,
            },
        )
    # each setting comes from its flag, else the campaign file, else its default
    for dest, key, default in (
        ("targets", "targets", "all"),
        ("handshakes", "handshakes_per_vip", 1000),
        ("port_strategy", "port_strategy", PORT_STRATEGIES[0]),
        ("inter_probe_gap", "inter_probe_gap", 0.0),
        ("seed", "seed", None),
    ):
        if getattr(args, dest) is None:
            setattr(args, dest, campaign_file.get(key, default))
    transport, sim_vips = _build_transport(args)
    if args.targets == "all":
        targets = sim_vips
        if not targets:
            raise InputError("--targets all requires --transport sim with a deployment config")
    else:
        targets = [t for t in args.targets.split(",") if t]
        if not targets:
            raise InputError("no targets to probe")
    # every value is checked before the first handshake: the threshold here,
    # the rest by harvest_host_ids and detect_lb_type before they probe
    if args.mode == "harvest":
        if len(targets) >= 2:
            probe.check_threshold(args.threshold)
        strategy = probe.PortStrategy(args.port_strategy)
        harvests = {
            vip: probe.harvest_host_ids(vip, args.handshakes, transport, strategy, args.inter_probe_gap, args.seed)
            for vip in targets
        }
        # the transport holds the simulator and every connection it opened,
        # which no table reads: let them go before the tables are built
        del transport
        harvest_rows = []
        unique_rows = []
        curve_rows = []
        for vip in targets:
            h = harvests[vip]
            harvest_rows.extend((vip, index, host_id) for index, host_id in h.observations)
            unique_rows.append((vip, h.attempts, h.failures, len(h.unique_ids)))
            for handshakes, fraction in probe.discovery_curve(h):
                curve_rows.append((vip, handshakes, fraction))
        outputs = [
            ("harvest.tsv", ["vip", "handshake", "host_id"], harvest_rows),
            ("unique.tsv", ["vip", "attempts", "failures", "unique_ids"], unique_rows),
            ("discovery.tsv", ["vip", "handshakes", "fraction"], curve_rows),
        ]
        if len(targets) >= 2:
            report = probe.cluster_vips(harvests, threshold=args.threshold)
            cluster_rows = [(index, vip) for index, cluster in enumerate(report.clusters) for vip in cluster]
            outputs.append(("clusters.tsv", ["cluster", "vip"], cluster_rows))
    else:
        verdict_rows = []
        for vip in targets:
            verdict = probe.detect_lb_type(
                vip,
                transport,
                probe_interval=args.probe_interval,
                max_wait=args.max_wait,
                seed=args.seed,
            )
            verdict_rows.append(
                (vip, verdict.kind.value, verdict.fail_window, verdict.held_host_id, verdict.followup_host_id)
            )
        del transport
        header = ["vip", "verdict", "fail_window", "held_host_id", "followup_host_id"]
        outputs = [("verdicts.tsv", header, verdict_rows)]
    return _write_outputs(args, f"probe: mode={args.mode}, {len(targets)} targets", outputs, seed=args.seed)


# --- report ------------------------------------------------------------------


def cmd_report(args) -> int:
    from . import tables

    in_dir = _require(args.in_dir, "input directory", directory=True)

    def keyed_rows(name: str, from_row: Callable[[dict[str, str]], tuple], columns: tuple[str, ...] = ()) -> dict:
        """key -> value of each (key, value) that `from_row` makes of a row of
        an input table; an absent table has none. Cells are converted as
        their row is read, so a bad one exits 2 naming the file and line."""
        path = in_dir / name
        return dict(tables.read_table(path, columns, from_row)) if path.exists() else {}

    shares = keyed_rows("version_tally.tsv", lambda r: ((r["version"], r["role"]), round(100 * float(r["share"]), 1)))
    version_rows = [
        (version, shares.get((version, "client")), shares.get((version, "server")))
        for version in sorted({version for version, _ in shares})
    ]

    percents = keyed_rows("packet_types.tsv", lambda r: ((r["category"], r["operator"]), round(float(r["percent"]), 3)))
    operators = sorted({operator for _, operator in percents})
    type_rows = [
        (category, *(percents.get((category, op), 0.0) for op in operators))
        for category in sorted({category for category, _ in percents})
    ]

    match_rows = keyed_rows("matches.tsv", lambda r: (r["operator"], r))
    rto_rows = keyed_rows("rto.tsv", lambda r: (r["operator"], r), ("count_p5", "count_p95"))
    deployment_rows = []
    for op in sorted(set(match_rows) | set(rto_rows)):
        match = match_rows.get(op, {})
        rto = rto_rows.get(op, {})
        retransmissions = f"{rto['count_p5']}-{rto['count_p95']}" if rto else ""
        deployment_rows.append(
            (
                op,
                match.get("coalescence", ""),
                match.get("structured_scids", ""),
                match.get("scheme", ""),
                rto.get("initial_rto", ""),
                retransmissions,
                match.get("matched", ""),
            )
        )
    return _write_outputs(
        args,
        f"report: {len(deployment_rows)} operators summarized",
        [
            ("version_table.tsv", ["version", "clients_pct", "servers_pct"], version_rows),
            ("packet_type_table.tsv", ["category", *operators], type_rows),
            (
                "deployment_table.tsv",
                ["operator", "coalescence", "structured_scids", "scheme", "initial_rto", "retransmissions", "matched"],
                deployment_rows,
            ),
        ],
    )


# --- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quicscope", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quicscope {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out-dir", required=True, help="directory for outputs and the run manifest")

    p = sub.add_parser("simulate", help="generate synthetic backscatter from a deployment config")
    common(p)
    p.add_argument("--config", required=True, help="deployment config (JSON)")
    p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("ingest", help="read a capture, filter QUIC, sessionize")
    common(p)
    p.add_argument("--capture", required=True)
    p.add_argument("--prefix-table", default=None, help="prefix<TAB>asn<TAB>label file")
    p.add_argument("--scanner-list", default=None, help="acknowledged scanner prefixes")
    p.add_argument("--registry", default=None, help="version registry file")
    p.add_argument("--idle-gap", type=float, default=60.0)
    p.add_argument("--allow-unknown-versions", action="store_true")
    p.add_argument("--allow-greased", action="store_true")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("fingerprint", help="derive stack configurations per operator")
    common(p)
    p.add_argument("--sessions", required=True)
    p.add_argument("--datagrams", required=True)
    p.add_argument("--profiles", default=None, help=PROFILES_HELP)
    p.add_argument("--registry", default=None)
    p.add_argument("--min-sessions", type=int, default=30)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--min-scids", type=int, default=500)
    p.add_argument("--top-lengths", type=int, default=7)
    p.set_defaults(handler=cmd_fingerprint)

    p = sub.add_parser("scid", help="connection-ID structure analysis")
    common(p)
    p.add_argument("--datagrams", default=None)
    p.add_argument("--scids", default=None, help="hex-encoded SCIDs, one per line")
    p.add_argument("--pairs", default=None, help="operator/server_scid/client_dcid table")
    p.add_argument("--operator", default=None)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--min-samples", type=int, default=500)
    p.set_defaults(handler=cmd_scid)

    p = sub.add_parser("classify", help="off-net detection and evaluation")
    common(p)
    p.add_argument("--datagrams", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--rules", default=None)
    p.add_argument("--profiles", default=None, help=PROFILES_HELP)
    p.add_argument("--rule", default="all")
    p.add_argument("--min-rto-sessions", type=int, default=5)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("probe", help="active campaigns (simulator loopback by default)")
    common(p)
    p.add_argument("--transport", choices=("sim", "raw"), default="sim")
    p.add_argument(
        "--seed", type=int, default=None, help="seeds the campaign and the simulator (default: the config's seed, or 0)"
    )
    p.add_argument("--sim-config", default=None)
    p.add_argument("--campaign-config", default=None, help="JSON campaign file (targets, handshakes_per_vip, port_strategy, inter_probe_gap, seed)")
    # these four and --seed default to None, so a campaign file's value applies only where no flag is given
    p.add_argument("--targets", default=None, help="comma-separated VIPs or 'all' (default: all)")
    p.add_argument("--mode", choices=("harvest", "lbtype"), default="harvest")
    p.add_argument("--handshakes", type=int, default=None, help="handshakes per VIP (default: 1000)")
    p.add_argument("--port-strategy", choices=PORT_STRATEGIES, default=None, help=f"default: {PORT_STRATEGIES[0]}")
    p.add_argument("--inter-probe-gap", type=float, default=None, help="seconds between handshakes (default: 0)")
    p.add_argument("--probe-interval", type=float, default=1.0)
    p.add_argument("--max-wait", type=float, default=600.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(handler=cmd_probe)

    p = sub.add_parser("report", help="join analysis outputs into summary tables")
    common(p)
    p.add_argument("--in-dir", required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"quicscope: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InputError as exc:
        print(f"quicscope: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
