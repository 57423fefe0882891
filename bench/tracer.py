"""In-process tracing of one `quicscope` CLI stage, from outside the package.

The public functions of each module are wrapped before the stage runs. Every
module namespace that bound a wrapped function at import time is patched too
(`ingest` and `sim` import `split_coalesced` by name, for example), so no call
site is missed. Spans stay in memory and are written once, when the stage
ends. Hot leaf calls are aggregated per (name, parent) into calls, total and
self time instead of one span per call.

The pipeline is one process with one thread and nothing in it queues, so
the layers report busy time and counts, never waiting time.

Run one traced stage:

    PYTHONPATH=src python3 bench/tracer.py --stage ingest --out trace.json -- ingest --capture ...
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    name: str  # layer.function, the prefix of its metrics
    module: str  # quicscope submodule
    attr: str  # function, or Class.method
    hot: bool = False  # aggregate only, keep no per-call span
    generator: bool = False  # time every resumption of the returned generator
    hook: Optional[Callable] = None  # hook(tracer, args, kwargs, result) after the call
    samples: bool = False  # keep every call's duration, for percentiles


def _pcap_read_done(tracer, args, kwargs, result):
    counters = getattr(args[0], "counters", None)
    if counters is not None:
        tracer.count("pcap.records", counters.records)
        tracer.count("pcap.dropped", counters.records - counters.datagrams)


def _ingest_done(tracer, args, kwargs, result):
    counters = kwargs.get("counters", args[2] if len(args) > 2 else None)
    if counters is not None:
        tracer.count("ingest.total", counters.total)
        tracer.count("ingest.emitted", counters.emitted)


def _sessionize_done(tracer, args, kwargs, result):
    if tracer.stack_names() == ["cli.ingest"]:
        tracer.count("ingest.sessions", len(result))


def _store_written(tracer, args, kwargs, result):
    tracer.count("tables.store_bytes", Path(result).stat().st_size)


def _handshake_done(tracer, args, kwargs, result):
    # detect_lb_type times out on purpose while the held state lives
    if result is None and "probe.harvest_host_ids" in tracer.stack_names():
        tracer.count("probe.handshake_failures", 1)
    inbox = getattr(args[0], "inbox", None)
    if inbox is not None:
        tracer.gauge_max("probe.inbox_len", len(inbox))


TARGETS = (
    Target("pcap.read", "pcap", "PcapReader.datagrams", generator=True, hook=_pcap_read_done),
    Target("pcap.write", "pcap", "write_pcap"),
    Target("pcap.build_ipv4_udp", "pcap", "build_ipv4_udp", hot=True),
    Target("wire.parse_long_header", "wire", "parse_long_header", hot=True),
    Target("wire.split_coalesced", "wire", "split_coalesced", hot=True),
    Target("wire.is_plausible_quic", "wire", "is_plausible_quic", hot=True),
    Target("wire.encode_long_header", "wire", "encode_long_header", hot=True),
    Target("ingest.ingest", "ingest", "ingest", generator=True, hook=_ingest_done),
    Target("ingest.sanitize", "ingest", "sanitize", generator=True),
    Target("ingest.scanner_contains", "ingest", "ScannerList.__contains__", hot=True),
    Target("ingest.annotate_operators", "ingest", "annotate_operators", generator=True),
    Target("ingest.prefix_lookup", "ingest", "PrefixTable.lookup", hot=True),
    Target("ingest.sessionize", "ingest", "sessionize", hook=_sessionize_done),
    Target("tables.save_datagrams", "tables", "save_datagrams", hook=_store_written),
    Target("tables.save_sessions", "tables", "save_sessions", hook=_store_written),
    Target("tables.load_datagrams", "tables", "load_datagrams"),
    Target("tables.load_sessions", "tables", "load_sessions"),
    Target("tables.write_table", "tables", "write_table"),
    Target("fingerprint.version_tally", "fingerprint", "version_tally"),
    Target("fingerprint.packet_type_stats", "fingerprint", "packet_type_stats"),
    Target("fingerprint.length_histogram", "fingerprint", "length_histogram"),
    Target("fingerprint.estimate_rto", "fingerprint", "estimate_rto", hot=True),
    Target("fingerprint.observed_profile", "fingerprint", "observed_profile"),
    Target("scid.nybble_frequencies", "scid", "nybble_frequencies"),
    Target("scid.uniformity_test", "scid", "uniformity_test"),
    Target("scid.classify_scheme", "scid", "classify_scheme"),
    Target("scid.decode_facebook_scid", "scid", "decode_facebook_scid", hot=True),
    Target("offnet.collect_source_inputs", "offnet", "collect_source_inputs"),
    Target("offnet.extract_features", "offnet", "extract_features", hot=True),
    Target("offnet.classify", "offnet", "classify", hot=True),
    Target("offnet.evaluate", "offnet", "evaluate"),
    Target("sim.deliver", "sim", "DeploymentSimulator.deliver", hot=True),
    Target("sim.route", "sim", "route", hot=True),
    Target("sim.rendezvous", "sim", "FrontendCluster.rendezvous", hot=True),
    Target("sim.serve_initial", "sim", "DeploymentSimulator.serve_initial", hot=True),
    Target("sim.run_until", "sim", "VirtualClock.run_until", hot=True),
    Target("probe.handshake", "probe", "SimulatorTransport.handshake", hot=True, hook=_handshake_done, samples=True),
    Target("probe.harvest_host_ids", "probe", "harvest_host_ids"),
    Target("probe.cluster_vips", "probe", "cluster_vips"),
    Target("probe.detect_lb_type", "probe", "detect_lb_type"),
    *(
        Target(f"cli.{stage}", "cli", f"cmd_{stage}")
        for stage in ("simulate", "ingest", "fingerprint", "scid", "classify", "probe", "report")
    ),
)


class Tracer:
    """Span stack plus aggregates for one stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self._stack: list[list] = []  # [name, segment start, child time]
        self.agg: dict[tuple[str, Optional[str]], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (name, parent, start, end, self_s)
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def stack_names(self) -> list[str]:
        return [frame[0] for frame in self._stack]

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self, calls: int) -> tuple[Optional[str], float, float, float]:
        """Close the top segment; returns (parent, start, end, self time)."""
        name, start, child = self._stack.pop()
        end = perf_counter()
        duration = end - start
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][2] += duration
        row = self.agg.get((name, parent))
        if row is None:
            row = self.agg[(name, parent)] = [0, 0.0, 0.0]
        row[0] += calls
        row[1] += duration
        row[2] += duration - child
        return parent, start, end, duration - child

    def dump(self) -> dict:
        return {
            "stage": self.stage,
            "agg": [[name, parent, *row] for (name, parent), row in sorted(self.agg.items(), key=str)],
            "spans": self.spans,
            "samples": self.samples,
            "counts": self.counts,
            "missing": self.missing,
        }


def _wrap_call(tracer: Tracer, target: Target, fn):
    name, hot, hook = target.name, target.hot, target.hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            parent, start, end, self_s = tracer.exit(1)
            if not hot:
                tracer.spans.append((name, parent, start, end, self_s))
            if target.samples:
                tracer.samples.setdefault(name, []).append(end - start)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, target: Target, fn):
    """One span per generator: busy time summed over its resumptions."""
    name, hook = target.name, target.hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        first = None
        parent = None
        end = 0.0
        self_total = 0.0
        done = False
        try:
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                finally:
                    parent, start, end, self_s = tracer.exit(0 if first is not None else 1)
                    first = start if first is None else first
                    self_total += self_s
                if done:
                    break
                yield item
        finally:
            inner.close()
            tracer.spans.append((name, parent, first, end, self_total))
        if hook is not None:
            hook(tracer, args, kwargs, None)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in place, in its own module and in every quicscope
    module namespace that imported it by name."""
    for target in TARGETS:
        importlib.import_module(f"quicscope.{target.module}")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "quicscope" or n.startswith("quicscope.")]
    for target in TARGETS:
        owner = sys.modules[f"quicscope.{target.module}"]
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.missing.append(target.name)
            continue
        wrap = _wrap_generator if target.generator else _wrap_call
        wrapper = wrap(tracer, target, original)
        setattr(owner, attr, wrapper)
        if path:
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run one quicscope CLI stage with tracing")
    parser.add_argument("--stage", required=True, help="stage id written with the trace")
    parser.add_argument("--out", required=True, help="trace file written when the stage ends")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.stage)
    install(tracer)
    from quicscope import cli

    try:
        code = cli.main(cli_args)
    finally:
        Path(args.out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
