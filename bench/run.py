"""Seeded end-to-end benchmark of the quicscope CLI pipeline.

Each workload's stages run as separate `python -m quicscope.cli` processes,
one at a time, because that is how users pay for them: every process pays
the import cost and has its own peak RSS. The chain of stages repeats until
`--seconds` have been measured; metrics are medians over the chains. Wall
time is taken in this process, CPU time and peak RSS from each child's own
rusage. Every chain's outputs are checked against the simulated ground
truth, and the sha256 of its TSV outputs must match the first chain's.

Times are reported at a reference machine speed. Speed probes (see
SpeedMeter) run before and after every stage process, and the stage's times
are divided by the probes' mean slowness around it. On a shared machine the
speed drifts by tens of percent within a minute; the scaling removes most of
that drift. Raw wall times are kept in the result file.

With `--trace 1` one untraced chain is followed by traced chains whose stages
run under bench/tracer.py; the per-layer metrics come from those.

    python3 bench/run.py --workload telescope-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one after the other

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer ones with --trace 1). Exit code 2 means the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Check, Stage, Workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = {"full": 3, "tiny": 1}
MIN_CHAINS = 2
RUN_LIMIT_S = 170.0  # a workload's run is cut (exit 2, no result) after this long
STAGES = ("simulate", "ingest", "fingerprint", "scid", "classify", "probe", "report")
# Times of the two speed probes at the reference speed (about their times on
# an idle 2-CPU x86-64 container with CPython 3.11).
REFERENCE_LOOP_S = 0.015
REFERENCE_SPAWN_S = 0.050
SPAWN_PROBE = [sys.executable, "-c", "import json, struct, decimal"]
EXTRA_UNITS = {"failed_share": "ratio", "pipeline_wall_s": "s", "setup_wall_s": "s", "speed_index": "ratio"}


class SpeedMeter:
    """Speed probes between child processes; each child is scaled by the
    mean slowness of the probes just before and just after it.

    Slowness is the geometric mean of two probe times over their reference
    times: a pure-Python loop tracks the interpreter's speed, and a fresh
    interpreter importing a few stdlib modules tracks process start and
    import, which every stage also pays. Neither runs any quicscope code, so
    a change to the package cannot move the reference."""

    def __init__(self, env: dict[str, str], log: Path, deadline: float) -> None:
        self.env, self.log, self.deadline = env, log, deadline
        self.last = self.slowness()

    def slowness(self) -> float:
        loops = []
        for _ in range(3):
            start = time.perf_counter()
            acc = 0
            for i in range(200_000):
                acc += i * i % 7
            loops.append(time.perf_counter() - start)
        spawns = [spawn(SPAWN_PROBE, self.env, self.log, self.deadline)[0] for _ in range(2)]
        return math.sqrt(statistics.median(loops) / REFERENCE_LOOP_S * statistics.median(spawns) / REFERENCE_SPAWN_S)

    def factor(self) -> float:
        """Reference time per measured time for the child that just ended."""
        now = self.slowness()
        factor = 2 / (self.last + now)
        self.last = now
        return factor


@dataclass
class StageRun:
    metric: str
    label: str
    wall_s: float  # raw
    cpu_s: float  # raw
    rss_mb: float
    code: int
    factor: float  # reference time per measured time

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.factor


@dataclass
class Chain:
    traced: bool
    stages: list[StageRun] = field(default_factory=list)
    work: dict[str, float] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    digest: str = ""

    def stage_s(self, metric: str, label: str | None = None) -> float:
        return sum(s.ref_s for s in self.stages if s.metric == metric and label in (None, s.label))


def _time_limit(signum, frame):
    raise TimeoutError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")


def spawn(argv: list[str], env: dict[str, str], log: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run one child to completion; returns (wall s, cpu s, peak RSS MB, exit code).

    The child is killed and reaped if it is still running at `deadline`
    (a time.monotonic() value) or if this process is interrupted."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def cli_argv(argv: list[str], trace_file: Path | None = None, label: str = "") -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "quicscope.cli", *argv]
    script = str(Path(__file__).resolve().parent / "tracer.py")
    return [sys.executable, script, "--stage", label, "--out", str(trace_file), "--", *argv]


def digest(paths: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_chain(
    wl: Workload, inputs: Path, chain_dir: Path, env: dict[str, str], traced: bool, deadline: float
) -> tuple[Chain, list[dict]]:
    """One pass over the workload's stages; returns the chain and, when
    traced, each stage's trace with its speed factor."""
    logs = chain_dir / "logs"
    logs.mkdir(parents=True)
    chain = Chain(traced)
    traces = []
    meter = SpeedMeter(env, logs / "probe.log", deadline)
    for step in wl.steps(inputs, chain_dir):
        if not isinstance(step, Stage):
            step()
            continue
        trace_file = logs / f"{step.label}.trace.json" if traced else None
        log = logs / f"{step.label}.log"
        wall, cpu, rss, code = spawn(cli_argv(step.argv, trace_file, step.label), env, log, deadline)
        run = StageRun(step.metric, step.label, wall, cpu, rss, code, meter.factor())
        chain.stages.append(run)
        if code != 0:
            print(f"# stage {step.label} exited {code}:\n{log.read_text()[-2000:]}", file=sys.stderr)
            return chain, traces
        if trace_file is not None:
            traces.append({**json.loads(trace_file.read_text()), "factor": run.factor})
    try:
        chain.work = wl.work(inputs, chain_dir)
        chain.checks = wl.check(inputs, chain_dir)
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed stage output
        chain.checks = [Check("outputs.readable", False, f"{type(exc).__name__}: {exc}")]
    chain.digest = digest(wl.tsv_outputs(chain_dir), chain_dir)
    return chain, traces


def stage_metrics(chain: Chain) -> dict[str, float]:
    """End-to-end and per-stage metrics of one untraced chain."""
    out = {f"{stage}_s": chain.stage_s(stage) for stage in STAGES}
    ingest_s = chain.stage_s("ingest")
    harvest_s = chain.stage_s("probe", "harvest")
    out["ingest_dps"] = chain.work.get("ingest_records", 0.0) / ingest_s if ingest_s else 0.0
    out["probe_hps"] = chain.work.get("handshakes", 0.0) / harvest_s if harvest_s else 0.0
    for stage in STAGES:
        out[f"cli.{stage}.rss_mb"] = max((s.rss_mb for s in chain.stages if s.metric == stage), default=0.0)
    out["pipeline_wall_s"] = sum(s.wall_s for s in chain.stages)
    out["peak_rss_mb"] = max(s.rss_mb for s in chain.stages)
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced chain (one trace per stage process),
    with times scaled by each stage's speed factor."""
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    parse_in_ingest = 0
    for trace in traces:
        factor = trace["factor"]
        for name, _parent, n, tot, own in trace["agg"]:
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot * factor
            self_s[name] = self_s.get(name, 0.0) + own * factor
            if trace["stage"] == "ingest" and name == "wire.parse_long_header":
                parse_in_ingest += n
        for name, value in trace["counts"].items():
            counts[name] = max(counts.get(name, 0), value) if name == "probe.inbox_len" else counts.get(name, 0) + value
        for name, values in trace["samples"].items():
            samples.setdefault(name, []).extend(v * factor for v in values)

    out: dict[str, float] = {}
    for target in tracer.TARGETS:
        n = calls.get(target.name, 0)
        out[f"{target.name}.self_s"] = self_s.get(target.name, 0.0)
        out[f"{target.name}.calls"] = n
        out[f"{target.name}.us_per_call"] = 1e6 * total.get(target.name, 0.0) / n if n else 0.0
    for name in ("pcap.records", "pcap.dropped", "ingest.sessions", "tables.store_bytes",
                 "probe.handshake_failures", "probe.inbox_len"):
        out[name] = counts.get(name, 0)
    records = counts.get("pcap.records", 0)
    out["wire.parse_long_header.calls_per_datagram"] = parse_in_ingest / records if records else 0.0
    total_in = counts.get("ingest.total", 0)
    out["ingest.emit_ratio"] = counts.get("ingest.emitted", 0) / total_in if total_in else 0.0
    durations = sorted(samples.get("probe.handshake", []))
    for q, key in ((0.5, "us_p50"), (0.99, "us_p99")):
        out[f"probe.handshake.{key}"] = 1e6 * durations[min(len(durations) - 1, int(q * len(durations)))] if durations else 0.0
    return out


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def run_metadata(seed: int, scale: str) -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref = ROOT / ".git" / sha[5:]
            sha = ref.read_text().strip() if ref.is_file() else "unknown"
    from importlib.metadata import PackageNotFoundError, version

    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = "not installed"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
        "scale": scale,
    }


def measure_setup(env: dict[str, str], log: Path, repeats: int, deadline: float) -> tuple[list[float], list[float]]:
    """Cold starts of `quicscope --version` after one untimed warm-up that
    fills the bytecode and page caches; returns (raw, reference) times."""
    spawn(cli_argv(["--version"]), env, log, deadline)
    meter = SpeedMeter(env, log, deadline)
    raw, ref = [], []
    for _ in range(repeats):
        wall, _, _, code = spawn(cli_argv(["--version"]), env, log, deadline)
        if code != 0:
            raise RuntimeError(f"quicscope --version exited {code}: {log.read_text()[-2000:]}")
        raw.append(wall)
        ref.append(wall * meter.factor())
    return raw, ref


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, scale_name: str, work_root: Path) -> dict:
    scale = wl.scales[scale_name]
    meta = run_metadata(seed, scale_name)
    work = work_root / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    chains: list[Chain] = []
    traces: list[list[dict]] = []
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        wl.prepare(inputs, seed, scale)
        setup_raw, setup_ref = measure_setup(env, work / "setup.log", SETUP_REPEATS[scale_name], deadline)
        start = time.perf_counter()
        while True:
            chain_dir = work / f"chain{len(chains)}"
            chain, chain_traces = run_chain(wl, inputs, chain_dir, env, trace and bool(chains), deadline)
            shutil.rmtree(chain_dir)
            chains.append(chain)
            if chain.traced:
                traces.append(chain_traces)
            elapsed = time.perf_counter() - start
            # another chain starts only if, on average, it ends by `seconds` plus half a chain
            if any(s.code for s in chain.stages) or (len(chains) >= MIN_CHAINS and elapsed * (1 + 0.5 / len(chains)) > seconds):
                break
    finally:
        meta["loadavg_after"] = os.getloadavg()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(c.stages) + len(c.checks) for c in chains)
    failed = sum(sum(s.code != 0 for s in c.stages) + sum(not ch.ok for ch in c.checks) for c in chains)
    checked = [c for c in chains if c.digest]
    attempted += len(checked) - 1 if checked else 0  # one digest comparison per chain after the first
    failed += sum(c.digest != checked[0].digest for c in checked)

    untraced = [c for c in chains if not c.traced]
    metrics = median_of([stage_metrics(c) for c in untraced])
    # sums of per-stage medians: one slow stage in one chain does not move them
    labels = dict.fromkeys(s.label for c in untraced for s in c.stages)
    for metric, value in (("pipeline_s", lambda s: s.ref_s), ("pipeline_cpu_s", lambda s: s.cpu_s * s.factor)):
        metrics[metric] = sum(
            statistics.median(value(s) for c in untraced for s in c.stages if s.label == label) for label in labels
        )
    metrics["setup_s"] = statistics.median(setup_ref)
    metrics["setup_wall_s"] = statistics.median(setup_raw)
    factors = [s.factor for c in chains for s in c.stages]
    metrics["speed_index"] = statistics.median(factors) if factors else 0.0
    if traces:
        metrics.update(median_of([layer_metrics(t) for t in traces]))
        metrics["trace.pipeline_s"] = statistics.median(sum(s.ref_s for s in c.stages) for c in chains if c.traced)
        metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - metrics["pipeline_s"]
    metrics["failed_share"] = failed / attempted if attempted else 1.0
    return {
        "workload": wl.name,
        "meta": {**meta, "scale_params": scale, "reference_loop_s": REFERENCE_LOOP_S, "reference_spawn_s": REFERENCE_SPAWN_S},
        "setup": {"raw_s": setup_raw, "reference_s": setup_ref},
        "chains": [
            {
                "traced": c.traced,
                "digest": c.digest,
                "stages": [asdict(s) for s in c.stages],
                "work": c.work,
                "checks": len(c.checks),
                "failed_checks": [asdict(ch) for ch in c.checks if not ch.ok],
            }
            for c in chains
        ],
        "digest": checked[0].digest if checked else "",
        "traces": [{k: v for k, v in t.items() if k != "samples"} for t in traces[-1]] if traces else [],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(result: dict, units: dict[str, str]) -> None:
    """Human-readable lines for one workload (all start with its name or '#')."""
    name = result["workload"]
    print(f"# {name} meta {json.dumps(result['meta'], sort_keys=True)}")
    for i, chain in enumerate(result["chains"]):
        stages = " ".join(f"{s['label']}={s['wall_s']:.3f}s(x{s['factor']:.3f})" for s in chain["stages"])
        kind = "traced" if chain["traced"] else "untraced"
        print(f"# {name} chain {i} {kind} {stages} checks={chain['checks']} digest={chain['digest'][:16]}")
        for check in chain["failed_checks"]:
            print(f"# {name} chain {i} CHECK FAILED {check['name']}: {check['detail']}")
    print(f"# {name} digest sha256={result['digest']}")
    for metric, value in sorted(result["metrics"].items()):
        # a metric of a stage or layer this workload does not run reads 0
        if metric in units and (value or metric == "failed_share"):
            print(f"{name} {metric} {value:.6g} {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_work"), help="scratch and result files")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _time_limit)
    # The speed probes run in this process: pinning it, and so every child,
    # to one CPU makes them measure the CPU that the stages run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # reap children on the way out

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "quicscope" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no quicscope source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS

    results_dir = Path(args.work_dir) / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.scale, Path(args.work_dir))
            out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
            out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
            report(result, units)
            results.append(result)
    except (OSError, RuntimeError, KeyError, ValueError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    def entry(result: dict, metric: str) -> dict:
        return {"value": result["metrics"][metric], "unit": units[metric]}

    if len(results) == 1:
        metrics = {m: entry(results[0], m) for m in wanted}
    else:
        metrics = {f"{r['workload']}/{m}": entry(r, m) for r in results for m in wanted}
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
