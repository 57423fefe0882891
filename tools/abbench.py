"""Alternating A/B runs of the benchmark on two git revisions, with the
standard library only.

Extracts the parent and the change with `git archive` into a temporary
directory, refuses (exit 2) unless their `bench/` trees are identical, and
runs `bench/run.py --workload W --seed S --seconds T --trace 0` on each
side for N pairs, alternating which side runs first. For each end-to-end
metric of the parent's BENCHMARK.json (with `--workload all`, of each
workload, named `<workload>/<metric>` as bench/run.py names it) it prints
each side's median and quartiles, the pairs the change wins (ties count for
neither side), whether a claimed gain holds (the change wins at least 9 of
every 10 pairs, and its median is better than the parent's by more than the
parent's interquartile range) and whether the change is worse (its median is
worse than the parent's by more than that range). The temporary directory is
removed on every exit, and an interrupted run stops its benchmark process
group first.

Run from the repository, for example:

    python3 tools/abbench.py --base HEAD~1 --change HEAD --workload telescope-mix --seed 1 --pairs 10

The last line of standard output is one JSON object with every run's
metrics and each metric's verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the longest one benchmark run may take beyond its --seconds per workload:
# set-up, input generation and the last chain
RUN_GRACE_S = 600.0


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> None:
    """The tree of `rev` written into `dest`."""
    archive = dest.with_suffix(".tar")
    archive.write_bytes(git("archive", "--format=tar", rev))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_bench(tree: Path, work: Path, args: argparse.Namespace) -> dict[str, float]:
    """The end-to-end metrics of one benchmark run in `tree`. The run is
    its own process group, so that an interrupt stops its stage processes
    too."""
    argv = [
        sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--work-dir", str(work),
    ]
    proc = subprocess.Popen(
        argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=args.seconds * args.workloads + RUN_GRACE_S)
    except BaseException:
        stop(proc)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree.name} exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"bench/run.py in {tree.name}: {result['failed']} of {result['attempted']} checks failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def stop(proc: subprocess.Popen) -> None:
    """Stop a benchmark run and its stages: SIGTERM lets bench/run.py reap
    its stage, and SIGKILL follows if the group is still there."""
    for sig, wait in ((signal.SIGTERM, 10.0), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=wait)
            return
        except subprocess.TimeoutExpired:
            continue


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def verdict(base: list[float], change: list[float], better: str) -> dict:
    """Each side's median and quartiles, the change's pair wins, whether a
    gain could be claimed from these pairs, and whether the change is worse
    by more than the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    gain = sign * (b["median"] - c["median"])
    iqr = b["q3"] - b["q1"]
    claim = wins * 10 >= 9 * len(base) and gain > iqr
    return {
        "base": b, "change": c, "wins": wins, "pairs": len(base), "gain": gain, "claim_holds": claim,
        "worse": -gain > iqr,
    }


def metric_names(spec: dict, workload: str) -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric as bench/run.py names it in
    its result: `<workload>/<metric>` for every workload under `all`."""
    if workload != "all":
        return [(m["name"], m["better"]) for m in spec["end_to_end"]]
    return [(f"{w['name']}/{m['name']}", m["better"]) for w in spec["workloads"] for m in spec["end_to_end"]]


def verdicts(runs: dict[str, list[dict[str, float]]], names: list[tuple[str, str]]) -> dict[str, dict]:
    """The verdict of each named metric over the runs of both sides."""
    return {
        name: verdict([r[name] for r in runs["base"]], [r[name] for r in runs["change"]], better)
        for name, better in names
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the revision that claims a gain")
    parser.add_argument("--workload", default="telescope-mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="per run; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        revs = {
            side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("base", args.base), ("change", args.change))
        }
        benches = {side: git("rev-parse", f"{rev}:bench").decode().strip() for side, rev in revs.items()}
    except subprocess.CalledProcessError as exc:
        print(f"abbench: git: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    if benches["base"] != benches["change"]:
        print(f"abbench: bench/ differs between {args.base} and {args.change}; runs would not compare", file=sys.stderr)
        return 2
    spec = json.loads(git("show", f"{revs['base']}:BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = metric_names(spec, args.workload)
    args.workloads = len(spec["workloads"]) if args.workload == "all" else 1

    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    tmp = Path(tempfile.mkdtemp(prefix="abbench-"))
    try:
        trees = {side: tmp / side for side in revs}
        for side, tree in trees.items():
            extract(revs[side], tree)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                metrics = run_bench(trees[side], tmp / f"work-{side}", args)
                runs[side].append(metrics)
                shown = " ".join(f"{name}={metrics[name]:.4g}" for name, _ in names)
                print(f"# pair {i + 1} {side} {shown}", file=sys.stderr, flush=True)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"abbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    found = verdicts(runs, names)
    print(
        f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s: "
        f"{args.base} ({revs['base'][:12]}) -> {args.change} ({revs['change'][:12]})"
    )
    width = max(len(name) for name, _ in names)
    print(f"{'metric':<{width}} {'base q1/median/q3':>28} {'change q1/median/q3':>28} {'wins':>7}  {'claim':<7}  worse")
    for name, v in found.items():
        b, c = v["base"], v["change"]
        print(
            f"{name:<{width}} {b['q1']:>8.4g} {b['median']:>9.4g} {b['q3']:>9.4g} {c['q1']:>8.4g} {c['median']:>9.4g} "
            f"{c['q3']:>9.4g} {v['wins']:>3}/{v['pairs']:<3}  {'holds' if v['claim_holds'] else 'not met':<7}  "
            f"{'worse' if v['worse'] else '-'}"
        )
    summary_row = {"workload": args.workload, "seed": args.seed, "revisions": revs, "runs": runs, "verdicts": found}
    print(json.dumps(summary_row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
