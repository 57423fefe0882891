"""Unit tests of tools/abbench.py's verdicts, outside the suite:

    python3 -m pytest -q tools/test_abbench.py
"""

import json
from pathlib import Path

import abbench

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_metric_names_of_one_workload_are_unprefixed():
    assert abbench.metric_names(SPEC, "probe-campaign") == [(m["name"], m["better"]) for m in SPEC["end_to_end"]]


def test_metric_names_under_all_are_prefixed_by_workload():
    names = abbench.metric_names(SPEC, "all")
    assert len(names) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert ("probe-campaign/pipeline_s", "lower") in names
    assert ("telescope-mix/peak_rss_mb", "lower") in names
    assert all("/" in name for name, _ in names)


def test_verdict_on_prefixed_names():
    base = [0.40, 0.41, 0.42, 0.41, 0.40, 0.42, 0.41, 0.43, 0.40, 0.41]
    faster = [v - 0.04 for v in base]
    slower = [v + 0.04 for v in base]
    names = [(f"{w}/pipeline_s", "lower") for w in ("probe-campaign", "offnet-sweep", "telescope-mix")]
    runs = {
        "base": [dict.fromkeys([name for name, _ in names], b) for b in base],
        "change": [
            {"probe-campaign/pipeline_s": f, "offnet-sweep/pipeline_s": s, "telescope-mix/pipeline_s": b}
            for b, f, s in zip(base, faster, slower)
        ],
    }
    found = abbench.verdicts(runs, names)
    assert list(found) == [name for name, _ in names]
    gain, loss, flat = (found[name] for name, _ in names)
    assert (gain["wins"], gain["pairs"], gain["claim_holds"], gain["worse"]) == (10, 10, True, False)
    assert (loss["wins"], loss["claim_holds"], loss["worse"]) == (0, False, True)
    # ties count for neither side, and no move is neither a gain nor worse
    assert (flat["wins"], flat["claim_holds"], flat["worse"]) == (0, False, False)


def test_worse_needs_more_than_the_parents_iqr():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]  # median 3, IQR 2
    assert not abbench.verdict(base, [v + 2.0 for v in base], "lower")["worse"]
    assert abbench.verdict(base, [v + 2.5 for v in base], "lower")["worse"]
    # a higher-is-better metric is worse when it falls
    assert abbench.verdict(base, [v - 2.5 for v in base], "higher")["worse"]
    assert not abbench.verdict(base, [v + 2.5 for v in base], "higher")["worse"]
