"""tools/bench_pairs.py against stand-in source trees whose perfbench/run.py
prints a fixed summary per seed and logs the order the trees ran in."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

FAKE_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open({log!r}, "a") as log:
    log.write({side!r} + " " + args["--workload"] + " " + str(seed) + " "
              + args["--seconds"] + " " + args["--trace"] + "\\n")
print("a line before the summary")
print(json.dumps({{"correct": True, "attempted": 7, "failed": 0, "metrics": {{
    "run_s": {{"value": 1.0 + 0.01 * seed, "unit": "s"}},
    "peak_rss_mb": {{"value": {rss} + 0.1 * (seed % 3), "unit": "MB"}}}}}}))
"""


def fake_tree(root: Path, side: str, rss: float, log: Path) -> Path:
    tree = root / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN.format(log=str(log), side=side,
                                                               rss=rss))
    (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2, "end_to_end": [
        {"name": "run_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]}))
    return tree


def test_pairs_alternate_and_append_one_entry_per_side(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent = fake_tree(tmp_path, "parent", 45.0, log)
    change = fake_tree(tmp_path, "change", 44.0, log)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "verify_suite",
            "--pairs", "3", "--first-seed", "5",
            "--parent-rev", "aaa", "--change-rev", "bbb", "--out-dir", str(out)]
    assert bench_pairs.main(argv) == 0
    assert log.read_text().splitlines() == [
        f"{side} verify_suite {seed} 2 0" for side, seed in
        [("parent", 5), ("change", 5), ("change", 6), ("parent", 6), ("parent", 7),
         ("change", 7)]]
    entries = json.loads((out / "BENCH_verify_suite.json").read_text())
    assert [(e["side"], e["revision"]) for e in entries] == [("parent", "aaa"),
                                                            ("change", "bbb")]
    for entry, rss in zip(entries, (45.0, 44.0)):
        assert entry["seconds"] == 2 and entry["cpu_count"] >= 1
        assert len(entry["loadavg_before"]) == len(entry["loadavg_after"]) == 3
        assert [r["seed"] for r in entry["runs"]] == [5, 6, 7]
        assert [r["metrics"]["peak_rss_mb"] for r in entry["runs"]] == \
            pytest.approx([rss + 0.2, rss, rss + 0.1])
    report = capsys.readouterr().out
    assert "verify_suite peak_rss_mb: parent 45.05/45.1/45.15 -> change 44.05/44.1/44.15" \
        in report
    assert "change better in 3/3; median gap exceeds the parent's IQR" in report
    assert "verify_suite run_s" in report and "change better in 0/3" in report

    # A second session appends to the history rather than replacing it.
    bench_pairs.main(argv[:7] + ["1"] + argv[8:])
    assert len(json.loads((out / "BENCH_verify_suite.json").read_text())) == 4


def test_compare_counts_ties_for_neither_side():
    got = bench_pairs.compare([2.0, 3.0, 4.0, 5.0], [2.0, 2.5, 4.5, 1.0], "lower")
    assert got["wins"] == 2 and got["pairs"] == 4
    assert got["parent"] == (2.75, 3.5, 4.25) and not got["beyond_iqr"]
    assert bench_pairs.compare([1.0, 1.0], [2.0, 3.0], "higher")["wins"] == 2
