"""The verdicts tools/bench_pairs.py prints, on synthetic paired runs; no
benchmark runs here."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def _judge(change, higher=True, bound=0.25, parent=PARENT):
    return bench_pairs.judge(parent, change, higher, bound)


def test_claim_needs_nine_of_ten_pairs_and_a_gain_beyond_the_spread():
    # parent median 100, Q3 - Q1 = 101 - 99.25 = 1.75
    assert _judge([x + 5 for x in PARENT]) == (10, True, "within bound")
    # nine wins, one tie: the tie counts for neither side
    change = [x + 5 for x in PARENT[:9]] + [PARENT[9]]
    assert _judge(change) == (9, True, "within bound")
    # eight wins are too few, however large the gain
    change = [x + 50 for x in PARENT[:8]] + PARENT[8:]
    assert _judge(change)[:2] == (8, False)
    # ten wins, but the median gain (1.5) is within the parent's spread
    assert _judge([x + 1.5 for x in PARENT]) == (10, False, "within bound")


@pytest.mark.parametrize("higher", (True, False))
def test_bound_is_relative_to_the_parents_median(higher):
    worse = -1 if higher else 1
    # 20 % worse is within a bound of 0.25, 30 % worse beyond it
    assert _judge([x + worse * 20 for x in PARENT], higher)[2] == \
        "within bound"
    assert _judge([x + worse * 30 for x in PARENT], higher)[2] == \
        "beyond bound"
    # the claim and the win count follow the better side
    better = [x - worse * 5 for x in PARENT]
    assert _judge(better, higher) == (10, True, "within bound")


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 90.0,
              110.0]
    change = [x + 1 for x in parent]
    assert _judge(change, parent=parent)[2] == "unresolved"
    # unless every change run beats every parent run; a claim also needs
    # a gain beyond the parent's Q3 - Q1 (52.5 here)
    assert _judge([150.0] * 10, parent=parent) == (10, False, "within bound")
    assert _judge([160.0] * 10, parent=parent) == (10, True, "within bound")
    assert _judge([40.0] * 10, higher=False, parent=parent) == (
        10, True, "within bound")
    # a worse median beyond the bound is reported as such first
    assert _judge([40.0] * 10, parent=parent)[2] == "beyond bound"


METRICS = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher",
            "bound": 0.25},
           {"name": "latency_p90_ms", "unit": "ms", "better": "lower",
            "bound": 0.25}]


def _run(side, i):
    """A synthetic run.py record and result: the change is 5 % faster and
    fails one of 50 operations where the parent fails two."""
    ops = PARENT[i] * (1.05 if side == "change" else 1)
    record = {"git_sha": side * 5, "python": "3.11.7", "nproc": 2,
              "output_sha256": "abc", "attempted": 100,
              "failed": 2 if side == "change" else 4}
    result = {"correct": not (side == "parent" and i == 3), "metrics": {
        "ops_per_s": {"value": ops, "unit": "ops/s"},
        "latency_p90_ms": {"value": 1000 / ops, "unit": "ms"}}}
    return record, result


def _checkouts(root):
    """Two checkouts under root, parent and change, whose src/ files differ
    in one line of one file; each also holds a compiled cache."""
    for side in ("parent", "change"):
        pkg = root / side / "src" / "pkg"
        (pkg / "__pycache__").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "core.py").write_text("X = %d\n" % (side == "change"))
        (pkg / "__pycache__" / "core.pyc").write_bytes(side.encode())
    return [str(root / "parent"), str(root / "change")]


def _bench(root, monkeypatch, git_sha=None):
    """The argv of a 10-pair bench_pairs run in root's two checkouts, whose
    runs are _run's, all with git_sha when it is given."""
    (root / "BENCHMARK.json").write_text(
        bench_pairs.json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append(side)
        record, result = _run(side, (calls.count(side) - 1) % 10)
        return dict(record, git_sha=git_sha or record["git_sha"]), result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return _checkouts(root) + ["--workload", "w", "--pairs", "10",
                               "--seconds", "4", "--seed", "3"]


def test_record_appends_the_printed_summary(tmp_path, monkeypatch, capsys):
    argv = _bench(tmp_path, monkeypatch)
    assert bench_pairs.main(argv) == 0
    assert not (tmp_path / "BENCH_w.json").exists()
    for _ in range(2):
        assert bench_pairs.main(argv + ["--record"]) == 0
    history = bench_pairs.json.loads((tmp_path / "BENCH_w.json").read_text())
    assert len(history) == 2 and history[0] == history[1]
    got = history[0]
    assert {k: got[k] for k in ("workload", "seed", "seconds", "pairs",
                                "python", "nproc")} == {
        "workload": "w", "seed": 3, "seconds": 4.0, "pairs": 10,
        "python": "3.11.7", "nproc": 2}
    ops = got["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 100.0, "q1": 99.25, "q3": 100.75}
    assert ops["change"]["median"] == pytest.approx(105.0)
    assert (ops["wins"], ops["claim"], ops["verdict"]) == (
        10, True, "within bound")
    assert got["metrics"]["latency_p90_ms"]["wins"] == 10
    assert got["parent"] == {"git_sha": ["parentparentparentparentparent"],
                             "src_sha256": bench_pairs.src_sha256(
                                 tmp_path / "parent"),
                             "output_sha256": ["abc"], "failed_share": [0.04],
                             "runs_with_failed_checks": [4]}
    assert got["change"]["failed_share"] == [0.02]
    assert got["change"]["runs_with_failed_checks"] == []
    # what is printed is read from the same summary
    out = capsys.readouterr().out
    assert "ops_per_s (ops/s): 100 [99.25, 100.8] -> 105" in out
    assert "10/10; claim met; within bound" in out
    assert "parent: output_sha256 abc; failed share 0.0400; runs with " \
        "failed checks: [4]" in out


def test_each_side_is_named_by_its_src_files(tmp_path, monkeypatch, capsys):
    # both sides' runs report one git SHA, as a change checkout whose edits
    # are not committed does; their src/ files tell them apart
    argv = _bench(tmp_path, monkeypatch, git_sha="f00")
    assert bench_pairs.main(argv + ["--record"]) == 0
    got = bench_pairs.json.loads((tmp_path / "BENCH_w.json").read_text())[0]
    assert got["parent"]["git_sha"] == got["change"]["git_sha"] == ["f00"]

    def listed(side):
        # sha256sum's lines for the side's src/ files; no compiled cache
        files = (("pkg/__init__.py", ""),
                 ("pkg/core.py", "X = %d\n" % (side == "change")))
        lines = "".join("%s  %s\n" % (hashlib.sha256(text.encode())
                                       .hexdigest(), name)
                        for name, text in files)
        return hashlib.sha256(lines.encode()).hexdigest()

    for side in ("parent", "change"):
        assert got[side]["src_sha256"] == listed(side)
    assert listed("parent") != listed("change")
    out = capsys.readouterr().out
    assert "parent: git_sha f00; src_sha256 %s" % listed("parent") in out
    assert "change: git_sha f00; src_sha256 %s" % listed("change") in out
    # a change of a compiled cache alone leaves the name as it was
    (tmp_path / "change" / "src" / "pkg" / "__pycache__" / "core.pyc"
     ).write_bytes(b"other")
    assert bench_pairs.src_sha256(tmp_path / "change") == listed("change")
