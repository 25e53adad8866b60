"""Tests for ``tools/ledger.py``, which turns task-benchmark result files
into entries of the committed ledger."""
import json

from tools.ledger import main


def _result(seed, commit="abc123", data_seed=7, p50=100.0):
    return {
        "env": {"nproc": 4, "master": "local[4]", "spark": "4.1.2", "commit": commit},
        "workload": "sampled-arima", "seed": seed, "seconds": 20.0, "trace": 0,
        "sf": 0.1, "data_seed": data_seed,
        "metrics": {"task_p50_ms": p50, "setup_s": 20.0 + seed},
    }


def _write(tmp_path, results):
    paths = []
    for i, r in enumerate(results):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(r))
    return [str(p) for p in paths]


def test_one_entry_per_group_with_median_and_min(tmp_path):
    ledger = tmp_path / "BENCH_tasks.json"
    files = _write(tmp_path, [
        _result(1, p50=300.0), _result(2, p50=100.0), _result(3, p50=200.0),
        _result(101, data_seed=8), _result(4, commit="unknown"),
    ])
    main([*files, "--commit", "change", "--ledger", str(ledger)])
    got = {(e["commit"], e["data_seed"]): e for e in json.loads(ledger.read_text())}
    assert sorted(got) == [("abc123", 7), ("abc123", 8), ("change", 7)]
    e = got[("abc123", 7)]
    assert (e["runs"], e["seeds"], e["sf"], e["nproc"], e["spark"]) == (3, [1, 2, 3], 0.1, 4, "4.1.2")
    assert e["metrics"]["task_p50_ms"] == {"median": 200.0, "min": 100.0}
    assert e["metrics"]["setup_s"] == {"median": 22.0, "min": 21.0}


def test_appends_to_the_existing_ledger(tmp_path):
    ledger = tmp_path / "BENCH_tasks.json"
    main([*_write(tmp_path, [_result(1)]), "--ledger", str(ledger)])
    main([*_write(tmp_path, [_result(2, commit="def456")]), "--ledger", str(ledger)])
    assert [e["commit"] for e in json.loads(ledger.read_text())] == ["abc123", "def456"]
