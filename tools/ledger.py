"""Append task-benchmark results to the committed ledger ``BENCH_tasks.json``.

    python3 tools/ledger.py .perfbench_out/*.json
    python3 tools/ledger.py --commit "<label>" path/to/results/*.json

``perfbench/run.py`` writes one result file per run under
``.perfbench_out/``. This script groups the given files by commit,
workload, trace mode and relation (SF, data seed) and appends one ledger
entry per group: the commit, SF, ``nproc``, the Spark version, the run
count and seeds, and the median and min over the runs of every metric in
the files. ``--commit`` labels runs made from a checkout outside git,
whose files record the commit as "unknown".
"""
from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from statistics import median

LEDGER = Path(__file__).resolve().parent.parent / "BENCH_tasks.json"


def entries(results: list[dict], commit: str | None = None) -> list[dict]:
    """One ledger entry per (commit, workload, trace, relation, host) group."""
    groups = defaultdict(list)
    for r in results:
        env = r["env"]
        c = commit if commit and env["commit"] == "unknown" else env["commit"]
        key = (c, r["workload"], r["trace"], r["sf"], r["data_seed"],
               env["nproc"], env["master"], env["spark"])
        groups[key].append(r)
    out = []
    for (c, workload, trace, sf, data_seed, nproc, master, spark), runs in groups.items():
        out.append({
            "commit": c, "workload": workload, "trace": trace, "sf": sf,
            "data_seed": data_seed, "nproc": nproc, "master": master, "spark": spark,
            "seconds": runs[0]["seconds"], "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "metrics": {
                k: {"median": median(r["metrics"][k] for r in runs),
                    "min": min(r["metrics"][k] for r in runs)}
                for k in runs[0]["metrics"]
            },
        })
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="+", type=Path, help="perfbench result files")
    p.add_argument("--commit", help="commit label for runs that record none")
    p.add_argument("--ledger", type=Path, default=LEDGER)
    args = p.parse_args(argv)
    new = entries([json.loads(f.read_text()) for f in args.results], args.commit)
    ledger = json.loads(args.ledger.read_text()) if args.ledger.exists() else []
    args.ledger.write_text(json.dumps(ledger + new, indent=1) + "\n")
    for e in new:
        print(f"{e['commit'][:12]} {e['workload']} trace={e['trace']} "
              f"data_seed={e['data_seed']} runs={e['runs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
