"""Self-test of the benchmark at its shortest setting.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for one second, with tracing off and
on, and checks that
  - each summary line has exactly the keys correct, attempted, failed and
    metrics, and names every metric BENCHMARK.json lists for that mode;
  - each record holds the environment block;
  - every result document that passed its gate fails it once corrupted,
    for every gate the workloads use.
A gate failure of the program itself is reported, not counted against the
benchmark.  Exit status 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0
ENV_KEYS = {"python", "numpy", "scipy", "numba_present", "kernels_active_backend", "nproc",
            "src_lines"}


def _first_exact_row(result):
    d = result["d"]
    return next(r for r in result["rows"] if d ** r["k"] in gates.EXACT_GAME_SIZES)


def _bump(entry, by):
    entry["value"] += by


# one targeted corruption per gate: the checked quantity is moved off
CORRUPTIONS = {
    "values_exact": lambda r: _bump(r["quantum"], 1e-9),
    "values_match": lambda r: _bump(r["classical"], 1e-9),
    "superactivation": lambda r: _bump(_first_exact_row(r)["mes_term"], 1.0),
    "kv_build": lambda r: r.update(entries=r["entries"] - 1),
    "referee": lambda r: r.update(consistent_4sigma=False),
    "local_content": lambda r: r.update(reconstruction_error=1e-6),
}


def run_benchmark(workload: str, trace: int, problems: list) -> dict | None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
        return None
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: summary keys {sorted(summary)}")
    if (proc.returncode == 0) != summary["correct"]:
        problems.append(f"{label}: exit {proc.returncode} with correct={summary['correct']}")
    if not summary["correct"]:
        print(f"note: {label}: the program failed a gate\n{proc.stderr}")
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    gated = {name: 0 for name in CORRUPTIONS}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            summary = run_benchmark(workload, trace, problems)
            if summary is None:
                continue
            for metric in spec[section]:
                got = summary["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: metric {metric['name']} {got}")
            record = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json")
                                .read_text())
            if set(record["environment"]) != ENV_KEYS:
                problems.append(f"{workload}: environment block {sorted(record['environment'])}")
            docs = record["references"] + [
                c for p in record["passes"] for c in p["commands"] if "result" in c
            ]
            for doc in docs:
                if gates.check(doc["gate"], doc["params"], doc["result"]):
                    continue  # already reported by the run
                gated[doc["gate"]] += 1
                for corrupt in (CORRUPTIONS[doc["gate"]], lambda r: r.clear()):
                    bad = copy.deepcopy(doc["result"])
                    corrupt(bad)
                    if not gates.check(doc["gate"], doc["params"], bad):
                        problems.append(f"gate {doc['gate']} passed a corrupted {doc['argv']}")
    problems += [f"gate {name} never saw a passing result" for name, n in gated.items() if n == 0]
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {sum(gated.values())} result documents corrupted, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
