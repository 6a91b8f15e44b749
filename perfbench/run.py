"""Benchmark of the kvbell CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kvbell checkout; it needs no install, only
src/kvbell.  Workloads are defined in workloads.py and described in NOTES.md.

--trace 0  Each command is a fresh `kvbell ... --format json` subprocess,
           started only after the previous one ended (one client, closed
           loop).  Passes over the workload's commands repeat until --seconds
           is used up.  wall_s is the median pass time, peak_rss_mb the
           median over passes of the largest peak RSS of one command's
           process (os.wait4, so per child), and setup_s the median time of
           fresh `import kvbell.cli` interpreters.
--trace 1  The commands of pass 0 run in this process through
           kvbell.cli.main(argv), alternately untraced and traced
           (tracing.py), until --seconds is used up.  Per-layer metrics are
           medians over the traced passes; the untraced passes give the
           tracing overhead.

Every command's `result` is checked by the gates in gates.py.  The last line
of stdout is the JSON summary; the full record (environment block, sha256 of
every result document, per-pass figures, spans) goes to
perfbench/results/<workload>-seed<N>-trace<T>.json.  Exit status is 1 when a
gate fails and 2 when src/kvbell is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what the installed `kvbell` console script runs
CLI = "import sys; from kvbell.cli import main; sys.exit(main())"
SETUP_PROBES = 7
MAX_PASSES = 64
# children still running this long after start are killed, so a run ends
# inside the 180 s allowed to it
RUN_LIMIT_S = 150.0
# exit codes the CLI documents for refused input or lost precision
DOCUMENTED_EXITS = (2, 3, 4)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Runs children one at a time and waits for each, killing any that
    outlives the run's deadline."""

    def __init__(self, work: Path):
        self.env = _child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.out_path = work / "stdout.txt"
        self.err_path = work / "stderr.txt"

    def _wait(self, pid: int):
        fd = os.pidfd_open(pid)
        try:
            timeout = max(0.0, self.deadline - time.monotonic())
            if not select.select([fd], [], [], timeout)[0]:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
        finally:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
        return status, usage

    def spawn(self, argv: list[str]) -> dict:
        """Exit code (None if killed at the deadline), wall time, this
        child's own peak RSS, and its output."""
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            try:
                status, usage = self._wait(proc.pid)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "code": None if code == -signal.SIGKILL else code,
                "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace"),
            }

    def kvbell(self, argv: list[str]) -> dict:
        return self.spawn([sys.executable, "-c", CLI, *argv, "--format", "json"])


def _sha256(result) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def gate_record(cmd, code, stdout: str, stderr: str) -> dict:
    """Gate one command's output.  Every nonzero exit counts as failed; a
    documented one (2, 3, 4) is not a problem, a crash or a kill is."""
    rec = {"argv": cmd.argv, "gate": cmd.gate, "params": cmd.params, "exit": code, "problems": []}
    if code != 0:
        rec["stderr_tail"] = stderr.strip().splitlines()[-1:]
        if code not in DOCUMENTED_EXITS:
            rec["problems"] = [f"undocumented exit {code}: {' '.join(rec['stderr_tail'])}"]
        return rec
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        rec["problems"] = [f"unreadable output: {exc!r}"]
        return rec
    rec["sha256"] = _sha256(result)
    rec["result"] = result
    rec["problems"] = gates.check(cmd.gate, cmd.params, result)
    return rec


def environment(runner: Runner, workload, seed: int, work_rel: str) -> dict:
    child = runner.spawn(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload.name, "--seed", str(seed),
         "--passes", str(MAX_PASSES), "--out", work_rel]
    )
    if child["code"] != 0:
        raise SystemExit(f"input generation failed:\n{child['stderr']}")
    env = json.loads(child["stdout"].strip().splitlines()[-1])
    env["nproc"] = len(os.sched_getaffinity(0))
    env["src_lines"] = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "kvbell").rglob("*.py"))
    )
    return env


def e2e_run(runner: Runner, workload, seed: int, work_rel: str, refs: list, seconds: float):
    runner.spawn([sys.executable, "-c", "import kvbell.cli"])  # warm bytecode caches
    probes = [runner.spawn([sys.executable, "-c", "import kvbell.cli"])["wall_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    for i in range(MAX_PASSES):
        t0 = time.perf_counter()
        runs = []
        for cmd in workload.commands(seed, i, work_rel, refs):
            child = runner.kvbell(cmd.argv)
            runs.append((cmd, child))
            if child["code"] is None:
                break
        wall = time.perf_counter() - t0
        passes.append({
            "index": i,
            "wall_s": wall,
            "peak_rss_mb": max(c["rss_mb"] for _, c in runs),
            "commands": [
                dict(gate_record(cmd, c["code"], c["stdout"], c["stderr"]),
                     wall_s=c["wall_s"], rss_mb=c["rss_mb"])
                for cmd, c in runs
            ],
        })
        typical = statistics.median(p["wall_s"] for p in passes)
        if runs[-1][1]["code"] is None or time.monotonic() + typical > start + seconds:
            break
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(probes),
    }
    extra = {"setup_probes_s": probes, "pass_wall_s": walls, "pass_peak_rss_mb": rss}
    return metrics, passes, extra


def traced_run(workload, seed: int, work_rel: str, refs: list, seconds: float):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    cmds = workload.commands(seed, 0, work_rel, refs)
    argvs = [cmd.argv + ["--format", "json"] for cmd in cmds]
    untraced, traced, passes, spans = [], [], [], []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        outputs = []
        total = 0.0
        for argv in argvs:
            t0 = time.perf_counter()
            outputs.append(tracing.run_command(argv))
            total += time.perf_counter() - t0
        untraced.append(total)
        passes.append(outputs)

        tracer = tracing.Tracer()
        with tracer.installed():
            passes.append([tracer.run(argv) for argv in argvs])
        totals = tracing.layer_totals(tracer.spans)
        totals["inproc.traced_s"] = sum(s.end - s.start for s in tracer.spans if s.name == "cli")
        traced.append(totals)
        origin = tracer.spans[0].start
        spans.append([[s.name, s.start - origin, s.end - origin, s.parent, s.counts]
                      for s in tracer.spans])
        elapsed = time.monotonic() - pass_start
        if time.monotonic() + elapsed > start + seconds or len(traced) * 2 >= MAX_PASSES:
            break

    names = set().union(*traced)
    per_layer = {name: statistics.median(t.get(name, 0.0) for t in traced) for name in names}
    per_layer["inproc.untraced_s"] = statistics.median(untraced)
    # paired by pass, so drift in machine speed between passes cancels
    per_layer["trace.overhead_frac"] = statistics.median(
        t["inproc.traced_s"] / u for t, u in zip(traced, untraced)
    ) - 1.0
    per_layer["cli.failed_frac"] = per_layer["cli.failed"] / per_layer["cli.commands"]
    per_layer["isolation.target_share"] = statistics.median(
        sum(t.get(name, 0.0) for name in workload.targets) / t["inproc.traced_s"] for t in traced
    )
    records = [
        [gate_record(cmd, code, out, err) for cmd, (code, out, err) in zip(cmds, outputs)]
        for outputs in passes
    ]
    extra = {"untraced_s": untraced, "traced_s": [t["inproc.traced_s"] for t in traced],
             "spans": spans}
    return per_layer, [{"index": i, "commands": r} for i, r in enumerate(records)], extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kvbell" / "cli.py").is_file():
        print(f"error: no kvbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work_rel = f"perfbench/_work/{workload.name}"
    work = ROOT / work_rel
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)

    env = environment(runner, workload, args.seed, work_rel)
    references = []
    for cmd in workload.references(args.seed, work_rel):
        child = runner.kvbell(cmd.argv)
        references.append(gate_record(cmd, child["code"], child["stdout"], child["stderr"]))
    problems = [p for r in references for p in r["problems"]]
    problems += [f"reference {r['argv']} exited {r['exit']}" for r in references if r["exit"] != 0]
    refs = [r.get("result") for r in references]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    if args.trace:
        measured, passes, extra = traced_run(workload, args.seed, work_rel, refs, args.seconds)
        wanted = spec["per_layer"]
    else:
        measured, passes, extra = e2e_run(runner, workload, args.seed, work_rel, refs, args.seconds)
        wanted = spec["end_to_end"]
    records = [rec for p in passes for rec in p["commands"]]
    for check, kwargs in workload.post(args.seed, work_rel):
        problems += check(**kwargs)
    problems += [f"{' '.join(r['argv'])}: {p}" for r in records for p in r["problems"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["exit"] != 0)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    # keep the result documents of pass 0 only; later passes keep their hashes
    for p in passes[1:]:
        for rec in p["commands"]:
            rec.pop("result", None)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "references": references,
        "passes": passes,
        **extra,
    }, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(f"{workload.name}: {len(passes)} passes, {attempted} commands, {failed} failed, "
          f"record in {out_file.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
