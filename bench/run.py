"""Benchmark runner for ``preimages``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from any directory; the runner works from the repository root and keeps
its generated inputs, results and spans under ``.bench_work/``.

``--trace 0`` measures end to end.  It is a closed loop with one client: it
starts one ``python -m preimages.cli`` process per query, waits for it to
exit (``os.wait4`` gives its CPU time and peak RSS), verifies the output,
then starts the next.  It cycles through the workload's queries, whole
cycles only, until it has run at least ``MIN_CYCLES`` cycles and
``MIN_SAMPLES`` executions and another cycle would overrun ``--seconds``.

The shared host's speed drifts by a quarter and more within minutes, and
every process on it slows alike.  So each query process is followed by a
reference process (``REF_SNIPPET``: a fixed pure-Python loop), and the
query timings are reported as multiples of that reference's time
(unit ``ref``).  Seconds are printed too, but only ``setup_s`` is reported
in seconds.

``--trace 1`` replays every query in this process through
``preimages.cli.main``, each twice: plain and with the span wrappers of
``spans.py``, followed by the fixed probe queries of ``workloads``.
Per-layer metrics come from the traced replays; the plain ones give the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``all`` runs every
workload in both modes and prints one table.  METRICS.md defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")

MIN_SAMPLES = 40          # so that ten executions lie beyond the p75 tail
MIN_CYCLES = 2            # every query timed at least twice
TAIL_PCT = 75
SETUP_FILES = 8           # files sampled for setup_s, each timed SETUP_ROUNDS times
SETUP_ROUNDS = 2
IMPORT_ROUNDS = 5
QUERY_TIMEOUT_S = 60
RUN_BUDGET_S = 150        # stop starting cycles past this, whatever --seconds says

END_TO_END = {
    "queries_per_ref": "1/ref",
    "query_p50_ref": "ref",
    "query_tail_ref": "ref",
    "query_cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The host-speed yardstick.  It must never change: every ``*_ref`` figure
# is a multiple of its time.
REF_SNIPPET = "s = 0\nfor i in range(300000):\n    s += i * i % 7\n"
SETUP_SNIPPET = ("import sys, preimages.cli\n"
                 "preimages.cli.parse_automaton_file(sys.argv[1])\n")
IMPORT_SNIPPET = ("import time\nt = time.perf_counter()\nimport preimages.cli\n"
                  "print(time.perf_counter() - t)\n")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PREIMAGES_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str]):
    """Run one child to its exit: (exit code, stdout, wall s, cpu s, max RSS MB)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env())
    killer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode("utf-8", "replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Checker:
    """Verifies outputs once per distinct (query, exit code, stdout)."""

    def __init__(self, queries):
        self.rows = {}
        for q in queries:
            if q["file"] not in self.rows:
                self.rows[q["file"]] = verify.parse_aut(Path(q["file"]).read_text(encoding="utf-8"))
        self.seen: dict[tuple, list[str]] = {}
        self.failures: list[str] = []
        self.floor_warnings: list[str] = []

    def check(self, q, rc, out) -> bool:
        key = (q["id"], rc, out)
        if key not in self.seen:
            problems, report = verify.check_output(q, self.rows[q["file"]], rc, out)
            self.seen[key] = problems
            for p in problems:
                self.failures.append(f"{q['id']}: {p}")
            if not problems:
                for p in workloads.floor_problems(q, report):
                    self.floor_warnings.append(f"{q['id']}: {p}")
        return not self.seen[key]


def measure_setup(queries) -> float:
    files = sorted({q["file"] for q in queries})
    step = max(1, len(files) // SETUP_FILES)
    picked = files[::step][:SETUP_FILES]
    times = []
    for _ in range(SETUP_ROUNDS):
        for f in picked:
            rc, _, wall, _, _ = spawn(["-c", SETUP_SNIPPET, f])
            if rc != 0:
                raise RuntimeError(f"set-up process failed on {f}")
            times.append(wall)
    return statistics.median(times)


def p_tail(values):
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PCT - 1]


def closed_loop(queries, checker: Checker, seconds: float) -> dict:
    walls, cpus, rss, ids, refs, rel, rel_cpu = [], [], [], [], [], [], []
    failed = 0
    cycles = 0
    start = perf_counter()
    while True:
        c0 = perf_counter()
        for q in queries:
            rc, out, wall, cpu, peak = spawn(["-m", "preimages.cli", *q["argv"]])
            ref_rc, _, ref_wall, ref_cpu, _ = spawn(["-c", REF_SNIPPET])
            if ref_rc != 0:
                raise RuntimeError("the reference process failed")
            refs.append(ref_wall)
            rel.append(wall / ref_wall)
            rel_cpu.append(cpu / ref_cpu)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            ids.append(q["id"])
            failed += not checker.check(q, rc, out)
        cycles += 1
        elapsed = perf_counter() - start
        cycle = perf_counter() - c0
        if elapsed + cycle > RUN_BUDGET_S:
            break
        if cycles >= MIN_CYCLES and len(walls) >= MIN_SAMPLES and elapsed + cycle > seconds:
            break
    tail = p_tail(rel)
    per_query = {}
    for i, r in zip(ids, rel):
        per_query.setdefault(i, []).append(r)
    return {
        "attempted": len(walls),
        "failed": failed,
        "cycles": cycles,
        "samples": [list(s) for s in zip(ids, walls, cpus, rel, rel_cpu)],
        "tail_note": f"p{TAIL_PCT} over {len(rel)} executions "
                     f"({sum(r > tail for r in rel)} beyond it)",
        "seconds": {
            "queries_per_s": len(walls) / sum(walls),
            "query_p50_s": statistics.median(walls),
            "query_tail_s": p_tail(walls),
            "query_cpu_s": statistics.median(cpus),
            "ref_p50_s": statistics.median(refs),
        },
        "metrics": {
            # One pass at each query's median, so one slow execution does
            # not move it.
            "queries_per_ref": len(per_query) / sum(map(statistics.median, per_query.values())),
            "query_p50_ref": statistics.median(rel),
            "query_tail_ref": tail,
            "query_cpu_ref": statistics.median(rel_cpu),
            "peak_rss_mb": max(rss),
        },
    }


def in_process(argv):
    cli = sys.modules["preimages.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a crash is one failed query, not the end of the run
            traceback.print_exc(file=sys.__stderr__)
            rc = -1
        wall = perf_counter() - t0
    return rc, out.getvalue(), wall


def traced_replay(queries, checker: Checker, spans_path: Path) -> dict:
    imports = []
    for _ in range(IMPORT_ROUNDS):
        rc, out, *_ = spawn(["-c", IMPORT_SNIPPET])
        if rc != 0:
            raise RuntimeError("importing preimages.cli failed")
        imports.append(float(out))
    sys.path.insert(0, str(SRC))
    import preimages.cli  # noqa: F401  (replays look it up in sys.modules)

    rec = spans.Recorder()
    plain_s = traced_s = 0.0
    failed = 0
    for i, q in enumerate(queries):
        # Alternate which replay goes first so warm-up favours neither.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with spans.traced(rec, q["id"]):
                    rc, out, wall = in_process(q["argv"])
                traced_s += wall
            else:
                rc, out, wall = in_process(q["argv"])
                plain_s += wall
            failed += not checker.check(q, rc, out)
    spans.dump(rec, spans_path)
    by_name = spans.totals(rec)
    metrics = spans.per_layer_metrics(by_name, statistics.median(imports),
                                      traced_s / plain_s - 1, len(rec.budget_errors))
    return {
        "attempted": 2 * len(queries),
        "failed": failed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "units": {k: u for k, (_, u) in metrics.items()},
        "shares": spans.layer_shares(by_name),
        "budget_errors": rec.budget_errors,
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "preimages").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance() -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def intent_lines(workload, shares) -> list[str]:
    named = workloads.INTENT[workload]
    named_share = sum(shares[layer] for layer in named)
    others = {layer: s for layer, s in shares.items() if layer not in named}
    top = max(others, key=others.get)
    lines = ["layer self-time shares (traced replay):"]
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<11}{share:8.3f}{'  <- named layer' if layer in named else ''}")
    verdict = "ok" if named_share > others[top] else "NOT MET"
    lines.append(f"intent: {'+'.join(named)} holds {named_share:.3f}, "
                 f"largest other layer {top} {others[top]:.3f}: {verdict}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    os.chdir(ROOT)
    prov = provenance()
    root = WORK / f"{workload}-seed{seed}"
    queries, digest = workloads.build(workload, seed, root)
    print(f"workload {workload}, seed {seed}, {len(queries)} queries, inputs sha256 {digest}")
    if trace:
        queries += workloads.build("probe", 0, root / "probe")[0]
    checker = Checker(queries)

    if trace:
        result = traced_replay(queries, checker, root / "spans.jsonl")
        units = result.pop("units")
        extra = intent_lines(workload, result["shares"])
        if result["budget_errors"]:
            extra.append(f"budget errors (query, layer): {result['budget_errors']}")
    else:
        setup = measure_setup(queries)
        result = closed_loop(queries, checker, seconds)
        result["metrics"]["setup_s"] = setup
        units = END_TO_END
        extra = [f"{result['cycles']} cycles; tail = {result['tail_note']}"]
        extra += [f"{name} {value:.6g}" for name, value in result["seconds"].items()]

    prov["loadavg_end"] = os.getloadavg()
    result.update(workload=workload, seed=seed, trace=int(trace), inputs_sha256=digest,
                  provenance=prov, failures=checker.failures[:50],
                  floor_warnings=checker.floor_warnings)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"provenance: {json.dumps(prov)}")
    for line in extra:
        print(line)
    for warning in checker.floor_warnings:
        print(f"FLOOR WARNING {warning}")
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    print(f"fail_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']})")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process; one table."""
    rows, ok = [], True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= last["correct"]
            for name, m in last["metrics"].items():
                rows.append((workload, trace, name, m["value"], m["unit"]))
            rows.append((workload, trace, "fail_frac", last["failed"] / last["attempted"], "ratio"))
    for workload, trace, name, value, unit in rows:
        print(f"{workload:<14} trace={trace} {name:<46} {value:>14.6g} {unit}")
    print(json.dumps({"correct": ok, "rows": len(rows)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "preimages" / "cli.py").is_file():
        sys.stderr.write(f"error: no preimages sources under {SRC}; run from a full checkout\n")
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (workloads.FloorError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
