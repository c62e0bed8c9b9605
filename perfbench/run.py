"""Benchmark of the deeptherm CLI: replica, Monte Carlo and exact routes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(`child.py`) that imports `deeptherm.cli` from `src/` and calls
`deeptherm.cli.main([...])`, so set-up time and cold `lru_cache`s are paid
as a CLI user pays them.  This one process starts the repetitions one
after another; BLAS threads are set to the number of usable cores before
numpy is imported.  Output files go to `.bench_build/perfbench/`.

--trace 0 repeats the workload until S seconds of repetitions have passed
(at least once) and reports the end-to-end metrics, each the median over
repetitions:
  wall_s         from the main([...]) call to the CSV and sidecar written
  setup_s        interpreter start plus `import deeptherm.cli`, median over
                 the repetitions and SETUP_PROBES import-only starts
  peak_rss_mb    peak resident memory of the repetition's process
--trace 1 runs the workload once traced and reports the per-layer metrics
of layers.py; then, when it can finish before the deadline, once untraced
at the same seed, to check that both write byte-identical CSVs.

Both modes check the outputs (checks.py).  The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; attempted and failed
count output checks, so failed / attempted is checks_failed_frac.  The
exit code is 0 only when every check passed.  The machine block and the
full result go to stdout before it and to a JSON file next to the outputs.
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
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402

_CLOCK = time.CLOCK_MONOTONIC
SETUP_PROBES = 2
DEADLINE_S = 170.0   # a run must end within 180 s
EXIT_BROKEN = 2      # no program to benchmark, or a repetition crashed
EXIT_CHECKS = 1      # the program ran but an output check failed

# 1e6 pbc samples: the trace norm of a noisy moment is biased upward, and at
# 5e5 the bias alone reached 14% of criterion 6's 15% on some seeds.  obc is
# far from that edge; 5e5 samples make a repetition long enough (10-15 s) to
# average over the host's speed swings.  BENCHMARK.json leaves mc_pbc_t3 out
# because its runs would not fit the benchmark's time budget next to
# figure3's; run it by name as the control for obc-only sampler changes.
MC_SAMPLES = {"pbc": 1_000_000, "obc": 500_000}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable            # seed -> CLI arguments, outputs relative to the cwd
    csvs: tuple               # output CSVs compared byte for byte
    check: Callable           # (outdir) -> [(name, ok, detail)]
    samples: int = 0          # MC samples, for montecarlo.samples_per_s


def _mc(bc: str) -> Workload:
    samples = MC_SAMPLES[bc]
    return Workload(
        name=f"mc_{bc}_t3",
        argv=lambda seed: ["mc", "--k", "2", "--t", "3", "--bc", bc, "--na", "2",
                           "--samples", str(samples), "--seed", str(seed), "--out", "mc.csv"],
        csvs=("mc.csv",),
        check=lambda out: checks.check_mc(out, "mc.csv", bc, 3, samples),
        samples=samples,
    )


# figure3 and exact have no random input: the seed only feeds MC.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="figure3_replica",
        argv=lambda seed: ["figure3", "--na", "2", "--kmax", "4", "--tmax", "5", "--out", "figure3"],
        csvs=("figure3_points.csv", "figure3_rates.csv"),
        check=lambda out: checks.check_figure3(out, "figure3"),
    ),
    _mc("pbc"),
    _mc("obc"),
    Workload(
        name="exact_n18",
        argv=lambda seed: ["exact", "--n", "18", "--na", "2", "--t", "4", "--k", "3", "--out", "exact.csv"],
        csvs=("exact.csv",),
        check=lambda out: checks.check_exact(out, "exact.csv"),
    ),
)}


class Broken(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    def __init__(self, root: str, deadline: float):
        self.src = os.path.join(root, "src")
        self.results = os.path.join(root, ".bench_build", "perfbench")
        self.work = os.path.join(self.results, f"run-{os.getpid()}")
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(self.nproc)
        self.env = env
        self._n = 0

    def build(self) -> None:
        if not os.path.isfile(os.path.join(self.src, "deeptherm", "cli.py")):
            raise Broken(f"no deeptherm package under {self.src}")
        os.makedirs(self.work)
        # byte-compile once, so the timed starts all read cached bytecode
        self._spawn_and_wait([sys.executable, "-m", "compileall", "-q",
                              os.path.join(self.src, "deeptherm"), HERE], self.work)

    def _spawn_and_wait(self, cmd: list, cwd: str):
        """Run cmd to completion; (exit code, rusage, spawn time)."""
        with open(os.path.join(cwd, "stdout.txt"), "ab") as out, \
                open(os.path.join(cwd, "stderr.txt"), "ab") as err:
            spawned = time.clock_gettime(_CLOCK)
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.clock_gettime(_CLOCK) > self.deadline:
                    raise Broken(f"{cmd[1:3]} still running at the {DEADLINE_S:.0f} s deadline")
                time.sleep(0.05)
        except BaseException:
            proc.send_signal(signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, rusage, spawned

    def repetition(self, cli_args: list | None, trace: bool = False) -> dict:
        """One fresh interpreter; cli_args None starts it only to time the import."""
        self._n += 1
        rep_dir = os.path.join(self.work, f"rep{self._n}")
        os.makedirs(rep_dir)
        result_path = os.path.join(rep_dir, "child.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, "1" if trace else "0"]
        rc, rusage, spawned = self._spawn_and_wait(cmd + (cli_args or []), rep_dir)
        if rc != 0:
            raise Broken(f"repetition exited {rc}; see {rep_dir}/stderr.txt")
        with open(result_path, encoding="utf-8") as f:
            res = json.load(f)
        res["setup_s"] = res["ready"] - spawned
        res["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
        res["dir"] = rep_dir
        if cli_args is not None and res["rc"] != 0:
            raise Broken(f"deeptherm exited {res['rc']}; see {rep_dir}/stderr.txt")
        return res


def _run_checks(wl: Workload, rep: dict, tag: str) -> list:
    try:
        return [(f"{tag}.{name}", ok, detail) for name, ok, detail in wl.check(rep["dir"])]
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [(f"{tag}.readable", False, f"{type(e).__name__}: {e}")]


def untraced(runner: Runner, wl: Workload, seed: int, seconds: float):
    setups = [runner.repetition(None)["setup_s"] for _ in range(SETUP_PROBES)]
    reps, results = [], []
    spent = 0.0
    while not reps or spent < seconds:
        if reps and time.clock_gettime(_CLOCK) + 2 * reps[-1]["wall_s"] + 5 > runner.deadline:
            break
        rep = runner.repetition(wl.argv(seed))
        results += _run_checks(wl, rep, f"rep{len(reps) + 1}")
        reps.append(rep)
        spent += rep["wall_s"]
    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in reps]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return metrics, results, reps


def traced(runner: Runner, wl: Workload, seed: int):
    rep = runner.repetition(wl.argv(seed), trace=True)
    results = _run_checks(wl, rep, "traced")
    # the same seed untraced must write the same bytes; skipped unless it can
    # take twice the traced time and still end before the deadline (the
    # host's speed swings by half between minutes)
    reps = [rep]
    if time.clock_gettime(_CLOCK) + 2 * rep["wall_s"] + 5 < runner.deadline:
        plain = runner.repetition(wl.argv(seed))
        results += _run_checks(wl, plain, "untraced")
        for csv_name in wl.csvs:
            same = checks.same_bytes(os.path.join(plain["dir"], csv_name), os.path.join(rep["dir"], csv_name))
            results.append((f"traced_csv_identical.{csv_name}", same, "traced vs untraced bytes"))
        reps.append(plain)
    else:
        print("perfbench: no time left for the untraced repetition; byte comparison skipped")
    trace = rep["trace"]
    if trace["missing"]:
        print("perfbench: not traced, no longer in the package: " + ", ".join(trace["missing"]))
    if trace["counts"].get("replica.fits"):
        # figure3's CSVs do not carry the extrapolation's residual flag
        flagged = trace["counts"]["replica.fits_flagged"]
        results.append(("traced.no_fit_flagged", flagged == 0, f"{flagged} flagged fits"))
    stderr_rel = 0.0
    if "mc.csv" in wl.csvs:
        last = checks.read_rows(os.path.join(rep["dir"], "mc.csv"))[-1]
        stderr_rel = float(last["stderr"]) / float(last["delta_k"])
    per_layer = layers.per_layer_metrics(trace, rep["wall_s"], wl.samples, stderr_rel)
    metrics = {name: (value, layers.UNITS[name]) for name, value in per_layer.items()}
    table = layers.span_table(trace["spans"])
    spans = {name: {**row, "parents": sorted(p or "" for p in row["parents"])}
             for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])}
    return metrics, results, reps, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.clock_gettime(_CLOCK)
    load = os.getloadavg()
    wl = WORKLOADS[args.workload]
    runner = Runner(os.getcwd(), start + DEADLINE_S)
    try:
        runner.build()
        if args.trace:
            metrics, results, reps, spans = traced(runner, wl, args.seed)
        else:
            (metrics, results, reps), spans = untraced(runner, wl, args.seed, args.seconds), None
    except Broken as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return EXIT_BROKEN
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    machine = {"nproc": runner.nproc, "loadavg_at_start": load, **reps[0]["env"]}
    failed = [r for r in results if not r[1]]
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": machine,
        "repetitions": [{k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")} for r in reps],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "checks_failed_frac": len(failed) / len(results),
        "metrics": metrics_json,
        "spans": spans,
    }
    with open(os.path.join(runner.results, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)

    print("machine " + json.dumps(machine))
    if spans:
        print(f"{'span':36s} {'calls':>7s} {'self_s':>9s} {'cpu/wall':>8s}  parents")
        for name, row in spans.items():
            ratio = row["self_cpu_s"] / row["self_s"] if row["self_s"] > 0 else 0.0
            print(f"{name:36s} {row['calls']:7d} {row['self_s']:9.4f} {ratio:8.2f}  {','.join(row['parents'])}")
    for name, ok, detail in failed:
        print(f"CHECK FAILED {name}: {detail}")
    print(f"checks_failed_frac {len(failed)}/{len(results)} = {summary['checks_failed_frac']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics_json,
    }))
    return 0 if not failed else EXIT_CHECKS


if __name__ == "__main__":
    raise SystemExit(main())
