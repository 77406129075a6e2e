"""Benchmark of `grasstrata verify`, run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run of the program is a fresh interpreter, because the
package's module-level lru caches would turn in-process repeats into cache
hits that no user sees.  Every run gets its own input: run i of workload
seed s passes `--seed 1000 s + i` to verify.  Runs go on until --seconds
are used up (at least MIN_STEPS of them), and each metric is the median
over all runs, that is over inputs drawn the same way.

--trace 0 prints the end-to-end metrics: verify_s, cpu_s and peak_rss_mb of
the verify process (children included), and setup_s, the wall time of a
fresh `grasstrata lattice` process on the workload's arrangement.  Each step
times one lattice and one verify process, and the times are scaled to a
reference CPU speed by a calibration loop timed around them (calibration_s).
--trace 1 alternates untraced `--jobs 1` verify processes with traced ones
(bench/trace.py) and prints the per-layer metrics, the traced wall time and
the tracing overhead; trace files land in bench/_out/.

Every verify run passes the correctness gate (bench/gate.py) or counts as
failed and is left out of the medians.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "_out")
sys.path.insert(0, BENCH)

import gate  # noqa: E402
from workloads import WORKLOADS, Workload, arrangement_text  # noqa: E402

MIN_STEPS = 3
# Times are scaled to a CPU on which the calibration loop takes this long;
# see calibration_s() and bench/README.md.
CALIBRATION_LOOPS = 400_000
REFERENCE_CALIBRATION_S = 0.03
RUN_LIMIT_S = 170  # the whole run ends before this, killing a process if need be


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.monotonic()
        self.dir = os.path.join(OUT, f"{workload.name}-s{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.arr_path = os.path.join(self.dir, "arrangement.txt")
        with open(self.arr_path, "w", encoding="utf-8") as fh:
            fh.write(arrangement_text(*workload.arrangement))
        self.normals = workload.arrangement[1]
        self.flats = gate.flats(self.normals)
        with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
            self.recorded = json.load(fh).get(workload.name, {})
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        if workload.jobs == 1:
            # one vCPU for the calibration loop and every process timed
            # after it, so both see the same CPU; children inherit this
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def spawn(self, argv: list[str]) -> Proc:
        """Run argv to completion; wall from spawn to reaping, rusage of the
        process and the children it reaped.  Killed with its process group
        if the run's time limit comes first."""
        out_path = os.path.join(self.dir, "stdout.txt")
        err_path = os.path.join(self.dir, "stderr.txt")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                 start_new_session=True)
            deadline = self.t0 + RUN_LIMIT_S
            while True:
                pid, status, ru = os.wait4(p.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    os.killpg(p.pid, 9)
                    _, status, ru = os.wait4(p.pid, 0)
                    break
                time.sleep(0.001)
            wall = time.perf_counter() - start
            p.returncode = os.waitstatus_to_exitcode(status)
            self._reap_group(p.pid)
            out.seek(0)
            err.seek(0)
            return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                        out.read().decode(errors="replace"), err.read().decode(errors="replace"))

    @staticmethod
    def _reap_group(pgid: int) -> None:
        """Kill and wait out anything left in the process group (pool workers)."""
        for _ in range(2000):
            try:
                os.killpg(pgid, 9)
            except ProcessLookupError:
                return
            time.sleep(0.005)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def grasstrata(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "grasstrata", *args]

    def lattice(self) -> Proc | None:
        """One fresh `lattice` process, checked against the oracle's flats."""
        out = self._fresh("lattice.json")
        self.attempted += 1
        proc = self.spawn(self.grasstrata("lattice", self.arr_path, "-o", out))
        problems = self._output_problems(proc, out, self._lattice_problems)
        if problems:
            self.fail("lattice: " + "; ".join(problems))
            return None
        return proc

    def _fresh(self, name: str) -> str:
        """Path of an output file, with any copy from an earlier run removed."""
        path = os.path.join(self.dir, name)
        if os.path.exists(path):
            os.remove(path)
        return path

    @staticmethod
    def _output_problems(proc: Proc, path: str, check) -> list[str]:
        """Exit code, then check(parsed JSON output); a malformed output is a
        problem too, never an exception."""
        if proc.code != 0:
            return [f"exit {proc.code}: {proc.stderr.strip()[-300:]}"]
        try:
            with open(path, encoding="utf-8") as fh:
                return check(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            return [f"unreadable output: {e!r}"]

    def _lattice_problems(self, lattice: dict) -> list[str]:
        flats = len(lattice["flats"])
        return [] if flats == len(self.flats) else [f"{flats} flats, the oracle finds {len(self.flats)}"]

    def check_report(self, proc: Proc, vseed: int, report_path: str) -> bool:
        """The correctness gate; True when the run may be timed."""
        def check(report: dict) -> list[str]:
            problems = gate.report_problems(report, self.w.k)
            d = gate.digest(report)
            if vseed not in self.digests:
                problems += gate.oracle_problems(report, self.normals, self.flats)
                want = self.recorded.get(str(vseed))
                if want is not None and d != want:
                    problems.append(f"digest {d[:16]} differs from the recorded {want[:16]}")
                self.digests[vseed] = d
            elif d != self.digests[vseed]:
                problems.append("digest differs between runs of the same input")
            return problems

        problems = self._output_problems(proc, report_path, check)
        if problems:
            self.fail(f"verify seed {vseed}: " + "; ".join(problems))
        return not problems

    def steps(self, step) -> None:
        """Call step(vseed) on input after input: at least MIN_STEPS times,
        then while the next step is expected to end within --seconds."""
        start = time.monotonic()
        i = 0
        while True:
            step_start = time.monotonic()
            step(self.seed * 1000 + i)
            i += 1
            took = time.monotonic() - step_start
            if i >= MIN_STEPS and time.monotonic() + took > start + self.seconds:
                return

    def verify(self, vseed: int, jobs: int | None = None) -> Proc | None:
        report = self._fresh("report.json")
        self.attempted += 1
        proc = self.spawn(self.grasstrata(*self.w.verify_args(self.arr_path, vseed, jobs), "-o", report))
        return proc if self.check_report(proc, vseed, report) else None

    def traced(self, vseed: int) -> tuple[Proc, dict] | None:
        report = self._fresh("report-traced.json")
        trace_out = self._fresh(f"trace-{vseed}.json")
        self.attempted += 1
        proc = self.spawn([sys.executable, os.path.join(BENCH, "trace.py"), trace_out,
                           *self.w.verify_args(self.arr_path, vseed, jobs=1), "-o", report])
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.fail(f"traced verify seed {vseed}: exit {proc.code}: {proc.stderr.strip()[-300:]}")
            return None
        proc.code = result["exit"]
        if not self.check_report(proc, vseed, report):
            return None
        return proc, result["metrics"]


def median_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit}


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, the faster of two tries.  It tracks
    how fast this CPU runs Python right now."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def end_to_end(b: Bench) -> dict:
    b.lattice()  # warm-up: also compiles the package's bytecode
    raw: dict[str, list[float]] = {"verify_s": [], "cpu_s": [], "setup_s": []}
    scaled: dict[str, list[float]] = {"verify_s": [], "cpu_s": [], "setup_s": []}
    rss: list[float] = []

    def record(name: str, value: float, before: float, after: float) -> None:
        raw[name].append(value)
        scaled[name].append(value * REFERENCE_CALIBRATION_S / ((before + after) / 2))

    def one(vseed: int) -> None:
        c0 = calibration_s()
        lattice = b.lattice()
        c1 = calibration_s()
        verify = b.verify(vseed)
        c2 = calibration_s()
        if lattice:
            record("setup_s", lattice.wall_s, c0, c1)
        if verify:
            record("verify_s", verify.wall_s, c1, c2)
            record("cpu_s", verify.cpu_s, c1, c2)
            rss.append(verify.rss_mb)

    b.steps(one)
    print(f"{len(raw['verify_s'])} timed verify runs, {len(raw['setup_s'])} timed lattice runs")
    for name, values in raw.items():
        print(f"{name} unscaled: median {statistics.median(values or [0.0]):.4f}, runs",
              " ".join(f"{v:.3f}" for v in values))
    return {
        "verify_s": median_metric(scaled["verify_s"] or [0.0], "s"),
        "cpu_s": median_metric(scaled["cpu_s"] or [0.0], "s"),
        "peak_rss_mb": median_metric(rss or [0.0], "MB"),
        "setup_s": median_metric(scaled["setup_s"] or [0.0], "s"),
    }


def per_layer(b: Bench) -> dict:
    plain: list[float] = []
    traced: list[tuple[Proc, dict]] = []

    def one(vseed: int) -> None:
        proc = b.verify(vseed, jobs=1)
        if proc:
            plain.append(proc.wall_s)
        result = b.traced(vseed)
        if result:
            traced.append(result)

    b.steps(one)
    print(f"{len(traced)} traced and {len(plain)} untraced --jobs 1 runs")
    if not traced:
        return {}
    metrics = {name: median_metric([m[name]["value"] for _, m in traced], unit["unit"])
               for name, unit in traced[0][1].items()}
    wall = statistics.median(p.wall_s for p, _ in traced)
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - statistics.median(plain or [wall]), "unit": "s"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "grasstrata", "cli.py")):
        print(f"error: no grasstrata sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    b = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = per_layer(b) if args.trace else end_to_end(b)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for vseed, d in sorted(b.digests.items()):
        note = "" if str(vseed) in b.recorded else " (not recorded)"
        print(f"digest {args.workload} {vseed} {d}{note}")
    failed = len(b.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(b.digests),
        "attempted": b.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
