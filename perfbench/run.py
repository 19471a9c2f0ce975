"""imapk benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload alg_exchange --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the benchmark generates the spec texts
of a batch of reports from the seed and runs them, then the next batch, until
the time is up.  Every batch after the first draws fresh seeded maps
(workloads.batch_cases); the shipped specs recur in each.  Each report is
`parse_spec` (untimed, fresh for every batch so no refined field interval
carries over), then the timed `run(command, spec, overrides)` and `to_json`,
then the correctness gate (checks.py).  Times are wall times scaled to a
fixed host speed; see CALIBRATION_S.

With --trace 0 it prints every end-to-end metric:

    batch_s        median over batches of the summed report times
    report_s.p50   median report time over all reports run
    report_s.tail  highest whole percentile of report time with at least ten
                   reports beyond it (the percentile is printed)
    setup_s        median over fresh processes of `import imapk` plus one
                   `parse_spec` of every spec of the first batch
    peak_rss_mb    peak resident memory of this process

The share of reports that failed the gate, fail_ratio, is printed and is
`failed` / `attempted` in the result line; it is not a metric because it is
0 when all is well.  With --trace 1 it times one untraced batch, then runs
traced batches and prints the per-layer metrics (tracing.py); the spans go
to perfbench/out/.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

Exit code 2 means the benchmark could not run (for instance the imapk
sources are missing); it then prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402

MIN_BATCHES = 3
SETUP_RUNS = 3

# The 2-vCPU host this benchmark was built on runs the same Python work at
# two speeds about 1.8x apart, switching every few seconds (a fixed Fraction
# loop took 0.09-0.19 s).  So every timed step is bracketed by a calibration
# loop of exact rational arithmetic and hashing, like the library's own inner
# loops, and its wall time is scaled by CALIBRATION_S over the loop's mean
# time: seconds at the speed where the loop takes CALIBRATION_S.  For one
# report, scaling cut the run-to-run spread (IQR / median) from 0.22 to 0.10.
CALIBRATION_S = 0.01
CALIBRATION_STEPS = 700


def calibration():
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for _ in range(CALIBRATION_STEPS):
        x = (x * Fraction(7, 5) + Fraction(1, 3)) % 1
        if x.denominator.bit_length() > 256:
            x = Fraction(1, 3)
        hash(x)
    return time.perf_counter() - start


def load_imapk():
    sys.path.insert(0, str(ROOT / "src"))
    import imapk
    import imapk.report
    import imapk.specfile

    return imapk


def environment(args, cases):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": cpu or platform.processor(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reports_per_batch": len(cases),
        "parameters": workloads.PARAMETERS[args.workload],
    }


def probe(texts):
    """Scaled set-up seconds of one fresh process: import imapk, parse every spec."""
    before = calibration()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")], input=json.dumps(texts),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip()) * CALIBRATION_S * 2 / (before + calibration())


class Runner:
    """Runs batches of reports and applies the correctness gate."""

    def __init__(self, imapk, workload, seed, reference):
        self.imapk = imapk
        self.workload = workload
        self.seed = seed
        self.cases = workloads.batch_cases(workload, seed, 0)
        self.recorded_texts = {case.key: case.text for case in self.cases}
        self.reference = reference
        self.first = {}  # (case key, spec text) -> (digest, problems, defects) of its first run
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.defects = Counter()  # (case key, detail) of each unconditioned FAIL
        self.digest_changed = 0

    def report(self, case, spec):
        """Run one case: (report, exit code, JSON text)."""
        overrides = dict(case.overrides)
        if "partition" in overrides:
            overrides["partition"] = [self.imapk.as_scalar(x) for x in overrides["partition"]]
        report, code = self.imapk.report.run(case.command, spec, overrides)
        return report, code, self.imapk.report.to_json(report)

    def batch(self, number=0, tracer=None):
        """Batch `number`: the scaled and the raw seconds of each report."""
        cases = self.cases if number == 0 else workloads.batch_cases(self.workload, self.seed, number)
        specs = [self.imapk.specfile.parse_spec(case.text) for case in cases]
        scaled, raw = [], []
        for index, (case, spec) in enumerate(zip(cases, specs)):
            self.attempted += 1
            problems = None
            before = calibration()
            if tracer is not None:
                tracer.report = index
            start = time.perf_counter()
            try:
                report, code, text = self.report(case, spec)
            except Exception as exc:  # a report that raises counts as failed
                problems = ["raised %s: %s" % (type(exc).__name__, exc)]
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.report = None
            raw.append(elapsed)
            scaled.append(elapsed * CALIBRATION_S * 2 / (before + calibration()))
            if problems is None:
                problems = self.gate(case, spec, report, code, text)
            self.fail(case, problems)
        return scaled, raw

    def fail(self, case, problems):
        if problems:
            self.failed += 1
            self.failures.extend((case.key, p) for p in problems)

    def gate(self, case, spec, report, code, text):
        """Problems of one report; a repeat must match its first run exactly."""
        dig = checks.digest(text)
        run_key = (case.key, case.text)
        if run_key not in self.first:
            defects = [entry["detail"] for entry in checks.unconditioned_fails(report)]
            self.first[run_key] = (dig, self.check(case, spec, report, code, dig), defects)
        first_digest, problems, defects = self.first[run_key]
        self.defects.update((case.key, detail) for detail in defects)
        return problems if dig == first_digest else ["report differs from the first batch"]

    def check(self, case, spec, report, code, dig):
        recorded = None
        if self.reference is not None and case.text == self.recorded_texts.get(case.key):
            recorded = self.reference.get(case.key)
            if recorded is None:
                return ["no recorded reference"]
            self.digest_changed += recorded["digest"] != dig
        return checks.check(case, spec, report, code, recorded, self.imapk.report.map_from_echo)


def tail_percentile(reports_per_batch):
    """Highest whole percentile with at least ten samples beyond it.

    It is taken from the sample count that MIN_BATCHES guarantee, not from
    the count a run happens to reach, so every run of a workload reports the
    same percentile.
    """
    n = MIN_BATCHES * reports_per_batch
    return max(50, 100 * (n - 10) // n)


def percentile(samples, p):
    ordered = sorted(samples)
    rank = -(-p * len(ordered) // 100)  # nearest rank
    return ordered[max(rank, 1) - 1]


def measure(runner, seconds, texts):
    """Batches until the next one would overrun `seconds`, at least MIN_BATCHES.

    Before each batch, SETUP_RUNS fresh processes time the set-up.  Returns
    the scaled per-report seconds of every batch, the raw wall seconds of
    every batch and the scaled set-up seconds.
    """
    probe(texts)  # warm-up: compiles bytecode, untimed
    start = time.perf_counter()
    batches, walls, setups = [], [], []
    while True:
        setups += [probe(texts) for _ in range(SETUP_RUNS)]
        scaled, raw = runner.batch(len(batches))
        batches.append(scaled)
        walls.append(sum(raw))
        elapsed = time.perf_counter() - start
        if len(batches) >= MIN_BATCHES and elapsed + walls[-1] > seconds:
            return batches, walls, setups


def end_to_end(args, runner, texts):
    batches, walls, setups = measure(runner, args.seconds, texts)
    samples = [t for times in batches for t in times]
    p = tail_percentile(len(runner.cases))
    tail_value = percentile(samples, p)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("batches %d, median raw wall time %.3f s; report_s.tail is p%d of %d samples, "
          "%d of them beyond it" % (len(batches), statistics.median(walls), p, len(samples),
                                    sum(t > tail_value for t in samples)))
    print("fail_ratio %.6f ratio (%d failed of %d)"
          % (runner.failed / runner.attempted, runner.failed, runner.attempted))
    return {
        "batch_s": (statistics.median(sum(times) for times in batches), "s"),
        "report_s.p50": (statistics.median(samples), "s"),
        "report_s.tail": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(args, runner, imapk):
    from tracing import Tracer, layer_metrics

    # every batch reruns the first batch's inputs, so traced and untraced times compare
    untraced = sum(runner.batch()[1])
    tracer = Tracer(imapk)
    tracer.install()
    try:
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(sum(runner.batch(tracer=tracer)[1]))
            if time.perf_counter() - start + untraced + walls[-1] > args.seconds:
                break
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
    traced_s = statistics.median(walls)
    metrics = layer_metrics(tracer, len(walls), len(walls) * len(runner.cases), traced_s, untraced)
    print("traced batches %d; shares are layer self time over the traced batch's raw wall "
          "time, trace.batch_s = %.3f s" % (len(walls), traced_s))
    for name, (value, unit) in sorted(metrics.items()):
        if name.endswith(".self_share"):
            print("  share %-14s %6.1f%%" % (name.split(".")[0], 100 * value))
    closures = {}
    for name, _, _, _, report, _ in tracer.spans:
        if name == "orbit.critical_closure" and report is not None:
            closures[report] = closures.get(report, 0) + 1
    for command in sorted({case.command for case in runner.cases}):
        ids = [i for i, case in enumerate(runner.cases) if case.command == command]
        calls = sum(closures.get(i, 0) for i in ids) / (len(ids) * len(walls))
        print("  orbit.critical_closure calls per %s report: %.2f" % (command, calls))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        imapk = load_imapk()
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            with open(HERE / "reference.json", encoding="utf-8") as handle:
                reference = json.load(handle)[args.workload]
        runner = Runner(imapk, args.workload, args.seed, reference)
    except (ImportError, OSError) as exc:
        print("cannot set up the benchmark: %s" % exc, file=sys.stderr)
        return 2
    cases = runner.cases
    print("env " + json.dumps(environment(args, cases), sort_keys=True))

    if args.trace:
        metrics = traced(args, runner, imapk)
    else:
        metrics = end_to_end(args, runner, [case.text for case in cases])
    for name, (value, unit) in metrics.items():
        print("%-46s %14.6f %s" % (name, value, unit))
    if reference is not None:
        print("report digests changed against the recording: %d of %d"
              % (runner.digest_changed, len(reference)))
    for (key, problem), count in sorted(Counter(runner.failures).items()):
        print("FAILED %dx %s: %s" % (count, key, problem))
    for (key, detail), count in sorted(runner.defects.items()):
        print("KNOWN DEFECT %dx %s: consistency FAIL '%s' (%s) with cyclicity unknown; not "
              "counted as failed (checks.unconditioned_fails)"
              % (count, key, checks.MINPOLY_TORSION_CHECK, detail))
    failed = runner.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
