"""The frobdet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is a closed loop
with one client in one process: every request is an in-process call to
frobdet.cli.run(argv) with the .sgp table on stdin and stdout captured,
so parsing, dispatch, factorization, verification and JSON output are all
on the measured path. The loop repeats whole passes over the workload's
inputs (see workloads.py), stopping nearest to S seconds of summed request
time; checker.py checks every output right after its request. Throughput
is correct requests per second of summed request time, so neither the
checks nor the set-up launches that run between requests count against
it.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, including the tracing
overhead, and writes the spans to perfbench/out/. The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checker import Checker  # noqa: E402
from workloads import WORKLOADS, build_specs, make_pass  # noqa: E402

REQUEST_LIMIT_S = 60
# frobdet's default --cap: larger tables are verified by random evaluation.
SYMBOLIC_CAP = 12
SETUP_LAUNCHES = 21
# One fixed small request answered by each fresh interpreter for setup_s.
SETUP_ARGV = ["factor", "-", "--json"]
SETUP_STDIN = "n 3\ntable\n1 2 3\n2 2 3\n3 3 3\nidentity 1\n"


class RequestTimeout(BaseException):
    """Raised by the alarm inside a request that runs past the limit."""


def _alarm(signum, frame):
    raise RequestTimeout()


def call(cli, request):
    """One request: (exit code or None, wall seconds, stdout text). cli.run
    is looked up on each call so that the tracer's wrapper is seen."""
    out = io.StringIO()
    sys.stdin = io.StringIO(request.stdin)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(list(request.argv))
    except RequestTimeout:
        rc = None
    except Exception as e:  # a crash fails this request, not the run
        print(f"request {request.spec.key!r} raised {e!r}", file=sys.stderr)
        rc = None
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = sys.__stdin__
    return rc, dt, out.getvalue()


def run_pass(cli, checker, specs, seed, index, tracer=None, after=None):
    """Run one pass, checking each output as soon as its request is timed,
    so that no output outlives its check. Returns [(spec, seconds, ok,
    verification mode)]; after(seconds) runs between requests."""
    results = []
    for i, req in enumerate(make_pass(specs, seed, index)):
        if tracer is not None:
            tracer.request = f"{index}:{i}"
        rc, dt, out = call(cli, req)
        if after is not None:
            after(dt)
        ok, mode = checker.check(req.spec, rc, out)
        results.append((req.spec, dt, ok and dt <= REQUEST_LIMIT_S, mode))
    return results


def busy(results):
    return sum(r[1] for r in results)


def another_pass(elapsed, passes, seconds):
    """Whole passes only: start one more while it is expected to end
    nearer to the target than stopping now would."""
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


def quantile(sorted_values, p):
    """The p-th percentile as a single order statistic (nearest rank)."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, int(p / 100 * n))]


class SetupProbe:
    """setup_s: wall time of a fresh interpreter that imports frobdet.cli
    and answers SETUP_ARGV. The launches run one at a time, spread over
    the loop between requests, so that their median samples the same
    stretch of machine time as the requests; one unrecorded launch first
    leaves compiled bytecode behind."""

    def __init__(self, seconds):
        self.gap = seconds / SETUP_LAUNCHES
        self.busy = 0.0
        self.times = []
        self._launch()

    def _launch(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c",
               "import sys; from frobdet.cli import main; sys.exit(main())"] \
            + SETUP_ARGV
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, input=SETUP_STDIN, capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or '"status": "factored"' not in proc.stdout:
            raise RuntimeError("set-up request failed: " + proc.stderr.strip())
        return dt

    def after_request(self, seconds):
        self.busy += seconds
        if len(self.times) < SETUP_LAUNCHES and \
                self.busy >= len(self.times) * self.gap:
            self.times.append(self._launch())

    def median(self):
        while len(self.times) < SETUP_LAUNCHES:
            self.times.append(self._launch())
        return statistics.median(self.times)


def verified_share(results):
    """Share of zero and factored outputs verified as strongly as the
    request allows: exactly within the symbolic cap, exactly or by random
    evaluation above it."""
    decided = verified = 0
    for spec, _, ok, mode in results:
        if mode is not None:
            decided += 1
            above_cap = len(spec.table) > SYMBOLIC_CAP
            verified += ok and (mode == "exact"
                                or above_cap and mode == "randomized")
    return verified / decided if decided else 0.0


def end_to_end(cli, specs, workload, seed, seconds):
    setup = SetupProbe(seconds)
    checker = Checker(seed)
    results, pass_walls = [], []
    while another_pass(sum(pass_walls), len(pass_walls), seconds):
        res = run_pass(cli, checker, specs, seed, len(pass_walls),
                       after=setup.after_request)
        results += res
        pass_walls.append(busy(res))
    setup_s = setup.median()
    wall, passes = sum(pass_walls), len(pass_walls)
    correct = sum(1 for r in results if r[2])
    lat = sorted(r[1] for r in results)
    p = WORKLOADS[workload].tail_percentile
    tail = quantile(lat, p)
    beyond = sum(1 for v in lat if v > tail)
    print(f"passes: {passes}, requests: {len(results)}, summed request "
          f"time: {wall:.3f} s (" + " ".join(f"{w:.3f}" for w in pass_walls)
          + ")")
    print(f"latency_tail_s is p{p:g} of {len(lat)} samples, "
          f"{beyond} beyond it")
    metrics = {
        "latency_p50_s": (quantile(lat, 50), "s"),
        "latency_tail_s": (tail, "s"),
        "throughput_rps": (correct / wall, "1/s"),
        "correct_ratio": (correct / len(results), "ratio"),
        "verified_share": (verified_share(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return results, metrics


def traced(cli, specs, workload, seed, seconds):
    from layers import derive, install_hooks
    from tracer import Tracer

    tracer = Tracer()
    install_hooks(tracer)
    checker = Checker(seed)
    results, untraced_wall, traced_wall, passes = [], 0.0, 0.0, 0
    while another_pass(untraced_wall + traced_wall, passes, seconds):
        res = run_pass(cli, checker, specs, seed, 2 * passes)
        results += res
        untraced_wall += busy(res)
        tracer.seen_tables.clear()
        tracer.install()
        try:
            res = run_pass(cli, checker, specs, seed, 2 * passes + 1, tracer)
        finally:
            tracer.uninstall()
        results += res
        traced_wall += busy(res)
        passes += 1
    factor_requests = passes * sum(1 for s in specs if s.command == "factor")
    overhead = traced_wall / untraced_wall - 1
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-{seed}.tsv"
    tracer.write(span_file)
    print(f"passes: {passes} untraced + {passes} traced, "
          f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    print(f"tracing overhead: {overhead:.3f} "
          f"({traced_wall:.3f} s traced vs {untraced_wall:.3f} s untraced)")
    return results, derive(tracer, passes, factor_requests, overhead)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "frobdet" / "cli.py").is_file():
        print(f"error: no frobdet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from frobdet import cli

    signal.signal(signal.SIGALRM, _alarm)
    specs = build_specs(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    results, metrics = measure(cli, specs, args.workload, args.seed,
                               args.seconds)
    failures = [r[0].key for r in results if not r[2]]
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if failures:
        inputs = sorted(set(failures))
        print(f"failed requests: {len(failures)} of {len(results)}, on "
              f"{len(inputs)} inputs: " + ", ".join(inputs[:8])
              + (", ..." if len(inputs) > 8 else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
