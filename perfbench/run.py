"""The repository benchmark: cold CLI requests, checked exactly.

    python3 perfbench/run.py --workload hodge_query --seed 1 --seconds 28

One client sends CLI requests one after another (a closed loop, one
core busy).  Each request is a fresh ``python -m hodgehurwitz`` process
with the default --complexity-budget, because a CLI user pays the whole
fill on every call.  The seed generates a pass of requests
(``workloads.py``); the run repeats that pass while a whole pass still
fits in --seconds.  Every output is compared exactly with
``oracle.json`` after the request has exited, outside the timed region.

--trace 0 prints the end-to-end metrics:

  wall_s       wall seconds of one pass, spawn to exit of each request
               (the time to solution), each request at its mean over
               the passes of the run (see `per_request`)
  cpu_s        user+system CPU seconds of one pass's request processes
               (RUSAGE of each child), each at its mean over the passes
  req_p50_s    median over the pass's requests of their mean wall
  peak_rss_mb  largest resident set of any request process
  setup_s      median wall seconds of a request that does no work
               (interpreter start, import, argument parsing), timed
               a few times before the passes and then about every
               three seconds between their requests

and, on lines before the result, failed_ratio and req_tail_s (the
highest percentile with at least ten requests beyond it, with the
percentile and sample count; only when a run has 20 or more requests).
Both stay out of the result: failed_ratio is 0 on a healthy run and is
carried by `failed`/`attempted`, and req_tail_s exists on too few
workloads.

--trace 1 runs the pass untraced and then through ``tracer.py``, in
alternation, and prints the per-layer metrics: span self times (median
over traced passes of their sum over the pass), exact counts summed
over the requests of the first traced pass (levels_solved and entries
count what each request's fills added; s_involution.orders counts the
distinct orders within each request), and trace.overhead_s, the traced
minus the untraced pass wall (each as wall_s).

Which end-to-end metric each layer should move, and where:
  hodge_solver.fill.*, levels_solved, entries -> wall_s, cpu_s, req_p50_s
      on hodge_query and hurwitz_batch; nothing on verify_curve
  residue_kernel.* -> wall_s of the bm/both share of hodge_query;
      nothing on hurwitz_batch or verify_curve
  lambert_curve.*, exact_algebra.laurent_* -> wall_s on verify_curve and the
      bm/both share of hodge_query; nothing on hurwitz_batch
  hodge_solver.load_table_cache, cache.* -> req_p50_s on hodge_cache;
      fills move its wall_s only through its misses
  cli.main.self_s -> setup_s, and req_p50_s on hodge_cache
  hurwitz.* -> wall_s on hurwitz_batch
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACER = os.path.join(HERE, "tracer.py")

# no-op requests: a few before the passes, then one whenever this many
# seconds have passed, so that setup_s samples the whole run
NOOP_FIRST = 5
NOOP_EVERY_S = 3.0
# a `verify --suite series` request prints this many checks
SERIES_CHECKS = 7
# every request is killed by then, so a run ends within three minutes
RUN_LIMIT_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap requests per pass (self-test)")
    return parser.parse_args(argv)


class Runner:
    """Spawns requests, times them, and checks what they print."""

    def __init__(self, env: dict, noop_env: dict, noops: list,
                 deadline: float):
        self.env = env
        self.noop_env = noop_env
        self.noops = noops
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.ok_walls = []       # successful untraced pass requests
        self.setup_walls = []    # no-op requests
        self.last_noop = None
        self.peak_rss_kb = 0

    def execute(self, req: wl.Request, trace_path=None, env=None) -> tuple:
        """(wall seconds, CPU seconds, output correct) of one request."""
        if trace_path is None:
            argv = [sys.executable, "-m", "hodgehurwitz", *req.argv]
        else:
            argv = [sys.executable, TRACER, trace_path, *req.argv]
        out_path = os.path.join(WORK, "stdout")
        err_path = os.path.join(WORK, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=env or self.env, cwd=ROOT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        stderr_size = os.path.getsize(err_path)
        ok = check(req, proc.returncode, stdout, stderr_size)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED (exit {proc.returncode}): {' '.join(req.argv)}",
                  file=sys.stderr)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, usage.ru_utime + usage.ru_stime, ok

    def noop(self) -> None:
        """Time one request that does no work; never uses the cache."""
        req = self.noops[len(self.setup_walls) % len(self.noops)]
        self.setup_walls.append(self.execute(req, env=self.noop_env)[0])
        self.last_noop = time.monotonic()

    def run_pass(self, reqs: list, cache_dir=None, trace=False) -> dict:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
            os.makedirs(cache_dir)
        walls, cpus = [], []
        self_s, counts, calls = {}, {}, {}
        for i, req in enumerate(reqs):
            trace_path = os.path.join(WORK, f"trace-{i}.json") \
                if trace else None
            w, c, ok = self.execute(req, trace_path)
            walls.append(w)
            cpus.append(c)
            if ok and not trace:
                self.ok_walls.append(w)
            if time.monotonic() - self.last_noop >= NOOP_EVERY_S:
                self.noop()
            if trace_path is not None and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                os.remove(trace_path)
                for total, part in ((self_s, report["self_s"]),
                                    (counts, report["counts"]),
                                    (calls, report["calls"])):
                    for name, value in part.items():
                        total[name] = total.get(name, 0) + value
        return {"walls": walls, "cpus": cpus, "self_s": self_s,
                "counts": counts, "calls": calls}


def check(req: wl.Request, code: int, stdout: str, stderr_size: int) -> bool:
    """Exit 0, nothing on stderr, and exactly the expected stdout; a
    `verify` request must print its full list of checks, every one ok."""
    if code != 0 or stderr_size:
        return False
    if req.expected is not None:
        return stdout == req.expected
    lines = stdout.splitlines()
    return len(lines) == SERIES_CHECKS and all(
        line.startswith("ok   ") for line in lines)


def environment(env: dict) -> dict:
    """Backend and interpreter as the request processes see them; also
    proves that the package imports from this checkout's src/."""
    probe = ("import hodgehurwitz, hodgehurwitz.exact_algebra as e;"
             "print(hodgehurwitz.__file__);"
             "print(e.Rational.__module__)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or not os.path.abspath(lines[0]).startswith(SRC + os.sep):
        raise SystemExit(f"error: cannot import hodgehurwitz from {SRC}")
    return {"backend": lines[1], "python": platform.python_version(),
            "nproc": os.cpu_count()}


def tail(walls: list):
    """(percentile, value) with at least ten requests beyond it."""
    n = len(walls)
    if n < 20:
        return None
    below = n - 10
    return 100 * below // n, sorted(walls)[below - 1]


def per_request(passes: list, key: str) -> list:
    """Each request's mean `walls` or `cpus` entry over the passes.

    On a shared 2-vCPU virtual machine one request's time varies by
    10-40% from one repeat to the next, mostly independently, so the
    mean over its repeats spreads least between runs; there the median
    or the minimum of four to six repeats spread up to twice as much."""
    return [statistics.fmean(p[key][i] for p in passes)
            for i in range(len(passes[0][key]))]


def layer_metrics(names: list, traced: list, untraced: list) -> dict:
    """Per-layer values by BENCHMARK.json name: `<span>.self_s` and
    `<span>.calls` come from the tracer's spans, other names from its
    counters, except the tracing overhead."""
    first = traced[0]
    if any(p["counts"] != first["counts"] for p in traced):
        print("warning: layer counts differ between passes", file=sys.stderr)
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = sum(per_request(traced, "walls")) \
                - sum(per_request(untraced, "walls"))
        elif name.endswith(".self_s"):
            metrics[name] = statistics.median(
                p["self_s"].get(name[:-len(".self_s")], 0.0) for p in traced)
        elif name.endswith(".calls"):
            metrics[name] = first["calls"].get(name[:-len(".calls")], 0)
        else:
            metrics[name] = first["counts"].get(name, 0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hodgehurwitz", "__init__.py")):
        print(f"error: no hodgehurwitz package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    base_env = {k: v for k, v in os.environ.items()
                if k != "HURWITZ_REC_CACHE"}
    base_env["PYTHONPATH"] = SRC
    env, cache_dir = base_env, None
    if args.workload == "hodge_cache":
        cache_dir = os.path.join(WORK, "cache")
        env = dict(base_env, HURWITZ_REC_CACHE=cache_dir)
    stamp = environment(base_env)
    stamp["loadavg_before"] = os.getloadavg()

    oracle = wl.load_oracle()
    reqs = wl.build_pass(args.workload, args.seed, oracle, args.tiny)
    runner = Runner(env, base_env, wl.noop_requests(oracle),
                    time.monotonic() + RUN_LIMIT_S)

    # one request to warm the bytecode cache, then the first no-ops
    runner.execute(runner.noops[0], env=base_env)
    for _ in range(NOOP_FIRST):
        runner.noop()

    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        untraced.append(runner.run_pass(reqs, cache_dir))
        if args.trace:
            traced.append(runner.run_pass(reqs, cache_dir, trace=True))
        per_round = statistics.median(sum(p["walls"]) for p in untraced)
        if traced:
            per_round += statistics.median(sum(p["walls"]) for p in traced)
        # start another round only if all of it fits
        if time.perf_counter() - start + per_round > args.seconds:
            break
    stamp["loadavg_after"] = os.getloadavg()
    stamp["passes"] = len(untraced)
    stamp["requests_per_pass"] = len(reqs)

    if args.trace:
        wanted = spec["per_layer"]
        values = layer_metrics([m["name"] for m in wanted], traced, untraced)
    else:
        values = {
            "wall_s": sum(per_request(untraced, "walls")),
            "cpu_s": sum(per_request(untraced, "cpus")),
            "req_p50_s": statistics.median(per_request(untraced, "walls")),
            "peak_rss_mb": runner.peak_rss_kb / 1024,
            "setup_s": statistics.median(runner.setup_walls),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(json.dumps({"env": stamp}))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':48s} {runner.failed / runner.attempted:.6g} "
          f"ratio ({runner.failed}/{runner.attempted})")
    if not args.trace and tail(runner.ok_walls):
        pct, value = tail(runner.ok_walls)
        print(f"{'req_tail_s':48s} {value:.6g} s "
              f"(p{pct}, n={len(runner.ok_walls)})")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
