"""One measured mainswitch invocation in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so set-up time covers interpreter start and the import
of the package.  A fresh process keeps the package's lru_cache tables
(catalog masks, permutation tables) cold, as for a user's CLI call.

The spec names the workload, where to write its outputs and whether to
trace.  The result file gets the wall and CPU time of set-up and of the work, the
calibration samples taken during each, the entry
point's return code, the peak RSS and, when traced, the per-function span summary.
"""

import signal
import sys
import time

# During the import and the workload, a timer signal every SAMPLE_PERIOD_S
# runs the calibration loop once, in the main thread, and records its CPU
# time.
SAMPLE_PERIOD_S = 0.025


def calibration_loop() -> int:
    """Fixed pure-Python work of under a millisecond: integer arithmetic and
    list indexing in an interpreted loop.  It never changes, so its time
    tells how fast the CPU ran while the workload did."""
    table = list(range(97))
    acc = 1
    for i in range(2500):
        acc = (acc * 1103515245 + table[i % 97]) % 2147483648
    return acc


class SpeedSampler:
    """Times the calibration loop while the workload runs.  The signal
    handler runs between the workload's bytecodes on the same thread, so a
    sample sees the CPU the workload ran on, at that moment."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        calibration_loop()
        elapsed = time.thread_time() - start
        self.samples.append(elapsed)
        self.total_s += elapsed

    def clock(self) -> float:
        """perf_counter less the calibration loops run so far, for spans
        that should not include them."""
        return time.perf_counter() - self.total_s

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def take(self) -> list[float]:
        """The samples so far; sampling goes on into a new list."""
        samples, self.samples = self.samples, []
        return samples

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.take()


def family_output(item: dict) -> str:
    """The certificate line the CLI's ``construct`` would print for one
    shape, or ``rejected`` when the shape has no all-main switching."""
    from inputs import parse_blocks_key

    construct = sys.modules["mainswitch.construct"]
    search = sys.modules["mainswitch.search"]
    graphs = sys.modules["mainswitch.graphs"]
    try:
        if item["family"] == "snr":
            res = construct.snr_all_main_switching(item["n"], item["r"])
        else:
            blocks = parse_blocks_key(item["blocks"])
            res = construct.multipartite_all_main_switching(
                graphs.MultipartiteParams.of(blocks))
    except construct.NoAllMainSwitchingError:
        return "rejected"
    except Exception as exc:  # a wrong item: the checker counts it, the run goes on
        return f"error {type(exc).__name__}: {exc}"
    return search.make_certificate(res.graph, res.switching, res.method, res.profile).to_json()


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    wait4's ru_maxrss would do, but exec carries the parent's high-water
    mark over into it, so it never reads below the parent's RSS."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    spawned = float(sys.argv[2])
    sampler = SpeedSampler()
    sampler.start()
    import mainswitch.cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    # process_time counts from the start of the interpreter.
    setup_cpu_s = time.process_time()
    setup_calibration_s = sampler.take()

    import contextlib
    import json
    import traceback
    from pathlib import Path

    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    where = Path(mainswitch.__file__).resolve()
    if src not in where.parents:
        print(f"mainswitch was imported from {where}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": ready - spawned, "setup_cpu_s": setup_cpu_s,
              "setup_calibration_s": setup_calibration_s, "work_s": 0.0, "work_cpu_s": 0.0,
              "calibration_s": [], "rc": 0, "trace": None}
    if spec["workload"] != "probe":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer(clock=sampler.clock)
            tracer.install()
        with open(spec["stdout"], "w", encoding="utf-8") as out, \
                open(spec["stderr"], "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sampler.take()
            start, start_cpu = time.perf_counter(), time.process_time()
            if spec["workload"] == "family-construct":
                for item in spec["items"]:
                    print(family_output(item))
            else:
                try:
                    result["rc"] = mainswitch.cli.run(spec["argv"])
                except Exception:  # a crash is wrong output: the checker counts it
                    traceback.print_exc()
                    result["rc"] = -1
            result["work_s"] = time.perf_counter() - start
            result["work_cpu_s"] = time.process_time() - start_cpu
            result["calibration_s"] = sampler.stop()
        if tracer is not None:
            result["trace"] = tracer.summary()
    sampler.stop()
    result["rss_mb"] = peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
