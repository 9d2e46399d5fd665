"""mainswitch benchmark: CLI-shaped workloads run in fresh interpreters.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is catalog-verify, family-construct, cert-recheck, spectrum-batch, or
``all`` to run the four in turn.  Inputs come from the seed; every child
process measures one pass over them with ``src/`` on PYTHONPATH, one worker
and single-threaded BLAS.  Children run one after another for about S
seconds; each child's outputs are checked item by item against the reference
in bench/reference, and a wrong item counts in ``failed`` without stopping
the run.

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json (medians over the run's children; the times are CPU times
scaled to a fixed reference speed by a calibration loop the child runs
alongside, see README.md); with --trace 1 it reports
the per-layer metrics, from children that alternate between traced and
untraced.  Earlier lines give the seed, nproc, the Python, numpy and scipy
versions, each metric with its unit and sample count, and error_rate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs

ROOT = inputs.BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = inputs.BENCH_DIR / "child.py"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
SPECTRUM_TOL = 1e-8
# Reference speed for the time metrics: the CPU at which child.py's
# calibration loop takes this long, about its mean on the 2-vCPU VM the
# bounds were checked on.
REFERENCE_LOOP_S = 0.75e-3
# Per-layer counts taken from a workload's outputs; 0 where it has none.
OUTCOME_COUNTERS = ("search.classes_tried", "construct.fallback_share")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child can subtract the parent's
    # reading taken at spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """What the checker found in one child's outputs."""

    items: int
    wrong: int
    # Traced call counts the outputs imply, checked against the trace.
    expected_calls: dict[str, int]
    # Per-layer outcome counts derived from the outputs.
    counts: dict[str, float] = field(default_factory=dict)


def at_reference_speed(cpu_s: float, calibration_s: list[float]) -> float:
    """A CPU time less the calibration loops run in it, scaled to the
    reference speed by the mean time of those loops."""
    if not calibration_s:
        raise BenchError("a child took no calibration samples")
    return (cpu_s - sum(calibration_s)) * REFERENCE_LOOP_S / statistics.fmean(calibration_s)


@dataclass
class Child:
    """One child's measurements.  CPU times leave out the time the host ran
    something else on the child's CPU; the calibration lists hold the CPU
    time of each calibration loop run during set-up and during the work."""

    setup_s: float
    setup_cpu_s: float
    setup_calibration_s: list[float]
    work_s: float
    work_cpu_s: float
    calibration_s: list[float]
    cpu_s: float
    rss_mb: float
    rc: int
    trace: dict | None
    outcome: Outcome | None = None

    @property
    def setup_at_reference_s(self) -> float:
        return at_reference_speed(self.setup_cpu_s, self.setup_calibration_s)

    @property
    def work_at_reference_s(self) -> float:
        return at_reference_speed(self.work_cpu_s, self.calibration_s)

    @property
    def cpu_at_reference_s(self) -> float:
        return at_reference_speed(self.cpu_s, self.setup_calibration_s + self.calibration_s)

    @property
    def speed(self) -> float:
        """How fast the CPU ran, relative to the reference speed."""
        return REFERENCE_LOOP_S / statistics.fmean(self.setup_calibration_s + self.calibration_s)


def _switching_positions(n: int) -> dict[tuple[int, ...], int]:
    # 1-based position of each class in the search order: subsets of
    # {2..n} by size, then lexicographically.
    order = itertools.chain.from_iterable(
        itertools.combinations(range(2, n + 1), k) for k in range(n))
    return {combo: i for i, combo in enumerate(order, start=1)}


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def classes_tried(certs: list[dict], exception_g6: list[str]) -> int:
    """Switching classes the brute-force search evaluated, from its output:
    the position of each certificate's switching, plus every class of a
    graph without an all-main switching."""
    total = 0
    positions: dict[int, dict] = {}
    for cert in certs:
        n = ord(cert["graph6"][0]) - 63
        if n not in positions:
            positions[n] = _switching_positions(n)
        total += positions[n][tuple(cert["switching"])]
    return total + sum(2 ** (ord(g6[0]) - 64) for g6 in exception_g6)


def _positional_mismatches(got: list[str], want: list[str]) -> int:
    wrong = sum(1 for a, b in itertools.zip_longest(got, want) if a != b)
    return min(wrong, len(want))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CatalogVerify:
    """verify-conjecture over all 995 connected graphs on at most 7 vertices.
    The input is the built-in catalog, so the seed changes nothing."""

    name = "catalog-verify"

    def __init__(self, seed: int, out: Path) -> None:
        self.certs = out / "certs.jsonl"
        self.argv = ["verify-conjecture", "--max-n", "7", "--workers", "1", "--json",
                     "--certificates", str(self.certs)]
        self.ref_certs = inputs.read_gz_lines(inputs.CATALOG_CERTS)
        self.ref_report = inputs.CATALOG_REPORT.read_text(encoding="utf-8")
        self.ref_exceptions = len(json.loads(self.ref_report)["exceptions"])

    def check(self, rc: int, stdout: str, stderr: str) -> Outcome:
        got = self.certs.read_text(encoding="utf-8").splitlines() if self.certs.exists() else []
        if rc == 0 and stdout == self.ref_report:
            report = json.loads(stdout)
            wrong = 0
        else:
            report = {"n_range": [0, -1], "exceptions": []}
            wrong = self.ref_exceptions
        # Only certificates equal to the reference are known to parse.
        certs = [json.loads(line) for line, ref in zip(got, self.ref_certs) if line == ref]
        exceptions = [e["graph6"] for e in report["exceptions"]]
        n_lo, n_hi = report["n_range"]
        return Outcome(
            items=len(self.ref_certs) + self.ref_exceptions,
            wrong=wrong + _positional_mismatches(got, self.ref_certs),
            expected_calls={
                "search.enumerate_connected_graphs": n_hi - n_lo + 1,
                "search.find_all_main_switching": len(got) + len(exceptions),
            },
            counts={"search.classes_tried": classes_tried(certs, exceptions)},
        )


class FamilyConstruct:
    """The two constructions called directly: the snr grid, every partition
    shape with n <= 20, and a seeded sample of random shapes up to n = 40."""

    name = "family-construct"

    def __init__(self, seed: int, out: Path) -> None:
        self.items = inputs.family_items(seed)
        ref = {rec["key"]: rec["out"]
               for rec in map(json.loads, inputs.read_gz_lines(inputs.FAMILY_OUTPUTS))}
        self.ref = [ref[inputs.item_key(item)] for item in self.items]

    def check(self, rc: int, stdout: str, stderr: str) -> Outcome:
        got = stdout.splitlines()
        certs = [c for c in map(_json_or_none, got) if isinstance(c, dict)]
        fallbacks = sum(1 for c in certs if c.get("method") == "brute_force")
        snr = sum(1 for item in self.items if item["family"] == "snr")
        return Outcome(
            items=len(self.items),
            wrong=_positional_mismatches(got, self.ref),
            expected_calls={
                "construct.snr_all_main_switching": snr,
                "construct.multipartite_all_main_switching": len(self.items) - snr,
            },
            counts={"construct.fallback_share": fallbacks / max(1, len(certs))},
        )


class CertRecheck:
    """check-cert over the catalog certificates, one snr and one multipartite
    construction certificate per size up to n = 60, and tampered copies of a
    seeded share of them, in seeded order."""

    name = "cert-recheck"

    def __init__(self, seed: int, out: Path) -> None:
        rng = random.Random(f"cert-recheck-{seed}")
        catalog = inputs.read_gz_lines(inputs.CATALOG_CERTS)
        large = [json.loads(line) for line in inputs.read_gz_lines(inputs.CONSTRUCTION_CERTS)]
        # Tamper a share of the catalog records and one record at each of the
        # two smallest construction sizes, so the re-check work is the same
        # for every seed.
        victims = rng.sample(catalog, round(inputs.TAMPER_SHARE * len(catalog)))
        victims += [rng.choice([rec["line"] for rec in large if rec["n"] == n])
                    for n in inputs.CERT_NS[:2]]
        records = [(line, False) for line in catalog + [rec["line"] for rec in large]]
        records += [(self._tamper(rng, line), True) for line in victims]
        rng.shuffle(records)
        self.path = out / "recheck.jsonl"
        self.path.write_text("".join(line + "\n" for line, _ in records), encoding="utf-8")
        self.records = len(records)
        self.tampered = {i for i, (_, bad) in enumerate(records, start=1) if bad}
        self.argv = ["check-cert", str(self.path)]

    @staticmethod
    def _tamper(rng: random.Random, line: str) -> str:
        cert = json.loads(line)
        field_name = rng.choice(inputs.TAMPER_FIELDS)
        if field_name == "all_main":
            cert["all_main"] = not cert["all_main"]
        else:
            cert[field_name] += 1
        return json.dumps(cert)

    def check(self, rc: int, stdout: str, stderr: str) -> Outcome:
        failed = {int(m) for m in re.findall(r"^certificate (\d+): FAILED re-check", stderr, re.M)}
        passed = self.records - len(failed)
        if rc == int(bool(failed)) and stdout == f"{passed}/{self.records} certificates verified\n":
            wrong = len(failed ^ self.tampered)
        else:
            # Without a consistent summary no record is known to have passed.
            wrong = self.records - len(self.tampered) + len(self.tampered - failed)
        return Outcome(
            items=self.records,
            wrong=wrong,
            expected_calls={
                "search.verify_certificate": self.records,
                "exact.main_profile": self.records,
            },
        )


class SpectrumBatch:
    """spectrum --json over seeded relabellings of random connected graphs,
    one plain and one with twin vertices per size from 20 to 60."""

    name = "spectrum-batch"

    def __init__(self, seed: int, out: Path) -> None:
        rng = random.Random(f"spectrum-batch-{seed}")
        pool: dict[tuple[int, str], list[dict]] = {}
        for rec in map(json.loads, inputs.read_gz_lines(inputs.SPECTRUM_POOL)):
            pool.setdefault((rec["n"], rec["kind"]), []).append(rec)
        self.expected = []
        lines = []
        for n in inputs.SPECTRUM_NS:
            for kind in inputs.SPECTRUM_KINDS:
                rec = rng.choice(pool[(n, kind)])
                perm = rng.sample(range(1, n + 1), n)
                edges = inputs.relabel(inputs.g6_decode(rec["graph6"])[1], perm)
                a = np.zeros((n, n))
                for u, v in edges:
                    a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
                self.expected.append((rec["distinct_count"], rec["main_count"],
                                      np.linalg.eigvalsh(a)))
                lines.append(inputs.g6_encode(n, edges))
        path = out / "graphs.g6"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.argv = ["spectrum", "@" + str(path), "--json"]

    @staticmethod
    def _item_ok(line: str | None, distinct: int, main: int, eigenvalues: np.ndarray) -> bool:
        if line is None:
            return False
        try:
            groups = json.loads(line)["groups"]
            values = np.repeat([g["value"] for g in groups], [g["multiplicity"] for g in groups])
            mains = sum(1 for g in groups if g["is_main"] is True)
        except (ValueError, KeyError, TypeError):
            return False
        return (len(groups) == distinct and mains == main
                and values.shape == eigenvalues.shape
                and float(np.max(np.abs(values - eigenvalues))) <= SPECTRUM_TOL)

    def check(self, rc: int, stdout: str, stderr: str) -> Outcome:
        got = stdout.splitlines() if rc == 0 else []
        wrong = sum(1 for line, exp in itertools.zip_longest(got, self.expected)
                    if exp is not None and not self._item_ok(line, *exp))
        graphs = len(self.expected)
        return Outcome(
            items=graphs,
            wrong=wrong,
            expected_calls={
                "graphs.parse_graph6": graphs,
                "spectral.eigen_sym": graphs,
                "spectral.classify_main": graphs,
            },
        )


WORKLOADS = {w.name: w for w in (CatalogVerify, FamilyConstruct, CertRecheck, SpectrumBatch)}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MAINSWITCH_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work: Path, spec: dict) -> Child:
    """Start one child, wait for it and read its own resource usage."""
    out = work / "out"
    # certs.jsonl is catalog-verify's output: a child that writes none must
    # not be checked against the previous child's file.
    for stale in ("stdout", "stderr", "result", "certs.jsonl"):
        (out / stale).unlink(missing_ok=True)
    spec = dict(spec, src=str(SRC), stdout=str(out / "stdout"), stderr=str(out / "stderr"),
                result=str(out / "result"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = work / "child.log"
    with open(log_path, "wb") as log:
        spawned = clock()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path), repr(spawned)],
                                cwd=ROOT, env=_child_env(), stdout=log, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own CPU time; RUSAGE_CHILDREN would
            # sum over every child so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log_text = log_path.read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"{spec['workload']} child exited with {proc.returncode}:\n{log_text}")
    result = json.loads((out / "result").read_text(encoding="utf-8"))
    return Child(setup_s=result["setup_s"], setup_cpu_s=result["setup_cpu_s"],
                 setup_calibration_s=result["setup_calibration_s"], work_s=result["work_s"],
                 work_cpu_s=result["work_cpu_s"], calibration_s=result["calibration_s"],
                 cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=result["rss_mb"],
                 rc=result["rc"], trace=result["trace"])


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run children of one workload for about ``seconds``; with tracing they
    alternate untraced and traced.  Returns (untraced, traced, children
    whose set-up times count)."""
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, out)
    spec = {"workload": name, "argv": getattr(workload, "argv", None),
            "items": getattr(workload, "items", None)}
    # Warm-up: byte-compiles the package and fills the file cache; users
    # do not pay for either on every call.
    run_child(work, {"workload": "probe"})
    modes = (False, True) if trace else (False,)
    children: dict[bool, list[Child]] = {mode: [] for mode in modes}
    start = clock()
    longest = 0.0
    for traced in itertools.cycle(modes):
        began = clock()
        child = run_child(work, dict(spec, trace=traced))
        longest = max(longest, clock() - began)
        child.outcome = workload.check(child.rc, (out / "stdout").read_text(encoding="utf-8"),
                                       (out / "stderr").read_text(encoding="utf-8"))
        children[traced].append(child)
        if all(children.values()) and clock() - start + longest > seconds:
            break
    setups = list(children[False])
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_child(work, {"workload": "probe"}))
    return children[False], children.get(True, []), setups


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(untraced: list[Child], setups: list[Child]) -> dict[str, tuple[float, int]]:
    """Metric name -> (median, sample count)."""
    rates = [(c.outcome.items - c.outcome.wrong) / c.work_at_reference_s for c in untraced]
    return {
        "items_per_s": (statistics.median(rates), len(rates)),
        "cpu_s": (statistics.median(c.cpu_at_reference_s for c in untraced), len(untraced)),
        "setup_s": (statistics.median(c.setup_at_reference_s for c in setups), len(setups)),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in untraced), len(untraced)),
    }


def per_layer(untraced: list[Child], traced: list[Child]) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced children, and the call-count
    self-check failures."""
    metrics: dict[str, tuple[float, int]] = {}
    for layer in traced[0].trace:
        for stat in traced[0].trace[layer]:
            metrics[f"{layer}.{stat}"] = (
                statistics.median(c.trace[layer][stat] for c in traced), len(traced))
    for counter in OUTCOME_COUNTERS:
        metrics[counter] = (statistics.median(c.outcome.counts.get(counter, 0) for c in traced),
                            len(traced))
    # Each traced child is paired with the untraced one run just before it,
    # so a slow stretch of the machine affects both sides of a ratio.
    ratios = [t.work_at_reference_s / u.work_at_reference_s for u, t in zip(untraced, traced)]
    metrics["trace.overhead_frac"] = (statistics.median(ratios), len(ratios))
    problems = [
        f"{layer}: traced {c.trace[layer]['calls']} calls, outputs imply {want}"
        for c in traced for layer, want in c.outcome.expected_calls.items()
        if c.trace[layer]["calls"] != want
    ]
    return metrics, problems


def benchmark_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    untraced, traced, setups = measure(name, seed, seconds, trace, work)
    children = untraced + traced
    attempted = sum(c.outcome.items for c in children)
    failed = sum(c.outcome.wrong for c in children)
    problems: list[str] = []
    if trace:
        measured, problems = per_layer(untraced, traced)
    else:
        measured = end_to_end(untraced, setups)
    print(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "children": {"untraced": len(untraced), "traced": len(traced)},
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
    }))
    metrics = {}
    for m in benchmark_metrics(trace):
        if m["name"] not in measured:
            raise BenchError(f"{name}: metric {m['name']} was not measured")
        value, samples = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name}  {m['name']} = {value:.6g} {m['unit']}  (median of {samples})")
    print(f"{name}  error_rate = {failed / attempted:.6g} wrong/attempted  "
          f"({failed} of {attempted} items)")
    if trace:
        work_s = statistics.median(c.work_s - sum(c.calibration_s) for c in traced)
        ranking = sorted(((measured[f"{layer}.self_s"][0], layer) for layer in traced[0].trace),
                         reverse=True)[:3]
        print(f"{name}  largest self_s: "
              + ", ".join(f"{layer} {v:.4g} s ({v / work_s:.0%} of the work)" for v, layer in ranking))
    else:
        # What the same children took here, before scaling to the reference.
        rate = statistics.median((c.outcome.items - c.outcome.wrong)
                                 / (c.work_s - sum(c.calibration_s)) for c in untraced)
        setup_s = statistics.median(c.setup_s - sum(c.setup_calibration_s) for c in setups)
        speed = statistics.median(c.speed for c in untraced)
        print(f"{name}  wall clock here: items_per_s = {rate:.6g} 1/s, setup_s = {setup_s:.6g} s;"
              f" CPU at {speed:.4g} times the reference speed")
    for problem in problems:
        print(f"{name}  trace self-check FAILED: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "mainswitch" / "__init__.py").is_file():
        print(f"error: no mainswitch package under {SRC}", file=sys.stderr)
        return 2
    work = inputs.BENCH_DIR / ".work" / f"run-{os.getpid()}"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), work)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
