"""Closed-loop benchmark of gsmat's public API.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client issues each op only after the previous one returns. BLAS is
pinned to one thread before numpy is imported. With ``--trace 0`` the last
line of output is the end-to-end result; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead. The line before it records the
environment. Both lines, plus the spans of a traced run, are also written
under ``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

HELD_OUT_SEED = 424242  # never used while tuning; verify later claims on it
SETUP_REPS = 5
MIN_OPS = 200  # leaves at least ten samples above op_p95_ms


def import_gsmat():
    """A fresh import of gsmat from this checkout's src/."""
    for name in [n for n in sys.modules if n == "gsmat" or n.startswith("gsmat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    g = importlib.import_module("gsmat")
    if Path(g.__file__).resolve().parent != SRC / "gsmat":
        raise RuntimeError(f"imported gsmat from {g.__file__}, not from {SRC}")
    return g


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout's git repository, read from .git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
    }


class Phase:
    """Outcome of one measured phase."""

    def __init__(self):
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.reasons: list = []
        self.kinds: list = []
        self.calibration_ms: list = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.wall_s

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def measure(wl, seconds: float, recorder=None, min_ops: int = 0) -> Phase:
    """Closed loop until `seconds` of measured time have passed and the deck is
    whole; untimed checks are excluded from the wall time."""
    ph = Phase()
    unmeasured = 0.0
    t0 = time.perf_counter()
    while not (
        time.perf_counter() - t0 - unmeasured >= seconds
        and wl.deck.at_boundary()
        and ph.attempted >= min_ops
    ):
        kind, j = wl.draw()
        ph.attempted += 1
        a = time.perf_counter()
        try:
            out = recorder.op(kind, wl.run, kind, j) if recorder else wl.run(kind, j)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            ph.fail(f"{kind}: raised {exc!r}")
            continue
        b = time.perf_counter()
        ph.latencies.append(b - a)
        ph.kinds.append(kind)
        if recorder:
            recorder.active = False
        try:
            why = wl.check(kind, j, out)
        except Exception as exc:  # a checker that cannot read the output rejects it
            why = f"check raised {exc!r}"
        if recorder:
            recorder.active = True
        if why:
            ph.fail(f"{kind}: {why}")
        if wl.deck.at_boundary():
            ph.calibration_ms.append(calibration_ms())
        unmeasured += time.perf_counter() - b
    ph.wall_s = time.perf_counter() - t0 - unmeasured
    return ph


CALIBRATION_INPUT = np.random.default_rng(0).standard_normal((128, 128))
# Median calibration_ms() on the machine the benchmark was written on.
REFERENCE_CALIBRATION_MS = 0.65


def calibration_ms() -> float:
    """Time of a fixed numpy kernel unrelated to gsmat, taken untimed at every
    deck end and after every set-up. The speed of the whole machine drifts by
    about 20% over minutes; gsmat's ops and this kernel drift together, so
    timings are scaled by REFERENCE_CALIBRATION_MS / calibration_ms() to the
    reference machine speed. A change to gsmat cannot move this kernel."""
    t = time.perf_counter()
    for _ in range(4):
        np.sort(CALIBRATION_INPUT @ CALIBRATION_INPUT, axis=1)
    return 1e3 * (time.perf_counter() - t)


def speed_of(calibrations: list) -> float:
    """Machine speed relative to the reference, from calibration times (1 if none)."""
    return REFERENCE_CALIBRATION_MS / float(np.median(calibrations)) if calibrations else 1.0


def end_to_end(ph: Phase, setup_s: float, ok_frac: float, speed: float) -> dict:
    """End-to-end metrics; timings are scaled to the reference machine speed."""
    # With no op completed the run is already incorrect; report zero latencies.
    p50, p95 = np.percentile(1e3 * np.array(ph.latencies), [50, 95]) if ph.latencies else (0.0, 0.0)
    return {
        "ops_per_s": (ph.ops_per_s / speed, "1/s"),
        "op_p50_ms": (float(p50) * speed, "ms"),
        "op_p95_ms": (float(p95) * speed, "ms"),
        "ok_frac": (ok_frac, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result line plus details for the record.

    Set-up (a fresh import of gsmat, building models and inputs, warm-up) is
    repeated SETUP_REPS times and setup_s is its median; reference data is
    built after it, untimed. A traced run measures half its time untraced,
    for trace.overhead, and half traced. Timings as measured, before scaling
    to the reference machine speed, are kept in the details under "raw".
    """
    cls = WORKLOADS[workload]
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_speed = [], []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            wl = cls(import_gsmat(), seed, str(workdir))
            wl.warmup()
            setup.append(time.perf_counter() - t)
            setup_speed.append(speed_of([calibration_ms() for _ in range(5)]))
        wl.build_references()
        details = {"setup_s_each": setup, "first_op_after_s": time.perf_counter() - T_START}
        failures = []
        if trace:
            plain = measure(wl, seconds / 2)
            rec = SpanRecorder()
            rec.wrap()
            rec.active = True
            try:
                traced = measure(wl, seconds / 2, recorder=rec)
            finally:
                rec.active = False
                rec.restore()
            phases = [plain, traced]
            failures += [f"traced run saw no calls into layer {x}" for x in rec.missing_layers(wl.layers)]
            metrics = rec.metrics()
            plain_rate, traced_rate = (p.ops_per_s / speed_of(p.calibration_ms) for p in (plain, traced))
            metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
            details["traced_ops"] = len(rec.op_kinds)
            details["calls_by_kind"] = rec.calls_by_kind()
            rec.write(str(OUT / f"spans-{workload}-seed{seed}.json"))
        else:
            phases = [measure(wl, seconds, min_ops=min_ops)]
        failures += wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(failures)
    speed = speed_of([c for p in phases for c in p.calibration_ms])
    details["speed"] = speed
    if not trace:
        ph = phases[0]
        setup_s = float(np.median([t * v for t, v in zip(setup, setup_speed)]))
        metrics = end_to_end(ph, setup_s, 1.0 - failed / attempted, speed)
        raw = end_to_end(ph, float(np.median(setup)), 0.0, 1.0)
        details["raw"] = {k: raw[k][0] for k in ("ops_per_s", "op_p50_ms", "op_p95_ms", "setup_s")}
        p95 = details["raw"]["op_p95_ms"] / 1e3
        details["samples"] = len(ph.latencies)
        details["samples_above_p95"] = sum(t > p95 for t in ph.latencies)
        by_kind = {}
        for kind, t in zip(ph.kinds, ph.latencies):
            by_kind.setdefault(kind, []).append(t)
        details["raw_p50_ms_by_kind"] = {k: 1e3 * float(np.median(v)) for k, v in sorted(by_kind.items())}
    details["failures"] = [r for p in phases for r in p.reasons] + failures
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            code = 1
            continue
        res = json.loads(lines[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:<34} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help=f"{', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gsmat" / "__init__.py").is_file():
        print(f"error: no gsmat sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    env = environment(args)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for why in out["details"]["failures"]:
        print(f"check failed: {why}", file=sys.stderr)
    record = {"env": env, **out}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
