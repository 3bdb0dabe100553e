"""Benchmark of the schmidt-norms library.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --make-refs

Workloads (see ``workloads.py``): ``order_norms``, ``certificates``,
``seesaw_oracle`` and ``cli``.  Load is one closed loop: one caller runs one
instance at a time, the library with ``threads=1`` and BLAS pinned to one
thread, CLI commands one subprocess at a time.

A run first takes one warm-up instance, then passes over the workload's
pool, one instance after the other, until S seconds have passed.  Only
whole passes are timed: every run times the same instances of its seed, and
the pass cut at the deadline is checked but not timed.  Times are reported
at a nominal host speed: a fixed numpy reference kernel runs between
instances, between library calls at least 0.25 s apart, and around every
set-up probe, and each stretch of time is scaled by the kernel's nominal
time over its measured time (see ``harness.py``).  The raw wall-clock
figures are printed and kept in the result file.

``--trace 0`` measures for S seconds and prints the end-to-end metrics.
``--trace 1`` measures S/2 seconds untraced, then S/2 seconds with every
layer wrapped by ``tracer.py``, and prints the per-layer metrics, the tracing
overhead and the reference-checked quality fractions.  It also writes the
spans and a cProfile top-15 to ``perfbench/out/``.

Every run checks the outputs of every operation, keeps a digest of every
returned value per pool instance, and fails when a digest differs within the
run, between its traced and untraced passes, or from an earlier run at the
same seed on the same platform (stored in ``perfbench/out/digests/``).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--make-refs`` computes the reference values of a seed's whole pool and
stores them in ``perfbench/refs/``; traced runs compute the ones they miss
after measuring.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")
WORKLOADS = ("order_norms", "certificates", "seesaw_oracle", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
STALL_TOL = 1e-4
INEXACT_TOL = 1e-6
PROFILE_SECONDS = 2.0


def build(name: str, seed: int):
    import workloads as wl

    if name == "cli":
        return wl.Cli(seed, os.path.join(OUT, "cli-%d" % seed), SRC,
                      os.path.join(HERE, "cli_launcher.py"))
    return {"order_norms": wl.OrderNorms, "certificates": wl.Certificates,
            "seesaw_oracle": wl.SeesawOracle}[name](seed)


def refs_path(name: str, seed: int) -> str:
    return os.path.join(REFS, "%s-%d.json" % (name, seed))


def load_json(path: str, default):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def save_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def ensure_refs(workload, seed: int, refs: dict, slots) -> dict:
    """Compute and store the references of ``slots`` that are not cached."""
    import workloads as wl

    missing = sorted(s for s in set(slots) if str(s) not in refs)
    for slot in missing:
        refs[str(slot)] = workload.references(workload.pool[slot])
    if missing:
        save_json(refs_path(workload.name, seed),
                  {"workload": workload.name, "seed": seed,
                   "oracle": dict(wl.STRONG_ORACLE, seed=wl.REFERENCE_SEED),
                   "instances": refs})
    return refs


def measure(workload, seconds: float, tracer=None):
    """Closed loop: one warm-up instance (pool slot 0), then passes over the
    pool until ``seconds`` have passed; the instance running at the deadline
    completes, and at least one pass does.  One HostClock times them all.

    Returns (records, timed): every Record, and the records of whole passes.
    """
    from harness import HostClock, Record
    from workloads import Ledger, OpFailed

    records, timed, clock = [], [], HostClock()

    def run_one(slot):
        ledger = Ledger(clock)
        if tracer is not None:
            tracer.current_instance = len(records)
        seconds0, scaled0 = clock.seconds, clock.scaled
        try:
            workload.run(workload.pool[slot], ledger)
        except OpFailed:
            pass
        clock.mark(force=True)
        records.append(Record(slot, clock.seconds - seconds0, ledger, clock.scaled - scaled0))

    run_one(0)
    t0 = time.perf_counter()
    while not timed or time.perf_counter() - t0 < seconds:
        first = len(records)
        for slot in range(len(workload.pool)):
            if timed and time.perf_counter() - t0 >= seconds:
                break
            run_one(slot)
        else:
            timed.extend(records[first:])
    return records, timed, clock.kernel


def rate(records) -> float:
    """Instances per second of host-scaled instance time."""
    return len(records) / sum(r.scaled for r in records)


def quality(records, refs: dict) -> dict:
    """Values that fall short of their reference, or of a floor another
    search of the same instance proved, by more than STALL_TOL / INEXACT_TOL."""
    checked = stalls = inexact = 0
    for rec in records:
        ref = dict(refs.get(str(rec.slot), {}))
        for op, floor in rec.ledger.floors.items():
            ref[op] = max(ref.get(op, floor), floor)
        for op, (value, sense) in rec.ledger.values.items():
            if op not in ref:
                continue
            short = ref[op] - value if sense == "max" else value - ref[op]
            checked += 1
            stalls += short > STALL_TOL
            inexact += short > INEXACT_TOL
    return {"checked": checked, "stalls": stalls, "inexact": inexact}


def platform_key(prov: dict) -> str:
    """Short digest of what the bit-identity promise is scoped to: the
    interpreter, numpy, the BLAS and its thread settings, and the CPU."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    key = json.dumps([prov["python"], prov["numpy"], prov["blas"], prov["blas_threads"], cpu],
                     sort_keys=True)
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def determinism(name: str, seed: int, record_sets, prov: dict):
    """Per-slot digests of this run; differences within the run, between
    its passes, or against earlier runs at the same seed on the same
    platform are problems."""
    seen, problems = {}, []
    for records in record_sets:
        for n, rec in enumerate(records):
            key, digest = str(rec.slot), rec.ledger.digest.hexdigest()
            if seen.setdefault(key, digest) != digest:
                problems.append("instance %d (pool slot %d) differs from an earlier pass"
                                % (n, rec.slot))
    path = os.path.join(OUT, "digests", "%s-%d-%s.json" % (name, seed, platform_key(prov)))
    stored = load_json(path, {})
    for key, digest in seen.items():
        if stored.setdefault(key, digest) != digest:
            problems.append("pool slot %s differs from an earlier run" % key)
    save_json(path, stored)
    return seen, problems


def setup_probes(name: str, seed: int) -> list:
    """Wall time from spawning a fresh interpreter to the point where this
    script would make its first timed call: imports, input generation and
    the reference lookup.  Returns (seconds, reference-kernel time) pairs."""
    from harness import reference_kernel

    samples, ref = [], [reference_kernel()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(seed), "--setup-probe"],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed with exit %s" % proc.returncode)
        ref.append(reference_kernel())
        samples.append((elapsed, (ref[-2] + ref[-1]) / 2))
    return samples


def provenance(workload, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    budgets = {k: getattr(workload, k) for k in ("budget", "polish_steps", "samples", "opts")
               if hasattr(workload, k)}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "commit": commit or "unknown (not a git checkout)", "workload": workload.name,
            "seed": seed, "pool": len(workload.pool), "budgets": budgets}


def profile(workload, path: str) -> None:
    """cProfile top-15 by own time: an artifact, never a metric."""
    prof = cProfile.Profile()
    if workload.name == "cli":
        import schmidt_norms.cli as cli

        cwd = os.getcwd()
        os.chdir(workload.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                prof.enable()
                for _label, argv, _want in workload.pool:
                    cli.main(argv)
                prof.disable()
        finally:
            os.chdir(cwd)
    else:
        from workloads import Ledger, OpFailed

        t0 = time.perf_counter()
        prof.enable()
        for inst in workload.pool:
            if time.perf_counter() - t0 >= PROFILE_SECONDS:
                break
            try:
                workload.run(inst, Ledger())
            except OpFailed:
                pass
        prof.disable()
    with open(path, "w", encoding="utf-8") as fh:
        pstats.Stats(prof, stream=fh).sort_stats("tottime").print_stats(15)


def end_to_end(name: str, timed, kernel: list, setup: list) -> dict:
    """(metrics, raw): the end-to-end metrics, times at the nominal host
    speed, and the raw wall-clock figures, which are not metrics."""
    from harness import median, scaled, tail

    times = [r.scaled for r in timed]
    value, q, beyond = tail(times)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli"
                               else resource.RUSAGE_SELF)
    raw = [r.seconds for r in timed]
    return {
        "instances_per_s": {"value": rate(timed), "unit": "1/s"},
        "instance_p50_s": {"value": median(times), "unit": "s"},
        "instance_tail_s": {"value": value, "unit": "s", "percentile": q,
                            "beyond": beyond, "instances": len(times)},
        "setup_s": {"value": median([scaled(t, ref) for t, ref in setup]), "unit": "s"},
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
    }, {
        "instances_per_s": len(raw) / sum(raw), "instance_p50_s": median(raw),
        "setup_s": median([t for t, _ref in setup]), "setup_samples": setup,
        "reference_kernel_s": median(kernel), "reference_kernel_runs": len(kernel),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-refs", action="store_true",
                    help="compute and store the reference values of the seed's pool")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "schmidt_norms", "__init__.py")):
        print("error: library source not found under %s" % SRC, file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [HERE, SRC]

    workload = build(args.workload, args.seed)
    refs = load_json(refs_path(args.workload, args.seed), {}).get("instances", {})
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    pool = len(workload.pool)
    if args.make_refs:
        ensure_refs(workload, args.seed, refs, range(pool))
        print("references for %s seed %d: %d pool instances in %s"
              % (args.workload, args.seed, pool, refs_path(args.workload, args.seed)))
        return 0

    from harness import NOMINAL_REF_S, combine_digests, ratio
    from tracer import Tracer

    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, timed, kernel = measure(workload, seconds)
    record_sets = [records]
    metrics, raw = {}, {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            sid = tracer.open("setup")
            traced = build(args.workload, args.seed)
            tracer.close(sid)
            traced.tracer = tracer
            traced_records, traced_timed, _kernel = measure(traced, seconds, tracer)
        finally:
            tracer.uninstall()
        record_sets.append(traced_records)
        for name, (value, unit) in tracer.layer_metrics(len(traced_records)).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["tracing.overhead"] = {
            "value": ratio(rate(traced_timed), rate(timed)),
            "unit": "ratio"}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s.npz" % tag))
        traced.tracer = None
        profile(traced, os.path.join(OUT, "profile-%s.txt" % tag))
        refs = ensure_refs(workload, args.seed, refs, {r.slot for r in records})
    else:
        metrics, raw = end_to_end(args.workload, timed, kernel,
                                  setup_probes(args.workload, args.seed))

    every = [r for rs in record_sets for r in rs]
    attempted = sum(r.ledger.attempted for r in every)
    failed = sum(len(r.ledger.failed) for r in every)
    qual = quality(records, refs)
    have_refs = all(str(r.slot) in refs for r in records)
    fractions = {"stall_fraction": ratio(qual["stalls"], qual["checked"]),
                 "inexact_fraction": ratio(qual["inexact"], qual["checked"]),
                 "failed_fraction": ratio(failed, attempted)}
    if args.trace:
        for name, value in fractions.items():
            metrics[name] = {"value": value, "unit": "fraction"}
    prov = provenance(workload, args.seed)
    digests, problems = determinism(args.workload, args.seed, record_sets, prov)
    correct = failed == 0 and not problems

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    errors = [e for r in every for e in r.ledger.errors]
    save_json(os.path.join(OUT, "result-%s.json" % tag), {
        "result": result, "metrics": metrics, "quality": dict(qual, **fractions),
        "quality_references": "complete" if have_refs else "partial",
        "instances": len(records), "timed_instances": len(timed), "raw": raw,
        "instance_s": [[r.slot, round(r.seconds, 6), round(r.scaled, 6)] for r in records],
        "workload_digest": combine_digests(digests), "determinism_problems": problems,
        "errors": errors[:50], "provenance": prov,
        "process_s": time.perf_counter() - T_START})

    print("%s seed %d trace %d: %d instances, %d timed, %d operations, %d failed"
          % (args.workload, args.seed, args.trace, len(records), len(timed), attempted, failed))
    for name, m in metrics.items():
        extra = ""
        if name == "instance_tail_s":
            extra = "  (p%d, %d of %d instances beyond)" % (m["percentile"], m["beyond"],
                                                            m["instances"])
        print("  %-44s %.6g %s%s" % (name, m["value"], m["unit"], extra))
    if not args.trace:
        for name, value in fractions.items():
            note = "" if have_refs or name == "failed_fraction" else \
                " (references cached for part of the pool only)"
            print("  %-44s %.6g fraction%s" % (name, value, note))
    if raw:
        print("  raw wall clock: %.6g instances/s, p50 %.6g s, set-up %.6g s; reference "
              "kernel %.6g s (nominal %g s)"
              % (raw["instances_per_s"], raw["instance_p50_s"], raw["setup_s"],
                 raw["reference_kernel_s"], NOMINAL_REF_S))
    print("  quality: %d checked values, %d stalls > %g, %d inexact > %g"
          % (qual["checked"], qual["stalls"], STALL_TOL, qual["inexact"], INEXACT_TOL))
    print("  provenance: nproc=%s python=%s numpy=%s blas=%s %s threads=%s commit=%s"
          % (prov["nproc"], prov["python"], prov["numpy"], prov["blas"]["name"],
             prov["blas"]["version"], prov["blas_threads"]["OPENBLAS_NUM_THREADS"],
             prov["commit"]))
    print("  determinism: digest %s over %d pool instances: %s"
          % (combine_digests(digests)[:16], len(digests),
             "; ".join(problems) if problems else "ok"))
    for err in errors[:5]:
        print("  error: %s" % err)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
