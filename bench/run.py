"""geostab benchmark: one workload per process, every answer checked.

Usage (from the repository root):

    python3 bench/run.py --workload engine_n13 --seed 1 --seconds 60 --trace 0

Workloads (see ``bench/workloads.py`` and ``bench/README.md``):
``engine_n13``, ``sampled_mid_n`` and ``sweep_6_2``.  Each runs in this one
process with one worker in a closed loop: an operation starts when the
previous one returns.  Passes over the seeded inputs repeat while the next
one is expected to end within ``--seconds`` (at least one pass runs).
``setup_s`` is the median of several set-ups, each in a fresh process,
taken between operations so that they spread over the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, with spans recorded around calls into each
module's public functions (``bench/spans.py``), and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the details (percentiles and sample counts, failures, the environment
fingerprint, layer self times).  A full record and, for traced runs, the
span file go to ``.bench_out/``.

Exit codes: 0 all checks passed; 1 a check failed or an exact count drifted
(the result line is still printed); 2 the package cannot be imported from
``src/`` or the arguments are invalid (no result line).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from typing import Callable, Optional  # noqa: E402

from spans import Tracer, span_cost_s, summarise  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 9  # fresh-process set-ups per untraced run; setup_s is their median
TAIL_MIN_OPS = 100  # below this a run has no percentile >= p90 with ten samples beyond it


def import_package():
    """Import geostab from this checkout's src/ only; exit 2 when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import geostab
    except ImportError as exc:
        print(f"cannot import geostab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(geostab.__file__).startswith(SRC + os.sep):
        print(f"geostab imported from {geostab.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return geostab


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def source_digest() -> str:
    """sha256 over the package and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "geostab"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def fingerprint() -> dict:
    import numpy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_per_instance": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(workload, seed: int, workdir: str) -> float:
    """Inputs from the seed, spec files, one warm-up; returns its seconds."""
    started = time.perf_counter()
    workload.setup(seed, workdir)
    workload.warm_up(workdir)
    return time.perf_counter() - started


def child_setup_seconds(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter (``--setup-only``): imports included."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class SetupSampler:
    """``count`` set-up samples spread over a run of ``seconds`` measured time.

    The machine's speed drifts for seconds to minutes at a time, so samples
    taken back to back all see one speed.  Sample i is instead due once
    i/(count-1) of the run's measured time has passed; ``catch_up`` is called
    between operations and ``finish`` takes whatever is left at the end.
    """

    def __init__(self, sample: Callable[[], float], count: int, seconds: float) -> None:
        self.sample, self.count, self.seconds = sample, count, seconds
        self.samples: list[float] = []

    def catch_up(self, measured: float) -> None:
        due = min(self.count, 1 + int(measured / self.seconds * (self.count - 1)))
        while len(self.samples) < due:
            self.samples.append(self.sample())

    def finish(self) -> None:
        self.catch_up(self.seconds)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_passes(workload, seconds: float, tracer=None, setup: Optional[SetupSampler] = None) -> dict:
    """Whole passes over the workload's inputs, at least one, and another only
    while it is expected (from the median pass so far) to end within ``seconds``.

    ``setup`` samples are taken between operations; their time is left out
    of every pass and of the run's measured time.
    """
    ops, passes = [], []
    started = time.perf_counter()
    paused = 0.0

    def take_setup_samples() -> None:
        nonlocal paused
        if setup is not None:
            t0 = time.perf_counter()
            setup.catch_up(t0 - started - paused)
            paused += time.perf_counter() - t0

    while True:
        pass_start, paused_before = time.perf_counter(), paused
        first_span = len(tracer.spans) if tracer else 0
        counts: dict = {}
        produced = 0
        for op in workload.ops():
            take_setup_samples()
            if tracer:
                tracer.op_id = len(ops)
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            # a failed operation is counted, not fatal; argparse in cli.main exits via SystemExit
            except (Exception, SystemExit) as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.recording = False
            if error is None:
                try:
                    problems = op.check(out)
                except Exception as exc:  # a check that cannot run is a failed check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            if not problems:
                produced += op.produced(out)
                for key, value in op.counts(out).items():
                    counts[key] = counts.get(key, 0) + value
            ops.append({"label": op.label, "seconds": elapsed, "problems": problems})
        passes.append({"wall_s": time.perf_counter() - pass_start - (paused - paused_before),
                       "counts": counts, "produced": produced,
                       "spans": (first_span, len(tracer.spans) if tracer else 0)})
        expected_next = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - started - paused + expected_next > seconds:
            break
    if setup is not None:
        setup.finish()
    return {"ops": ops, "passes": passes}


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_OPS:
        return ordered[-1], f"max (only {n} operations, fewer than {TAIL_MIN_OPS})"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.2f} (10 of {n} operations beyond it)"


def end_to_end(record: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    The machine's speed drifts by up to 2x within seconds, so repeated
    figures are reduced by medians before they are combined: ``wall_s`` is
    the median pass, and ``op_p50_ms`` is the median over the pass's
    operations of each operation's median over passes.  A pooled median
    over the mix of operation sizes would sit at the edge between two sizes
    and jump with the drift.
    """
    ops, passes = record["ops"], record["passes"]
    durations = [op["seconds"] for op in ops]
    by_label: dict = {}
    for op in ops:
        by_label.setdefault(op["label"], []).append(op["seconds"])
    op_medians = [statistics.median(v) for v in by_label.values()]
    tail_s, tail_note = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "colourings_per_s": (statistics.median(p["produced"] / p["wall_s"] for p in passes), "1/s"),
        "op_p50_ms": (statistics.median(op_medians) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups, each in a fresh process, "
                   f"spread over the run",
        "wall_s": f"median over {len(passes)} passes of one pass over the seeded inputs",
        "colourings_per_s": f"median over passes of exact values per second; "
                            f"{sum(p['produced'] for p in passes)} values in all",
        "op_p50_ms": f"median over {len(by_label)} operations of each one's median over "
                     f"{len(passes)} passes; {len(durations)} operations in all",
        "op_tail_ms": tail_note,
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

EXACT = ("instability.inst_calls", "instability.winst_calls", "instability.batch_calls",
         "instability.batch_rows", "search.rows_scored_per_covered", "search.checkpoint_bytes",
         "colourings.make_calls", "constructions.calls", "bounds.calls", "cli.calls",
         "trace.spans")


def layer_metrics(spans, record: dict) -> list[dict]:
    """Per-layer metrics of each traced pass (same keys every pass)."""
    out = []
    for p in record["passes"]:
        s = summarise(spans, *p["spans"])
        calls, secs, rows = s["calls"], s["seconds"], s["rows"]
        batch_rows = rows.get("batch", 0)
        batch_s = secs.get("batch", 0.0)
        sweep_s = secs.get("sweep", 0.0)
        scanned = p["counts"].get("colourings_scanned", 0)
        out.append({
            "instability.inst_calls": (calls.get("inst", 0), "count"),
            "instability.inst_s": (secs.get("inst", 0.0), "s"),
            "instability.winst_calls": (calls.get("winst", 0), "count"),
            "instability.winst_s": (secs.get("winst", 0.0), "s"),
            "instability.batch_calls": (calls.get("batch", 0), "count"),
            "instability.batch_rows": (batch_rows, "count"),
            "instability.batch_s": (batch_s, "s"),
            "instability.batch_us_per_row": (batch_s / batch_rows * 1e6 if batch_rows else 0.0, "us"),
            "search.sweep_s": (sweep_s, "s"),
            "search.self_s": (s["self"]["search"], "s"),
            "search.kernel_share": (batch_s / sweep_s if sweep_s else 0.0, "fraction"),
            "search.rows_scored_per_covered": (batch_rows / scanned if scanned else 0.0, "ratio"),
            "search.checkpoint_bytes": (p["counts"].get("checkpoint_bytes", 0), "B"),
            "colourings.make_calls": (calls.get("make", 0), "count"),
            "colourings.make_s": (secs.get("make", 0.0), "s"),
            "colourings.spec_decode_s": (secs.get("spec_decode", 0.0), "s"),
            "colourings.free_layers_s": (secs.get("free_layers", 0.0), "s"),
            "hypercube.expand_s": (secs.get("expand", 0.0), "s"),
            "hypercube.verify_s": (secs.get("verify", 0.0), "s"),
            "constructions.calls": (calls.get("constructions", 0), "count"),
            "constructions.busy_s": (s["busy"]["constructions"], "s"),
            "bounds.calls": (calls.get("bounds", 0), "count"),
            "bounds.busy_s": (s["busy"]["bounds"], "s"),
            "cli.calls": (calls.get("cli", 0), "count"),
            "cli.busy_s": (s["busy"]["cli"], "s"),
            "cli.self_s": (s["self"]["cli"], "s"),
            "trace.spans": (s["spans"], "count"),
            "_self": dict(s["self"], bench=p["wall_s"] - s["root"]),
        })
    return out


def exact_counts(per_pass: dict) -> dict:
    return {k: per_pass[k][0] for k in EXACT}


def peak_alloc_mb(workload) -> tuple[float, dict]:
    """tracemalloc peak of single engine calls, outside every timed region."""
    peaks = {}
    for label, call in workload.probes():
        tracemalloc.start()
        try:
            call()
            peaks[label] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return max(peaks.values()), peaks


def counts_drift(workload_name: str, seed: int, counts: dict, digest: str) -> list[str]:
    """Compare exact counts with an earlier run of the same code and seed."""
    folder = os.path.join(OUT, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload_name}-seed{seed}-{digest[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        return [f"{k}: {before.get(k)} earlier, {v} now" for k, v in counts.items()
                if before.get(k) != v]
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


def traced_run(workload, seconds: float, seed: int, tracer, label: str) -> tuple[dict, dict, dict]:
    untraced = run_passes(workload, seconds / 2)
    tracer.install()
    try:
        traced = run_passes(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    per_pass = layer_metrics(tracer.spans, traced)
    errors = []
    first = exact_counts(per_pass[0])
    for i, p in enumerate(per_pass[1:], 1):
        if exact_counts(p) != first:
            errors.append(f"exact counts of traced pass {i} differ from pass 0")
    untraced_ckpt = {p["counts"].get("checkpoint_bytes", 0) for p in untraced["passes"]}
    if untraced_ckpt != {first["search.checkpoint_bytes"]}:
        errors.append(f"checkpoint bytes differ between passes: {sorted(untraced_ckpt)}")
    errors += counts_drift(workload.name + label, seed, first, source_digest())

    metrics = {k: (statistics.mean(p[k][0] for p in per_pass), v[1])
               for k, v in per_pass[0].items() if not k.startswith("_")}
    metrics.update({k: (v, per_pass[0][k][1]) for k, v in first.items()})
    peak, peaks = peak_alloc_mb(workload)
    metrics["instability.peak_alloc_mb"] = (peak, "MB")
    untraced_wall = statistics.median(p["wall_s"] for p in untraced["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
    span_cost = span_cost_s()
    metrics["trace.overhead_frac"] = (span_cost * first["trace.spans"] / traced_wall, "fraction")

    self_time = {layer: statistics.mean(p["_self"][layer] for p in per_pass)
                 for layer in per_pass[0]["_self"]}
    details = {
        "tracing_overhead": {
            "span_cost_s": span_cost,
            "overhead_frac": "span_cost_s x spans per pass / traced pass wall time",
            "traced_over_untraced_pass_minus_1": traced_wall / untraced_wall - 1,
            "note": "the ratio of the two halves of the run is dominated by the machine's "
                    "speed drift between them, not by the wrappers",
        },
        "untraced_pass_wall_s": untraced_wall,
        "traced_pass_wall_s": traced_wall,
        "passes": {"untraced": len(untraced["passes"]), "traced": len(traced["passes"])},
        "layer_self_s_per_pass": self_time,
        "peak_alloc_mb_per_probe": peaks,
        "count_errors": errors,
        "note": "times are per traced pass (mean over traced passes); counts are per pass",
    }
    if metrics["search.sweep_s"][0]:
        batch, self_s = metrics["instability.batch_s"][0], metrics["search.self_s"][0]
        details["sweep_accounting"] = {
            "traced_pass_wall_s": traced_wall,
            "batch_s_plus_search_self_s": batch + self_s,
            "share_of_traced_wall": (batch + self_s) / traced_wall,
            "other_spans_in_sweep_s": metrics["search.sweep_s"][0] - batch - self_s,
        }
    return metrics, details, {"ops": untraced["ops"] + traced["ops"], "errors": errors}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(workload, seed: int, seconds: float, trace: int, setup_sample: Callable[[], float],
        label: str = "") -> tuple[dict, int]:
    """Measure one workload that is already set up; returns (result, exit code).

    ``setup_sample`` does one fresh set-up and returns its seconds; untraced
    runs call it ``SETUP_SAMPLES`` times for ``setup_s``.
    """
    details: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                     "trace": trace, "fingerprint": fingerprint(),
                     "computed": workload.computed_bytes()}
    errors: list[str] = []
    os.makedirs(OUT, exist_ok=True)
    if trace:
        tracer = Tracer()
        metrics, extra, rec = traced_run(workload, seconds, seed, tracer, label)
        details.update(extra)
        ops, errors = rec["ops"], rec["errors"]
        tracer.write(os.path.join(OUT, f"{workload.name}-seed{seed}{label}-spans.jsonl"))
    else:
        setup = SetupSampler(setup_sample, SETUP_SAMPLES, seconds)
        record = run_passes(workload, seconds, setup=setup)
        details["setup_samples_s"] = setup.samples
        metrics, details["metric_notes"] = end_to_end(record, setup.samples)
        ops = record["ops"]
    failed = [op for op in ops if op["problems"]]
    details["failed_frac"] = len(failed) / len(ops)
    details["failures"] = [f"{op['label']}: {'; '.join(op['problems'])}" for op in failed[:20]]
    result = {
        "correct": not failed and not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{workload.name}-seed{seed}-trace{trace}{label}.json"), "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1, default=str)
    return {"result": result, "details": details}, 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do one set-up, print its seconds and exit (used for setup_s)")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_s = import_s + prepare(workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        out, code = run(workload, args.seed, args.seconds, args.trace,
                        lambda: child_setup_seconds(args.workload, args.seed))
    details = out["details"]
    for key in ("fingerprint", "setup_samples_s", "computed", "metric_notes", "layer_self_s_per_pass",
                "sweep_accounting", "tracing_overhead", "peak_alloc_mb_per_probe", "passes",
                "count_errors"):
        if key in details:
            print(f"# {key}: {json.dumps(details[key], default=str)}")
    print(f"# failed_frac: {details['failed_frac']} ({out['result']['failed']} of "
          f"{out['result']['attempted']} operations)")
    for line in details["failures"]:
        print(f"# FAILED {line}")
    print(json.dumps(out["result"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
