"""Self-check of the benchmark harness at tiny sizes (about ten seconds).

    python3 bench/selfcheck.py

Runs each workload shrunk (engine at n=8, sampled colourings at n=5..6, the
sweep at (4,1)) untraced and traced, in this process, and checks that:

* every metric named in BENCHMARK.json is emitted with its unit, and every
  operation passes its checks;
* an untraced run takes ``run.SETUP_SAMPLES`` set-up samples;
* a deliberately wrong expected value (winst(4,1) = 4) fails every winst
  sweep and nothing else, and the run still completes with a result;
* ``bench/run.py`` exits non-zero without a result line in a directory that
  holds only BENCHMARK.json and bench/.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

run.import_package()
import workloads  # noqa: E402

SEED = 7
TINY = (
    lambda: workloads.EngineN13(n=8),
    lambda: workloads.SampledMidN(n_lo=5, n_hi=6),
    lambda: workloads.Sweep62(n=4, t=1, expected=(3, 3)),
)


def fresh_setup(make) -> float:
    """One set-up of a new tiny workload in this process (no imports to time)."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        return run.prepare(make(), SEED, workdir)


def measure(make, trace: int) -> tuple[dict, int]:
    os.makedirs(run.OUT, exist_ok=True)
    workload = make()
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        run.prepare(workload, SEED, workdir)
        return run.run(workload, SEED, 0.2, trace, lambda: fresh_setup(make), label="-selfcheck")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for make in TINY:
        for trace in (0, 1):
            out, code = measure(make, trace)
            result = out["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{make().name} (tiny) trace={trace}"
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {got} != {wanted[trace]}")
            if trace == 0 and len(out["details"]["setup_samples_s"]) != run.SETUP_SAMPLES:
                problems.append(f"{tag}: {len(out['details']['setup_samples_s'])} set-up samples")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failed {out['details']['failures']}"
                                f" {out['details'].get('count_errors')}")
            print(f"{tag}: {result['attempted']} operations, {result['failed']} failed")

    out, code = measure(lambda: workloads.Sweep62(n=4, t=1, expected=(3, 4)), 0)
    result = out["result"]
    print(f"wrong expected winst(4,1)=4: {result['failed']} of {result['attempted']} failed, "
          f"failed_frac {out['details']['failed_frac']}")
    failures = out["details"]["failures"]
    if (code, result["correct"]) != (1, False) or 2 * result["failed"] != result["attempted"] \
            or not all(line.startswith("winst_sweep:") for line in failures):
        problems.append(f"wrong expected value not counted once per winst sweep: {result}")
    if set(result["metrics"]) != set(wanted[0]):
        problems.append("a run with a failed check does not emit every metric")

    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep_6_2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False)
        print(f"without src/: exit {proc.returncode}, stderr {proc.stderr.strip()!r}")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py does not fail cleanly without the package")
    finally:
        shutil.rmtree(bare)

    for line in problems:
        print(f"SELF-CHECK FAILED: {line}")
    print("self-check passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
