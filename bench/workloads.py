"""The benchmark's workloads: seeded inputs, operations, and their checks.

A workload turns ``--seed`` into a fixed input set with its own RNG; the
package only ever receives colour tables or spec files.  One *pass* runs
every input once as a list of operations; the loop in ``run.py`` repeats
passes until the run's time is used, so every pass does identical work and
per-pass counts can be compared exactly.

An operation is a ``run`` callable (the package work, which is timed) and a
``check`` callable returning a list of failure messages (empty when the
answer is right).  Checks rely on the benchmark's own arithmetic where they
can: ball radii, the zig-zag formulas, hex encoding and witness jump counts
are recomputed here rather than taken from the package.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import geostab.bounds as bounds
import geostab.cli as cli
import geostab.colourings as colourings
import geostab.constructions as constructions
import geostab.instability as instability
import geostab.search as search


def _no_counts(_result) -> dict:
    return {}


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    produced: Callable[[Any], int]  # exact values a correct result carries
    counts: Callable[[Any], dict] = _no_counts  # exact per-pass counts it adds


# ---------------------------------------------------------------------------
# cube arithmetic kept independent of the package
# ---------------------------------------------------------------------------


def weights(n: int) -> np.ndarray:
    codes = np.arange(1 << n)
    return sum((codes >> b) & 1 for b in range(n)).astype(np.int16)


def radius(table: np.ndarray, n: int) -> int:
    """Largest t with the radius-t balls coloured canonically (-1 if none)."""
    w = weights(n)
    ones, zeros = w[table == 1], w[table == 0]
    a = int(ones.min()) if ones.size else n + 1
    b = int((n - zeros).min()) if zeros.size else n + 1
    return min(a, b) - 1


def random_ball_table(n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Canonical radius-t balls, uniform free points, radius exactly t."""
    w = weights(n)
    free = (w > t) & (w < n - t)
    while True:
        table = (w >= n - t).astype(np.uint8)
        table[free] = rng.integers(0, 2, size=int(free.sum()), dtype=np.uint8)
        if radius(table, n) == t:
            return table


def table_hex(table: np.ndarray) -> str:
    """Spec-file hex form: bit p is the colour of code p, highest code first."""
    value = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
    return format(value, f"0{max(1, len(table) // 4)}x")


def zigzag_winst_lb(n: int, t: int) -> int:
    gap = n - 2 * t
    return t // gap + -(-t // gap) + 1


def zigzag_inst_lb(n: int, t: int) -> int:
    gap = n - 2 * t
    return (t - 1) // gap + -(-(t - 1) // gap) + 3


def witness_jumps(table: np.ndarray, start: int, flip_order) -> int:
    code, jumps = start, 0
    for coord in flip_order:
        nxt = code ^ (1 << (coord - 1))
        jumps += int(table[nxt] != table[code])
        code = nxt
    return jumps


def engine_report_problems(report, table: np.ndarray, n: int, t_f: int) -> list[str]:
    """Checks shared by both engines on one report (InstabilityReport)."""
    problems = []
    w = report.witness
    if w is None:
        return ["no witness"]
    recount = witness_jumps(table, w.start.code, w.flip_order)
    if recount != report.value:
        problems.append(f"witness makes {recount} jumps, engine says {report.value}")
    if report.mode == "winst":
        start = w.start.code
        end = start ^ ((1 << n) - 1)
        if bin(start).count("1") != t_f + 1:
            problems.append("winst witness does not start at weight t_f+1")
        if not (table[start] == 1 or table[end] == 0):
            problems.append("winst witness is not well-ending")
    return problems


def certify(f, n: int, t: int) -> dict:
    """Zig-zag witnesses (modes a and b) with their jump counts, and the
    closed-form bound table at (n, t): the constructions and bounds layers."""
    zigzag = {mode: constructions.zigzag_witness(f, mode) for mode in ("a", "b")}
    return {"zigzag": zigzag,
            "jumps": {mode: constructions.construction_jumps(f, res) for mode, res in zigzag.items()},
            "bounds": bounds.formula_bounds(n, t)}


def certificate_problems(cert: dict, table: np.ndarray, n: int, t: int) -> list[str]:
    problems = []
    for mode, res in cert["zigzag"].items():
        actual = cert["jumps"][mode]
        if actual < res.guaranteed_jumps:
            problems.append(f"zig-zag {mode}: {actual} jumps < guaranteed {res.guaranteed_jumps}")
        if actual != witness_jumps(table, res.geodesic.start.code, res.geodesic.flip_order):
            problems.append(f"zig-zag {mode}: construction_jumps disagrees with recount")
    bt = cert["bounds"]
    if (bt.zigzag_winst_lb, bt.zigzag_inst_lb) != (zigzag_winst_lb(n, t), zigzag_inst_lb(n, t)):
        problems.append("formula_bounds zig-zag values disagree with the formulas")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: ``setup`` builds the inputs, ``ops`` lists one pass."""

    name = ""

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, workdir: str) -> None:
        """One small operation of the same kind, so lazy set-up is not timed."""
        raise NotImplementedError

    def probes(self) -> list[tuple[str, Callable[[], Any]]]:
        """Single engine calls whose allocation peak the traced run records."""
        raise NotImplementedError

    def computed_bytes(self) -> dict:
        raise NotImplementedError


@dataclass
class EngineCase:
    label: str
    spec: dict
    t: int  # radius whose balls the colouring respects; t_f >= t
    inst_expected: Optional[int] = None
    path: str = ""


@dataclass
class EngineN13(Workload):
    """``geostab inst`` and ``geostab winst`` through ``cli.main`` at the cap.

    Each pass runs both commands on four n-dimensional colourings: seeded
    random tables respecting the radius-2 and radius-3 balls, one maj_t(k)
    and one b_t^k spec (known value 2t+1).
    """

    n: int = 13
    radii: tuple = (2, 3)
    name: str = "engine_n13"
    cases: list = field(default_factory=list)
    workdir: str = ""
    probe_table: Optional[np.ndarray] = None

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 13])
        n = self.n
        self.workdir = workdir
        self.cases = []
        for t in self.radii:
            table = random_ball_table(n, t, rng)
            self.probe_table = table
            self.cases.append(EngineCase(f"table_t{t}",
                                         {"kind": "table", "n": n, "table": table_hex(table)}, t))
        t = int(rng.choice(self.radii))
        k = int(rng.integers(1, 2 * t + 2))
        self.cases.append(EngineCase(f"maj_{t}({k})", {"kind": "majority", "n": n, "t": t, "k": k},
                                     t, 2 * t + 1))
        # b_t^k needs odd k with s = t-(k+1)/2 >= 0 and (s+1)(t+1)+k <= n
        options = [(t, k) for t in self.radii for k in range(1, 2 * t + 2, 2)
                   if t - (k + 1) // 2 >= 0 and (t - (k + 1) // 2 + 1) * (t + 1) + k <= n]
        t, k = options[int(rng.integers(len(options)))]
        coords = [int(c) for c in rng.permutation(np.arange(k + 1, n + 1))]
        count = t - (k + 1) // 2 + 1
        blocks = [sorted(coords[i::count]) for i in range(count)]
        self.cases.append(EngineCase(f"b_{t}^{k}",
                                     {"kind": "partition", "n": n, "t": t, "k": k, "partition": blocks},
                                     t, 2 * t + 1))
        for i, case in enumerate(self.cases):
            case.path = os.path.join(workdir, f"spec{i}.json")
            with open(case.path, "w") as fh:
                json.dump(case.spec, fh)

    def _command(self, mode: str, spec_path: str, out: str) -> dict:
        code = cli.main([mode, "--colouring", spec_path, "--out", out])
        with open(out) as fh:
            report = json.load(fh)
        os.remove(out)
        return {"exit": code, "report": report}

    def _check(self, result: dict, case: EngineCase, mode: str, seen: dict) -> list[str]:
        """``seen`` carries this pass's inst value of the case to its winst check.

        The zig-zag formulas grow with t, so at the case's t they bound the
        values from below whatever the colouring's own radius t_f >= t is.
        """
        if result["exit"] != 0:
            return [f"exit code {result['exit']}"]
        outputs = result["report"]["outputs"]
        value = outputs["value"]
        problems = []
        if not outputs.get("witness_valid"):
            problems.append("witness_valid is false")
        if outputs.get("witness_jumps") != value:
            problems.append(f"witness_jumps {outputs.get('witness_jumps')} != value {value}")
        if mode == "inst":
            seen["inst"] = value
            if value < zigzag_inst_lb(self.n, case.t):
                problems.append(f"inst {value} below zig-zag bound")
            if case.inst_expected is not None and value != case.inst_expected:
                problems.append(f"inst {value} != expected {case.inst_expected}")
        else:
            if value < zigzag_winst_lb(self.n, case.t):
                problems.append(f"winst {value} below zig-zag bound")
            if "inst" not in seen or value > seen["inst"]:
                problems.append(f"winst {value} exceeds inst {seen.get('inst')}")
        return problems

    def ops(self) -> list[Op]:
        ops = []
        for i, case in enumerate(self.cases):
            seen: dict = {}
            out = os.path.join(self.workdir, f"report{i}.json")
            for mode in ("inst", "winst"):
                ops.append(Op(f"{mode}:{case.label}",
                              functools.partial(self._command, mode, case.path, out),
                              functools.partial(self._check, case=case, mode=mode, seen=seen),
                              produced=lambda _r: 1))
        return ops

    def warm_up(self, workdir: str) -> None:
        path = os.path.join(workdir, "warm.json")
        with open(path, "w") as fh:
            json.dump({"kind": "majority", "n": 8, "t": 2, "k": 3}, fh)
        for mode in ("inst", "winst"):
            self._command(mode, path, os.path.join(workdir, "warm-out.json"))

    def probes(self):
        f = colourings.make(colourings.ColouringSpec(
            kind="table", n=self.n, table=self.probe_table.tobytes()))
        return [("inst_exact", lambda: instability.inst_exact(f)),
                ("winst_exact", lambda: instability.winst_exact(f))]

    def computed_bytes(self) -> dict:
        return {"dp_table_bytes_computed": 4 ** self.n,
                "note": "int8 DP table of 4^n entries; inst fills one, winst two (computed, not measured)"}


@dataclass
class SampledMidN(Workload):
    """Criterion-6 traffic: one seeded radius-exactly-t colouring per (n, t).

    Each colouring goes through make, inst_exact, winst_exact, zigzag_witness
    in modes a and b with construction_jumps, and formula_bounds.
    """

    n_lo: int = 7
    n_hi: int = 10
    name: str = "sampled_mid_n"
    cases: list = field(default_factory=list)

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 6])
        self.cases = [(n, t, random_ball_table(n, t, rng))
                      for n in range(self.n_lo, self.n_hi + 1)
                      for t in range(1, (n - 1) // 2 + 1)]

    @staticmethod
    def _full(n: int, t: int, table_bytes: bytes) -> dict:
        f = colourings.make(colourings.ColouringSpec(kind="table", n=n, table=table_bytes))
        return {"inst": instability.inst_exact(f), "winst": instability.winst_exact(f),
                "cert": certify(f, n, t)}

    @staticmethod
    def _check(out: dict, n: int, t: int, table: np.ndarray) -> list[str]:
        problems = []
        inst, winst = out["inst"], out["winst"]
        for rep in (inst, winst):
            problems += engine_report_problems(rep, table, n, t)
        if inst.value < zigzag_inst_lb(n, t):
            problems.append(f"inst {inst.value} below zig-zag bound {zigzag_inst_lb(n, t)}")
        if winst.value < zigzag_winst_lb(n, t):
            problems.append(f"winst {winst.value} below zig-zag bound {zigzag_winst_lb(n, t)}")
        if winst.value > inst.value:
            problems.append(f"winst {winst.value} exceeds inst {inst.value}")
        return problems + certificate_problems(out["cert"], table, n, t)

    def ops(self) -> list[Op]:
        return [Op(f"n{n}_t{t}",
                   functools.partial(self._full, n, t, table.tobytes()),
                   functools.partial(self._check, n=n, t=t, table=table),
                   produced=lambda _out: 2)
                for n, t, table in self.cases]

    def warm_up(self, workdir: str) -> None:
        table = random_ball_table(8, 2, np.random.default_rng(0))
        self._full(8, 2, table.tobytes())

    def probes(self):
        n, _t, table = self.cases[-1]
        f = colourings.make(colourings.ColouringSpec(kind="table", n=n, table=table.tobytes()))
        return [("inst_exact", lambda: instability.inst_exact(f)),
                ("winst_exact", lambda: instability.winst_exact(f))]

    def computed_bytes(self) -> dict:
        return {"dp_table_bytes_computed": {str(n): 4 ** n for n in range(self.n_lo, self.n_hi + 1)},
                "note": "int8 DP table of 4^n entries per engine call (computed, not measured)"}


@dataclass
class Sweep62(Workload):
    """min_inst_exhaustive then min_winst_exhaustive over all 2^F colourings.

    Single process (threads=1), checkpointing to a fresh file per sweep.
    Each sweep's argmin is then certified with the zig-zag constructions and
    the bound table (about a millisecond against seconds of sweep), so the
    constructions and bounds layers are measured on this workload too.
    """

    n: int = 6
    t: int = 2
    expected: tuple = (5, 5)  # (inst(n,t), winst(n,t))
    name: str = "sweep_6_2"
    workdir: str = ""
    seed: int = 0
    runs: int = 0

    def setup(self, seed: int, workdir: str) -> None:
        # the sweep has no free inputs; the seed only picks the probe batch
        self.workdir, self.seed, self.runs = workdir, seed, 0

    def _sweep(self, mode: str, n: int, t: int) -> dict:
        self.runs += 1
        path = os.path.join(self.workdir, f"ckpt{self.runs}.json")
        runner = search.min_inst_exhaustive if mode == "inst" else search.min_winst_exhaustive
        res = runner(n, t, threads=1, checkpoint_path=path)
        size = os.path.getsize(path)
        os.remove(path)
        return {"result": res, "checkpoint_bytes": size,
                "cert": certify(colourings.make(res.argmin), n, t)}

    def _check(self, out: dict, mode: str) -> list[str]:
        n, t = self.n, self.t
        res = out["result"]
        problems = []
        want = self.expected[0 if mode == "inst" else 1]
        if res.minimum != want:
            problems.append(f"{mode}({n},{t}) minimum {res.minimum} != {want}")
        free = int(((weights(n) > t) & (weights(n) < n - t)).sum())
        if res.colourings_scanned != 1 << free:
            problems.append(f"scanned {res.colourings_scanned} != 2^{free}")
        table = np.frombuffer(res.argmin.table, dtype=np.uint8)
        r = radius(table, n)
        if r < t or (mode == "winst" and r != t):
            problems.append(f"argmin has radius {r}, sweep radius {t}")
        f = colourings.make(res.argmin)
        engine = instability.inst_exact if mode == "inst" else instability.winst_exact
        rep = engine(f, cap=n)
        if rep.value != res.minimum:
            problems.append(f"argmin re-run gives {rep.value}, sweep says {res.minimum}")
        problems += engine_report_problems(rep, table, n, r)
        if res.minimum < (zigzag_inst_lb if mode == "inst" else zigzag_winst_lb)(n, t):
            problems.append(f"minimum {res.minimum} below the zig-zag bound")
        best = getattr(out["cert"]["bounds"], f"best_{mode}_lb")
        if best > res.minimum:
            problems.append(f"best lower bound {best} exceeds the minimum {res.minimum}")
        return problems + certificate_problems(out["cert"], table, n, t)

    def ops(self) -> list[Op]:
        return [Op(f"{mode}_sweep",
                   functools.partial(self._sweep, mode, self.n, self.t),
                   functools.partial(self._check, mode=mode),
                   produced=lambda out: out["result"].colourings_scanned,
                   counts=lambda out: {"checkpoint_bytes": out["checkpoint_bytes"],
                                       "colourings_scanned": out["result"].colourings_scanned})
                for mode in ("inst", "winst")]

    def warm_up(self, workdir: str) -> None:
        for mode in ("inst", "winst"):
            self._sweep(mode, 4, 1)

    def probes(self):
        rng = np.random.default_rng([self.seed, 62])
        tables = np.stack([random_ball_table(self.n, self.t, rng)
                           for _ in range(search.DEFAULT_BATCH)])
        return [("inst_values_batch", lambda: instability.inst_values_batch(tables, self.n)),
                ("winst_values_batch", lambda: instability.winst_values_batch(tables, self.n, self.t))]

    def computed_bytes(self) -> dict:
        N = 1 << self.n
        return {"batch_dp_bytes_computed": N * search.DEFAULT_BATCH * N,
                "note": "int8 batched DP table 2^n x B x 2^n per kernel call, B=4096 (computed, not measured)"}


WORKLOADS = {w.name: w for w in (EngineN13, SampledMidN, Sweep62)}
