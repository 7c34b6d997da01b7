"""The three benchmark workloads: seeded inputs, timed passes, output checks
and the per-layer sweeps of the traced run.

Every workload is a closed loop with one client.  Its inputs come from the
run's ``--seed`` only; facetail receives nothing but those inputs.  Each
operation is timed from outside the library (a subprocess call to
``python -m facetail``, or a call into a public function) and its output is
checked afterwards, outside the timed region.  A raised exception or a
failed check counts as one failed operation and is never retried.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

#: sampler seed of every simulate call, and of the pinned reference batches
SAMPLE_SEED = 7
#: seed of the permutation stream behind every factorization test
PERM_SEED = 11

# A fixed reference measure whose sampled batches are pinned by SHA-256, so
# any change to the Philox streams or the sampler arithmetic shows as a
# failed operation.  `REFERENCE_DATA_SHA256` hashes the float64 array bytes,
# `REFERENCE_CSV_SHA256` the max-stable CSV that `facetail simulate` writes.
REFERENCE = {"d": 3, "atoms": [{"omega": [1, 1, 0], "mass": 0.5},
                               {"omega": [0.5, 0, 1], "mass": 0.6},
                               {"omega": [0, 1, 0], "mass": 0.5},
                               {"omega": [0.2, 0, 0.1], "mass": 1.0}]}
REFERENCE_N = 1000
REFERENCE_DATA_SHA256 = {
    "max_stable": "8c88e720057676d5690784087003eba14ec01540d927194027cdabb2356bb82c",
    "conditional": "3dbc8a206d9d7b746b1265da7e3f2e77134cb539e92d95676fd9a68c499da6b3",
}
REFERENCE_CSV_SHA256 = "00d89e4dd570f80e61b71b8534957dfe07a67e3871c0d1c303cff902d3f20cd5"


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def face_mask(omega) -> int:
    return sum(1 << i for i, v in enumerate(omega) if v > 0.0)


def components(d: int, masks) -> list[list[int]]:
    """Connected components of the coordinate graph whose cliques are the
    given faces; the benchmark's own oracle for `finest_partition`."""
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for mask in masks:
        members = [i for i in range(d) if mask >> i & 1]
        for i in members[1:]:
            parent[find(i)] = find(members[0])
    groups: dict[int, list[int]] = defaultdict(list)
    for i in range(d):
        groups[find(i)].append(i)
    return sorted(groups.values())


def straddles(mask: int, a_mask: int, c_mask: int) -> bool:
    return bool(mask & a_mask and mask & c_mask)


def same_face_pairs(masks) -> int:
    counts: dict[int, int] = defaultdict(int)
    for mask in masks:
        counts[mask] += 1
    return sum(n * (n - 1) // 2 for n in counts.values())


def subsets_enumerated(d: int, masks, a_mask: int, c_mask: int) -> int:
    """Subsets `check_mixed_margins` walks before it returns: (size, lex)
    order from pairs up, stopping at the first violating subset."""
    count = 0
    for size in range(2, d + 1):
        for combo in itertools.combinations(range(d), size):
            count += 1
            imask = sum(1 << i for i in combo)
            if straddles(imask, a_mask, c_mask) and any(m & imask == imask for m in masks):
                return count
    return count


def mask_of(coords) -> int:
    return sum(1 << i for i in coords)


class Session:
    """Harness state of one run: counts, timings, the tracer, the work dir."""

    def __init__(self, ft, tracer, work: Path, src: Path, seed: int, smoke: bool):
        self.ft = ft
        self.tracer = tracer
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.pass_ops: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, stream]))

    def call(self, name: str, fn, *args, **counts):
        """Call a public facetail function inside a span named after it."""
        if not self.tracer.enabled:
            return fn(*args)
        with self.tracer.span(name, **counts):
            return fn(*args)

    def op(self, kind: str, fn, check=None):
        """One timed operation; its output is checked after the clock stops."""
        self.attempted += 1
        try:
            with self.tracer.span(kind):
                t0 = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - t0
        except Exception:  # the run must go on and report the failure
            self.fail(kind, traceback.format_exc(limit=4))
            return None
        self.times[kind].append(elapsed)
        self.pass_ops.append(elapsed)
        if check is not None:
            try:
                check(result)
            except Exception as exc:  # a check that crashes is a failed check
                self.fail(kind, f"{type(exc).__name__}: {exc}")
        return result

    def skip(self, kind: str, reason: str) -> None:
        """An operation that could not run because its input failed."""
        self.attempted += 1
        self.fail(kind, f"not run: {reason}")

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{kind}: {message.strip()}")

    def cli(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "facetail", *args], cwd=self.work,
                              env=self.env, capture_output=True, text=True, timeout=170)

    def python(self, code: str) -> None:
        subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                       check=True, capture_output=True, timeout=170)


def median_detail(times: dict, kind: str):
    calls = times.get(kind, [])
    return f"{kind}_s (n={len(calls)})", statistics.median(calls) if calls else math.nan, "s"


def check_reference_batch(batch, kind: str, n: int, d: int) -> None:
    expect(batch.data.shape == (n, d), f"reference {kind} batch shape {batch.data.shape}")
    digest = sha256(np.ascontiguousarray(batch.data, dtype="<f8").tobytes())
    expect(digest == REFERENCE_DATA_SHA256[kind],
           f"reference {kind} batch digest {digest} differs from the pinned one")


class Workload:
    """Shared parts: pinned reference batches, peak memory, layer sweeps."""

    def __init__(self, session: Session):
        self.s = session
        self.first_digest: dict[str, str] = {}

    def setup(self) -> None:
        """Inputs, pinned reference batches and warm-up.  The run sets up
        several times; each set-up clears the grid cache, so each pays the
        same warm-up."""
        ft = self.s.ft
        ft.default_grid.cache_clear()
        self.check_reference_in_process()
        self.make_inputs()
        for d in self.grid_dims:
            ft.default_grid(d)

    def same_as_first(self, key: str, digest: str) -> None:
        first = self.first_digest.setdefault(key, digest)
        expect(digest == first, f"{key}: output differs from the first pass's")

    def check_reference_in_process(self) -> None:
        ft, s = self.s.ft, self.s
        ref = ft.measure_from_dict(REFERENCE)
        s.op("setup.reference_max_stable",
             lambda: ft.sample_max_stable(ref, REFERENCE_N, SAMPLE_SEED),
             lambda b: check_reference_batch(b, "max_stable", REFERENCE_N, 3))
        s.op("setup.reference_conditional",
             lambda: ft.sample_conditional(ref, 0, REFERENCE_N, SAMPLE_SEED),
             lambda b: check_reference_batch(b, "conditional", REFERENCE_N, 3))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- traced-run helpers ------------------------------------------------

    def probe_imports(self) -> None:
        """Interpreter start plus `import facetail`, and the numpy-only floor."""
        s = self.s
        for _ in range(2):
            s.call("cli.import", s.python, "import facetail")
            s.call("cli.interp", s.python, "import numpy")

    def sweep_measure(self, m, parts, *, reports: bool) -> None:
        """Grid evaluation and each criterion on its own, for each part."""
        ft, s = self.s.ft, self.s
        grid = ft.default_grid(m.d)
        s.call("measure.exponent_function_grid", ft.exponent_function_grid, m, grid,
               grid_cells=grid.shape[0] * m.n_atoms * m.d)
        for part in parts:
            if reports:
                s.call("independence.full_report", ft.full_report, m, part)
            s.call("independence.check_support", ft.check_support, m, part)
            s.call("independence.check_additivity", ft.check_additivity, m, part)
            s.call("independence.check_mixed_margins", ft.check_mixed_margins, m, part,
                   subsets=subsets_enumerated(m.d, m.face_masks, part.a_mask, part.c_mask))
            s.call("independence.check_df_factorization", ft.check_df_factorization, m, part)
            s.call("conditional.conditional_factorization", ft.conditional_factorization,
                   m, part)
        s.call("graphs.build_graph", ft.build_graph, m)

    def sweep_law(self, m, k: int, points) -> None:
        ft, s = self.s.ft, self.s
        law = s.call("conditional.conditional_law", ft.conditional_law, m, k)
        with s.tracer.span("conditional.rectangle_probability", calls=len(points)):
            for x in points:
                ft.rectangle_probability(law, x)

    def sweep_samples(self, m, k: int, n_max: int, n_cond: int, test_part, n_perm: int):
        """Both samplers, CSV round trips, chi and the permutation test."""
        ft, s = self.s.ft, self.s
        ms = s.call("simulate.sample_max_stable", ft.sample_max_stable, m, n_max, SAMPLE_SEED,
                    rows=n_max)
        cond = s.call("simulate.sample_conditional", ft.sample_conditional, m, k, n_cond,
                      SAMPLE_SEED, rows=n_cond)
        self.sweep_io(ms, "sweep_ms.csv")
        cond = self.sweep_io(cond, "sweep_cond.csv")
        s.call("estimate.chi_empirical", ft.chi_empirical, ms)
        s.call("estimate.factorization_test",
               lambda b, p: ft.factorization_test(b, p, n_perm=n_perm, seed=PERM_SEED),
               cond, test_part, permutations=n_perm)
        self.sweep_peak_memory(m, n_max)

    def sweep_io(self, batch, name: str):
        ft, s = self.s.ft, self.s
        path = s.work / name
        with s.tracer.span("simulate.save_batch") as rec:
            ft.save_batch(batch, path)
        rec["bytes"] = path.stat().st_size
        with s.tracer.span("simulate.load_batch", bytes=rec["bytes"]):
            return ft.load_batch(path)

    def sweep_peak_memory(self, m, n: int) -> None:
        """Peak traced allocation of one max-stable draw, with the temporary
        the (n, J, d) broadcast needs and the Philox words it consumes."""
        ft, s = self.s.ft, self.s
        tracemalloc.start()
        try:
            with s.tracer.span("simulate.peak_memory_probe") as rec:
                ft.sample_max_stable(m, n, SAMPLE_SEED)
            rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rec["temp_bytes"] = n * m.n_atoms * m.d * 8
        rec["philox_words"] = n * 4 * max(1, math.ceil(m.n_atoms / 4))

    # ---- per-layer metrics from the spans ----------------------------------

    def layer_metrics(self) -> dict:
        spans = self.s.tracer.spans
        by_id = {sp["id"]: sp for sp in spans}

        def root(sp):
            while sp["parent"] is not None:
                sp = by_id[sp["parent"]]
            return sp["id"]

        def dur(sp):
            return sp["end"] - sp["start"]

        named: dict[str, list[dict]] = defaultdict(list)
        per_pass: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        pass_ids = [sp["id"] for sp in spans if sp["name"] == "pass"]
        for sp in spans:
            named[sp["name"]].append(sp)
            per_pass[sp["name"]][root(sp)] += dur(sp)

        def per_pass_s(name):
            return statistics.median(per_pass[name].get(p, 0.0) for p in pass_ids)

        def per_pass_count(name, key):
            totals = defaultdict(float)
            for sp in named[name]:
                totals[root(sp)] += sp.get(key, 0)
            return statistics.median(totals.get(p, 0.0) for p in pass_ids)

        def rate(name, key):
            return sum(sp[key] for sp in named[name]) / sum(dur(sp) for sp in named[name])

        reports_ms = [1e3 * dur(sp) for sp in named["independence.full_report"]]
        p50, p90 = np.percentile(reports_ms, [50, 90])
        probe = named["simulate.peak_memory_probe"][-1]
        rect = named["conditional.rectangle_probability"]
        metrics = {
            "cli.import_s": (statistics.median(dur(sp) for sp in named["cli.import"]), "s"),
            "cli.interp_s": (statistics.median(dur(sp) for sp in named["cli.interp"]), "s"),
            "measure.canon_s": (per_pass_s("measure.measure_from_dict"), "s"),
            "measure.validate_s": (per_pass_s("measure.require_valid"), "s"),
            "measure.atoms_in": (per_pass_count("measure.measure_from_dict", "atoms_in"),
                                 "count"),
            "measure.atoms_out": (per_pass_count("measure.measure_from_dict", "atoms_out"),
                                  "count"),
            "measure.same_face_pairs": (per_pass_count("measure.measure_from_dict",
                                                       "same_face_pairs"), "count"),
            "measure.grid_eval_s": (per_pass_s("measure.exponent_function_grid"), "s"),
            "measure.grid_cells": (per_pass_count("measure.exponent_function_grid",
                                                  "grid_cells"), "count"),
            "measure.grid_bytes": (8 * per_pass_count("measure.exponent_function_grid",
                                                      "grid_cells"), "B"),
            "independence.report_p50_ms": (float(p50), "ms"),
            "independence.report_p90_ms": (float(p90), "ms"),
            "independence.reports": (len(reports_ms), "count"),
            "independence.support_s": (per_pass_s("independence.check_support"), "s"),
            "independence.additivity_s": (per_pass_s("independence.check_additivity"), "s"),
            "independence.mixed_margins_s": (per_pass_s("independence.check_mixed_margins"),
                                             "s"),
            "independence.subsets_enumerated": (
                per_pass_count("independence.check_mixed_margins", "subsets"), "count"),
            "independence.df_s": (per_pass_s("independence.check_df_factorization"), "s"),
            "conditional.factorization_s": (per_pass_s("conditional.conditional_factorization"),
                                             "s"),
            "conditional.law_s": (per_pass_s("conditional.conditional_law"), "s"),
            "conditional.rect_prob_us": (1e6 * sum(dur(sp) for sp in rect)
                                         / sum(sp["calls"] for sp in rect), "us"),
            "simulate.max_stable_rows_per_s": (rate("simulate.sample_max_stable", "rows"),
                                               "rows/s"),
            "simulate.max_stable_peak_mb": (probe["peak_bytes"] / 2**20, "MB"),
            "simulate.temp_bytes": (probe["temp_bytes"], "B"),
            "simulate.philox_words": (probe["philox_words"], "count"),
            "simulate.conditional_rows_per_s": (rate("simulate.sample_conditional", "rows"),
                                                "rows/s"),
            "simulate.save_mb_per_s": (rate("simulate.save_batch", "bytes") / 2**20, "MB/s"),
            "simulate.load_mb_per_s": (rate("simulate.load_batch", "bytes") / 2**20, "MB/s"),
            "estimate.chi_s": (per_pass_s("estimate.chi_empirical"), "s"),
            "estimate.perm_test_s": (per_pass_s("estimate.factorization_test"), "s"),
            "estimate.permutations": (per_pass_count("estimate.factorization_test",
                                                     "permutations"), "count"),
            "graphs.build_s": (per_pass_s("graphs.build_graph"), "s"),
            "trace.residual_frac": (self.residual_frac(), "frac"),
        }
        return metrics

    def residual_frac(self) -> float:
        """Share of the traced passes' operation time that no public-call
        span covers: the harness's own work inside the timed regions."""
        spans = self.s.tracer.spans
        ops = [sp for sp in spans if sp["name"] in self.s.times]
        op_ids = {sp["id"] for sp in ops}
        total = sum(sp["end"] - sp["start"] for sp in ops)
        covered = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] in op_ids)
        return (total - covered) / total


def measure_input(data: dict) -> dict:
    """A serialized measure with the counts its canonicalisation span carries,
    computed once from the input, outside every timed region."""
    masks = [face_mask(a["omega"]) for a in data["atoms"]]
    return {"data": data, "atoms_in": len(masks), "same_face_pairs": same_face_pairs(masks)}


def canonicalise(s: Session, inp: dict):
    ft = s.ft
    if not s.tracer.enabled:
        return ft.measure_from_dict(inp["data"])
    with s.tracer.span("measure.measure_from_dict", atoms_in=inp["atoms_in"],
                       same_face_pairs=inp["same_face_pairs"]) as rec:
        m = ft.measure_from_dict(inp["data"])
    rec["atoms_out"] = m.n_atoms
    return m


def build(s: Session, inp: dict):
    return s.call("measure.require_valid", s.ft.require_valid, canonicalise(s, inp))


# ---- cli-session ------------------------------------------------------------


class CliSession(Workload):
    """Eight `python -m facetail` calls on a seeded d=5, J=12 measure.

    Process start plus `import facetail` dominates every call; the heavy
    calls add the data path (CSV write and read, the permutation test)."""

    D, ATOMS = 5, 12
    A, C, K = (0, 1), (2, 3, 4), 0
    grid_dims = (D,)

    def __init__(self, session):
        super().__init__(session)
        smoke = session.smoke
        self.n = 2_000 if smoke else 200_000
        self.trials = 3 if smoke else 20

    def make_inputs(self) -> None:
        ft, s = self.s.ft, self.s
        rng = s.rng(1)
        a_mask, c_mask = mask_of(self.A), mask_of(self.C)
        # the check must be dependent and the conditional law at K must couple
        # the blocks, or the factorization test takes its degenerate exit and
        # times nothing; redraw until an atom charging K straddles A and C
        while True:
            m = ft.random_measure(self.D, self.ATOMS, seed=int(rng.integers(2**32)))
            if any(f >> self.K & 1 and straddles(f, a_mask, c_mask) for f in m.face_masks):
                break
        self.components = [[i + 1 for i in comp] for comp in components(self.D, m.face_masks)]
        self.crosscheck_seed = int(rng.integers(2**31))
        self.path = s.work / "measure.json"
        ft.save_measure(m, self.path)
        # the first CLI call of the run also compiles facetail's bytecode
        ref_path = s.work / "reference.json"
        ref_path.write_text(json.dumps(REFERENCE))
        s.op("setup.reference_cli",
             lambda: s.cli("simulate", str(ref_path), "--n", str(REFERENCE_N), "--seed",
                           str(SAMPLE_SEED), "--out", "reference.csv"),
             self.check_reference_csv)

    def check_reference_csv(self, proc) -> None:
        expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-300:]}")
        digest = sha256((self.s.work / "reference.csv").read_bytes())
        expect(digest == REFERENCE_CSV_SHA256,
               f"reference CSV digest {digest} differs from the pinned one")

    def calls(self):
        m = str(self.path)
        n, seed = str(self.n), str(SAMPLE_SEED)
        blocks = ("--A", "1,2", "--C", "3,4,5")
        return (
            ("validate", ("validate", m), self.check_validate),
            ("check", ("check", m, *blocks), self.check_check),
            ("graph", ("graph", m), self.check_graph),
            ("simulate", ("simulate", m, "--n", n, "--seed", seed, "--out", "ms.csv"),
             lambda p: self.check_simulate(p, "ms.csv", "max_stable", None)),
            ("simulate_cond", ("simulate", m, "--conditional", "1", "--n", n, "--seed", seed,
                               "--out", "cond.csv"),
             lambda p: self.check_simulate(p, "cond.csv", "conditional", 1)),
            ("estimate_chi", ("estimate", "--in", "ms.csv", "--graph"), self.check_chi),
            ("estimate_test", ("estimate", "--in", "cond.csv", *blocks, "--seed",
                               str(PERM_SEED)), self.check_test),
            ("crosscheck", ("crosscheck", "--d", "4", "--atoms", "8", "--trials",
                            str(self.trials), "--seed", str(self.crosscheck_seed)),
             self.check_crosscheck),
        )

    def run_pass(self) -> None:
        for kind, argv, check in self.calls():
            if self.s.tracer.enabled:
                # process start plus import, measured next to the call it explains
                self.s.call("cli.import", self.s.python, "import facetail")
            self.s.op(f"cli.{kind}", lambda argv=argv: self.s.cli(*argv),
                      lambda proc, kind=kind, check=check: self.checked(kind, proc, check))

    def checked(self, kind, proc, check) -> None:
        self.same_as_first(kind, sha256(proc.stdout.encode()))
        check(proc)

    @staticmethod
    def output(proc, code: int) -> dict:
        expect(proc.returncode == code,
               f"exit {proc.returncode}, expected {code}: {proc.stderr[-300:]}")
        return json.loads(proc.stdout)

    def check_validate(self, proc) -> None:
        expect(self.output(proc, 0) == {"valid": True, "violations": []}, "not valid")

    def check_check(self, proc) -> None:
        report = self.output(proc, 3)
        expect(report["agree"] is True, "criteria disagree")
        flags = [report[k] for k in ("cond_i", "cond_ii", "cond_iii", "df", "new_notion")]
        expect(not any(flags), f"expected dependent on every criterion, got {flags}")

    def check_graph(self, proc) -> None:
        graph = self.output(proc, 0)
        expect(graph["components"] == self.components,
               f"components {graph['components']}, expected {self.components}")

    def check_simulate(self, proc, name: str, kind: str, k) -> None:
        meta = {"kind": kind, "k": k, "n": self.n, "seed": SAMPLE_SEED, "rng": "philox4x64"}
        expect(self.output(proc, 0) == {"out": name, **meta}, "unexpected simulate output")
        sidecar = json.loads((self.s.work / f"{name}.meta.json").read_text())
        expect(sidecar == meta, f"sidecar {sidecar}")
        text = (self.s.work / name).read_bytes()
        header = ",".join(f"x{i + 1}" for i in range(self.D)).encode()
        expect(text.startswith(header + b"\n"), "CSV header")
        expect(text.count(b"\n") == self.n + 1, "CSV row count")
        self.same_as_first(name, sha256(text))

    def check_chi(self, proc) -> None:
        out = self.output(proc, 0)
        expect(out["kind"] == "chi_matrix" and out["n"] == self.n and out["d"] == self.D,
               "chi header")
        chi = np.array(out["chi"])
        expect(chi.shape == (self.D, self.D) and np.array_equal(chi, chi.T)
               and np.all(np.diag(chi) == 1.0) and np.all((chi >= 0) & (chi <= 1)),
               "chi matrix not a symmetric unit-diagonal matrix in [0, 1]")
        expect(sorted(i for comp in out["graph"]["components"] for i in comp)
               == list(range(1, self.D + 1)), "graph components do not cover 1..d")

    def check_test(self, proc) -> None:
        out = self.output(proc, 0)
        expect(out["kind"] == "factorization_test" and out["k"] == self.K + 1, "test header")
        expect(out["degenerate"] is False, "took the degenerate short circuit")
        expect(out["n_perm"] == 499 and 0.0 < out["p_value"] <= 1.0, "p-value")

    def check_crosscheck(self, proc) -> None:
        out = self.output(proc, 0)
        expect(out["ok"] is True and out["trials"] == self.trials, "battery not ok")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def details(self):
        for kind, _, _ in self.calls():
            yield median_detail(self.s.times, f"cli.{kind}")

    def sweep(self) -> None:
        """In-process equivalents of the eight calls, one span each."""
        ft, s = self.s.ft, self.s
        self.probe_imports()
        part = ft.bipartition(self.A, self.C)
        data = measure_input(json.loads(self.path.read_text()))
        with s.tracer.span("equiv.validate"):
            s.call("measure.validate_measure", ft.validate_measure, canonicalise(s, data))
        with s.tracer.span("equiv.check"):
            m = build(s, data)
            s.call("independence.full_report", ft.full_report, m, part)
        with s.tracer.span("equiv.graph"):
            s.call("graphs.build_graph", ft.build_graph, build(s, data))
        for kind, name in (("simulate", "ms.csv"), ("simulate_cond", "cond.csv")):
            with s.tracer.span(f"equiv.{kind}"):
                m = build(s, data)
                if kind == "simulate":
                    batch = s.call("simulate.sample_max_stable", ft.sample_max_stable, m,
                                   self.n, SAMPLE_SEED, rows=self.n)
                else:
                    batch = s.call("simulate.sample_conditional", ft.sample_conditional, m,
                                   self.K, self.n, SAMPLE_SEED, rows=self.n)
                with s.tracer.span("simulate.save_batch") as rec:
                    ft.save_batch(batch, s.work / f"equiv_{name}")
                rec["bytes"] = (s.work / f"equiv_{name}").stat().st_size
        for kind, name in (("estimate_chi", "ms.csv"), ("estimate_test", "cond.csv")):
            with s.tracer.span(f"equiv.{kind}"):
                path = s.work / f"equiv_{name}"
                batch = s.call("simulate.load_batch", ft.load_batch, path,
                               bytes=path.stat().st_size)
                if kind == "estimate_chi":
                    chi = s.call("estimate.chi_empirical", ft.chi_empirical, batch)
                    ft.empirical_graph(chi)
                else:
                    s.call("estimate.factorization_test",
                           lambda b: ft.factorization_test(b, part, seed=PERM_SEED), batch,
                           permutations=499)
        with s.tracer.span("equiv.crosscheck"):
            s.call("independence.agreement_battery", ft.agreement_battery, 4, 8, self.trials,
                   self.crosscheck_seed)
        self.sweep_measure(m, [part], reports=False)
        self.sweep_law(m, self.K, s.rng(11).uniform(0.2, 3.0, size=(200, self.D)))
        self.sweep_peak_memory(m, self.n)

    def layer_metrics(self) -> dict:
        """Adds how much of each call's wall time its in-process equivalent
        explains, with the import probe taken just before the call."""
        metrics = super().layer_metrics()
        spans = self.s.tracer.spans

        def dur(sp):
            return sp["end"] - sp["start"]

        wall_total = explained_total = 0.0
        for kind, _, _ in self.calls():
            calls = [sp for sp in spans if sp["name"] == f"cli.{kind}"]
            wall = statistics.median(dur(sp) for sp in calls)
            imports = statistics.median(dur(spans[sp["id"] - 1]) for sp in calls)
            equiv = statistics.median(dur(sp) for sp in spans if sp["name"] == f"equiv.{kind}")
            explained = imports + equiv
            print(f"explained cli.{kind}: wall {wall:.4f} s = import {imports:.4f} s"
                  f" + in-process {equiv:.4f} s + residual {wall - explained:.4f} s")
            wall_total += wall
            explained_total += explained
        metrics["trace.residual_frac"] = ((wall_total - explained_total) / wall_total, "frac")
        return metrics


# ---- many-atoms -------------------------------------------------------------

#: sparse faces of a simplex-projected angular measure in d=8 (Meyer &
#: Wintenberger's sparse regular variation): six faces of size 2-3 and one
#: covering face for coordinate 7, which they leave uncharged.  A seeded
#: relabelling of the coordinates is applied to the faces and to the
#: bipartitions alike, so every seed does the same amount of work.
FACES = ((0, 1), (1, 2, 3), (0, 2), (4, 5), (4, 5, 6), (5, 6), (6, 7))
#: an independent split (the costly path: full subset enumeration) and a
#: dependent one
PARTS = (((0, 1, 2, 3), (4, 5, 6, 7)), ((0,), (1, 2, 3, 4, 5, 6, 7)))


class ManyAtoms(Workload):
    """Angular measures with many atoms, through every in-process layer.

    Masses are about d/J so margins are near 1, the scale of an angular
    measure, and one ray in ten is a scaled duplicate that canonicalisation
    must merge."""

    D = 8
    grid_dims = (D,)

    def __init__(self, session):
        super().__init__(session)
        smoke = session.smoke
        self.sizes = (40, 80) if smoke else (500, 2000)
        self.n_max = 1_000 if smoke else 4_000
        self.n_cond = 5_000 if smoke else 200_000
        self.n_rect = 20 if smoke else 200
        self.built = {}

    def make_inputs(self) -> None:
        rng = self.s.rng(2)
        perm = rng.permutation(self.D)
        self.face_masks = [mask_of(perm[list(f)].tolist()) for f in FACES]
        self.k = int(perm[0])
        self.parts = []
        for a, c in PARTS:
            a, c = perm[list(a)].tolist(), perm[list(c)].tolist()
            independent = not any(straddles(f, mask_of(a), mask_of(c)) for f in self.face_masks)
            self.parts.append((self.s.ft.bipartition(a, c), independent))
        self.inputs = [self.angular_measure(rng, j) for j in self.sizes]

    def angular_measure(self, rng, n_atoms: int) -> dict:
        d = self.D
        n_dup = n_atoms // 10
        omegas = []
        for j in range(n_atoms - n_dup):
            face = [i for i in range(d) if self.face_masks[j % len(FACES)] >> i & 1]
            om = np.zeros(d)
            om[face] = 1.0 - rng.uniform(size=len(face))
            omegas.append(om / om.sum())
        for _ in range(n_dup):
            omegas.append(omegas[int(rng.integers(n_atoms - n_dup))] * rng.uniform(0.5, 2.0))
        masses = d / n_atoms * rng.uniform(0.5, 1.5, size=n_atoms)
        order = rng.permutation(n_atoms)
        omega = np.array(omegas)[order]
        mass = masses[order]
        intensity = omega * mass[:, None]
        points = rng.uniform(0.2, 3.0, size=(self.n_rect, d))
        return {
            **measure_input({"d": d, "atoms": [{"omega": o.tolist(), "mass": float(w)}
                                               for o, w in zip(omega, mass)]}),
            "n_atoms": n_atoms,
            "expected_atoms": n_atoms - n_dup,
            "margins": intensity.sum(axis=0),
            "points": points,
            "rect": self.rect_oracle(intensity, points),
        }

    def rect_oracle(self, intensity, points):
        """P(Y >= x) under the law at k, from the measure side: the upper
        rectangle mass with x_k raised to max(x_k, 1), over m_k."""
        raised = points.copy()
        raised[:, self.k] = np.maximum(raised[:, self.k], 1.0)
        mass = (intensity[None, :, :] / raised[:, None, :]).min(axis=2).sum(axis=1)
        return mass / intensity[:, self.k].sum()

    def run_pass(self) -> None:
        ft, s = self.s.ft, self.s
        for inp in self.inputs:
            tag = f"@{inp['n_atoms']}"
            m = s.op("atoms.build" + tag, lambda: build(s, inp),
                     lambda m: self.check_build(m, inp))
            self.built[inp["n_atoms"]] = m
            if m is None:
                for kind in ("report0", "report1", "sample_max_stable", "sample_conditional",
                             "law_rect"):
                    s.skip(f"atoms.{kind}{tag}", "measure did not build")
                continue
            for i, (part, independent) in enumerate(self.parts):
                s.op(f"atoms.report{i}{tag}",
                     lambda: s.call("independence.full_report", ft.full_report, m, part),
                     lambda r: self.check_report(r, independent))
            s.op("atoms.sample_max_stable" + tag,
                 lambda: s.call("simulate.sample_max_stable", ft.sample_max_stable, m,
                                self.n_max, SAMPLE_SEED, rows=self.n_max),
                 lambda b: self.check_max_stable(b, tag))
            s.op("atoms.sample_conditional" + tag,
                 lambda: s.call("simulate.sample_conditional", ft.sample_conditional, m,
                                self.k, self.n_cond, SAMPLE_SEED, rows=self.n_cond),
                 lambda b: self.check_conditional(b, tag))
            s.op("atoms.law_rect" + tag, lambda: self.law_rect(m, inp["points"]),
                 lambda p: self.check_rect(p, inp["rect"]))

    def law_rect(self, m, points):
        ft, s = self.s.ft, self.s
        law = s.call("conditional.conditional_law", ft.conditional_law, m, self.k)
        with s.tracer.span("conditional.rectangle_probability", calls=len(points)):
            return [ft.rectangle_probability(law, x) for x in points]

    def check_build(self, m, inp) -> None:
        expect(m.n_atoms == inp["expected_atoms"],
               f"{m.n_atoms} atoms after merging, expected {inp['expected_atoms']}")
        expect(np.allclose(self.s.ft.margins(m), inp["margins"], rtol=1e-9, atol=0.0),
               "merging changed the margins")

    @staticmethod
    def check_report(report, independent: bool) -> None:
        expect(report.agree, "criteria disagree")
        expect(report.independent == independent,
               f"verdict {report.independent}, the faces say {independent}")

    def check_max_stable(self, batch, tag: str) -> None:
        data = batch.data
        expect(data.shape == (self.n_max, self.D), f"shape {data.shape}")
        expect(np.all(np.isfinite(data)) and np.all(data > 0.0),
               "every coordinate is charged, so every entry must be finite and positive")
        self.same_as_first("max_stable" + tag, sha256(data.tobytes()))

    def check_conditional(self, batch, tag: str) -> None:
        data = batch.data
        expect(data.shape == (self.n_cond, self.D), f"shape {data.shape}")
        expect(np.all(data[:, self.k] >= 1.0 - 1e-12), "conditioning coordinate below 1")
        supports = set(((data > 0.0) @ (1 << np.arange(self.D))).tolist())
        expect(supports <= {f for f in self.face_masks if f >> self.k & 1},
               "a row's support is not a face charging k")
        self.same_as_first("conditional" + tag, sha256(data.tobytes()))

    @staticmethod
    def check_rect(probabilities, expected) -> None:
        expect(np.allclose(probabilities, expected, rtol=1e-9, atol=1e-15),
               "rectangle probabilities differ from the measure-side oracle")

    def details(self):
        times = self.s.times
        for cls, kinds in (("build", ("build",)), ("report", ("report0", "report1")),
                           ("sample", ("sample_max_stable", "sample_conditional")),
                           ("law_rect", ("law_rect",))):
            total = sum(sum(times[f"atoms.{k}@{j}"]) for k in kinds for j in self.sizes)
            passes = len(times[f"atoms.build@{self.sizes[0]}"])
            yield f"atoms.{cls}_s (per pass, n={passes})", total / max(passes, 1), "s"

    def sweep(self) -> None:
        self.probe_imports()
        built = [m for m in self.built.values() if m is not None]
        for m in built:
            self.sweep_measure(m, [self.parts[0][0]], reports=False)
        self.sweep_samples(built[-1], self.k, self.n_max, self.n_cond // 10,
                           self.parts[1][0], 99)


# ---- battery ------------------------------------------------------------------


class Battery(Workload):
    """Many full reports on small measures: brute-force certification of
    two d=10 measures and two random-measure agreement batteries."""

    def __init__(self, session):
        super().__init__(session)
        smoke = session.smoke
        self.d = 5 if smoke else 10
        self.n_atoms = 8 if smoke else 16
        self.batteries = ((4, 6, 3), (4, 8, 4)) if smoke else ((6, 10, 50), (4, 8, 100))
        self.n_sweep_parts = 8 if smoke else 32
        self.reports = 0

    @property
    def grid_dims(self):
        return (self.d, *(d for d, _, _ in self.batteries))

    def make_inputs(self) -> None:
        ft, s = self.s.ft, self.s
        rng = s.rng(3)
        d = self.d
        order = rng.permutation(d)
        split = (sorted(order[: d // 2].tolist()), sorted(order[d // 2:].tolist()))
        block = ft.random_measure(d, self.n_atoms, split=split, seed=int(rng.integers(2**32)))
        while True:
            connected = ft.random_measure(d, self.n_atoms, seed=int(rng.integers(2**32)))
            if len(components(d, connected.face_masks)) == 1:
                break
        self.inputs = []
        for name, m in (("block", block), ("connected", connected)):
            self.inputs.append({**measure_input(ft.measure_to_dict(m)), "name": name,
                                "components": components(d, m.face_masks)})
        self.battery_seeds = [int(rng.integers(2**31)) for _ in self.batteries]
        all_parts = list(ft.all_bipartitions(d))
        pick = rng.choice(len(all_parts), size=min(self.n_sweep_parts, len(all_parts)),
                          replace=False)
        self.sweep_parts = [all_parts[i] for i in sorted(pick)]

    def run_pass(self) -> None:
        ft, s = self.s.ft, self.s
        for inp in self.inputs:
            name = inp["name"]
            m = s.op(f"battery.build.{name}", lambda: build(s, inp),
                     lambda m: expect([sorted(c) for c in ft.finest_partition(m)]
                                      == inp["components"], "finest partition"))
            if m is None:
                s.skip(f"battery.certify.{name}", "measure did not build")
                continue
            s.op(f"battery.certify.{name}",
                 lambda: s.call("graphs.certify_partition_bruteforce",
                                ft.certify_partition_bruteforce, m),
                 lambda ok: expect(ok is True, "finest partition not certified"))
            self.reports += 2 ** (self.d - 1) - 1
        for (d, n_atoms, trials), seed in zip(self.batteries, self.battery_seeds):
            result = s.op(f"battery.agreement@{d}",
                          lambda: s.call("independence.agreement_battery",
                                         ft.agreement_battery, d, n_atoms, trials, seed),
                          lambda r: expect(r.ok and r.trials == trials, "battery not ok"))
            if result is not None:
                self.reports += result.instances

    def details(self):
        times = self.s.times
        total = sum(sum(v) for k, v in times.items() if k.startswith("battery."))
        yield "battery.reports_per_s", self.reports / total if total else math.nan, "1/s"
        for inp in self.inputs:
            yield median_detail(times, f"battery.certify.{inp['name']}")

    def sweep(self) -> None:
        ft, s = self.s.ft, self.s
        self.probe_imports()
        measures = [ft.measure_from_dict(inp["data"]) for inp in self.inputs]
        for m in measures:
            self.sweep_measure(m, self.sweep_parts, reports=True)
        connected = measures[1]
        self.sweep_law(connected, 0, s.rng(11).uniform(0.2, 3.0, size=(200, self.d)))
        n = 2_000 if self.s.smoke else 20_000
        test_part = ft.bipartition([0], range(1, self.d))
        self.sweep_samples(connected, 0, n, n, test_part, 99)


WORKLOADS = {"cli-session": CliSession, "many-atoms": ManyAtoms, "battery": Battery}
