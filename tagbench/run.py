#!/usr/bin/env python3
"""End-to-end benchmark of tagsim: host cost of reproducing the paper.

Run from the repository root:

    python3 tagbench/run.py --workload cold-j1 --seed 1 --seconds 20 --trace 0

Workloads (see tagbench/README.md for why each was chosen):

  cold-j1     full planner fan-out (8 artifacts, 280 configurations) from
              empty measurement, object and plan stores at --jobs 1
  rebuild-j2  the same fan-out at --jobs 2 with the measurement entries
              deleted but the object and plan stores warm (a template
              primed once per invocation, restored before every pass)
  fuzz        the campaign of `tagsim fuzz`: 40 programs from --seed over
              the smoke matrix

Every timed pass runs in a fresh process, in its own temporary store
directory under .tagbench_tmp/, and has its output checked.  With
--trace 0 the last stdout line carries the end-to-end metrics (medians
over the passes); with --trace 1 it carries the per-layer metrics of one
traced pass, next to one untraced pass of the same workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "tagbench", "tagbench.exe")
TMP = ".tagbench_tmp"

# Full size: the workloads as defined.  Small size: the same paths at a
# size the smoke test can afford (table3 only, 4 fuzz programs).
SIZES = {
    "full": {"only": "", "fuzz_count": 40},
    "small": {"only": "table3", "fuzz_count": 4},
}

# kind, jobs, store at the start of a pass, passes measured at least.
WORKLOADS = {
    "cold-j1": {"kind": "plan", "jobs": 1, "store": "empty", "min_passes": 2},
    "rebuild-j2": {"kind": "plan", "jobs": 2, "store": "primed", "min_passes": 3},
    "fuzz": {"kind": "fuzz", "jobs": 1, "store": "empty", "min_passes": 5},
}

SETUP_SAMPLES = 20  # set-ups timed per invocation (passes included)
MAX_PRIME_GENERATIONS = 8

# Passes run with the OCaml runtime's default GC settings, whatever the
# caller's environment says: GC pacing decides how many dead 8 MiB
# simulated memories are still unswept at a pass's peak, so a caller's
# OCAMLRUNPARAM would move peak_rss_mb by whole steps.
PASS_ENV = {k: v for k, v in os.environ.items()
            if k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
ALLOC_TOLERANCE = 1e-4  # determinism guard on allocated words


class BenchError(Exception):
    """The benchmark itself could not run or its guard tripped."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile("RESULTS.json") or not os.path.isdir("lib"):
        raise BenchError("not a tagsim checkout (RESULTS.json or lib/ missing)")
    cmd = ["dune", "build", "--root", ".", "./tagbench/tagbench.exe"]
    try:
        # No shared dune cache: the build reads and writes only here.
        env = dict(os.environ, DUNE_CACHE="disabled")
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed:\n" + r.stdout[-4000:])


class Pass:
    """One pass process: set up, then (optionally) run its work."""

    def __init__(self, d, args):
        self.dir = d
        self.proc = subprocess.Popen(
            [EXE, "pass", "--dir", d] + args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=PASS_ENV)
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.kill()
            raise BenchError(f"pass process did not start: {line!r}")

    def wait(self):
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return ru

    def go(self):
        """Run the work; returns (wall_s, rusage, exit code)."""
        t0 = time.perf_counter()
        self.proc.stdin.write("go\n")
        self.proc.stdin.close()
        ru = self.wait()
        wall = time.perf_counter() - t0
        return wall, ru, self.proc.returncode

    def quit(self):
        self.proc.stdin.close()
        self.wait()

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait()

    def summary(self):
        try:
            with open(os.path.join(self.dir, "summary.json")) as f:
                return json.load(f)
        except (OSError, ValueError):
            return {"ok": False, "error": "no summary"}


class Bench:
    def __init__(self, workload, seed, size):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.jobs = min(self.w["jobs"], os.cpu_count() or 1)
        self.seed = seed
        self.size = SIZES[size]
        self.small = size == "small"
        self.tmp = os.path.join(TMP, str(os.getpid()))
        self.template = None
        self.template_state = None
        self.counter = 0
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.first_verdicts = None
        with open("RESULTS.json", "rb") as f:
            self.expected = f.read()

    def pass_args(self, traced=False):
        if self.w["kind"] == "plan":
            a = ["--workload", "plan", "--jobs", str(self.jobs)]
            if self.size["only"]:
                a += ["--only", self.size["only"]]
        else:
            a = ["--workload", "fuzz", "--seed", str(self.seed),
                 "--count", str(self.size["fuzz_count"])]
        return a + (["--trace"] if traced else [])

    def fresh_dir(self):
        self.counter += 1
        return os.path.join(self.tmp, f"pass{self.counter}")

    def setup(self, traced=False):
        """Build a pass's starting state: its store directory (empty, or
        restored from the primed template) and a fresh process that has
        configured it.  Returns the pass; the set-up time goes to
        [self.setups]."""
        d = self.fresh_dir()
        t0 = time.perf_counter()
        if self.template:
            # Hard links: every store write is a temp file renamed into
            # place, so a pass never modifies a template file (the
            # template's integrity is checked at the end regardless).
            shutil.copytree(self.template, d, copy_function=os.link)
        else:
            os.makedirs(d)
        p = Pass(d, self.pass_args(traced))
        dt = time.perf_counter() - t0
        self.setups.append(dt)
        return p

    def run_pass(self, traced=False, spans=None):
        """Set up, run and check one pass; the directory is removed
        whatever happens (after copying a traced pass's spans to
        [spans], if given).  Returns a record of the pass."""
        p = None
        try:
            p = self.setup(traced)
            wall, ru, code = p.go()
            s = p.summary()
            rec = {
                "wall_s": wall,
                "cpu_s": ru.ru_utime + ru.ru_stime,
                "sys_s": ru.ru_stime,
                "peak_rss_mb": ru.ru_maxrss / 1024.0,
                "summary": s,
                "obj_mb": dir_mb(os.path.join(p.dir, "obj")),
            }
            errors = self.check(p.dir, s, code)
            rec["errors"] = errors
            for e in errors:
                log(f"{self.name}: check failed: {e}")
            if spans and os.path.isfile(os.path.join(p.dir, "spans.tsv")):
                shutil.copyfile(os.path.join(p.dir, "spans.tsv"), spans)
            return rec
        finally:
            if p:
                p.kill()
                shutil.rmtree(p.dir, ignore_errors=True)

    def check(self, d, s, code):
        """Output check of one pass: a list of failures (empty if ok)."""
        errors = []
        if code != 0:
            errors.append(f"pass exited with code {code}")
        if not s.get("ok"):
            errors.append(s.get("error", "pass failed"))
            return errors
        if self.w["kind"] == "plan":
            try:
                with open(os.path.join(d, "results.json"), "rb") as f:
                    got = f.read()
            except OSError:
                return errors + ["no results.json"]
            if self.small:
                name = self.size["only"]
                ok = (json.loads(got)["artifacts"][name]
                      == json.loads(self.expected)["artifacts"][name])
            else:
                ok = got == self.expected
            if not ok:
                errors.append("rendered JSON differs from RESULTS.json")
        else:
            with open(os.path.join(d, "verdicts.txt")) as f:
                verdicts = f.read().split()
            bad = [v for v in verdicts if v not in ("agree", "rejected")]
            if bad:
                errors.append(f"{len(bad)} counterexample(s)")
            if self.first_verdicts is None:
                self.first_verdicts = verdicts
            elif verdicts != self.first_verdicts:
                errors.append("verdict sequence differs from the first pass")
        return errors

    def count(self, rec):
        """Attempts and failures: passes for plan workloads, programs
        for fuzz."""
        n = self.size["fuzz_count"] if self.w["kind"] == "fuzz" else 1
        self.attempted += n
        if rec["errors"]:
            self.failed += n

    def prime(self):
        """Prime the rebuild template once: full fan-outs in fresh
        processes over one store, deleting the measurement entries
        between generations, until trace formation stops changing."""
        self.template = os.path.join(self.tmp, "template")
        os.makedirs(self.template)
        formed = None
        for gen in range(MAX_PRIME_GENERATIONS):
            p = Pass(self.template, self.pass_args())
            _, _, code = p.go()
            s = p.summary()
            errors = self.check(self.template, s, code)
            if errors:
                raise BenchError(f"priming generation {gen + 1} failed: {errors}")
            for f in os.listdir(self.template):
                if f.endswith(".entry") or f in ("results.json", "summary.json"):
                    os.remove(os.path.join(self.template, f))
            now = s["guard"]["trace.formed"]
            log(f"{self.name}: priming generation {gen + 1}: {now:.0f} traces formed")
            if now == 0 or now == formed:
                self.template_state = snapshot(self.template)
                return
            formed = now
        raise BenchError("plan formation did not settle while priming")

    def guard(self, recs, fields=None):
        """Determinism guard at --jobs 1: counters repeat exactly across
        passes, allocated words to within ALLOC_TOLERANCE."""
        if self.jobs != 1:
            return
        ok = [r["summary"]["guard"] for r in recs if not r["errors"]]
        for g in ok[1:]:
            for k, v in ok[0].items():
                if fields is not None and k not in fields:
                    continue
                if k == "alloc_mw":
                    same = abs(g[k] - v) <= ALLOC_TOLERANCE * max(abs(v), 1.0)
                else:
                    same = g[k] == v
                if not same:
                    raise BenchError(f"determinism guard: {k} was {v}, then {g[k]}")

    def extra_setups(self):
        while len(self.setups) < SETUP_SAMPLES:
            p = self.setup()
            try:
                p.quit()
            finally:
                p.kill()
                shutil.rmtree(p.dir, ignore_errors=True)

    def timed(self, seconds):
        recs = []
        t0 = time.perf_counter()
        while len(recs) < self.w["min_passes"] or time.perf_counter() - t0 < seconds:
            rec = self.run_pass()
            self.count(rec)
            recs.append(rec)
        self.guard(recs)
        self.extra_setups()
        med = lambda k: statistics.median(r[k] for r in recs)
        items = [r["summary"].get("items", 0) / r["wall_s"] for r in recs]
        log(f"{self.name}: {len(recs)} passes, wall (of which sys) "
            + " ".join(f"{r['wall_s']:.3f} ({r['sys_s']:.2f})" for r in recs))
        return {
            "wall_s": (med("wall_s"), "s"),
            "items_per_s": (statistics.median(items), "1/s"),
            "cpu_s": (med("cpu_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "setup_s": (statistics.median(self.setups), "s"),
        }

    def traced(self, spans):
        ref = self.run_pass()
        self.count(ref)
        tr = self.run_pass(traced=True, spans=spans)
        self.count(tr)
        if tr["errors"]:
            raise BenchError("the traced pass failed: no per-layer metrics")
        # The replica must reproduce the library path's counters exactly.
        self.guard([ref, tr], fields=["run.simulations", "objcache.hits",
                                      "objcache.misses", "objcache.writes",
                                      "trace.formed", "trace.retired"])
        layers = dict(tr["summary"]["layers"])
        layers["objcache.disk_mb"] = tr["obj_mb"]
        layers["pool.utilization"] = ref["cpu_s"] / (ref["wall_s"] * self.jobs)
        layers["trace_overhead_ratio"] = tr["wall_s"] / ref["wall_s"] - 1.0
        layers["fail_ratio"] = self.failed / self.attempted
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        missing = set(units) - set(layers)
        if missing:
            raise BenchError(f"traced run lacks metrics {sorted(missing)}")
        return {k: (layers[k], units[k]) for k in units}


def snapshot(d):
    """Identity of every file under [d]: path, inode, size, mtime."""
    out = []
    for root, _, files in os.walk(d):
        for f in files:
            st = os.stat(os.path.join(root, f))
            out.append((os.path.join(root, f), st.st_ino, st.st_size, st.st_mtime_ns))
    return sorted(out)


def dir_mb(d):
    total = 0
    for root, _, files in os.walk(d):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total / 1e6


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="small: a reduced plan for the smoke test")
    ap.add_argument("--spans", metavar="FILE",
                    help="with --trace 1, keep the traced pass's spans "
                    "(one TSV line per span) in FILE")
    a = ap.parse_args()
    try:
        build()
        b = Bench(a.workload, a.seed, a.size)
        try:
            os.makedirs(b.tmp)
            if b.w["store"] == "primed":
                b.prime()
            metrics = b.traced(a.spans) if a.trace else b.timed(a.seconds)
            if b.template and snapshot(b.template) != b.template_state:
                raise BenchError("a pass modified the primed template")
        finally:
            shutil.rmtree(b.tmp, ignore_errors=True)
            try:
                os.rmdir(TMP)
            except OSError:
                pass
    except BenchError as e:
        log(f"tagbench: {e}")
        return 2
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
