#!/usr/bin/env python3
"""Planner benchmark: closed-loop runs of the release `soctdc` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload plan-cold-p93791 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One client drives `soctdc` back to back (the next op starts when the
previous one exits), always at `--workers 2`. `--trace 0` reports the
end-to-end metrics of untraced runs; `--trace 1` repeats the untraced ops,
then replays the same ops in-process with spans around every layer call
(`perfbench/tracer`) and reports per-layer metrics. Every plan an op writes
is checked independently; the last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path("perfbench")
WORKERS = 2
SETUP_REPS = 3
# A started round always finishes, even past --seconds, but no round
# starts after this many seconds, so a run ends well within three minutes.
HARD_STOP_S = 140.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A benchmark-level failure that produces no result."""


# --------------------------------------------------------------------------
# Workloads. Each one makes its inputs from the seed in `setup` and defines
# an endless, deterministic op sequence, run in whole rounds of `round`
# ops; plan quality and counters are summed over the first round.
# --------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    round = 1
    # (input key, path under the work dir) of set-up plan output that later
    # ops with the same key must reproduce byte for byte.
    warmup = None

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, wd, run):
        """Writes inputs under `wd` and primes caches; `run(argv)` runs soctdc."""

    def pristine(self, wd):
        """Restores the state the traced replay must start from."""

    def op(self, wd, k, tag):
        """(input key, soctdc argv) of op `k`; `tag` keeps untraced and
        traced outputs apart."""
        raise NotImplementedError

    def inputs(self, wd):
        """Generated input text, for the self-test's seed comparison."""
        return ""


def plan_argv(*extra):
    return ["plan", *extra, "--workers", str(WORKERS)]


class PlanCold(Workload):
    name = "plan-cold-p93791"
    why = "full p93791 w32 plan, no cache: synthesis, tables and verification dominate"
    warmup = ("cold", "plans/warmup.plan")

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.design, self.width = ("d695", 16) if tiny else ("p93791", 32)

    def setup(self, wd, run):
        # Warm-up plan: loads the binary and is the reference output the
        # measured repeats must match byte for byte.
        (wd / "plans").mkdir(parents=True, exist_ok=True)
        run(self.argv(wd / "plans" / "warmup.plan"))

    def argv(self, out):
        return plan_argv("--design", self.design, "--width", str(self.width),
                         "--seed", str(self.seed), "--plan-out", str(out))

    def op(self, wd, k, tag):
        return "cold", self.argv(wd / "plans" / f"op{k}.{tag}.plan")

    def inputs(self, wd):
        return " ".join(self.argv("-"))


class ReplanEdit(Workload):
    name = "replan-edit-p93791"
    why = "one-core edits re-planned on a primed profile cache: 31 hits, 1 miss, 1 write per op"
    EDITS = 256

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.design, self.width = ("d695", 16) if tiny else ("p93791", 32)
        # A round edits every core once, so runs with different seeds
        # re-plan the same mix of cores.
        self.round = 10 if tiny else 32

    def setup(self, wd, run):
        (wd / "plans").mkdir(parents=True, exist_ok=True)
        (wd / "socs").mkdir(exist_ok=True)
        base = wd / "socs" / "base.soc"
        run(["convert", "--design", self.design, "--to", "simple"], stdout=base)
        lines = base.read_text().splitlines()
        script = []
        for k, text in enumerate(self.edit_chain(lines, script)):
            (wd / "socs" / f"e{k}.soc").write_text(text)
        (wd / "edits.txt").write_text("\n".join(script) + "\n")
        run(self.argv(base, wd / "cache", wd / "plans" / "warmup.plan"))
        shutil.copytree(wd / "cache", wd / "cache.primed")

    def pristine(self, wd):
        shutil.rmtree(wd / "cache")
        shutil.copytree(wd / "cache.primed", wd / "cache")

    def edit_chain(self, lines, script):
        """Cumulative single-core edits, every core once per round in seeded
        order; a core never returns to content it had before, so every edit
        is exactly one cache miss."""
        cores = [i for i, l in enumerate(lines) if l.split()[:1] in (["core"], ["flexcore"])]
        if len(cores) != self.round:
            raise Failure(f"{self.design} has {len(cores)} cores, the round edits {self.round}")
        field = lambda words, key: words.index(key) + 1
        seen = set()
        for i in cores:
            w = lines[i].split()
            seen.add((w[1], w[field(w, "patterns")], w[field(w, "density")]))
        order = []
        for _ in range(self.EDITS):
            if not order:
                order = self.rng.sample(cores, len(cores))
            i = order.pop()
            while True:
                w = lines[i].split()
                if self.rng.random() < 0.5:
                    at = field(w, "patterns")
                    value = str(max(1, int(w[at]) + self.rng.choice([-1, 1]) * self.rng.randint(1, 12)))
                else:
                    at = field(w, "density")
                    value = f"{min(0.95, max(0.05, float(w[at]) * self.rng.uniform(0.9, 1.1))):.6f}"
                new = list(w)
                new[at] = value
                key = (new[1], new[field(new, "patterns")], new[field(new, "density")])
                if key not in seen:
                    break
            seen.add(key)
            lines[i] = " ".join(new)
            script.append(f"{new[1]} {w[at - 1]} {value}")
            yield "\n".join(lines) + "\n"

    def argv(self, soc, cache, out):
        return plan_argv("--soc", str(soc), "--width", str(self.width), "--seed", str(self.seed),
                         "--profile-cache", str(cache), "--plan-out", str(out))

    def op(self, wd, k, tag):
        if k >= self.EDITS:
            raise Failure(f"{self.name}: edit script has only {self.EDITS} edits")
        soc = wd / "socs" / f"e{k}.soc"
        return f"edit{k}", self.argv(soc, wd / "cache", wd / "plans" / f"op{k}.{tag}.plan")

    def inputs(self, wd):
        return (wd / "edits.txt").read_text()


class FleetSweep(Workload):
    name = "fleet-sweep"
    why = "one soctdc fleet run per op over about 70 instances, each into a fresh profile cache"
    round = 1
    warmup = ("fleet", "plans.warmup")

    def sweeps(self):
        """(design, widths, seeds) per manifest line."""
        s = self.seed
        if self.tiny:
            return [("d695", "8,16", f"{s}..{s + 1}"), ("system1", "8", f"{s}")]
        return [("p93791", "16..32:8", f"{s}"), ("system1", "16..40:4", f"{s}"),
                ("d695", "8..64:8", f"{s}..{s + 6}")]

    def manifest(self, wd, sweeps):
        return "".join(f"soc {wd / 'socs' / d}.soc widths={w} seeds={s}\n" for d, w, s in sweeps)

    def setup(self, wd, run):
        (wd / "socs").mkdir(parents=True, exist_ok=True)
        for design, _, _ in self.sweeps():
            run(["convert", "--design", design, "--to", "simple"], stdout=wd / "socs" / f"{design}.soc")
        (wd / "manifest.txt").write_text(self.manifest(wd, self.sweeps()))
        # Warm-up: the last sweep at the first seed only. It loads the
        # binary, and its plans are references the measured runs must match.
        design, widths, _ = self.sweeps()[-1]
        (wd / "warmup.txt").write_text(self.manifest(wd, [(design, widths, self.seed)]))
        run(self.argv(wd, "warmup", "warmup.txt"))

    def argv(self, wd, name, manifest="manifest.txt"):
        return ["fleet", "--manifest", str(wd / manifest), "--workers", str(WORKERS),
                "--profile-cache", str(wd / f"cache.{name}"), "--plan-dir", str(wd / f"plans.{name}")]

    def op(self, wd, k, tag):
        name = f"op{k}.{tag}"
        shutil.rmtree(wd / f"cache.{name}", ignore_errors=True)
        (wd / f"plans.{name}").mkdir(parents=True, exist_ok=True)
        return "fleet", self.argv(wd, name)

    def inputs(self, wd):
        return (wd / "manifest.txt").read_text()


class SearchSystem1(Workload):
    name = "search-system1"
    why = "System1 tables cached, exhaustive TAM search to optimality dominates every op"

    # The cube seed stays at the CLI default: exhaustive-search time moves
    # by up to 40% with System1's cubes (w32: 3.1 to 4.3 s), which would
    # swamp the run-to-run comparison this workload exists for.
    CUBE_SEED = 2008

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        # A fixed multiset of widths in 24..36, in seeded order: every run
        # does the same amount of search, and each width repeats so the
        # median is not a single op.
        self.widths = [8, 10] * 2 if tiny else [24, 28, 32] * 2
        self.rng.shuffle(self.widths)
        self.round = len(self.widths)

    def setup(self, wd, run):
        (wd / "plans").mkdir(parents=True, exist_ok=True)
        run(plan_argv("--design", "system1", "--width", str(max(self.widths)), "--seed", str(self.CUBE_SEED),
                      "--profile-cache", str(wd / "cache"), "--plan-out", str(wd / "plans" / "prime.plan")))
        shutil.copytree(wd / "cache", wd / "cache.primed")

    def pristine(self, wd):
        shutil.rmtree(wd / "cache")
        shutil.copytree(wd / "cache.primed", wd / "cache")

    def op(self, wd, k, tag):
        w = self.widths[k % len(self.widths)]
        argv = plan_argv("--design", "system1", "--width", str(w), "--deadline", "60000",
                         "--seed", str(self.CUBE_SEED), "--profile-cache", str(wd / "cache"),
                         "--plan-out", str(wd / "plans" / f"op{k}.{tag}.plan"))
        return f"w{w}", argv

    def inputs(self, wd):
        return " ".join(map(str, self.widths))


WORKLOADS = {w.name: w for w in (PlanCold, ReplanEdit, FleetSweep, SearchSystem1)}

# --------------------------------------------------------------------------
# Build and process plumbing.
# --------------------------------------------------------------------------


def build():
    if not (Path("Cargo.toml").is_file() and Path("crates").is_dir()):
        raise Failure("run from the repository root: Cargo.toml and crates/ are missing")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "soctdc"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 str(BENCH / "tracer" / "Cargo.toml")]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    return target / "release" / "soctdc", target / "release" / "perfbench-tracer"


def spawn(binary, argv, stdout):
    """Runs one process to exit; returns (exit code, wall s, cpu s, peak RSS KiB)."""
    with open(stdout, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(binary), *argv], stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values):
    """The highest percentile with at least ten ops beyond it, never below
    the median: (value, percentile, ops beyond)."""
    s = sorted(values)
    n = len(s)
    i = max(n - 11, n // 2)
    return s[i], 100.0 * (i + 1) / n, n - 1 - i


def read_tree(path):
    """File name -> content of a plan file, or of every file in a plan dir."""
    path = Path(path)
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return {"": path.read_bytes()} if path.exists() else {}


def plan_output(argv):
    flag = "--plan-dir" if argv[0] == "fleet" else "--plan-out"
    return argv[argv.index(flag) + 1]


# --------------------------------------------------------------------------
# One run of one workload.
# --------------------------------------------------------------------------


class Run:
    def __init__(self, workload, soctdc, tracer, wd, seconds):
        self.w = workload
        self.soctdc = soctdc
        self.tracer = tracer
        self.wd = wd
        self.seconds = seconds
        self.failures = []
        self.failed_ops = set()

    def fail(self, k, message):
        self.failed_ops.add(k)
        self.failures.append(f"op {k}: {message}")

    def cli(self, argv, stdout=None):
        out = stdout or (self.wd / "setup.out")
        code, _, _, _ = spawn(self.soctdc, argv, out)
        if code != 0:
            raise Failure(f"set-up command failed ({code}): soctdc {' '.join(argv)}")

    def setup(self):
        times = []
        for rep in range(SETUP_REPS):
            shutil.rmtree(self.wd, ignore_errors=True)
            self.wd.mkdir(parents=True)
            t0 = time.perf_counter()
            self.w.setup(self.wd, self.cli)
            times.append(time.perf_counter() - t0)
        return times

    def untraced(self):
        """Closed loop of whole rounds of ops until --seconds have passed."""
        ops = []
        t0 = time.perf_counter()
        k = 0
        while True:
            elapsed = time.perf_counter() - t0
            if k > 0 and k % self.w.round == 0 and elapsed >= min(self.seconds, HARD_STOP_S):
                break
            key, argv = self.w.op(self.wd, k, "cli")
            code, wall, cpu, rss = spawn(self.soctdc, argv, self.wd / f"op{k}.out")
            text = (self.wd / f"op{k}.out").read_text(errors="replace")
            ops.append(dict(k=k, key=key, argv=argv, plans=0, code=code, wall=wall,
                            cpu=cpu, rss_kb=rss, stopwatch=stopwatch(text)))
            if code != 0:
                self.fail(k, f"exited {code}: {text.strip()[-300:]}")
            k += 1
        return ops, time.perf_counter() - t0

    def check(self, ops, reference):
        """Independent plan check per op plus identity across repeats."""
        script = self.wd / "check.txt"
        script.write_text("".join(" ".join(op["argv"]) + "\n" for op in ops))
        res = subprocess.run([str(self.tracer), "check", str(script)], capture_output=True, text=True)
        if res.returncode != 0:
            raise Failure(f"plan checker failed: {res.stderr.strip()}")
        for line in res.stdout.splitlines():
            word, k, *rest = line.split(" ", 2)
            if word == "ok":
                plans, tau, volume = map(int, rest[0].split())
                ops[int(k)].update(plans=plans, tau=tau, volume=volume)
            else:
                self.fail(int(k), f"check: {' '.join(rest)}")
        for op in ops:
            for name, text in read_tree(plan_output(op["argv"])).items():
                if text != reference.setdefault((op["key"], name), text):
                    self.fail(op["k"], f"plan text {name} differs from an earlier run of {op['key']}")

    def traced(self, ops):
        """Replays the same ops in-process; returns the parsed trace."""
        self.w.pristine(self.wd)
        lines = []
        for op in ops:
            _, argv = self.w.op(self.wd, op["k"], "traced")
            lines.append(" ".join(argv) + "\n")
            op["traced_argv"] = argv
        script = self.wd / "trace.txt"
        script.write_text("".join(lines))
        trace_path = BENCH / "out" / f"{self.w.name}-seed{self.w.seed}.trace.json"
        trace_path.parent.mkdir(exist_ok=True)
        res = subprocess.run([str(self.tracer), "trace", str(script), str(trace_path)],
                             capture_output=True, text=True)
        if res.returncode != 0:
            raise Failure(f"traced replay failed: {res.stderr.strip()}")
        for line in res.stdout.splitlines():
            word, k, *rest = line.split(" ", 2)
            if word != "ok":
                self.fail(int(k), f"traced replay: {' '.join(rest)}")
        self.identical = 0
        for op in ops:
            if read_tree(plan_output(op["traced_argv"])) == read_tree(plan_output(op["argv"])):
                self.identical += 1
            else:
                self.fail(op["k"], "traced plan text differs from the CLI's")
        return json.loads(trace_path.read_text()), trace_path


def stopwatch(text):
    """The planner's own stopwatch as the CLI prints it, in seconds."""
    m = re.search(r"\((\d+) ms\)$", text.split("\n", 1)[0])
    if m:
        return int(m.group(1)) / 1e3
    m = re.search(r"^fleet: .* in ([\d.]+)s \(", text, re.M)
    return float(m.group(1)) if m else None


# --------------------------------------------------------------------------
# Metrics.
# --------------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "designs_per_s": "1/s",
    "cpu_s_per_design": "s", "peak_rss_mb": "MB", "soc_test_cycles": "cycles",
    "test_data_bits": "bits", "ok_ops_ratio": "ratio",
}


def end_to_end(w, setup_times, ops, phase_s, failed):
    walls = [op["wall"] for op in ops]
    # Designs planned: plans that passed the check.
    designs = max(1, sum(op["plans"] for op in ops))
    first = ops[: w.round]
    tail_v, tail_pct, beyond = tail(walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_v,
        "designs_per_s": designs / phase_s,
        "cpu_s_per_design": sum(op["cpu"] for op in ops) / designs,
        "peak_rss_mb": max(op["rss_kb"] for op in ops) / 1024.0,
        "soc_test_cycles": sum(op.get("tau", 0) for op in first),
        "test_data_bits": sum(op.get("volume", 0) for op in first),
        "ok_ops_ratio": 1.0 - failed / len(ops),
    }
    detail = {
        "op_s": quartiles(walls), "setup_s": quartiles(setup_times),
        "op_tail_percentile": tail_pct, "ops_beyond_tail": beyond, "ops": len(ops),
        "op_walls": [(op["key"], round(op["wall"], 4)) for op in ops],
    }
    return values, detail


PER_LAYER_UNITS = {
    "soc-model.synth_s": "s", "soc-model.stimulus_bits": "bits",
    "tdcsoc.plan_s": "s", "tdcsoc.tables_s": "s", "tdcsoc.stopwatch_s": "s",
    "tdcsoc.widths_computed": "count", "tdcsoc.widths_reused": "count",
    "tdcsoc.profile_cache.hits": "count", "tdcsoc.profile_cache.partial": "count",
    "tdcsoc.profile_cache.misses": "count", "tdcsoc.profile_cache.evictions": "count",
    "tdcsoc.profile_cache.useful_ratio": "ratio",
    "selenc.memo.hits": "count", "selenc.memo.misses": "count", "selenc.memo.hit_ratio": "ratio",
    "selenc.verify_s": "s", "selenc.verify_codewords": "count", "selenc.streams_verified": "count",
    "tam.search_s": "s",
    "tdcsoc.planfile_s": "s", "tdcsoc.planfile_bytes": "bytes",
    "fleet.instance_p50_s": "s", "fleet.instance_tail_s": "s",
    "fleet.soc_cache.hits": "count", "fleet.soc_cache.misses": "count",
    "fleet.redundant_soc_builds": "count", "fleet.redundant_profile_builds": "count",
    "parpool.busy_ratio": "ratio",
    "trace.unattributed_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s",
    "trace.replay_s": "s",
}

# Span name -> per-layer time metric its self time counts toward.
LAYER_OF_SPAN = {
    "soc-model.synth": "soc-model.synth_s",
    "tdcsoc.plan": "tdcsoc.plan_s",
    "fleet.instance": "tdcsoc.plan_s",
    "selenc.verify": "selenc.verify_s",
    "selenc.verify_operating_point": "selenc.verify_s",
    "tam.optimize_architecture": "tam.search_s",
    "tam.exhaustive_architecture": "tam.search_s",
    "tdcsoc.planfile": "tdcsoc.planfile_s",
}

# Span argument -> per-layer counter, summed over the round's ops.
COUNTER_OF_ARG = {
    ("soc-model.synth", "stimulus_bits"): "soc-model.stimulus_bits",
    ("selenc.verify", "streams"): "selenc.streams_verified",
    ("selenc.verify", "codewords"): "selenc.verify_codewords",
    ("tdcsoc.planfile", "bytes"): "tdcsoc.planfile_bytes",
}
STATS_COUNTERS = {
    "widths_computed": "tdcsoc.widths_computed", "widths_reused": "tdcsoc.widths_reused",
    "profile_hits": "tdcsoc.profile_cache.hits", "profile_partial": "tdcsoc.profile_cache.partial",
    "profile_misses": "tdcsoc.profile_cache.misses",
    "profile_evictions": "tdcsoc.profile_cache.evictions",
    "memo_hits": "selenc.memo.hits", "memo_misses": "selenc.memo.misses",
    "soc_cache_hits": "fleet.soc_cache.hits", "soc_cache_misses": "fleet.soc_cache.misses",
}


def union_length(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(events):
    """Span id -> (event, self time in s): duration minus the part of it
    its children cover."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        a, b = e["ts"], e["ts"] + e["dur"]
        kids = [(max(a, c["ts"]), min(b, c["ts"] + c["dur"])) for c in children.get(e["args"]["id"], [])]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[e["args"]["id"]] = (e, (e["dur"] - covered) / 1e6)
    return out


def per_layer(w, trace, ops):
    by_op = {}
    for e in trace["traceEvents"]:
        by_op.setdefault(e["args"]["op"], []).append(e)
    layer_times = {m: [] for m in set(LAYER_OF_SPAN.values())}
    counters = {m: 0 for m in list(COUNTER_OF_ARG.values()) + list(STATS_COUNTERS.values())}
    instance_s, unattributed, coverage, overhead, replay, derived_tables = [], [], [], [], [], []
    redundant_soc = redundant_profile = 0
    for k, op in enumerate(ops):
        st = self_times(by_op.get(k, []))
        root = next(e for e, _ in st.values() if e["name"] == "op")
        root_self = st[root["args"]["id"]][1]
        root_s = root["dur"] / 1e6
        unattributed.append(root_self)
        coverage.append(1.0 - root_self / root_s)
        replay_s = sum(e["dur"] for e, _ in st.values()
                       if e["args"].get("replay") and e["args"]["parent"] == root["args"]["id"]) / 1e6
        replay.append(replay_s)
        overhead.append(root_s - replay_s - op["wall"])
        per_op = {m: 0.0 for m in layer_times}
        for e, self_s in st.values():
            metric = LAYER_OF_SPAN.get(e["name"])
            if e["name"] in ("fleet.instance", "tdcsoc.plan"):
                instance_s.append(e["dur"] / 1e6)
            if metric:
                per_op[metric] += self_s
            if k < w.round:
                for arg, value in e["args"].items():
                    name = COUNTER_OF_ARG.get((e["name"], arg))
                    if name is None and e["name"] in ("tdcsoc.plan", "fleet.run"):
                        name = STATS_COUNTERS.get(arg)
                    if name:
                        counters[name] += value
                if e["name"] == "fleet.run":
                    redundant_soc += e["args"]["soc_cache_misses"] - e["args"]["distinct_socs"]
                    redundant_profile += e["args"]["profile_misses"] - e["args"]["profile_entries"]
        for m, v in per_op.items():
            layer_times[m].append(v)
        derived_tables.append(per_op["tdcsoc.plan_s"] - per_op["tam.search_s"])
    values = {m: statistics.median(v) for m, v in layer_times.items()}
    values.update(counters)
    lookups = sum(counters[f"tdcsoc.profile_cache.{k}"] for k in ("hits", "partial", "misses"))
    useful = counters["tdcsoc.profile_cache.hits"] + counters["tdcsoc.profile_cache.partial"]
    memo = counters["selenc.memo.hits"] + counters["selenc.memo.misses"]
    stopwatches = [op["stopwatch"] for op in ops if op["stopwatch"] is not None]
    inst_tail = tail(instance_s)
    values.update({
        "tdcsoc.tables_s": statistics.median(derived_tables),
        "tdcsoc.stopwatch_s": statistics.median(stopwatches) if stopwatches else 0.0,
        "tdcsoc.profile_cache.useful_ratio": useful / lookups if lookups else 0.0,
        "selenc.memo.hit_ratio": counters["selenc.memo.hits"] / memo if memo else 0.0,
        "fleet.instance_p50_s": statistics.median(instance_s),
        "fleet.instance_tail_s": inst_tail[0],
        "fleet.redundant_soc_builds": redundant_soc,
        "fleet.redundant_profile_builds": redundant_profile,
        "parpool.busy_ratio": statistics.median(op["cpu"] / (op["wall"] * WORKERS) for op in ops),
        "trace.unattributed_s": statistics.median(unattributed),
        "trace.coverage": statistics.median(coverage),
        "trace.overhead_s": statistics.median(overhead),
        "trace.replay_s": statistics.median(replay),
    })
    detail = {m: quartiles(v) for m, v in layer_times.items()}
    detail["fleet.instance_tail_percentile"] = inst_tail[1]
    detail["fleet.instances_beyond_tail"] = inst_tail[2]
    detail["trace.unattributed_s"] = quartiles(unattributed)
    return values, detail


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def host():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "workers": WORKERS,
            "rustc": out(["rustc", "--version"]), "commit": out(["git", "rev-parse", "HEAD"])}


def run_workload(name, seed, seconds, trace, tiny, bins):
    w = WORKLOADS[name](seed, tiny)
    wd = BENCH / "work" / f"{name}-seed{seed}-{os.getpid()}"
    r = Run(w, *bins, wd, seconds)
    try:
        setup_times = r.setup()
        reference = {}
        if w.warmup:
            key, path = w.warmup
            reference = {(key, name): text for name, text in read_tree(wd / path).items()}
        ops, phase_s = r.untraced()
        r.check(ops, reference)
        values, detail = end_to_end(w, setup_times, ops, phase_s, len(r.failed_ops))
        units = E2E_UNITS
        if trace:
            tr, trace_path = r.traced(ops)
            values, layer_detail = per_layer(w, tr, ops)
            detail.update(layer_detail, trace_file=str(trace_path), traced_plans_identical=r.identical)
            units = PER_LAYER_UNITS
        detail["inputs"] = w.inputs(wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    result = {
        "correct": not r.failures,
        "attempted": len(ops),
        "failed": len(r.failed_ops),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = dict(workload=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny,
                  host=host(), detail=detail, failures=r.failures, result=result)
    out = BENCH / "out" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for f in r.failures:
        log(f"FAIL {name}: {f}")
    return result, record


def row(name, result, detail):
    cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
    q = detail.get("op_s")
    spread = f" | op median {q[1]:.3f} s [q1 {q[0]:.3f}, q3 {q[2]:.3f}]" if q else ""
    return f"{name:<20} " + "  ".join(cells) + spread


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args()
    try:
        bins = build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, bins)
            results.append(result)
            log(row(name, result, record["detail"]))
            log(f"host: {json.dumps(record['host'])}")
            if args.workload == "all":
                print(row(name, result, record["detail"]), flush=True)
    except Failure as e:
        log(f"perfbench: {e}")
        return 2
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
