#!/usr/bin/env python3
"""The dqtools benchmark: three audit workloads driven through the shipped CLIs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/NOTES.md for why each exists and what it should
move):

    quis_1m_csv      dqaudit --threads N --report on a clean 1M-row QUIS CSV
    load_check_8k    dqaudit --load-model --threads 1 on 8,000-record
                     polluted batches, checked against a model persisted
                     from a 1M-row clean table
    oocore_1m_dqcol  dqaudit --memory-budget 16M on the 1M-row table in
                     dqcol format, spilling segments to disk

The script builds the CLIs and the in-process tracer (dqtrace) in its
own Release tree under .bench_build/, generates every input with dqgen from
seeds derived from --seed, and keeps every file it writes under a
per-invocation directory in .bench_build/runs/ that it deletes on exit.

--trace 0 runs the CLIs as child processes, one at a time, for --seconds
and prints the end-to-end metrics. --trace 1 runs the same CLI operations
for --seconds as the untraced reference, then the workload once more inside
dqtrace with the tracer on, and prints the per-layer account.

Every operation's output is checked; an operation that exits non-zero or
fails a check counts in "failed". The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Times in the end-to-end metrics are host-adjusted: a fixed probe
(dqcalib.cc) is timed between operations, and every time the run measured
is scaled by the probe's nominal time over its median time in that run
(HostClock). A shared host whose speed changes from run to run moves the
probe and the program alike, so the ratio cancels most of that change.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-release")
SPEC = os.path.join(ROOT, "tools", "testdata", "quis_full.spec")

WORKLOADS = ("quis_1m_csv", "load_check_8k", "oocore_1m_dqcol")
TABLE_ROWS = 1_000_000
BATCH_ROWS = 8_000
BATCHES = 100
# Batches every load_check_8k run checks, whatever the machine's speed: the
# detection metrics and the traced run cover exactly these.
FIXED_BATCHES = 20
# The load_check_8k model is induced from one fixed table. Over 19 table
# seeds the induced model held 6,020 to 10,021 rules, and the rule-scan
# check time grows with the rule count, so a seed-derived model would make
# batch latency vary by more than any bound. The workload seed varies the
# batches instead. 2003 is the QUIS seed used throughout the repository.
TRAIN_SEED = 2003
SETUP_REPEATS = 3
MIN_BIG_OPS = 3
MEMORY_BUDGET = "16M"
MEMORY_BUDGET_BYTES = 16 * 1024 * 1024
SAMPLE_ROWS = 200_000
PLANTED_MIN_CONF = 0.999
CHILD_TIMEOUT_S = 120
# Host calibration (HostClock). A slot runs dqcalib for CALIBRATION_PROBES
# probes, before each set-up and before an operation once
# CALIBRATION_EVERY_S has passed since the last slot. NOMINAL_PROBE_S is
# the probe's median on the baseline machine (NOTES.md), so adjusted times
# read as times on that machine.
CALIBRATION_PROBES = 3
CALIBRATION_EVERY_S = 1.0
NOMINAL_PROBE_S = 0.030


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def derive_seed(seed, *parts):
    """A dqgen seed that depends only on the workload seed and `parts`."""
    text = "/".join(str(p) for p in (seed,) + parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "little") % 2_000_000_000 + 1


def percentile(values, pct):
    """Inclusive-method percentile; exact for the median of any sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Build and child processes


def build():
    """Configures and builds the Release tree; returns the binary paths."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # A build tree configured from another checkout cannot be reused.
    if cache_value("CMAKE_HOME_DIRECTORY") not in (
            None, os.path.join(ROOT, "perfbench")):
        shutil.rmtree(BUILD_DIR)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "dqgen", "dqconvert", "dqaudit", "dqtrace", "dqcalib"],
    ]
    with open(build_log, "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log, "rb") as f:
                    log(f.read()[-4000:].decode(errors="replace"))
                raise SystemExit("benchmark build failed: " + " ".join(step))
    tools = os.path.join(BUILD_DIR, "dqtools", "tools")
    return {
        "dqgen": os.path.join(tools, "dqgen"),
        "dqconvert": os.path.join(tools, "dqconvert"),
        "dqaudit": os.path.join(tools, "dqaudit"),
        "dqtrace": os.path.join(BUILD_DIR, "dqtrace"),
        "dqcalib": os.path.join(BUILD_DIR, "dqcalib"),
    }


def cache_value(name):
    """A variable of the build tree's CMakeCache.txt, or None."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        pass
    return None


@dataclasses.dataclass
class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, workdir):
    """Runs argv to completion with its output in files (no pipe stalls).

    wait4 gives the child's own peak RSS; a timer kills a child that hangs.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, seconds, usage.ru_maxrss * 1024 / 1e6,
                 stdout, stderr)


def run_checked(argv, workdir):
    child = run_child(argv, workdir)
    if child.code != 0:
        raise CheckFailed(f"{os.path.basename(argv[0])} exited {child.code}: "
                          f"{child.stderr.strip()[-500:]}")
    return child


def search(pattern, text, what):
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        raise CheckFailed(f"no {what} line in output")
    return match


# ---------------------------------------------------------------------------
# Inputs


def gen_quis_table(ctx, path, seed):
    """dqgen --quis 1M rows; returns (child, planted deviation row)."""
    child = run_checked(
        [ctx.bin["dqgen"], "--quis", "--records", str(TABLE_ROWS),
         "--seed", str(seed), "--clean", path], ctx.work)
    planted = int(search(r"planted deviation at row (\d+)", child.stdout,
                         "planted-deviation").group(1))
    return child, planted


def gen_batches(ctx, seed):
    """BATCHES polluted batches with ground truth, one dqgen seed each."""
    batches = []
    clean = os.path.join(ctx.work, "batch-clean.csv")
    for i in range(BATCHES):
        data = os.path.join(ctx.work, f"batch-{i}.csv")
        truth_path = os.path.join(ctx.work, f"batch-{i}.truth.csv")
        run_checked(
            [ctx.bin["dqgen"], "--quis", "--records", str(BATCH_ROWS),
             "--seed", str(derive_seed(seed, "batch", i)), "--clean", clean,
             "--dirty", data, "--truth", truth_path, "--factor", "1.0"],
            ctx.work)
        with open(truth_path, newline="") as f:
            truth = [row["corrupted"] == "1" for row in csv.DictReader(f)]
        batches.append((data, truth))
    os.remove(clean)
    return batches


def read_report(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_ranked_report(report_rows, flagged_count, planted):
    """The planted sec. 6.2 deviation ranks #1 and the report is complete."""
    if len(report_rows) != flagged_count:
        raise CheckFailed(f"report has {len(report_rows)} rows, stdout says "
                          f"{flagged_count} suspicious")
    if not report_rows:
        raise CheckFailed("empty report")
    top = report_rows[0]
    if (int(top["row"]) != planted or top["attribute"] != "BRV" or
            top["observed"] != "404" or
            float(top["error_confidence"]) < PLANTED_MIN_CONF):
        raise CheckFailed(f"planted deviation (row {planted}, BRV=404) is "
                          f"not #1 with conf >= {PLANTED_MIN_CONF}: {top}")
    return sorted(int(r["row"]) for r in report_rows)


# ---------------------------------------------------------------------------
# Workloads. Each one has set_up() (repeated SETUP_REPEATS times when
# measuring set-up), op(i) (one measured operation, returns a Child and its
# flagged rows) and trace() (the same work inside dqtrace).


class Context:
    def __init__(self, args, binaries, work):
        self.args = args
        self.bin = binaries
        self.work = work
        self.threads = max(1, min(4, len(os.sched_getaffinity(0))))


def check_audit(child, report, planted):
    """Checks one whole-table audit and returns its flagged rows."""
    match = search(r"^(\d+) of (\d+) records suspicious", child.stdout,
                   "suspicious-count")
    if int(match.group(2)) != TABLE_ROWS:
        raise CheckFailed(f"audited {match.group(2)} records")
    return check_ranked_report(read_report(report), int(match.group(1)),
                               planted)


def check_traced_report(out, planted):
    with open(os.path.join(out, "flagged-0.txt")) as f:
        flagged_count = sum(1 for _ in f)
    check_ranked_report(read_report(os.path.join(out, "report.csv")),
                        flagged_count, planted)


class QuisCsv:
    """Classic in-memory audit of the clean 1M-row CSV, N threads."""

    min_ops = MIN_BIG_OPS

    def __init__(self, ctx):
        self.ctx = ctx
        self.data = os.path.join(ctx.work, "quis.csv")
        self.table_seed = derive_seed(ctx.args.seed, "table")
        self.planted = None
        self.digest = None

    def set_up(self):
        child, planted = gen_quis_table(self.ctx, self.data, self.table_seed)
        digest = file_sha256(self.data)
        if self.digest is not None and (digest, planted) != (self.digest,
                                                             self.planted):
            raise CheckFailed("dqgen output differs between set-up repeats")
        self.digest, self.planted = digest, planted
        return child.seconds

    def op(self, i):
        report = os.path.join(self.ctx.work, "report.csv")
        child = run_checked(
            [self.ctx.bin["dqaudit"], "--schema", SPEC, "--data", self.data,
             "--threads", str(self.ctx.threads), "--report", report,
             "--top", "1"], self.ctx.work)
        return child, {"all": check_audit(child, report, self.planted)}, \
            TABLE_ROWS

    def trace(self, out):
        run_checked([self.ctx.bin["dqtrace"], "classic", "--schema", SPEC,
                     "--data", self.data, "--threads", str(self.ctx.threads),
                     "--report", os.path.join(out, "report.csv"),
                     "--out", out], self.ctx.work)
        check_traced_report(out, self.planted)
        return {0: "all"}


class OocoreDqcol:
    """Streaming audit of the 1M-row table as dqcol under a 16M budget."""

    min_ops = MIN_BIG_OPS

    def __init__(self, ctx):
        self.ctx = ctx
        self.csv = os.path.join(ctx.work, "quis.csv")
        self.data = os.path.join(ctx.work, "quis.dqcol")
        self.table_seed = derive_seed(ctx.args.seed, "table")
        self.planted = None
        self.digest = None

    def set_up(self):
        if self.planted is None:
            _, self.planted = gen_quis_table(self.ctx, self.csv,
                                             self.table_seed)
        child = run_checked(
            [self.ctx.bin["dqconvert"], "--schema", SPEC, "--in", self.csv,
             "--out", self.data, "--threads", str(self.ctx.threads)],
            self.ctx.work)
        digest = file_sha256(self.data)
        if self.digest is not None and digest != self.digest:
            raise CheckFailed("dqconvert output differs between repeats")
        self.digest = digest
        return child.seconds

    def op(self, i):
        report = os.path.join(self.ctx.work, "report.csv")
        spill_dir = os.path.join(self.ctx.work, f"spill-{i}")
        child = run_checked(
            [self.ctx.bin["dqaudit"], "--schema", SPEC, "--data", self.data,
             "--memory-budget", MEMORY_BUDGET, "--sample-rows",
             str(SAMPLE_ROWS), "--threads", str(self.ctx.threads),
             "--spill-dir", spill_dir, "--report", report, "--top", "1"],
            self.ctx.work)
        spill_writes = search(r"segments sealed, (\d+) spill writes",
                              child.stdout, "memory-budget").group(1)
        if int(spill_writes) == 0:
            raise CheckFailed("the streaming audit did not spill")
        for leftover in (spill_dir, self.data + ".spill"):
            if os.path.exists(leftover):
                raise CheckFailed(f"spill directory left behind: {leftover}")
        return child, {"all": check_audit(child, report, self.planted)}, \
            TABLE_ROWS

    def trace(self, out):
        spill_dir = os.path.join(out, "spill")
        run_checked([self.ctx.bin["dqtrace"], "stream", "--schema", SPEC,
                     "--data", self.data, "--threads", str(self.ctx.threads),
                     "--memory-budget", str(MEMORY_BUDGET_BYTES),
                     "--sample-rows", str(SAMPLE_ROWS), "--spill-dir",
                     spill_dir, "--report", os.path.join(out, "report.csv"),
                     "--out", out], self.ctx.work)
        if os.path.exists(spill_dir):
            raise CheckFailed("traced streaming audit left its spill dir")
        check_traced_report(out, self.planted)
        return {0: "all"}


class LoadCheck:
    """Persisted-model checks of polluted 8k batches, one client, closed loop.

    `dqaudit --load-model` ignores --report (and --summary, --corrected), so
    the flagged rows come from the --top listing, whose length must equal
    the "N suspicious records" line.
    """

    min_ops = FIXED_BATCHES

    def __init__(self, ctx):
        self.ctx = ctx
        self.train = os.path.join(ctx.work, "quis.csv")
        self.model = os.path.join(ctx.work, "model.dqmodel")
        self.table_seed = TRAIN_SEED
        self.batches = None
        self.model_digest = None

    def set_up(self):
        if self.batches is None:
            gen_quis_table(self.ctx, self.train, self.table_seed)
            self.batches = gen_batches(self.ctx, self.ctx.args.seed)
        child = run_checked(
            [self.ctx.bin["dqaudit"], "--schema", SPEC, "--data", self.train,
             "--threads", str(self.ctx.threads), "--save-model", self.model,
             "--top", "0"], self.ctx.work)
        digest = file_sha256(self.model)
        if self.model_digest is not None and digest != self.model_digest:
            raise CheckFailed("persisted model differs between repeats")
        self.model_digest = digest
        return child.seconds

    def op(self, i):
        b = i % BATCHES
        data, truth = self.batches[b]
        child = run_checked(
            [self.ctx.bin["dqaudit"], "--schema", SPEC, "--data", data,
             "--load-model", self.model, "--threads", "1",
             "--top", str(10 * BATCH_ROWS)], self.ctx.work)
        loaded = int(search(r"^loaded (\d+) records", child.stdout,
                            "loaded-records").group(1))
        if loaded != len(truth):
            raise CheckFailed(f"batch {b}: loaded {loaded} records, truth "
                              f"has {len(truth)}")
        flagged_count = int(search(
            r"checked against \d+ persisted rules: (\d+) suspicious records",
            child.stdout, "suspicious-records").group(1))
        rows = [int(m) for m in re.findall(r"^  row\s+(\d+)\s+conf",
                                           child.stdout, re.MULTILINE)]
        if len(rows) != flagged_count or len(set(rows)) != len(rows):
            raise CheckFailed(f"batch {b}: {len(rows)} ranked rows, stdout "
                              f"says {flagged_count} suspicious")
        return child, {b: sorted(rows)}, loaded

    def detection(self, flagged):
        """Sensitivity and specificity over the FIXED_BATCHES batches."""
        tp = fn = fp = tn = 0
        for b in range(FIXED_BATCHES):
            hit = set(flagged.get(b, ()))
            for row, corrupted in enumerate(self.batches[b][1]):
                if corrupted:
                    tp, fn = (tp + 1, fn) if row in hit else (tp, fn + 1)
                else:
                    fp, tn = (fp + 1, tn) if row in hit else (fp, tn + 1)
        return tp / (tp + fn), tn / (tn + fp)

    def trace(self, out):
        model = os.path.join(out, "model.dqmodel")
        run_checked([self.ctx.bin["dqtrace"], "loadcheck", "--schema", SPEC,
                     "--train", self.train, "--threads", str(self.ctx.threads),
                     "--model", model, "--out", out] +
                    [self.batches[b][0] for b in range(FIXED_BATCHES)],
                    self.ctx.work)
        if file_sha256(model) != self.model_digest:
            raise CheckFailed("traced model differs from dqaudit --save-model")
        return {b: b for b in range(FIXED_BATCHES)}


# ---------------------------------------------------------------------------
# Measurement


class HostClock:
    """Tracks the host's speed with the fixed probe dqcalib.

    The probe runs while no operation is running, so it shares the host
    with the program but never competes with it. Its code is the
    benchmark's, not the program's, so a change to the program cannot move
    it; only the host can.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.probes = []
        self.spent = 0.0
        self.last = None

    def slot(self):
        start = time.perf_counter()
        child = run_child([self.ctx.bin["dqcalib"], str(CALIBRATION_PROBES)],
                          self.ctx.work)
        if child.code != 0:
            raise SystemExit(f"dqcalib exited {child.code}")
        self.probes += [float(line) for line in child.stdout.split()]
        self.last = time.perf_counter()
        self.spent += self.last - start

    def maybe_slot(self):
        if (self.last is None or
                time.perf_counter() - self.last >= CALIBRATION_EVERY_S):
            self.slot()

    def factor(self):
        """Nominal over measured probe time: < 1 on a slow host."""
        return NOMINAL_PROBE_S / statistics.median(self.probes)


class Loop:
    """Runs a workload's operations one at a time and checks each one."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.rss_mb = []
        self.records = 0
        self.flagged = {}
        self.elapsed = 0.0

    def run(self, seconds):
        start = time.perf_counter()
        spent = self.clock.spent
        i = 0
        while (time.perf_counter() - start < seconds or
               i < self.workload.min_ops):
            self.clock.maybe_slot()
            self.attempted += 1
            try:
                child, flagged, records = self.workload.op(i)
                for key, rows in flagged.items():
                    if self.flagged.setdefault(key, rows) != rows:
                        raise CheckFailed(f"flagged set of {key} changed "
                                          f"between repeats")
            except CheckFailed as e:
                self.failed += 1
                log(f"operation {i} failed: {e}")
            else:
                self.latencies.append(child.seconds * 1e3)
                self.rss_mb.append(child.rss_mb)
                self.records += records
            i += 1
        # Calibration time is not the program's.
        self.elapsed = (time.perf_counter() - start -
                        (self.clock.spent - spent))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, loop, setup_s):
    """The end-to-end metrics, times scaled by the run's host factor."""
    if not loop.latencies:
        raise CheckFailed("no operation succeeded")
    factor = loop.clock.factor()
    lat = sorted(ms * factor for ms in loop.latencies)
    median_ms = percentile(lat, 50)
    if isinstance(workload, LoadCheck):
        records_per_s = loop.records / (loop.elapsed * factor)
        sensitivity, specificity = workload.detection(loop.flagged)
    else:
        records_per_s = TABLE_ROWS / (median_ms / 1e3)
        # A clean table: the planted deviation is the only known error.
        found = workload.planted in loop.flagged["all"]
        others = len(loop.flagged["all"]) - found
        sensitivity = 1.0 if found else 0.0
        specificity = 1.0 - others / (TABLE_ROWS - 1)
    # Latency percentiles are logged, not reported: on load_check_8k they
    # moved by more than any bound between a calm and a busy host even
    # after adjustment (NOTES.md).
    log(f"{len(lat)} operations; host factor {factor:.4f} over "
        f"{len(loop.clock.probes)} probes (median "
        f"{statistics.median(loop.clock.probes) * 1e3:.1f} ms); adjusted "
        f"latency ms min {lat[0]:.1f} p50 {median_ms:.1f} p90 "
        f"{percentile(lat, 90):.1f} max {lat[-1]:.1f}; raw set-up s "
        f"{setup_s}")
    return {
        "records_per_s": metric(records_per_s, "records/s"),
        "peak_rss_mb": metric(statistics.median(loop.rss_mb), "MB"),
        "setup_s": metric(statistics.median(setup_s) * factor, "s"),
        "detect_sensitivity": metric(sensitivity, "ratio"),
        "detect_specificity": metric(specificity, "ratio"),
    }


# Which layer metric each span's self time is charged to. The library's
# spans are nested under the benchmark's "bench.*" spans; induce.encode
# wraps audit.encode over the same work, so charging self time counts
# encode once. A span missing here is left in obs.unattributed_ms.
SPAN_LAYERS = {
    "bench.read_table": "table.ingest_ms",
    "ingest": "table.ingest_ms",
    "induce.encode": "mining.encode_ms",
    "audit.encode": "mining.encode_ms",
    "c45.encode": "mining.encode_ms",
    "induce.attr": "mining.tree_build_ms",
    "c45.bin": "mining.tree_build_ms",
    "c45.presort": "mining.tree_build_ms",
    "c45.build": "mining.tree_build_ms",
    "bench.induce": "audit.induce_ms",
    "induce": "audit.induce_ms",
    "bench.audit": "audit.score_ms",
    "audit": "audit.score_ms",
    "audit.score": "audit.score_ms",
    "audit.rank": "audit.rank_ms",
    "bench.model_save": "audit.model_save_ms",
    "bench.model_load": "audit.model_load_ms",
    "bench.check": "audit.check_ms",
    "bench.stream": "audit.stream_ms",
    "bench.report_write": "eval.report_write_ms",
}
LAYER_TIMES = sorted(set(SPAN_LAYERS.values()))


def covered(interval, others):
    """Length of the part of `interval` that the union of `others` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others
                     if b > lo and a < hi)
    total, end = 0.0, lo
    for a, b in clipped:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(events):
    """Self time (ms) of every span: its duration minus what children cover.

    Worker-thread spans that the library does not stitch to a parent (the
    per-segment audits of the streaming path) are given the innermost
    main-thread span whose interval contains them: the span that was
    waiting for them.
    """
    spans = {e["args"]["span_id"]: e for e in events}
    root = next(e for e in events if e["name"] == "bench.run")
    main = [e for e in events if e["tid"] == root["tid"]]
    children = {sid: [] for sid in spans}
    for e in events:
        parent = e["args"]["parent_id"]
        if parent == 0 and e is not root:
            inside = [m for m in main if m["ts"] <= e["ts"] and
                      e["ts"] + e["dur"] <= m["ts"] + m["dur"]]
            parent = min(inside or [root],
                         key=lambda m: m["dur"])["args"]["span_id"]
        if parent != 0:
            children[parent].append(e)
    result = {}
    for sid, e in spans.items():
        kids = [(k["ts"], k["ts"] + k["dur"]) for k in children[sid]]
        result[sid] = (e["dur"] - covered((e["ts"], e["ts"] + e["dur"]),
                                          kids)) / 1e3
    return root, spans, result


def per_layer(workload, out, untraced_ms):
    with open(os.path.join(out, "trace.json")) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    with open(os.path.join(out, "metrics.json")) as f:
        registry = json.load(f)
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    counters, gauges = registry["counters"], registry["gauges"]

    root, spans, self_ms = self_times(events)
    layer = dict.fromkeys(LAYER_TIMES, 0.0)
    for sid, e in spans.items():
        if e["name"] in SPAN_LAYERS:
            layer[SPAN_LAYERS[e["name"]]] += self_ms[sid]
    metrics = {name: metric(ms, "ms") for name, ms in layer.items()}

    def rate(count, ms):
        return count / (ms / 1e3) if ms > 0 else 0.0

    spilled = counters.get("segstore.spill_bytes_written", 0)
    nodes_built = counters.get("c45.nodes_built", 0)
    traced_ms = statistics.median(summary["op_ms"])
    metrics.update({
        "table.ingest_mb_per_s": metric(
            rate(counters.get("ingest.bytes_read", 0) / 1e6,
                 layer["table.ingest_ms"]), "MB/s"),
        "table.segstore.spill_bytes_per_input_byte": metric(
            spilled / os.path.getsize(workload.data) if spilled else 0.0,
            "ratio"),
        "table.segstore.spill_writes": metric(
            counters.get("segstore.spill_writes", 0), "count"),
        "table.segstore.spill_reads": metric(
            counters.get("segstore.spill_reads", 0), "count"),
        "table.segstore.resident_peak_mb": metric(
            gauges.get("segstore.resident_bytes_peak", 0) / 1e6, "MB"),
        "mining.nodes_built": metric(nodes_built, "count"),
        "mining.tree_nodes_kept_ratio": metric(
            counters.get("c45.tree_nodes", 0) / nodes_built
            if nodes_built else 0.0, "ratio"),
        "audit.score_rows_models_per_s": metric(
            rate(summary["rows_models_scored"], layer["audit.score_ms"]),
            "row-models/s"),
        "audit.check_rows_per_s": metric(
            rate(summary["rows_checked"], layer["audit.check_ms"]),
            "rows/s"),
        "audit.rules_total": metric(summary["rules_total"], "count"),
        "audit.flagged": metric(summary["flagged_total"], "count"),
        "common.pools_created": metric(gauges.get("pool.pools_created", 0),
                                       "count"),
        "common.tasks_executed": metric(gauges.get("pool.tasks_executed", 0),
                                        "count"),
        "obs.unattributed_ms": metric(self_ms[root["args"]["span_id"]], "ms"),
        "obs.trace_overhead_pct": metric(
            (traced_ms - untraced_ms) / untraced_ms * 100.0, "%"),
    })
    return metrics


def make_workload(ctx):
    return {"quis_1m_csv": QuisCsv, "load_check_8k": LoadCheck,
            "oocore_1m_dqcol": OocoreDqcol}[ctx.args.workload](ctx)


def measure(ctx, workload):
    clock = HostClock(ctx)
    setup_s = []
    for _ in range(1 if ctx.args.trace else SETUP_REPEATS):
        clock.slot()
        setup_s.append(workload.set_up())
    loop = Loop(workload, clock)
    loop.run(ctx.args.seconds)
    if not ctx.args.trace:
        return loop, end_to_end(workload, loop, setup_s)

    out = os.path.join(ctx.work, "trace")
    os.makedirs(out)
    loop.attempted += 1
    try:
        # Each traced operation's flagged rows must equal the CLI's.
        for index, key in workload.trace(out).items():
            with open(os.path.join(out, f"flagged-{index}.txt")) as f:
                traced = [int(line) for line in f]
            if traced != loop.flagged.get(key):
                raise CheckFailed(f"traced flagged set of {key} differs from "
                                  f"dqaudit's")
    except CheckFailed as e:
        loop.failed += 1
        log(f"traced run failed: {e}")
        return loop, {}
    return loop, per_layer(workload, out, statistics.median(loop.latencies))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binaries = build()
    kernel = subprocess.run([binaries["dqtrace"], "kernel"], check=True,
                            capture_output=True, text=True).stdout.strip()
    runs = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs, exist_ok=True)
    work = os.path.join(runs, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ctx = Context(args, binaries, work)
        workload = make_workload(ctx)
        print("manifest " + json.dumps({
            "workload": args.workload, "seed": args.seed,
            "table_seed": workload.table_seed,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "nproc": len(os.sched_getaffinity(0)), "threads": ctx.threads,
            "csv_scan_kernel": kernel, "trace": args.trace}))
        try:
            loop, metrics = measure(ctx, workload)
        except CheckFailed as e:
            raise SystemExit(f"set-up failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": loop.failed == 0 and bool(metrics),
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
