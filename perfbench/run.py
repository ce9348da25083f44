#!/usr/bin/env python3
"""End-to-end benchmark of the simulated scheduler and the host simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is phi_gang, spawn_churn, cluster_storm, or all (the three in turn).

Builds perfbench/ (the scheduler library from src/ plus one binary)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, generates the
workload's inputs from the seed, runs the workload in one process on one
host thread, checks its correctness gates, prints a report and, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in GATED, --trace 1 the
per-layer metrics (and writes the recorded spans under the build
directory).  The report above that line prints every end-to-end metric in
END_TO_END with its unit and sample count.  It exits 1, after printing,
when a correctness gate failed, a repeat was not bit-identical, or the
check input moved no simulated metric.

Two kinds of number are reported side by side.  Simulated ("exact")
metrics are deterministic for a given input: the perfbench binary repeats
every unit and fails if a repeat differs by a single bit, and runs an input
from a derived seed to check that the metrics depend on the input at all.
Host ("noisy") metrics are wall-clock medians over the repeats.

Why each workload and metric exists, and which end-to-end metric each
per-layer metric should move on which workload, is recorded in WORKLOADS,
END_TO_END and PER_LAYER below and printed with every report.
"""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    "phi_gang": {
        "loads": ["sim", "nautilus", "rt", "group", "bsp"],
        "bypasses": ["global", "telemetry", "audit", "resilience", "cluster"],
        "shape": "6 rounds per input.  Each round builds a fresh "
                 "MachineSpec::phi() System (256 CPUs, observers off) and "
                 "runs bsp::run_bsp (kGroupRt, P=255) coarse (NE=4096, N=60, "
                 "1 ms period) and fine (NE=512, N=400, 0.5 ms period), each "
                 "with and without barriers, slices 80-90% of the period.  "
                 "Building the System every round, as every figure sweep "
                 "does, puts the telemetry-off recorder allocation into "
                 "setup_s and peak_rss_mb.  Admission runs once per BSP run; "
                 "placement is off the path (probed in the traced run).",
    },
    "spawn_churn": {
        "loads": ["rt", "global", "group", "sim", "nautilus"],
        "bypasses": ["bsp", "telemetry", "resilience", "cluster"],
        "shape": "16 request streams per input, each on a fresh "
                 "phi_small(64) System.  Open loop in simulated time: one "
                 "request every 400 us simulated (2500 requests/s), issued "
                 "when due whatever the previous outcome, so generator "
                 "lateness is zero by construction.  Mix by request: 3/7 "
                 "spawn_auto, 1/7 spawn_batch (1-16 threads), 1/7 "
                 "place-then-spawn (GlobalScheduler::place, then "
                 "System::spawn of a thread that requests its constraints "
                 "itself), 1/7 spawn_split, 1/7 spawn_group_auto (2 or 8 "
                 "threads).  Threads: one rt::generate_taskset task with "
                 "TaskSetParams' defaults (UUniFast n=4 over U=0.5, periods "
                 "100 us-10 ms); split threads: one of ablate_placement's "
                 "heavy tasks (n=9 over U=4.5-6.5, periods 500 us-4 ms); "
                 "phase 1 ms; lives of 5-24 periods.  Sources and "
                 "assumptions: CHURN_* in run.py.  2500 requests per "
                 "stream: 500 warm-up, 2000 timed, then a 150 ms drain.",
    },
    "cluster_storm": {
        "loads": ["cluster", "telemetry", "audit", "resilience", "rt",
                  "global", "group", "sim", "nautilus"],
        "bypasses": ["bsp"],
        "shape": "8 scenarios per input, each a ClusterController over 4 "
                 "phi_small(16) nodes with node telemetry, node audit "
                 "(accumulate), resilience, controller audit and telemetry "
                 "on; 500 us control period, 100 ms horizon.  Three tenants "
                 "run gang, pipeline, batch and best-effort jobs, two of "
                 "them submitted late.  Node 0 takes an SMI storm (35 us "
                 "freezes every 97 us over 20-60 ms); the busiest of nodes "
                 "1-2 crashes mid-control-period near 40 ms and is restored "
                 "at 70 ms; node 3's trace is replayed by the EDF oracle.  "
                 "Then hrt-metrics-v1 and Chrome exports are written and "
                 "parsed back.",
    },
}

ALL = list(WORKLOADS)

# (name, unit, kind, better, workloads it applies to, definition and base)
# kind: "host" = wall clock on the measuring machine (noisy); "sim" =
# simulated, bit-identical for a given input.
END_TO_END = [
    ("setup_s", "s", "host", "lower", ALL,
     "median over the run of System / ClusterController construct + boot"),
    ("sim_ms_per_wall_s", "sim-ms/s", "host", "higher", ALL,
     "simulated ms per host second of the timed phase, set-up excluded "
     "(cluster time on cluster_storm); per unit the median host time"),
    ("peak_rss_mb", "MiB", "host", "lower", ALL,
     "peak resident set of the workload process"),
    ("host_ns_per_event", "ns", "host", "lower", ALL,
     "host ns of the timed phase per simulated engine event"),
    ("spawn_p50_us", "us", "host", "lower", ["spawn_churn"],
     "host latency of each synchronous-admission call (spawn_batch, "
     "spawn_split) after warm-up"),
    ("spawn_p99_us", "us", "host", "lower", ["spawn_churn"],
     "p99 of the same samples"),
    ("admit_ratio", "ratio", "sim", "higher", ALL,
     "admitted / requested RT threads (phi_gang: BSP group members; "
     "cluster_storm: threads of RT jobs, a pipeline not running counting "
     "one)"),
    ("miss_rate", "ratio", "sim", "lower", ALL,
     "(misses + overdue open arrivals) / arrivals of admitted RT threads "
     "(cluster_storm: the jobs' current placements)"),
    ("sched_overhead_frac", "ratio", "sim", "lower", ALL,
     "simulated CPU time in irq + pass + switch + other / simulated CPU "
     "time, from CpuExecutor::overheads() (the paper's Fig. 5 split)"),
    ("sched_pass_ns", "sim-ns", "sim", "lower", ALL,
     "mean simulated scheduler pass cost per invocation (Fig. 5)"),
    ("bsp_makespan_ms", "sim-ms", "sim", "lower", ["phi_gang"],
     "BSP makespans summed over rounds x grain x barrier mode"),
    ("availability", "ratio", "sim", "higher", ["cluster_storm"],
     "delivered / expected RT job time (ClusterController stats)"),
    ("failover_ms", "sim-ms", "sim", "lower", ["cluster_storm"],
     "max simulated time from node crash to job running again"),
    ("error_frac", "ratio", "sim", "lower", ALL,
     "failed / attempted operations.  Operations: spawn requests, BSP runs, "
     "cluster jobs and correctness gates.  Failures: exceptions, failed "
     "gates (audit violations, replay divergences, BSP runs not done or "
     "not admitted or barrier-free with skew > 1, exports that do not "
     "parse), jobs ended failed or lost, and operations with an overdue "
     "open arrival"),
]

# The metrics on the last line with --trace 0, which regression checks
# compare between commits (bounds in BENCHMARK.json).  Each must exist on
# every workload, never read 0, and hold its bound across seeds and runs.
# On the 4-core VM this benchmark was tuned on, host wall-clock rates moved
# 20-50% between runs of one input, and spawn_churn's simulated admission
# and overhead shares move by up to 2x between seeds (stuck RT threads and
# group-admission convoys), so those are printed above but not gated.  The
# mean simulated irq and switch costs (nautilus.irq_ns_mean,
# nautilus.switch_ns_mean) are not gated either: they are the machine
# spec's jittered constants, which no scheduler code can move.
GATED = ["setup_s", "peak_rss_mb", "sched_pass_ns"]

# (name, unit, kind, better, end-to-end metric and workload it should
# move, base)
PER_LAYER = [
    ("rt.system_ctor_ms", "ms", "host", "lower",
     "setup_s on phi_gang, cluster_storm",
     "System constructor; cluster_storm times one stand-alone node of the "
     "template"),
    ("rt.system_boot_ms", "ms", "host", "lower",
     "setup_s on phi_gang, cluster_storm",
     "System::boot"),
    ("sim.events", "count", "sim", "lower",
     "sim_ms_per_wall_s on phi_gang",
     "engine events, summed over units"),
    ("sim.host_ns_per_event", "ns", "host", "lower",
     "sim_ms_per_wall_s on phi_gang",
     "timed-phase host ns / engine events in it"),
    ("nautilus.passes", "count", "sim", "lower",
     "sched_overhead_frac on all; bsp_makespan_ms on phi_gang",
     ""),
    ("nautilus.switches", "count", "sim", "lower",
     "sched_overhead_frac on all; bsp_makespan_ms on phi_gang",
     ""),
    ("nautilus.irq_ns_mean", "sim-ns", "sim", "lower",
     "sched_overhead_frac on all",
     "simulated irq ns / irq count"),
    ("nautilus.pass_ns_mean", "sim-ns", "sim", "lower",
     "sched_overhead_frac on all; bsp_makespan_ms on phi_gang",
     "simulated pass ns / pass count"),
    ("nautilus.switch_ns_mean", "sim-ns", "sim", "lower",
     "sched_overhead_frac on all",
     "simulated switch ns / switch count"),
    ("rt.timer_passes", "count", "sim", "lower",
     "sim_ms_per_wall_s, miss_rate, error_frac on spawn_churn",
     ""),
    ("rt.kick_passes", "count", "sim", "lower",
     "sim_ms_per_wall_s, miss_rate, error_frac on spawn_churn",
     ""),
    ("rt.zero_delay_arms", "count", "sim", "lower",
     "sim_ms_per_wall_s, miss_rate, error_frac on spawn_churn",
     ""),
    ("rt.overdue_arrivals", "count", "sim", "lower",
     "miss_rate, error_frac on spawn_churn",
     "admitted RT threads whose open arrival's deadline is > 2 periods past"),
    ("rt.admissions_ok", "count", "sim", "higher",
     "admit_ratio on spawn_churn",
     ""),
    ("rt.admissions_rejected", "count", "sim", "lower",
     "admit_ratio on spawn_churn",
     ""),
    ("rt.fast_hit_ratio", "ratio", "sim", "higher",
     "spawn_p50_us, admit_ratio on spawn_churn",
     "fast_admits / (fast_admits + fast_fallbacks)"),
    ("rt.batch_reserves", "count", "sim", "lower",
     "spawn_p50_us on spawn_churn",
     ""),
    ("global.place_host_ns_p50", "ns", "host", "lower",
     "admit_ratio, spawn_p99_us on spawn_churn",
     "GlobalScheduler::place on the place-then-spawn path; phi_gang and "
     "cluster_storm probe the placement decision in the traced run"),
    ("global.place_host_ns_p99", "ns", "host", "lower",
     "admit_ratio, spawn_p99_us on spawn_churn",
     "p99 of the same samples"),
    ("global.fallback_placements", "count", "sim", "lower",
     "admit_ratio on spawn_churn",
     ""),
    ("global.admit_give_ups", "count", "sim", "lower",
     "admit_ratio on spawn_churn",
     ""),
    ("global.split_plans", "count", "sim", "lower",
     "admit_ratio on spawn_churn",
     ""),
    ("global.rebalance_moves", "count", "sim", "lower",
     "admit_ratio, spawn_p99_us on spawn_churn",
     "rebalancer migrations proposed + aperiodic relocations"),
    ("global.make_room_ratio", "ratio", "sim", "higher",
     "admit_ratio on spawn_churn",
     "make-room migrations / make-room calls"),
    ("group.barrier_rounds", "count", "sim", "lower",
     "bsp_makespan_ms on phi_gang",
     ""),
    ("group.admit_ratio", "ratio", "sim", "higher",
     "bsp_makespan_ms on phi_gang",
     "groups admitted / groups requested; cluster_storm: gang jobs ever "
     "placed / gang jobs"),
    ("bsp.max_write_skew", "count", "sim", "lower",
     "error_frac on phi_gang",
     "barrier-free runs"),
    ("hw.smi_stolen_frac", "ratio", "sim", "lower",
     "miss_rate on cluster_storm",
     "input property that must not move: SMI-stolen ns / simulated ns; "
     "cluster_storm: the stormed node"),
    ("resilience.storms_entered", "count", "sim", "lower",
     "miss_rate, availability on cluster_storm",
     ""),
    ("resilience.sheds", "count", "sim", "lower",
     "miss_rate, availability on cluster_storm",
     ""),
    ("resilience.restores", "count", "sim", "higher",
     "miss_rate, availability on cluster_storm",
     ""),
    ("resilience.estimate_ratio", "ratio", "sim", "higher",
     "miss_rate, availability on cluster_storm",
     "estimated / ground-truth stolen ns, summed over CPUs"),
    ("telemetry.records_written", "count", "sim", "lower",
     "sim_ms_per_wall_s on cluster_storm",
     ""),
    ("telemetry.records_dropped", "count", "sim", "lower",
     "sim_ms_per_wall_s on cluster_storm",
     ""),
    ("telemetry.export_host_ms", "ms", "host", "lower",
     "sim_ms_per_wall_s on cluster_storm; setup_s, peak_rss_mb on phi_gang "
     "(telemetry off there, so it should read almost no work)",
     "hrt-metrics-v1 + Chrome export and parse-back, per unit"),
    ("audit.violations", "count", "sim", "lower",
     "error_frac on all",
     ""),
    ("audit.replayed_cpus", "count", "sim", "higher",
     "error_frac on cluster_storm",
     "sampled-node CPUs the replay oracle checked"),
    ("audit.replay_divergences_outside_model", "count", "sim", "lower",
     "error_frac on cluster_storm",
     "divergences on CPUs where a thread requested admission while replayed "
     "tasks were releasing; the oracle does not model that path, so these "
     "fail no gate"),
    ("cluster.ticks", "count", "sim", "lower",
     "sim_ms_per_wall_s, failover_ms on cluster_storm",
     ""),
    ("cluster.placements", "count", "sim", "higher",
     "sim_ms_per_wall_s, failover_ms on cluster_storm",
     ""),
    ("cluster.replacements", "count", "sim", "lower",
     "sim_ms_per_wall_s, failover_ms on cluster_storm",
     ""),
    ("cluster.failed_placements", "count", "sim", "lower",
     "sim_ms_per_wall_s, failover_ms on cluster_storm",
     ""),
    ("rt.host_self_frac", "ratio", "host", "lower",
     "setup_s, spawn_p50_us",
     "share of traced host time in System calls (construct, boot, spawn*)"),
    ("global.host_self_frac", "ratio", "host", "lower",
     "spawn_p99_us on spawn_churn",
     "share of traced host time in placement calls"),
    ("sim.host_self_frac", "ratio", "host", "lower",
     "sim_ms_per_wall_s on all",
     "share of traced host time advancing engines"),
    ("bsp.host_self_frac", "ratio", "host", "lower",
     "sim_ms_per_wall_s on phi_gang",
     "share of traced host time in bsp::run_bsp"),
    ("cluster.host_self_frac", "ratio", "host", "lower",
     "sim_ms_per_wall_s on cluster_storm",
     "share of traced host time in the controller's construction, ticks and "
     "teardown"),
    ("telemetry.host_self_frac", "ratio", "host", "lower",
     "sim_ms_per_wall_s on cluster_storm",
     "share in telemetry exports"),
    ("audit.host_self_frac", "ratio", "host", "lower",
     "error_frac on cluster_storm",
     "share in the replay oracle"),
    ("bench.host_self_frac", "ratio", "host", "lower",
     "none: benchmark bookkeeping",
     "share in the benchmark's own code"),
    ("bench.tracing_overhead_frac", "ratio", "host", "lower",
     "none: the cost of tracing",
     "1 - traced / untraced sim_ms_per_wall_s, alternating passes in one "
     "process"),
]

# Printed by the traced run where they apply; not in the per-layer list
# on the result line, because they have no value on the other workloads.
REPORT_ONLY = [
    ("cluster.host_us_per_tick", "us", "cluster_storm",
     "ClusterController::run_for over one control period after the "
     "benchmark advanced the nodes to the boundary"),
    ("cluster.detect_us", "sim-us", "cluster_storm",
     "max simulated crash-to-detection latency"),
    ("audit.replay_host_ms", "ms", "cluster_storm",
     "replay_edf over the sampled node's CPUs, per unit"),
]


# ---------------------------------------------------------------------------
# Inputs, generated from the seed.  Only the generated files reach the
# perfbench binary.

def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def gen_phi_gang(rng, units=6):
    lines = [
        "bsp_threads 255",
        # NE NC NW N period_ns: the figure 13-16 coarse and fine presets at
        # their --full iteration counts.
        "coarse 4096 8 16 60 1000000",
        "fine 512 8 16 400 500000",
    ]
    for _ in range(units):
        # A fresh System per round; the slice share (of the period) of its
        # four BSP runs: coarse with and without barrier, then fine.
        pcts = " ".join(str(rng.randint(80, 90)) for _ in range(4))
        lines += ["unit", f"round {rng.randrange(1, 2**31)} {pcts}"]
    return lines


# spawn_churn's traffic.  Every weight and range names its source; the two
# without one are marked as assumptions.
#
# Open-loop spacing (400 us simulated) and lives (5-24 periods): the
# sizing probe of the issue that defined this benchmark (phi_small(64),
# 3/4 spawn_auto and 1/4 spawn_batch of 8).
CHURN_SPACING_NS = 400_000
CHURN_LIFE_PERIODS = (5, 24)
# Request mix by weight.  spawn_auto 3 : spawn_batch 1 is the probe's ratio.
# Place-then-spawn, spawn_split and spawn_group_auto, which the issue adds
# without a share, weigh as much as spawn_batch each: an assumption, with no
# source in the repository.
CHURN_MIX = {"auto": 3, "batch": 1, "place": 1, "split": 1, "group": 1}
# spawn_batch sizes 1-16 (the issue's workload table), drawn uniformly (an
# assumption).  spawn_group_auto sizes 2 or 8: the smallest group sizes of
# bench/fig10_group_admission.cpp, and bench/fig11_group_sync8.cpp's 8.
CHURN_BATCH_SIZES = (1, 16)
CHURN_GROUP_SIZES = (2, 8)
# Constraints of every thread but a split one: one task of
# rt::generate_taskset with rt::TaskSetParams' defaults
# (src/rt/taskset_gen.hpp), the generator of the admission-accuracy
# benchmark and the property tests: UUniFast n=4 over U=0.5, periods
# log-uniform 100 us-10 ms rounded down to 100 us, slices >= 1 us.
CHURN_TASK = dict(n=4, totals=(0.5,), min_period=100_000,
                  max_period=10_000_000, granule=100_000, min_slice=1_000)
# A spawn_split thread: one task of bench/ablate_placement.cpp's heavy task
# sets (n=9 over U in {4.5, 5.5, 6.5}, periods 500 us-4 ms rounded down to
# 100 us, slices >= 10 us), whose utilizations routinely exceed what one
# CPU can admit.
CHURN_SPLIT_TASK = dict(n=9, totals=(4.5, 5.5, 6.5), min_period=500_000,
                        max_period=4_000_000, granule=100_000,
                        min_slice=10_000)
# Every request's phase is 1 ms, the common spawn phase of
# ablate_placement's task sets and of the miss-rate figure sweeps.
CHURN_PHASE_NS = 1_000_000


def taskset_task(rng, p):
    """(period, slice) of the first task of rt::generate_taskset
    (src/rt/taskset_gen.cpp) for the parameters in `p`: a UUniFast share of
    the total, a log-uniform period rounded down to the granule, the slice
    floored at min_slice and capped at the period."""
    total = rng.choice(p["totals"])
    util = total * (1.0 - rng.random() ** (1.0 / (p["n"] - 1)))
    period = int(log_uniform(rng, p["min_period"], p["max_period"]))
    period = max(p["granule"], period // p["granule"] * p["granule"])
    slice_ns = min(period, max(p["min_slice"], int(period * util)))
    return period, slice_ns


def gen_spawn_churn(rng, units=16):
    lines = [
        "cpus 64",
        f"spacing_ns {CHURN_SPACING_NS}",
        "warmup_requests 500",
        "drain_ns 150000000",
    ]
    kinds = [k for k, w in CHURN_MIX.items() for _ in range(w)]
    for _ in range(units):
        lines += ["unit", f"machine_seed {rng.randrange(1, 2**31)}"]
        for _ in range(2500):
            kind = rng.choice(kinds)
            n = 1
            if kind == "batch":
                n = rng.randint(*CHURN_BATCH_SIZES)
            elif kind == "group":
                n = rng.choice(CHURN_GROUP_SIZES)
            period, slice_ns = taskset_task(
                rng, CHURN_SPLIT_TASK if kind == "split" else CHURN_TASK)
            life = rng.randint(*CHURN_LIFE_PERIODS)
            lines.append(f"req {kind} {n} {CHURN_PHASE_NS} {period} "
                         f"{slice_ns} {life}")
    return lines


def gen_cluster_storm(rng, units=8):
    ms = 1_000_000
    us = 1_000
    lines = [
        "nodes 4",
        "cpus 16",
        f"control_period_ns {500 * us}",
        f"horizon_ns {100 * ms}",
        # Forced 35 us freezes: up to three fit a slice, as in
        # bench/ablate_smi_resilience.
        f"budget_slop_ns {120 * us}",
        f"storm 0 {20 * ms} {60 * ms} {97 * us} {35 * us}",
        "sample_node 3",
        "tenant ctrl 2.0 10",
        "tenant web 1.0 50",
        "tenant analytics 1.0 200",
    ]
    for _ in range(units):
        lines += [
            "unit",
            f"machine_seed {rng.randrange(1, 2**31)}",
            f"crash {40 * ms + 250 * us + rng.randrange(0, 200) * us} "
            f"{70 * ms}",
        ]
        # tenant name kind threads phase period slice work_chunk submit_at
        jobs = []
        for i in range(4):
            jobs.append(("ctrl", f"gang{i}", "gang", rng.randint(2, 4), ms,
                         ms, rng.randint(100, 300) * us, 200 * us, 0))
        for i in range(3):
            period = rng.choice([500, 1000, 2000]) * us
            util = rng.uniform(0.05, 0.2)
            jobs.append(("web", f"batch{i}", "batch", rng.randint(2, 6), ms,
                         period, int(period * util), 200 * us, 0))
        for i in range(2):
            jobs.append(("web", f"pipe{i}", "pipeline", 1, ms, ms,
                         int(ms * rng.uniform(0.5, 1.0)), 200 * us, 0))
        for i in range(3):
            jobs.append(("analytics", f"be{i}", "best_effort",
                         rng.randint(2, 4), 0, 0, 0, 200 * us, 0))
        # Late arrivals: one during the storm, one after the crash.
        jobs.append(("web", "late_gang", "gang", 2, ms, ms,
                     rng.randint(100, 250) * us, 200 * us, 30 * ms))
        jobs.append(("web", "late_batch", "batch", rng.randint(2, 4), ms, ms,
                     rng.randint(50, 150) * us, 200 * us, 50 * ms))
        lines += ["job " + " ".join(str(x) for x in j) for j in jobs]
    return lines


GENERATORS = {
    "phi_gang": gen_phi_gang,
    "spawn_churn": gen_spawn_churn,
    "cluster_storm": gen_cluster_storm,
}


# ---------------------------------------------------------------------------

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures and builds perfbench/ under build_root; returns the
    binary's path."""
    bdir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    log = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    with open(log, "w") as f:
        for cmd in (["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", bdir, "-j", jobs]):
            r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail(f"build failed ({' '.join(cmd)}); see {log}")
    return os.path.join(bdir, "perfbench")


def source_sha(root):
    """Content hash of src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if os.environ.get("HRT_GIT_SHA"):
        return os.environ["HRT_GIT_SHA"]
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def write_input(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def end_to_end_values(rep):
    ex, host = rep["exact"], rep["host"]
    return {
        "setup_s": host["setup_s"]["p50"],
        "sim_ms_per_wall_s": host["sim_ms_per_wall_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "host_ns_per_event": host["host_ns_per_event"],
        "spawn_p50_us": host["spawn_us"]["p50"],
        "spawn_p99_us": host["spawn_us"]["p99"],
        "admit_ratio": ex["admit_ratio"],
        "miss_rate": ex["miss_rate"],
        "sched_overhead_frac": ex["sched_overhead_frac"],
        "sched_pass_ns": ex["nautilus.pass_ns_mean"],
        "bsp_makespan_ms": ex["bsp_makespan_ms"],
        "availability": ex["availability"],
        "failover_ms": ex["failover_ms"],
        "error_frac": rep["failed"] / max(rep["attempted"], 1),
    }


def samples(name, rep):
    """Sample count behind an end-to-end value."""
    host = rep["host"]
    if name == "setup_s":
        return host["setup_s"]["n"]
    if name.startswith("spawn_"):
        return host["spawn_us"]["n"]
    if name in ("sim_ms_per_wall_s", "host_ns_per_event"):
        return rep["executions"]
    if name == "error_frac":
        return rep["attempted"]
    return 1


def layer_values(rep):
    ex, host = rep["exact"], rep["host"]
    vals = {name: ex.get(name, 0.0)
            for name, _, kind, _, _, _ in PER_LAYER if kind == "sim"}
    vals["rt.system_ctor_ms"] = host["system_ctor_ms"]["p50"]
    vals["rt.system_boot_ms"] = host["system_boot_ms"]["p50"]
    vals["sim.host_ns_per_event"] = host["host_ns_per_event"]
    vals["global.place_host_ns_p50"] = host["place_ns"]["p50"]
    vals["global.place_host_ns_p99"] = host["place_ns"]["p99"]
    vals["telemetry.export_host_ms"] = host["telemetry_export_ms"]["p50"]
    for layer in ("rt", "global", "sim", "bsp", "cluster", "telemetry",
                  "audit", "bench"):
        vals[f"{layer}.host_self_frac"] = host["self_time_frac"].get(layer,
                                                                     0.0)
    untraced = host["sim_ms_per_wall_s"]
    vals["bench.tracing_overhead_frac"] = (
        1.0 - host["traced_sim_ms_per_wall_s"] / untraced if untraced else 0.0)
    return vals


def print_report(workload, seed, rep, e2e, layers, env):
    w = WORKLOADS[workload]
    print(f"== perfbench {workload} seed={seed} "
          f"trace={1 if layers else 0}")
    print(f"workload: {w['shape']}")
    print(f"loads: {', '.join(w['loads'])}; bypasses: "
          f"{', '.join(w['bypasses'])}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"units {rep['units']}; executions {rep['executions']} untraced, "
          f"{rep['traced_executions']} traced; operations attempted "
          f"{rep['attempted']}, failed {rep['failed']}")
    if workload == "spawn_churn":
        print(f"open loop: {rep['requests']} requests issued when due; "
              f"generator lateness {rep['generator_lateness_ns']:.0f} ns "
              f"(simulated)")
    print("end-to-end metrics (exact = simulated, bit-identical per input; "
          "noisy = host wall clock; * = gated):")
    for name, unit, kind, better, applies, base in END_TO_END:
        if workload not in applies:
            print(f"   {name:20s} n/a on this workload")
            continue
        mark = "*" if name in GATED else " "
        print(f" {mark} {name:20s} {e2e[name]:14.6g} {unit:8s} "
              f"{'exact' if kind == 'sim' else 'noisy'} "
              f"n={samples(name, rep)}  ({better} is better; {base})")
    s = rep["host"]["spawn_us"]
    if workload == "spawn_churn":
        print(f"   spawn latency tail: {s['tail']} = {s['tail_value']:.6g} us "
              f"(n={s['n']})")
    if layers:
        print("per-layer metrics (traced run; -> the end-to-end metric and "
              "workload it should move):")
        for name, unit, kind, _, moves, _ in PER_LAYER:
            print(f"   {name:40s} {layers[name]:14.6g} {unit:6s} "
                  f"{'exact' if kind == 'sim' else 'noisy'} -> {moves}")
        host = rep["host"]
        only = {"cluster.host_us_per_tick": host["cluster_tick_us"],
                "audit.replay_host_ms": host["audit_replay_ms"]}
        for name, unit, applies, _ in REPORT_ONLY:
            if workload != applies:
                print(f"   {name:40s} n/a on this workload")
            elif name in only:
                v = only[name]
                print(f"   {name:40s} {v['p50']:14.6g} {unit:6s} noisy "
                      f"n={v['n']}, {v['tail']} {v['tail_value']:.6g}")
            else:
                print(f"   {name:40s} {rep['exact'][name]:14.6g} {unit:6s} "
                      f"exact")
        print(f"   tracing overhead: sim_ms_per_wall_s untraced "
              f"{host['sim_ms_per_wall_s']:.6g}, traced "
              f"{host['traced_sim_ms_per_wall_s']:.6g}")
    if rep["overdue_threads"]:
        print(f"overdue RT threads ({len(rep['overdue_threads'])}):")
        for t in rep["overdue_threads"][: None if layers else 5]:
            print(f"   {t}")
    outside = rep["exact"].get("audit.replay_divergences_outside_model", 0)
    if outside:
        print(f"replay divergences outside the oracle's model: {outside:.0f}")
    for e in rep["errors"]:
        print(f"failed operation: {e}")
    for g in rep["gate_failures"]:
        print(f"GATE FAILED: {g}")
    if rep["nondeterministic"]:
        print(f"DETERMINISM FAILED: {rep['nondeterministic']}")
    if rep["moved_by_check_input"] == 0:
        print("SEED CHECK FAILED: the check input moved no simulated metric")


def run_workload(workload, args, binary, root, run_dir):
    """Runs one workload, prints its report and returns its result line."""
    tag = f"{workload}-{args.seed}-{args.trace}"
    gen = GENERATORS[workload]
    main_in = os.path.join(run_dir, f"{tag}.in")
    check_in = os.path.join(run_dir, f"{tag}.check.in")
    write_input(main_in, gen(random.Random(args.seed)))
    # Only the check input's first unit runs; it shares no draws with the
    # main input.
    write_input(check_in, gen(random.Random(args.seed * 7919 + 17), units=1))

    env = dict(os.environ)
    env["HRT_GIT_SHA"] = git_sha(root)
    cmd = [binary, "--workload", workload, "--input", main_in,
           "--check-input", check_in, "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans", os.path.join(run_dir, f"{tag}.spans.jsonl")]
    # The binary measures for --seconds, then finishes its minimum number of
    # executions and the check input; both take well under two minutes.
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        fail(f"workload exited with {r.returncode}")
    rep = json.loads(r.stdout.strip().splitlines()[-1])

    stamp = dict(rep["env"], source_sha=source_sha(root))
    e2e = end_to_end_values(rep)
    layers = layer_values(rep) if args.trace else {}
    print_report(workload, args.seed, rep, e2e, layers, stamp)

    correct = (not rep["gate_failures"] and not rep["nondeterministic"]
               and rep["moved_by_check_input"] > 0)
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _, _, _ in PER_LAYER}
    else:
        units = {m[0]: m[1] for m in END_TO_END}
        metrics = {name: {"value": e2e[name], "unit": units[name]}
                   for name in GATED}
    return {"correct": correct, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    run_dir = os.path.join(build_root, "runs")
    os.makedirs(run_dir, exist_ok=True)

    if args.workload != "all":
        result = run_workload(args.workload, args, binary, root, run_dir)
    else:
        # Each workload's own result line, then one combined line with the
        # metrics keyed "<workload>.<metric>".
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(workload, args, binary, root, run_dir)
            print(json.dumps(one))
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, m in one["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
