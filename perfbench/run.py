#!/usr/bin/env python3
"""Host-performance benchmark of the CrossBound simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload native|cross_isa|fleet \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the driver plus the simulator libraries from src/)
into .bench_build on first use, runs the driver for one workload, checks
every operation's output, and prints a manifest line and, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics. The exit code is 0 only
when every operation passed its output check. Bad input exits 2 with
one diagnostic. See perfbench/README.md.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("native", "cross_isa", "fleet")
CONFS = ("fleet_rows.conf", "fleet_rack_outage.conf", "serving_slo.conf")
LEGS = ("pingpong", "threads", "remote")
LAYERS = ("workload", "compiler", "machine", "emu", "core", "os", "sched",
          "traffic", "exp", "bench")
# Settings that would make the run measure a different program.
REFUSED_ENV = ("XISA_SLOW_PATH", "XISA_SLOW_SCHED", "XISA_AUDIT",
               "XISA_PERTURB", "XISA_TRACE", "XISA_QUICK")
# Sweep workers, the same for every workload. One worker keeps the
# measured work free of contention between workers and independent of
# the seed-chosen cell order, and makes the layers' wall shares exact.
WORKERS = 1
# The one driver run may not take longer than this.
DRIVER_TIMEOUT_S = 170
# Median time of the driver's probe walk on a quiet host: end-to-end
# times are reported at this host speed (see end_to_end).
REF_PROBE_S = 7.5e-4


class BadInput(Exception):
    pass


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0")
    a, extra = p.parse_known_args(argv)
    if extra:
        raise BadInput(f"unknown argument {extra[0]!r}")
    if a.workload not in WORKLOADS:
        raise BadInput(f"unknown workload {a.workload!r} "
                       f"(expected one of {', '.join(WORKLOADS)})")
    if not a.seed.isdigit() or int(a.seed) >= 2**64:
        raise BadInput(f"malformed seed {a.seed!r} "
                       "(expected a decimal integer below 2^64)")
    if not a.seconds.isdigit() or not 1 <= int(a.seconds) <= 60:
        raise BadInput(f"malformed seconds {a.seconds!r} "
                       "(expected a whole number from 1 to 60)")
    if a.trace not in ("0", "1"):
        raise BadInput(f"--trace takes 0 or 1, not {a.trace!r}")
    return a.workload, int(a.seed), int(a.seconds), a.trace == "1"


def check_env():
    for name in REFUSED_ENV:
        if os.environ.get(name):
            raise BadInput(f"{name} is set; it changes the program being "
                           "measured, unset it")
    threaded = os.environ.get("XISA_THREADED")
    if threaded not in (None, "", "1"):
        raise BadInput(f"XISA_THREADED={threaded} selects another engine; "
                       "unset it")


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full "
             "checkout")
    for conf in CONFS:
        if not os.path.isfile(os.path.join(ROOT, "examples", "confs", conf)):
            fail(f"missing examples/confs/{conf}")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the driver; returns its path."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or (os.path.realpath(home[0].split("=", 1)[1].strip())
                        != os.path.realpath(BENCH_DIR)):
            shutil.rmtree(bdir)  # configured for another source tree
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "xisa_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}", 1)
    return os.path.join(bdir, "xisa_perfbench")


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_hash(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def git_revision():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def manifest(raw, workload, seed, seconds, trace):
    return {
        "git_revision": git_revision(),
        "source_sha256": tree_hash("src", "perfbench"),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "nproc": os.cpu_count(),
        "workers": raw["workers"],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setups": len(raw["setups"]),
        "passes": len(raw["passes"]),
        "xisa_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith("XISA_")},
        "confs": {c: sha256_file(os.path.join(ROOT, "examples", "confs", c))
                  for c in CONFS},
        "conditions": [
            "every container starts with empty modelled caches",
            "first decode and ExecCache fill are inside the timed calls",
        ],
    }


# --- Output checks -------------------------------------------------------

def check_ops(raw, workload, seed):
    """Returns (attempted, failures) over every operation of every pass.

    An operation fails when the driver's output check failed, when its
    simulated results differ between passes of this run, or when they
    differ from the recorded fingerprint (native: every seed, since the
    seed only orders its cells; the others: the recorded seed).
    """
    with open(os.path.join(BENCH_DIR, "fingerprints.json")) as f:
        recorded = json.load(f)
    expect = recorded[workload]
    if workload != "native" and seed != recorded["seed"]:
        expect = None
    first = {}
    attempted, failures = 0, []
    for p in raw["passes"]:
        for key, _ms, error, sim in p["ops"]:
            attempted += 1
            first.setdefault(key, sim)
            if not error and first[key] != sim:
                error = "simulated results differ between passes"
            if not error and expect is not None and expect.get(key) != sim:
                error = (f"simulated results {sim} differ from the "
                         f"recorded {expect.get(key)}")
            if error:
                failures.append((key, error))
    for key in sorted(set(expect or ()) - set(first)):
        attempted += 1
        failures.append((key, "recorded operation did not run"))
    return attempted, failures


# --- Metrics -------------------------------------------------------------

def med(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def host_times(raw, scaled):
    """setup_s, wall_s and op_ms.* over the untraced passes.

    Scaled, every host time of a pass is multiplied by REF_PROBE_S over
    that pass's median probe walk: the time the work would take at the
    reference host speed. The host's other tenants slow the simulator
    by up to 2x for minutes at a time; the probe, which no change to
    the program can move, slows with it. Some set-ups hold only two
    probes, so the median set-up is scaled by the median over all
    set-ups.
    """
    def scale(region):
        return REF_PROBE_S / region["probe_s"] if scaled else 1.0

    untraced = [p for p in raw["passes"] if not p["traced"]]
    setups = {"probe_s": med([s["probe_s"] for s in raw["setups"]])}
    ops = sorted(o[1] * scale(p) for p in untraced for o in p["ops"])
    # p90 is reported only with at least ten samples beyond it; the
    # driver runs enough passes to guarantee that.
    if len(ops) - math.ceil(0.9 * len(ops)) < 10:
        fail(f"only {len(ops)} operations timed, too few for a p90", 1)
    return {
        "setup_s": med([s["wall_s"] for s in raw["setups"]]) * scale(setups),
        "wall_s": med([p["wall_s"] * scale(p) for p in untraced]),
        "op_ms.p50": med(ops),
        "op_ms.p90": nearest_rank(ops, 0.9),
    }


def end_to_end(raw):
    m = {k: (v, "ms" if k.startswith("op_ms") else "s")
         for k, v in host_times(raw, scaled=True).items()}
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    return m


def ratio(a, b):
    return a / b if b else 0.0


def layer_times(spans, root):
    """Per-layer self time and wall-clock share under one root span.

    Self time is a span's duration minus the union of its children's
    intervals (summed over parallel workers it can exceed the wall).
    Wall share splits every instant of the root's interval equally
    among the spans running without a running child, so the shares of
    one root sum to its duration.
    """
    by_parent, sub = {}, []
    for s in spans:
        by_parent.setdefault(s[4], []).append(s)
    stack = [s for s in spans if s[3] == root]
    while stack:
        s = stack.pop()
        sub.append(s)
        stack.extend(by_parent.get(s[3], []))
    self_s = collections.defaultdict(float)
    share = collections.defaultdict(float)
    for s in sub:
        covered, end = 0.0, s[1]
        for c in sorted(by_parent.get(s[3], []), key=lambda c: c[1]):
            lo, hi = max(c[1], end), min(c[2], s[2])
            if hi > lo:
                covered += hi - lo
            end = max(end, min(c[2], s[2]))
        self_s[s[0].split(".")[0]] += s[2] - s[1] - covered
    cuts = sorted({t for s in sub for t in (s[1], s[2])})
    ids = {s[3] for s in sub}
    for lo, hi in zip(cuts, cuts[1:]):
        live = [s for s in sub if s[1] <= lo and s[2] >= hi]
        busy = {s[4] for s in live if s[4] in ids}
        leaves = [s for s in live if s[3] not in busy]
        for s in leaves:
            share[s[0].split(".")[0]] += (hi - lo) / len(leaves)
    # The probe's own spans are not part of the measured work.
    return ({k: self_s[k] for k in LAYERS}, {k: share[k] for k in LAYERS})


# Host time of public calls, per set-up and per traced pass.
SETUP_CALLS = {"workload.build_s": "workload.build",
               "compiler.compile_s": "compiler.compile",
               "core.plan_s": "core.plan",
               "sched.calibrate_s": "sched.calibrate",
               "traffic.calibrate_s": "traffic.calibrate"}
PASS_CALLS = {"machine.exec_s": "machine.exec",
              "emu.emulate_s": "emu.emulate", "os.run_s": "os.run",
              "sched.run_s": "sched.run",
              "traffic.generate_s": "traffic.generate",
              "traffic.serve_s": "traffic.serve",
              "exp.parse_s": "exp.parse"}
# Counts read at the same boundaries.
SETUP_COUNTS = ("compiler.binaries", "core.plan_iterations",
                "core.profiled_instrs")
PASS_COUNTS = ("machine.instrs", "emu.guest_instrs", "os.quanta",
               "os.migrations", "sched.migrate_requests",
               "os.spurious_migrate_traps", "core.transforms",
               "core.frames", "core.bytes_copied", "sched.events",
               "sched.migrations", "sched.rebalance_ticks",
               "sched.rebalance_moves_capped", "traffic.requests",
               "traffic.shed", "traffic.failovers", "traffic.migrations")
# name: (counts summed, calls summed or None for the pass wall, scale,
# unit). The per-workload throughputs come from the untraced passes.
TRACED_RATES = {
    "machine.mips": (("machine.instrs",), ("machine.exec",), 1e-6,
                     "Minstr/s"),
    "emu.mips": (("emu.guest_instrs",), ("emu.emulate",), 1e-6,
                 "Minstr/s"),
    "sched.events_per_s": (("sched.events",), ("sched.run",), 1, "1/s"),
}
UNTRACED_RATES = {
    "sim_mips": (("machine.instrs", "os.instrs", "emu.guest_instrs"),
                 None, 1e-6, "Minstr/s"),
    "emu_mips": (("emu.guest_instrs",), ("emu.emulate",), 1e-6,
                 "Minstr/s"),
    "migrations_per_s": (("os.migrations",), ("os.run",), 1, "1/s"),
    "sched_events_per_s": (("sched.events",), ("sched.run",), 1, "1/s"),
    "requests_per_s": (("traffic.requests",),
                       ("traffic.generate", "traffic.serve"), 1, "1/s"),
}


def per_layer(raw, spans):
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    m = {}

    def over(regions, fn, unit, name):
        m[name] = (med([fn(r) for r in regions]), unit)

    def call(r, name):
        return r["calls"].get(name, 0.0)

    def count(r, name):
        return r["counts"].get(name, 0.0)

    def rate(passes, counts, calls, scale, unit, name):
        over(passes, lambda p: scale * ratio(
            sum(count(p, c) for c in counts),
            sum(call(p, c) for c in calls) if calls else p["wall_s"]),
            unit, name)

    for name, c in SETUP_CALLS.items():
        over(raw["setups"], lambda s: call(s, c), "s", name)
    for name in SETUP_COUNTS:
        over(raw["setups"], lambda s: count(s, name), "count", name)
    for name, c in PASS_CALLS.items():
        over(traced, lambda p: call(p, c), "s", name)
    for name in PASS_COUNTS:
        over(traced, lambda p: count(p, name), "count", name)
    over(traced, lambda p: count(p, "core.transform_host_s"), "s",
         "core.transform_host_s")
    for name, spec in TRACED_RATES.items():
        rate(traced, *spec, name)
    for name, spec in UNTRACED_RATES.items():
        rate(untraced, *spec, name)
    m["machine.l1d_miss_ratio"] = (ratio(
        sum(count(p, "machine.l1d_misses") for p in traced),
        sum(count(p, "machine.l1d_accesses") for p in traced)), "ratio")
    over(traced, lambda p: ratio(count(p, "os.migrations"),
                                 count(p, "sched.migrate_requests")),
         "ratio", "os.migration_success_ratio")
    for leg in LEGS:
        for name in ("page_transfers", "bytes_transferred", "read_faults",
                     "write_faults", "invalidations"):
            over(traced, lambda p: count(p, f"dsm.{leg}.{name}"), "count",
                 f"dsm.{leg}.{name}")
        over(traced, lambda p: ratio(count(p, f"dsm.{leg}.page_transfers"),
                                     count(p, f"dsm.{leg}.migrations")),
             "ratio", f"dsm.{leg}.pages_per_migration")
        for name in ("messages", "bytes"):
            over(traced, lambda p: count(p, f"net.{leg}.{name}"), "count",
                 f"net.{leg}.{name}")

    # The sweep driver: busy share of its workers and their idle time.
    def busy(p):
        return call(p, "machine.exec") + call(p, "sched.run")

    workers = raw["workers"]
    over(traced, lambda p: ratio(busy(p), workers * call(p, "exp.sweep")),
         "ratio", "exp.sweep_busy_frac")
    over(traced, lambda p: max(0.0, workers * call(p, "exp.sweep")
                               - busy(p)), "s", "exp.sweep_wait_s")

    # Self time and wall share per layer over the measured phase. The
    # stack transforms run inside os.run; the program reports their
    # host time, which moves from os to core.
    selfs, shares = [], []
    for p in traced:
        self_s, share = layer_times(spans, p["span"])
        moved = count(p, "core.transform_host_s")
        for t in (self_s, share):
            t["os"] -= moved
            t["core"] += moved
        selfs.append(self_s)
        shares.append(share)
    for layer in LAYERS:
        over(selfs, lambda t: t[layer], "s", f"{layer}.self_s")
        over(shares, lambda t: t[layer], "s", f"{layer}.wall_share_s")

    # The layers' wall shares add up to the traced pass time; the
    # overhead compares passes at the reference host speed, since the
    # host's speed moves more between passes than tracing costs.
    over(traced, lambda p: p["wall_s"], "s", "trace.wall_s")
    at_ref = [med([p["wall_s"] * REF_PROBE_S / p["probe_s"] for p in ps])
              for ps in (traced, untraced)]
    m["trace.overhead_s"] = (at_ref[0] - at_ref[1], "s")
    m["trace.spans"] = (raw["spans"], "count")
    # The end-to-end times as measured, before scaling to the reference
    # host speed, and the probe walk they were scaled by.
    for name, v in host_times(raw, scaled=False).items():
        m["raw." + name] = (v, "ms" if name.startswith("op_ms") else "s")
    over(untraced, lambda p: p["probe_s"] * 1e3, "ms", "probe.walk_ms")
    over(traced, lambda p: len(p["ops"]), "count", "bench.ops")
    return m


def main(argv):
    try:
        workload, seed, seconds, trace = parse_args(argv)
        check_env()
    except BadInput as e:
        fail(str(e))
    check_checkout()
    started = time.monotonic()
    driver = build()

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--confs", os.path.join(ROOT, "examples", "confs")]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("XISA_")}
    env["XISA_BENCH_THREADS"] = str(WORKERS)
    budget = DRIVER_TIMEOUT_S - (time.monotonic() - started)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=max(budget, 60))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {budget:.0f} s", 1)
    if r.returncode != 0:
        fail(f"driver exited with code {r.returncode}", 1)
    raw = json.loads(r.stdout)

    attempted, failures = check_ops(raw, workload, seed)
    for key, why in failures[:10]:
        print(f"perfbench: FAILED {key}: {why}", file=sys.stderr)
    if trace:
        with open(stem + ".spans.json") as f:
            metrics = per_layer(raw, json.load(f))
    else:
        metrics = end_to_end(raw)

    info = manifest(raw, workload, seed, seconds, trace)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as f:
        json.dump({"manifest": info, "result": result, "raw": raw}, f)
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
