#!/usr/bin/env python3
"""FedClust simulator benchmark: three closed-loop FL workloads.

    python3 fedbench/run.py --workload fedclust_c10 --seed 3 --seconds 10 --trace 0

Builds fedbench_driver (fedbench/CMakeLists.txt, simulator sources from src/)
into .bench_build, runs it on the workload at FEDCLUST_THREADS=4, checks every
episode's state digest and final accuracy against fedbench/golden.json,
appends a record to fedbench/runs/trajectory.jsonl, and prints one JSON result
object as the last stdout line. --trace 0 reports the end-to-end metrics;
--trace 1 replays the setup and one round layer by layer, prints a per-layer
self-time table, and reports the per-layer metrics. See fedbench/README.md.

    python3 fedbench/run.py --record-golden --workload fedclust_c10

re-records that workload's golden digests (one per seed class).
"""

import argparse
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "fedbench_driver"
GOLDEN = HERE / "golden.json"
# Names and units of every reported metric.
BENCHMARK = ROOT / "BENCHMARK.json"
TRAJECTORY = HERE / "runs" / "trajectory.jsonl"

THREADS = "4"
# --seed n runs simulator seed 1 + n % SEED_CLASSES; golden.json holds the
# digest of every class.
SEED_CLASSES = 16
# Whole-run budget; a driver still running after it is killed.
RUN_BUDGET_S = 170.0

# Every run has at least MIN_EPISODES episodes (each is one Federation
# construction + setup + `rounds` rounds, so one setup_s sample) and at least
# TAIL_BLOCKS * TAIL_BLOCK_ROUNDS rounds. round_ms_tail is the median, over the
# first TAIL_BLOCKS blocks of TAIL_BLOCK_ROUNDS consecutive rounds, of each
# block's tail (p83). The fixed sample keeps the percentile independent of how
# many rounds a faster or slower build fits into --seconds. The median over
# blocks keeps one burst of hypervisor steal, which can slow ~15 consecutive
# rounds, from setting the tail of the whole run.
MIN_EPISODES = 3
TAIL_BLOCKS = 3
TAIL_BLOCK_ROUNDS = 60

# fedclust_sim flags and rounds per episode.
WORKLOADS = {
    "fedclust_c10": {
        "flags": ["--method=FedClust", "--dataset=cifar10", "--clients=100",
                  "--train=40", "--sample=0.2"],
        "rounds": 20,
    },
    "fedclust_setup_2k": {
        "flags": ["--method=FedClust", "--clients=2000", "--train=10",
                  "--test=5", "--sample=0.05", "--eval-clients=500",
                  "--landmarks=0"],
        "rounds": 60,
    },
    "fedavg_1m_qint8": {
        "flags": ["--method=FedAvg", "--dataset=fmnist", "--clients=1000000",
                  "--train=1", "--test=1", "--epochs=1", "--sample=0.001",
                  "--virtual-clients=1", "--client-cache=64",
                  "--eval-clients=100", "--codec=qint8"],
        "rounds": 10,
    },
}

# Span name -> module (layer) it times, for the self-time table.
LAYER_OF = {
    "setup.data": "data",
    "setup.warmup": "fl.parallel_round",
    "round.train": "fl.parallel_round",
    "round.sample": "fl.federation",
    "store.acquire": "fl.client_store",
    "nn.train": "nn",
    "wire.pull": "fl.wire",
    "wire.deliver": "fl.wire",
    "wire.upload": "fl.wire",
    "agg.submit": "fl.stream_agg",
    "agg.finish": "fl.stream_agg",
    "eval.sweep": "fl.eval",
    "cluster.proximity": "clustering",
    "cluster.dendrogram": "clustering",
}
UNATTRIBUTED = "(unattributed)"
# Trace phases: the root spans whose trees make up each self-time table.
PHASES = {
    "setup": ("setup.data", "setup.cluster"),
    "round": ("round",),
    "cohort clustering": ("cohort.cluster",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------

def build():
    """Configures and builds fedbench_driver; raises on failure."""
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", THREADS,
                    "--target", "fedbench_driver"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(flags, mode, seconds=0.0, episodes=1, timeout=RUN_BUDGET_S):
    """Runs the driver and returns its parsed last stdout line."""
    env = dict(os.environ, FEDCLUST_THREADS=THREADS, FEDCLUST_LOG_LEVEL="warn")
    cmd = [str(DRIVER), *flags, f"--bench-mode={mode}",
           f"--bench-seconds={seconds}", f"--bench-episodes={episodes}"]
    out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE,
                         text=True, timeout=timeout).stdout
    return json.loads(out.strip().splitlines()[-1])


def workload_flags(name, seed):
    w = WORKLOADS[name]
    return [*w["flags"], f"--rounds={w['rounds']}",
            f"--seed={fl_seed(seed)}"]


def fl_seed(seed):
    return 1 + seed % SEED_CLASSES


def min_episodes(name):
    tail_rounds = TAIL_BLOCKS * TAIL_BLOCK_ROUNDS
    return max(MIN_EPISODES, -(-tail_rounds // WORKLOADS[name]["rounds"]))


def planned_updates(name, episodes):
    """Updates sampled over `episodes` episodes of the workload, with the
    cohort sized as Federation::sample_round sizes it."""
    opts = dict(f[2:].split("=", 1) for f in WORKLOADS[name]["flags"])
    clients = int(opts["clients"])
    cohort = min(max(int(float(opts["sample"]) * clients), 1), clients)
    return WORKLOADS[name]["rounds"] * cohort * episodes


# ---- statistics -----------------------------------------------------------

def tail_percentile(values, beyond=10):
    """Highest whole percentile (nearest rank) with >= `beyond` samples above
    it. Returns (percentile, value, sample count)."""
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples: need more than {beyond} for a tail")
    ordered = sorted(values)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= beyond:
            return p, ordered[rank - 1], n
    raise AssertionError("unreachable: p=1 always leaves n-1 samples above")


def setup_seconds(episode):
    """Federation construction + the algorithm's one-shot setup(): the run()
    wall that the observed rounds do not account for, plus the constructor."""
    return episode["ctor_s"] + episode["run_s"] - sum(episode["round_s"])


def check_episodes(episodes, golden):
    """Compares every episode with the golden digest and accuracy.

    Returns (correct, attempted, failed): attempted counts sampled updates;
    an episode that misses its golden counts all of its updates as failed,
    otherwise only the updates the server never got do."""
    correct, attempted, failed = True, 0, 0
    for ep in episodes:
        attempted += int(ep["sampled"])
        ok = (golden is not None and ep["crc"] == golden["crc"]
              and ep["acc"] == golden["acc"])
        if not ok:
            correct = False
            failed += int(ep["sampled"])
        else:
            failed += int(ep["undelivered"])
    return correct, attempted, failed


def e2e_metrics(result, rounds):
    episodes = result["episodes"]
    round_s = [s for ep in episodes for s in ep["round_s"]]
    tail_rounds = TAIL_BLOCKS * TAIL_BLOCK_ROUNDS
    if len(round_s) < tail_rounds:
        raise ValueError(
            f"{len(round_s)} rounds: the tail needs {tail_rounds}")
    blocks = [tail_percentile(round_s[i:i + TAIL_BLOCK_ROUNDS])
              for i in range(0, tail_rounds, TAIL_BLOCK_ROUNDS)]
    p, _, n = blocks[0]
    tail = statistics.median(value for _, value, _ in blocks)
    first = episodes[0]
    wire = first["wire_cum"]
    metrics = {
        "rounds_per_s": len(round_s) / sum(round_s),
        "round_ms_p50": 1e3 * statistics.median(round_s),
        "round_ms_tail": 1e3 * tail,
        "setup_s": statistics.median(setup_seconds(ep) for ep in episodes),
        "peak_rss_mb": first["peak_rss_kb"] / 1024.0,
        "wire_mb_per_round": (wire[-1] - wire[0]) / (rounds - 1) / 1e6,
    }
    # final_acc is pinned exactly by the golden check; across seeds it varies
    # far more than any regression bound, so it rides in the record only.
    extra = {"round_ms_tail_percentile": p, "round_samples": n,
             "round_tail_blocks": len(blocks),
             "episodes": len(episodes), "final_acc": first["acc"]}
    return metrics, extra


# ---- trace analysis -------------------------------------------------------

def load_spans(raw):
    return [{"id": i, "name": s[0], "t0": s[1], "t1": s[2], "parent": int(s[3])}
            for i, s in enumerate(raw)]


def tree_of(spans, roots):
    """Span ids of every tree whose root name is in `roots`."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s["id"])
    out, stack = [], [s["id"] for s in spans
                      if s["parent"] < 0 and s["name"] in roots]
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(children.get(i, []))
    return out


def union_length(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_table(spans, ids):
    """Per-layer (span count, self thread-µs, wall µs) over the given span
    trees. Self time is a span's duration minus the part its children cover;
    wall time splits every instant evenly among the innermost spans active
    then, so the wall column sums to the roots' total duration."""
    by_id = {s["id"]: s for s in spans}
    members = set(ids)
    kids = {}
    for i in ids:
        p = by_id[i]["parent"]
        if p in members:
            kids.setdefault(p, []).append(i)
    layer = {i: LAYER_OF.get(by_id[i]["name"], UNATTRIBUTED) for i in ids}
    table = {}

    def row(name):
        return table.setdefault(name, {"spans": 0, "self_us": 0.0,
                                       "wall_us": 0.0})

    for i in ids:
        s = by_id[i]
        covered = union_length(
            (max(by_id[k]["t0"], s["t0"]), min(by_id[k]["t1"], s["t1"]))
            for k in kids.get(i, []))
        r = row(layer[i])
        r["spans"] += 1
        r["self_us"] += (s["t1"] - s["t0"]) - covered

    # Sweep line: at equal times process ends before starts.
    timed = [i for i in ids if by_id[i]["t1"] > by_id[i]["t0"]]
    events = sorted([(by_id[i]["t0"], 1, i) for i in timed] +
                    [(by_id[i]["t1"], 0, i) for i in timed])
    active, active_kids, last = set(), {}, None
    for t, is_start, i in events:
        if last is not None and active and t > last:
            leaves = [a for a in active if active_kids.get(a, 0) == 0]
            for a in leaves:
                row(layer[a])["wall_us"] += (t - last) / len(leaves)
        last = t
        parent = by_id[i]["parent"]
        if is_start:
            active.add(i)
            if parent in members:
                active_kids[parent] = active_kids.get(parent, 0) + 1
        else:
            active.discard(i)
            if parent in members:
                active_kids[parent] -= 1
    return table


def print_table(phase, table):
    wall = sum(r["wall_us"] for r in table.values())
    print(f"{phase}: {wall / 1e3:.1f} ms wall")
    print(f"  {'layer':<20}{'spans':>7}{'self ms':>12}{'wall ms':>11}"
          f"{'wall %':>8}")
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["wall_us"]):
        print(f"  {name:<20}{r['spans']:>7}{r['self_us'] / 1e3:>12.2f}"
              f"{r['wall_us'] / 1e3:>11.2f}"
              f"{100 * r['wall_us'] / wall if wall else 0.0:>8.1f}")


def wall_share(table, layers):
    wall = sum(r["wall_us"] for r in table.values())
    return sum(table[l]["wall_us"] for l in layers if l in table) / wall


def trace_metrics(result):
    spans = load_spans(result["spans"])
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def one(name):
        (s,) = named[name]
        return s["t1"] - s["t0"]

    (train,) = named["round.train"]
    in_round = [s for s in spans if s["parent"] == train["id"]]
    acquires = [s["t1"] - s["t0"] for s in in_round
                if s["name"] == "store.acquire"]
    submits = [s for s in in_round if s["name"] == "agg.submit"]
    deliveries = [s["t1"] for s in submits]
    cohort = result["cohort"]
    fold_us = sum(s["t1"] - s["t0"] for s in submits) + one("agg.finish")

    tables = {phase: layer_table(spans, tree_of(spans, roots))
              for phase, roots in PHASES.items()}
    tables = {k: v for k, v in tables.items() if v}
    m = {
        "data.build_s": one("setup.data") / 1e6,
        "store.acquire_us_p50": statistics.median(acquires),
        "round.train_ms_per_client": one("round.train") / 1e3 / cohort,
        "round.sync_wait_ms":
            (max(deliveries) - statistics.median(deliveries)) / 1e3,
        "eval.sweep_ms": one("eval.sweep") / 1e3,
        "agg.fold_ms": fold_us / 1e3,
        "agg.mfloats_per_s": cohort * result["model_floats"] / fold_us,
        "cluster.proximity_ms": one("cluster.proximity") / 1e3,
        "cluster.dendrogram_ms": one("cluster.dendrogram") / 1e3,
        "cluster.warmup_s": one("setup.warmup" if "setup.warmup" in named
                                else "round.train") / 1e6,
        "round.unattributed_pct":
            100 * wall_share(tables["round"], [UNATTRIBUTED]),
    }
    m.update(result["direct"])
    return m, tables


def report_trace(result):
    """Prints the self-time tables and reconciliation; returns
    (metrics, replay checks passed, summary for the run record)."""
    m, tables = trace_metrics(result)
    for phase, table in tables.items():
        print_table(phase, table)
    checks = result["checks"]
    print(f"reconciliation: replayed round wire bytes "
          f"{result['replay_wire_bytes']:.0f} vs program "
          f"{result['program_wire_bytes_per_round']:.0f} per round; "
          + ", ".join(f"{k}={v}" for k, v in checks.items()))
    print(f"round.unattributed_pct={m['round.unattributed_pct']:.2f} "
          f"obs.overhead_pct={m['obs.overhead_pct']:.2f}")
    shares = {"setup_clustering_share": wall_share(tables["setup"],
                                                   ["clustering"]),
              "round_nn_share": wall_share(tables["round"], ["nn"]),
              "round_store_wire_agg_share": wall_share(
                  tables["round"],
                  ["fl.client_store", "fl.wire", "fl.stream_agg"])}
    print("shares: " + ", ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    top = {phase: sorted(t, key=lambda l: -t[l]["wall_us"])[:3]
           for phase, t in tables.items()}
    return m, all(checks.values()), {"shares": shares, "top_layers": top,
                                     "checks": checks}


# ---- records --------------------------------------------------------------

def git_describe(fallback):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--tags"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return fallback


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None. Steal
    is time the hypervisor ran someone else while this host wanted a CPU,
    the usual cause of an outlier run on a shared machine."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def append_record(record):
    TRAJECTORY.parent.mkdir(parents=True, exist_ok=True)
    with TRAJECTORY.open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def record_golden(name):
    golden = load_golden()
    entries = {}
    for cls in range(SEED_CLASSES):
        result = run_driver(workload_flags(name, cls), "e2e")
        ep = result["episodes"][0]
        entries[str(fl_seed(cls))] = {"crc": ep["crc"], "acc": ep["acc"]}
        log(f"{name} seed {fl_seed(cls)}: {ep['crc']} acc={ep['acc']}")
    golden[name] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    build()
    if args.record_golden:
        record_golden(args.workload)
        return 0

    started = time.monotonic()
    jiffies = cpu_jiffies()
    w = WORKLOADS[args.workload]
    flags = workload_flags(args.workload, args.seed)
    try:
        if args.trace:
            result = run_driver(flags, "trace")
        else:
            result = run_driver(flags, "e2e", args.seconds,
                                min_episodes(args.workload))
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        # A crash, hang or garbled result fails every update the run planned.
        log(f"driver failed: {e}")
        planned = planned_updates(
            args.workload, 1 if args.trace else min_episodes(args.workload))
        append_record({
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "git_describe": git_describe("unknown"),
            "workload": args.workload, "seed": args.seed,
            "sim_seed": fl_seed(args.seed), "trace": args.trace,
            "error": str(e), "correct": False, "attempted": planned,
            "failed": planned, "update_fail_share": 1.0,
        })
        print(json.dumps({"correct": False, "attempted": planned,
                          "failed": planned, "metrics": {}}))
        return 1
    golden = load_golden().get(args.workload, {}).get(str(fl_seed(args.seed)))
    correct, attempted, failed = check_episodes(result["episodes"], golden)
    if not correct:
        log(f"golden mismatch: expected {golden}, got "
            + ", ".join(f"{ep['crc']}/{ep['acc']}"
                        for ep in result["episodes"]))

    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_describe": git_describe(result["git_describe"]),
        "workload": args.workload, "seed": args.seed,
        "sim_seed": fl_seed(args.seed), "trace": args.trace,
        "isa": result["isa"], "threads": result["threads"],
        "FEDCLUST_THREADS": THREADS, "nproc": os.cpu_count(),
    }
    if args.trace:
        metrics, replay_ok, summary = report_trace(result)
        correct = correct and replay_ok
        record.update(summary)
    else:
        metrics, extra = e2e_metrics(result, w["rounds"])
        record.update(extra)
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "update_fail_share": failed / attempted,
        "metrics": metrics,
        "wall_s": time.monotonic() - started,
        "host_steal_share": steal_share(jiffies, cpu_jiffies()),
    })
    append_record(record)
    spec = json.loads(BENCHMARK.read_text())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
