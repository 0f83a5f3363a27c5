#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

--workload all runs every workload in turn.

Workloads: massive-social, symmetric-corpus, serve-gadget (see
perfbench/NOTES.md). The script builds the library, dvicl_server and the
driver from source with CMake into .bench_build (or $CARGO_TARGET_DIR), runs
the workload, and checks its outputs. It prints every metric with its unit
and sample count, writes a host-stamped record and the spans of a traced run
to .bench_out/, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

Exit status: 0 when every output was correct, 1 on a wrong output, 2 when
the build or the set-up failed (no result line then).
"""

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("massive-social", "symmetric-corpus", "serve-gadget")
SERVER_STARTS = 5
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out_dir, jobs):
    """Configures and builds incrementally; returns the two binaries."""
    bdir = build_dir()
    log_path = out_dir / "build.log"
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir)],
                 ["cmake", "--build", str(bdir), "-j", str(jobs),
                  "--target", "perfbench"]]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return bdir / "perfbench", bdir / "dvicl" / "src" / "dvicl_server"


def start_server(server, threads, log):
    """Starts dvicl_server on an ephemeral port; returns (proc, port, s)."""
    start = time.monotonic()
    proc = subprocess.Popen([str(server), "--port=0", f"--threads={threads}"],
                            stdout=subprocess.PIPE, stderr=log, cwd=ROOT)
    line = b""
    deadline = start + 30
    while b"\n" not in line and time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            line += chunk
    elapsed = time.monotonic() - start
    text = line.decode(errors="replace")
    if "listening on" not in text:
        stop_server(proc)
        fail(f"dvicl_server did not start: {text!r}")
    port = text.split("listening on", 1)[1].split()[0]
    return proc, port, elapsed


def stop_server(proc):
    """SIGTERM, then reap; returns the server's peak RSS in MiB."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = 0
    except ChildProcessError:
        proc.wait()
        return 0.0
    finally:
        proc.stdout.close()
    return usage.ru_maxrss / 1024.0


def source_digest():
    """sha256 over the sources the benchmark builds, for runs outside git."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def steal_seconds():
    """CPU time the hypervisor gave to other guests so far, all CPUs."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name]
                                + rest).returncode
                 for name in WORKLOADS]
        return max(codes)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 4)
    if args.workload == "serve-gadget":
        # Half the cores for the server pool; the rest serve the client's
        # four connections and the server's connection threads.
        threads = max(1, threads // 2)
    perfbench, server = build(out_dir, min(nproc, 4))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    spans_path = out_dir / f"{tag}.spans.json"
    command = [str(perfbench), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--threads={threads}",
               f"--tiny={int(args.size == 'tiny')}",
               f"--spans={spans_path}"]

    steal_before = steal_seconds()
    server_proc = None
    server_start_s = []
    server_rss_mib = None
    with open(out_dir / f"{tag}.server.log", "w") as server_log:
        try:
            if args.workload == "serve-gadget":
                # Set-up includes the server start: started SERVER_STARTS
                # times, the median is added to setup_s, the last one serves.
                for k in range(SERVER_STARTS):
                    proc, port, elapsed = start_server(server, threads,
                                                       server_log)
                    server_start_s.append(elapsed)
                    if k + 1 < SERVER_STARTS:
                        stop_server(proc)
                    else:
                        server_proc = proc
                command.append(f"--connect={port}")
            try:
                run = subprocess.run(command, capture_output=True, text=True,
                                     cwd=ROOT, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"driver exceeded {RUN_TIMEOUT_S} s")
        finally:
            if server_proc is not None:
                server_rss_mib = stop_server(server_proc)
    steal_s = steal_seconds() - steal_before
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"driver exited with status {run.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]

    notes = result["notes"]
    if args.workload == "serve-gadget":
        notes["server_start_s"] = " ".join(f"{s:.6f}" for s in server_start_s)
        metrics["setup_s"]["value"] += statistics.median(server_start_s)
        metrics["peak_rss_mib"] = {"value": server_rss_mib, "unit": "MiB",
                                   "samples": 1}

    # A per-layer metric of a layer this workload never calls reads 0 with
    # no samples; every metric keeps the unit BENCHMARK.json gives it.
    for entry in wanted:
        metric = metrics.get(entry["name"])
        if metric is None:
            if not args.trace:
                fail(f"end-to-end metric {entry['name']} was not measured")
            metrics[entry["name"]] = {"value": 0.0, "unit": entry["unit"],
                                      "samples": 0}
        elif metric["unit"] != entry["unit"]:
            fail(f"{entry['name']}: unit {metric['unit']} is not "
                 f"{entry['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "host": {
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "build_type": notes.pop("build_type", None),
            "build_flags": notes.pop("build_flags", None),
            "compiler": notes.pop("compiler", None),
            "nproc": nproc, "cpu_model": cpu_model(),
            "engine_threads": threads, "steal_s": steal_s,
        },
        "input": notes,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "wrong": result["wrong"],
        "metrics": metrics,
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"input_checksum={notes.get('input_checksum')} "
          f"build={record['host']['build_type']} threads={threads} "
          f"steal_s={steal_s:.2f}")
    for entry in wanted:
        metric = metrics[entry["name"]]
        print(f"{entry['name']:34s} {metric['value']:>16.6g} "
              f"{metric['unit']:6s} n={metric['samples']}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {entry["name"]: {"value": metrics[entry["name"]]["value"],
                                    "unit": entry["unit"]}
                    for entry in wanted},
    }))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
