#!/usr/bin/env python3
"""Run one workload of the v6d step benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a v6d source tree.  Configures and builds
perfbench/ (the v6d library plus step_bench) in .bench_build/ on first
use, runs step_bench, and prints its output followed by a run-context
line and, last, the result JSON.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "step_bench"


def build():
    """Configure once, then let the build tool bring step_bench up to date.

    Build output goes to stderr so stdout carries only results."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "step_bench",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)


def steal_ticks():
    """Cumulative steal time of all CPUs, in clock ticks (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else 0
    except (OSError, IndexError, ValueError):
        return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def llc_size():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def source_id():
    """The commit when run from a git checkout, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha256()
        for p in sorted((ROOT / "src").rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
        return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no v6d sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    ticks_per_s = os.sysconf("SC_CLK_TCK")
    steal0 = steal_ticks()
    proc = subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=170)
    steal_s = (steal_ticks() - steal0) / ticks_per_s
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"run.py: step_bench exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1

    context = {}
    for line in lines[:-1]:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
        else:
            print(line)
    context.update(cpu_model=cpu_model(), llc=llc_size(), source=source_id(),
                   host_steal_s=round(steal_s, 3))
    print("context " + json.dumps(context))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
