#!/usr/bin/env python3
"""Memory guard: a 1-rank run must hold the phase space only once.

Stdlib only:

    python3 tools/check_run_memory.py path/to/v6d workdir

Runs one step of `v6d run vlasov_only nx=16 nu=16 ranks=1` with a telemetry
stream and compares the heartbeat's resident-set size with the bytes of
the phase space including its ghost layers, (nx + 2*ghost)^3 * nu^3 floats
(166 MiB).  A 1-rank run steps the world-of-one distributed solver, whose
shard takes the global phase space over instead of copying it; a copy
shows up as a ratio near 2.  In this scenario f dominates the process, so
the other state fits well inside the bound.

Exit status 0 when rss_mb <= MAX_RATIO * phase-space MiB, 1 otherwise.
"""

import json
import pathlib
import shutil
import subprocess
import sys

STENCIL_GHOST = 3  # vlasov::kStencilGhost (src/vlasov/sl_mpp5.hpp)
NX = 16
NU = 16
MAX_RATIO = 1.25


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    v6d, work = sys.argv[1], pathlib.Path(sys.argv[2])
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    telemetry = work / "telemetry.jsonl"
    cmd = [v6d, "run", "vlasov_only", f"nx={NX}", f"nu={NU}", "max_steps=1",
           "ranks=1", "checkpoint_dir=", f"telemetry={telemetry}"]
    print("$ " + " ".join(cmd), flush=True)
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        print(result.stdout)
        print(f"FAIL: v6d exited {result.returncode}")
        return 1
    rows = [json.loads(line) for line in telemetry.read_text().splitlines()
            if line.strip()]
    if not rows:
        print("FAIL: no heartbeat row written")
        return 1

    side = NX + 2 * STENCIL_GHOST
    state_mib = side ** 3 * NU ** 3 * 4 / 2 ** 20
    rss_mib = max(row["rss_mb"] for row in rows)
    ratio = rss_mib / state_mib
    verdict = "OK" if ratio <= MAX_RATIO else "FAIL"
    print(f"{verdict}: rss {rss_mib:.1f} MiB = {ratio:.2f} x phase space "
          f"{state_mib:.1f} MiB (bound {MAX_RATIO:.2f} x)")
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
