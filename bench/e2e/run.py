#!/usr/bin/env python3
"""Build and run the e2e ledger from the root of a checkout.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out <result.json>] [--trace-out <chrome.json>]

Builds bench/e2e (which builds the repository's library through the root
CMakeLists.txt) into $CARGO_TARGET_DIR/e2e_ledger, default
.bench_build/e2e_ledger, then replaces itself with the ledger binary, so
the binary's last stdout line (the result JSON) and exit code are the
run's. Build output goes to stderr. DEEPSEQ_* environment knobs are
cleared so every run uses the benchmark's pinned configuration.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        sys.stderr.write(f"run.py: no repository sources under {root}\n")
        return 2

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    build = build / "e2e_ledger"
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEEPSEQ_")}

    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(here), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "--target", "e2e_ledger",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.stderr.write("run.py: build failed: " + " ".join(cmd) + "\n")
            return 1

    binary = build / "e2e_ledger"
    argv = [str(binary), *sys.argv[1:], "--scratch", str(build / "work")]
    sys.stdout.flush()
    os.execve(str(binary), argv, env)


if __name__ == "__main__":
    sys.exit(main())
