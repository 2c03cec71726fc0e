#!/usr/bin/env python3
"""Build and run the gpures end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper|fleet|logs --seed N \
        --seconds S --trace 0|1 [--tamper LEG]

Run from the root of a checkout.  The first call configures and builds the
harness (library sources from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls only rebuild what changed.
Build output goes to stderr; the last line of stdout is the result JSON.
The run's datasets, checkpoints and indexes live in a scratch directory
under the build directory and are removed, and the removal synced to disk,
when the run ends.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure (once) and build the harness; returns the binary path."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "gpures-perfbench"


def run(binary, args):
    """Run one benchmark process in its own process group, so a timeout or
    SIGTERM stops the leg children as well.  Returns (exit code, stdout)."""
    work = build_dir() / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--state", str(build_dir() / "state")]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # SIGTERM ends this script through the finally below, like a timeout.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    out = ""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    finally:
        # Normally the group is empty by now; after a timeout, a signal or a
        # crash this stops the benchmark and any leg child it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        # Finish the deletion's disk work now, not during the next run.
        os.sync()
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tamper", default="",
                   help="alter this leg's output before hashing (self-check test)")
    args = p.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    rc, out = run(binary, args)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
