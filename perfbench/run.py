#!/usr/bin/env python3
"""Builds the syno daemon and the benchmark binary, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). The line before it
records the environment the workload process ran in and a host memory
probe; the line before that holds the benchmark's diagnostics (checks and
deterministic counts).
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tomllib

# The nominal length of one timed pass per workload. `--seconds` buys one
# pass per this many seconds, and at least two; the work within a pass is
# fixed by counts, never by the clock.
SECONDS_PER_PASS = {"search_cold": 6.5, "search_warm": 6.5, "serve_tenants": 5}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def release_profile():
    """The repository's [profile.release], so the benchmark crate is built
    with the same settings as the daemon."""
    with open("Cargo.toml", "rb") as f:
        manifest = tomllib.load(f)
    profile = manifest.get("profile", {}).get("release", {})
    return {k: v for k, v in profile.items() if not isinstance(v, dict)}


def profile_env(profile):
    env = {}
    for key, value in profile.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def run_checked(cmd, env, timeout, what):
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except FileNotFoundError:
        fail(f"{what}: {cmd[0]} not found")
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{what} failed with exit code {proc.returncode}")


def source_digest():
    """A digest of the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            if path.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SECONDS_PER_PASS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=None,
                        help="units per pass (default 100; the smoke test shrinks it)")
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the root of a syno checkout (no Cargo.toml and crates/ here)")

    profile = release_profile()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env.update(profile_env(profile))
    # Caught candidate panics must not symbolize backtraces: that costs
    # 10-30 ms per skipped candidate and only when the host exports it.
    env["RUST_BACKTRACE"] = "0"
    # glibc creates malloc arenas per thread on demand, up to 8 per core;
    # how many a run ends up with varies from run to run and moved peak
    # RSS by up to a quarter. A fixed count keeps peak_rss_mb repeatable.
    env["MALLOC_ARENA_MAX"] = str(os.cpu_count() or 1)
    target = env["CARGO_TARGET_DIR"]

    run_checked(["cargo", "build", "--release", "--offline", "-q", "-p", "syno-serve",
                 "--bin", "syno-serve"], env, BUILD_TIMEOUT_S, "building syno-serve")
    run_checked(["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                 os.path.join("perfbench", "Cargo.toml")], env, BUILD_TIMEOUT_S,
                "building perfbench")

    bench = os.path.join(target, "release", "perfbench")

    def memory_probe_ms():
        out = subprocess.run([bench, "--probe"], env=env, stdout=subprocess.PIPE, text=True,
                             timeout=60)
        return float(out.stdout) if out.returncode == 0 else None

    passes = max(2, round(args.seconds / SECONDS_PER_PASS[args.workload]))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(OUT_DIR, tag)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(passes), "--trace", str(args.trace),
           "--serve-bin", os.path.join(target, "release", "syno-serve"),
           "--work-dir", work, "--trace-out", os.path.join(OUT_DIR, "traces")]
    if args.units is not None:
        cmd += ["--units", str(args.units)]

    os.makedirs(OUT_DIR, exist_ok=True)
    probe_before = memory_probe_ms()
    log_path = os.path.join(OUT_DIR, tag + ".stderr.log")
    # SIGTERM unwinds through the `finally` below like a timeout does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(log_path, "w") as log:
        # A session of its own, so one kill stops the daemon children too.
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s (log: {log_path})")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    probe_after = memory_probe_ms()
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"{args.workload} exited with code {proc.returncode} (log: {log_path})")
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])

    env_record = {
        "nproc": os.cpu_count(),
        "build_profile": {"release": profile},
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "rust_backtrace": env["RUST_BACKTRACE"],
        "malloc_arena_max": env["MALLOC_ARENA_MAX"],
        "python": platform.python_version(),
        "seconds": args.seconds,
        "passes": passes,
        # A fixed 8 MiB pointer chase before and after the workload: a
        # diagnostic of host memory contention, not a gated metric.
        "memory_probe_ms": [probe_before, probe_after],
    }
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"env": env_record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
