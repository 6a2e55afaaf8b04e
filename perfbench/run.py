#!/usr/bin/env python3
"""Benchmark of the JSONiq engine on the paper's queries.

Run from the root of the repository:

    python3 perfbench/run.py --workload confusion-group --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The first run builds the engine and the benchmark from source with sbt
(perfbench/build.sbt depends on the repository's own build) and keeps the
class path under .bench_build/perfbench; later runs reuse it while the
sources are unchanged. Each run starts one JVM with Spark on local[nproc],
generates its input from --seed, runs the workload's query one at a time for
--seconds and checks every result. Every metric is printed as
"name value unit"; the last line is one JSON object holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
A report with provenance, every sample and every span is written under
.bench_build/perfbench/reports.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "classpath.txt")
STAMP_FILE = os.path.join(BUILD_DIR, "stamp.txt")

HEAP = "2g"
# Parallel GC on a fixed, pre-touched heap: with G1's adaptive young
# generation, query times drifted within a run and differed between runs by
# about twice as much.
JVM_GC = ["-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # a run after the build must end within 180 s

# The engine's sources and build, and the benchmark's own.
SOURCES = ["build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]
REQUIRED = ["build.sbt", "src/main/scala/repro/core/Rumble.scala", "perfbench/build.sbt"]

# Module opens Spark needs on JDK 17 (the same list as the repository's build).
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def source_stamp():
    """SHA-256 over the path and content of every source file."""
    h = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, subdirs, fs in os.walk(path)
            for f in fs if "target" not in os.path.relpath(d, ROOT).split(os.sep))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def source_id(stamp):
    """The git commit when run from a git clone, and the source stamp."""
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"git {sha or 'none'}, sources sha256 {stamp}"


def run_process(cmd, cwd, env, timeout, stdout):
    """Run a command in its own process group; on timeout kill the group
    and wait for it. Returns (exit code or None on timeout, stdout text)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def build(stamp):
    """Compile with sbt and record the runtime class path."""
    if os.path.exists(STAMP_FILE) and os.path.exists(CLASSPATH_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                return
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"] + opts
        env["SBT_OPTS"] = " ".join(opts)
    log("building engine and benchmark with sbt")
    t0 = time.time()
    code, out = run_process(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        BENCH_DIR, env, BUILD_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        if out:
            sys.stderr.write(out)
        fail(f"build failed (exit {code})")
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out)
        fail("build printed no class path")
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(lines[-1].strip())
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp)
    log(f"built in {time.time() - t0:.0f} s")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that planted wrong results are caught")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    missing = [f for f in REQUIRED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    stamp = source_stamp()
    build(stamp)
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()

    cores = len(os.sched_getaffinity(0))
    name = "self-test" if a.self_test else f"{a.workload}-seed{a.seed}-trace{a.trace}"
    work = os.path.join(BUILD_DIR, "work", f"{name}-{os.getpid()}")
    report = os.path.join(BUILD_DIR, "reports", f"{name}.json")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}"] + JVM_GC
           + [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
           + ["-Djdk.reflect.useDirectMethodHandle=false",
              f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
              f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}",
              "-Dspark.driver.host=127.0.0.1",
              "-cp", classpath, "repro.perfbench.Main",
              "--cores", str(cores), "--work-dir", work, "--report", report,
              "--source-id", source_id(stamp)])
    if a.self_test:
        cmd += ["--self-test", "1"]
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
    deadline = RUN_DEADLINE_S
    try:
        code, out = run_process(cmd, ROOT, dict(os.environ), deadline, subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {deadline:.0f} s", 3)
    lines = out.splitlines()
    if a.self_test:
        print("\n".join(lines), flush=True)
        sys.exit(code)
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with code {code}", code or 1)
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    names = declared_metrics(a.trace == 1)
    absent = [n for n in names if n not in result["metrics"]]
    if absent:
        fail("metrics not measured: " + ", ".join(absent), 4)
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
