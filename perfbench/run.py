#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]

Run from the root of a checkout. The first run compiles the harness and the
program under test with sbt (offline; classes in perfbench/target, classpath,
Spark scratch space and temporary files in .bench_build/perfbench); later runs
reuse the build until a source file changes. The harness runs in one JVM; its
last stdout line is the JSON result. Exits non-zero if the build or the run
fails, or if any correctness check fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CLASSPATH = BUILD / "classpath.txt"
WORKLOADS = ("orders_trickle", "orders_batch", "tc_edge_updates")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def sources():
    roots = [ROOT / "src" / "main" / "scala", ROOT / "jobs", HERE / "src"]
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for r in roots:
        files += r.rglob("*.scala")
    return files


def build():
    """Compile with sbt unless the recorded classpath is newer than every source."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        sys.exit("perfbench: the program sources (src/main/scala/repro) are missing")
    srcs = sources()
    if CLASSPATH.exists() and all(f.stat().st_mtime < CLASSPATH.stat().st_mtime for f in srcs):
        return CLASSPATH.read_text().strip()
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        # Resolve only from the local caches, as the repository's own build does.
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "[" in lines[-1]:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")
    CLASSPATH.write_text(lines[-1])
    return lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--toy", action="store_true", help="toy sizes, two ticks (smoke test)")
    a = ap.parse_args()

    cp = build()
    tmp = BUILD / "tmp"
    local = BUILD / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(local))
    cmd = ["java", "-Xmx3g", f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.toy:
        cmd.append("--toy")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    sys.stdout.write(out)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench: run failed (exit {proc.returncode})")


if __name__ == "__main__":
    main()
