#!/usr/bin/env python3
"""Build and run the whole-determination benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dtop checkout. The first run configures and builds
perfbench/ (which pulls in the dtop libraries from the checkout) as an
optimized build under .bench_build/ (or $CARGO_TARGET_DIR when set); later
runs only re-check the build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the checkout holds no dtop sources or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no dtop sources beside perfbench/ "
                         "(expected CMakeLists.txt and src/ in %s)\n" % ROOT)
        return None
    out = os.path.join(build_dir(), "perfbench")
    # The compiler's scratch files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", out, "--target", "dtop_perfbench",
                        "-j", jobs], stdout=sys.stderr, env=env) != 0:
        return None
    return os.path.join(out, "dtop_perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
