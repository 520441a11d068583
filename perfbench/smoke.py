#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload, untraced and traced, on
tiny inputs, must exit 0 with a correct result that names exactly the
metrics BENCHMARK.json lists, with their units.

    python3 perfbench/smoke.py

Run from the root of the checkout; builds through perfbench/run.py first.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in ("0", "1"):
            cmd = spec["command"] + ["--workload", w, "--seed", "1",
                                     "--seconds", "1", "--trace", trace,
                                     "--smoke"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            tag = "%s trace=%s" % (w, trace)
            before = len(problems)
            if p.returncode != 0:
                problems.append("%s: exit %d: %s" % (tag, p.returncode,
                                                     p.stderr[-500:]))
                continue
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: not correct: %s" % (tag, lines[-1][:200]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append("%s: metrics differ: missing %s, extra %s, "
                                "or units differ" % (tag, missing, extra))
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]):
                    problems.append("%s: %s is not a finite number" % (tag, k))
            if w != "serve-zipf" and not any(l.startswith("# ledger ")
                                             for l in lines):
                problems.append("%s: no model-count ledger" % tag)
            print("ok " if len(problems) == before else "BAD", tag, flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
