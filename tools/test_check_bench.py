#!/usr/bin/env python3
"""Exercise check_bench.py on every committed baseline.

Usage: test_check_bench.py BENCH_DIR

For each BENCH_*.baseline.json in BENCH_DIR: the baseline passes
against itself; for every rule and every run it binds, a copy sitting
exactly on the limit passes and a copy pushed one ulp past it fails;
a copy with any one run deleted fails; a baseline stripped of its gate
block fails.

Exit status: 0 when every case behaves, 1 otherwise.
"""

import copy
import glob
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench import check, main as check_main  # noqa: E402


def limits(rule, base):
    """The limit a rule puts on `base`, and the direction past it."""
    if "at_most" in rule:
        f, s = rule["at_most"]
        return f * base + s, math.inf
    return base - rule["at_least"], -math.inf


def main(argv):
    paths = sorted(glob.glob(os.path.join(argv[1], "BENCH_*.baseline.json")))
    failures = [] if paths else ["no baselines under %s" % argv[1]]

    def expect(passes, doc, baseline, what):
        if (check(doc, baseline) == []) != passes:
            failures.append("%s %s" % (what, "fails" if passes else "passes"))

    for path in paths:
        with open(path) as f:
            baseline = json.load(f)
        name = os.path.basename(path)
        if check_main(["check_bench.py", path, path]) != 0:
            failures.append("%s: fails against itself" % name)
        for i, run in enumerate(baseline["runs"]):
            for rule in baseline["gate"]["rules"]:
                field = rule["field"]
                if field not in run:
                    continue
                limit, past = limits(rule, float(run[field]))
                cur = copy.deepcopy(baseline)
                what = "%s run %d %s" % (name, i, field)
                cur["runs"][i][field] = limit
                expect(True, cur, baseline, what + " on the limit")
                cur["runs"][i][field] = math.nextafter(limit, past)
                expect(False, cur, baseline, what + " past the limit")
            cur = copy.deepcopy(baseline)
            del cur["runs"][i]
            expect(False, cur, baseline, "%s without run %d" % (name, i))
        stripped = {k: v for k, v in baseline.items() if k != "gate"}
        expect(False, stripped, stripped, name + " without its gate block")

    for f in failures:
        print("FAIL: " + f)
    print("%d baselines, %d failures" % (len(paths), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
