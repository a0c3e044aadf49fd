#!/usr/bin/env python3
"""Gate a bench report against its committed baseline.

Usage: check_bench.py CURRENT.json BASELINE.json

The baseline carries its own thresholds in a "gate" block:

  "gate": {"key": ["label", "P"],
           "rules": [{"field": "wall_s", "at_most": [2.0, 0.25]},
                     {"field": "hit_rate", "at_least": 1e-9}]}

Runs are matched on the key fields. Every baseline run must be present
in the current report, and every rule binds every baseline run that
carries its field:

  at_most [f, s]   current <= f * baseline + s
  at_least e       current >= baseline - e

A baseline without a gate block fails, as does a rule that binds no
run, so a re-baseline that drops the block cannot pass silently.
Invariants that need no baseline (aggregation engaged, every verdict
a pass, zero crashed requests) are asserted by the bench binaries,
which exit nonzero before a report is written.

Exit status: 0 when every check passes, 1 otherwise.
"""

import json
import sys


def check(current, baseline):
    """Return the list of gate failures of `current` against `baseline`."""
    gate = baseline.get("gate")
    if not gate or not gate.get("rules"):
        return ["baseline has no gate block"]
    rules, base_runs = gate["rules"], baseline.get("runs", [])
    errors = ["rule %s needs exactly one of at_most, at_least"
              % json.dumps(r) for r in rules
              if ("at_most" in r) == ("at_least" in r)]
    errors += ["rule %s binds no baseline run" % json.dumps(r) for r in rules
               if not any(r["field"] in run for run in base_runs)]
    if errors:
        return errors
    key = lambda run: tuple(run.get(k) for k in gate["key"])
    runs = {key(r): r for r in current.get("runs", [])}
    for base in base_runs:
        name = " ".join(str(v) for v in key(base))
        cur = runs.get(key(base))
        if cur is None:
            errors.append("%s: missing from the current report" % name)
            continue
        for rule in rules:
            field = rule["field"]
            if field not in base:
                continue
            if field not in cur:
                errors.append("%s: no %s" % (name, field))
                continue
            b, c = float(base[field]), float(cur[field])
            if "at_most" in rule:
                f, s = rule["at_most"]
                op, limit = "<=", f * b + s
                ok = c <= limit
            else:
                op, limit = ">=", b - rule["at_least"]
                ok = c >= limit
            if not ok:
                errors.append("%s: %s = %.9g, want %s %.9g (baseline %.9g)"
                              % (name, field, c, op, limit, b))
    return errors


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 1
    docs = []
    for path in argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    errors = check(*docs)
    for e in errors:
        print("FAIL: %s" % e)
    if not errors:
        print("ok: %s within %s" % (argv[1], argv[2]))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
