#!/usr/bin/env python3
"""Validate JSON artifacts from `ancc --comm-matrix` and `ancc --explain`.

The file kind is sniffed from the top-level keys ("runs" -> a
communication-matrix file, "tier" -> an explain record), so CI can
point this script at any mix of artifacts.

Communication matrices ({"runs": [...]}) must satisfy the structural
contract the C++ unit tests pin on the in-memory form:

  * each run has an integer "processors" >= 1 and a boolean
    "aggregated" selecting the direct or class-pair form;
  * direct form: "rows" sorted by origin, each origin in [0, P), each
    row's "edges" sorted by owner, owners in [0, P) and never the
    origin itself, every edge carrying the three non-negative
    counters and at least one nonzero (empty edges are pruned);
  * aggregated form: "classes" entries with "rep" in [0, P),
    "multiplicity" >= 1 summing to exactly P, at most one flagged
    "default"; "cells" indexing valid classes with at least one
    nonzero counter.

Explain records must present the fixed key set in the documented
order, verdicts and schemes from the fixed vocabularies, access rows
numbered 0..n-1 before any synthesized rows, and per-reference scores
with non-empty names and verdicts.

A plan-search trail must keep the search's scoring contract:

  * every verdict comes from the search vocabulary;
  * "winner", "scored" and "failed-validation" entries carry a time for
    every swept size, and "totalUs" is their sum;
  * "inadmissible" entries stopped scoring at the first size where they
    were slower than the heuristic: their times are <= the heuristic's
    at every index but the last, strictly above it at the last, and
    "totalUs" is -1;
  * "pruned", "redundant" and "rejected" entries have no times and a
    "totalUs" of -1;
  * "scored" counts the entries that reached the simulator (winner,
    scored, inadmissible, failed-validation) and "pruned" the pruned
    ones.

Exit status: 0 when every file passes, 1 otherwise.
"""

import json
import math
import sys

COUNTERS = ("remoteElements", "blockTransfers", "blockElements")
VERDICTS = {"kept", "reversed", "dropped", "unused"}
SCHEMES = {"round-robin", "owner-wrapped", "owner-blocked",
           "owner-block2d"}
EXPLAIN_KEYS = ["tier", "degraded", "partial", "transform",
                "unimodular", "plan", "search", "candidates", "refs",
                "notes"]
PLAN_KEYS = ["scheme", "rationale", "tieBreak", "outerParallel",
             "hoists"]
SEARCH_KEYS = ["ran", "improved", "enumerated", "scored", "pruned",
               "processorSweep", "heuristicTimesUs", "winnerTimesUs",
               "winnerOrigin", "tieBreak", "trail"]
FULL_SWEEP = {"winner", "scored", "failed-validation"}
UNSCORED = {"pruned", "redundant", "rejected"}
SEARCH_VERDICTS = FULL_SWEEP | UNSCORED | {"inadmissible"}


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_edge(edge, origin, procs, where, errors):
    def bad(msg):
        errors.append("%s: %s: %r" % (where, msg, edge))

    if not isinstance(edge, dict):
        bad("edge is not an object")
        return None
    owner = edge.get("owner")
    if not is_count(owner) or owner >= procs:
        bad("owner out of range")
        return None
    if owner == origin:
        bad("self edge (local traffic is never a matrix entry)")
    counts = [edge.get(k) for k in COUNTERS]
    if not all(is_count(c) for c in counts):
        bad("missing or negative counter")
        return owner
    if not any(counts):
        bad("empty edge survived pruning")
    return owner


def check_direct(run, idx, errors):
    def bad(msg):
        errors.append("run %d: %s" % (idx, msg))

    procs = run["processors"]
    rows = run.get("rows")
    if not isinstance(rows, list):
        bad("direct run without a rows list")
        return
    last_origin = -1
    for row in rows:
        origin = row.get("origin") if isinstance(row, dict) else None
        if not is_count(origin) or origin >= procs:
            bad("origin out of range: %r" % (row,))
            continue
        if origin <= last_origin:
            bad("rows not strictly sorted at origin %d" % origin)
        last_origin = origin
        last_owner = -1
        for edge in row.get("edges", []):
            where = "run %d origin %d" % (idx, origin)
            owner = check_edge(edge, origin, procs, where, errors)
            if owner is None:
                continue
            if owner <= last_owner:
                bad("edges not owner-sorted at origin %d" % origin)
            last_owner = owner


def check_aggregated(run, idx, errors):
    def bad(msg):
        errors.append("run %d: %s" % (idx, msg))

    procs = run["processors"]
    classes = run.get("classes")
    cells = run.get("cells")
    if not isinstance(classes, list) or not classes:
        bad("aggregated run without classes")
        return
    members = 0
    defaults = 0
    for c in classes:
        rep = c.get("rep") if isinstance(c, dict) else None
        mult = c.get("multiplicity") if isinstance(c, dict) else None
        if not is_count(rep) or rep >= procs:
            bad("class rep out of range: %r" % (c,))
        if not is_count(mult) or mult < 1:
            bad("class multiplicity < 1: %r" % (c,))
        else:
            members += mult
        defaults += bool(c.get("default"))
    if members != procs:
        bad("class multiplicities sum to %d, not %d"
            % (members, procs))
    if defaults > 1:
        bad("%d default classes (at most one allowed)" % defaults)
    if not isinstance(cells, list):
        bad("aggregated run without a cells list")
        return
    for cell in cells:
        where = "run %d cell" % idx
        if not isinstance(cell, dict):
            errors.append("%s: not an object: %r" % (where, cell))
            continue
        for key in ("from", "to"):
            if not is_count(cell.get(key)) or \
                    cell[key] >= len(classes):
                errors.append("%s: %s indexes no class: %r"
                              % (where, key, cell))
        counts = [cell.get(k) for k in COUNTERS]
        if not all(is_count(c) for c in counts):
            errors.append("%s: missing or negative counter: %r"
                          % (where, cell))
        elif not any(counts):
            errors.append("%s: empty cell survived pruning: %r"
                          % (where, cell))


def check_comm(doc, errors):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append("no runs recorded")
        return 0
    for idx, run in enumerate(runs):
        if not isinstance(run, dict) or not is_count(
                run.get("processors")) or run["processors"] < 1:
            errors.append("run %d: missing processors" % idx)
            continue
        if run.get("aggregated") is True:
            check_aggregated(run, idx, errors)
        elif run.get("aggregated") is False:
            check_direct(run, idx, errors)
        else:
            errors.append("run %d: aggregated is not a bool" % idx)
    return len(runs)


def check_trail(search, errors):
    sweep = search["processorSweep"]
    heur = search["heuristicTimesUs"]
    counts = dict.fromkeys(SEARCH_VERDICTS, 0)
    for t in search["trail"]:
        def bad(msg):
            errors.append("search trail: %s: %r" % (msg, t))

        verdict = t.get("verdict") if isinstance(t, dict) else None
        if verdict not in SEARCH_VERDICTS:
            bad("unknown verdict")
            continue
        counts[verdict] += 1
        times, total = t.get("simTimesUs"), t.get("totalUs")
        if not isinstance(times, list) or \
                not isinstance(total, (int, float)):
            bad("simTimesUs/totalUs missing")
            continue
        if verdict in FULL_SWEEP:
            if len(times) != len(sweep):
                bad("scored without a time for every swept size")
            # Rendered with 9 significant digits: compare to that.
            elif not math.isclose(total, sum(times), rel_tol=1e-8):
                bad("totalUs is not the sum of simTimesUs")
        elif verdict == "inadmissible":
            n = len(times)
            if not 1 <= n <= len(heur):
                bad("inadmissible times are not a prefix of the sweep")
            elif any(times[j] > heur[j] for j in range(n - 1)) or \
                    not times[-1] > heur[n - 1]:
                bad("scoring did not stop at the first size slower "
                    "than the heuristic")
            if total != -1:
                bad("inadmissible totalUs is not -1")
        elif times or total != -1:
            bad("unscored entry with times")
    reached = sum(counts[v] for v in FULL_SWEEP) + counts["inadmissible"]
    if reached != search["scored"]:
        errors.append("search.scored %r but %d trail entries were scored"
                      % (search["scored"], reached))
    if counts["pruned"] != search["pruned"]:
        errors.append("search.pruned %r but %d trail entries are pruned"
                      % (search["pruned"], counts["pruned"]))


def check_explain(doc, raw, errors):
    pos = 0
    for key in EXPLAIN_KEYS:
        at = raw.find('"%s"' % key, pos)
        if at < 0:
            errors.append("key %r missing or out of order" % key)
            return
        pos = at
    plan = doc.get("plan")
    if not isinstance(plan, dict) or \
            [k for k in PLAN_KEYS if k not in plan]:
        errors.append("plan object incomplete: %r" % (plan,))
        return
    if plan["scheme"] not in SCHEMES:
        errors.append("unknown scheme %r" % (plan["scheme"],))
    search = doc.get("search")
    if not isinstance(search, dict) or \
            [k for k in SEARCH_KEYS if k not in search]:
        errors.append("search object incomplete: %r" % (search,))
    else:
        if not isinstance(search["ran"], bool) or \
                not isinstance(search["improved"], bool):
            errors.append("search.ran/improved are not bools")
        if not isinstance(search["trail"], list):
            errors.append("search.trail is not a list")
        else:
            check_trail(search, errors)
    for key in ("degraded", "partial", "unimodular"):
        if not isinstance(doc.get(key), bool):
            errors.append("%s is not a bool" % key)
    access_rows = 0
    synth = False
    for cand in doc.get("candidates", []):
        if cand.get("verdict") not in VERDICTS:
            errors.append("unknown verdict: %r" % (cand,))
        row = cand.get("accessRow")
        if isinstance(row, int) and row >= 0:
            if synth or row != access_rows:
                errors.append(
                    "access rows not 0..n-1 before synthesized "
                    "rows: %r" % (cand,))
            access_rows += 1
        else:
            synth = True
    for ref in doc.get("refs", []):
        if not isinstance(ref, dict) or not ref.get("ref") \
                or not ref.get("verdict"):
            errors.append("ref score without name or verdict: %r"
                          % (ref,))
    if not isinstance(doc.get("notes"), list):
        errors.append("notes is not a list")


def check_file(path):
    errors = []
    try:
        with open(path) as f:
            raw = f.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        return ["unreadable: %s" % exc], ""
    if not isinstance(doc, dict):
        return ["top level is not an object"], ""
    if "runs" in doc:
        n = check_comm(doc, errors)
        kind = "comm matrix, %d run(s)" % n
    elif "tier" in doc:
        check_explain(doc, raw, errors)
        kind = "explain record, tier=%s" % doc.get("tier")
    else:
        return ["neither a comm-matrix nor an explain file"], ""
    return errors, kind


def main(argv):
    if len(argv) < 2:
        print("usage: check_comm.py ARTIFACT.json...",
              file=sys.stderr)
        return 1
    failed = False
    for path in argv[1:]:
        errors, kind = check_file(path)
        if errors:
            failed = True
            for e in errors[:20]:
                print("%s: %s" % (path, e), file=sys.stderr)
            if len(errors) > 20:
                print("%s: ... and %d more"
                      % (path, len(errors) - 20), file=sys.stderr)
        else:
            print("%s: OK (%s)" % (path, kind))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
