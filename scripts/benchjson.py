#!/usr/bin/env python3
"""Parse `go test -bench` output into BENCH_single_trial.json.

Usage: benchjson.py BENCH_OUTPUT_FILE JSON_PATH [SECTION]

Records ns/op, B/op and allocs/op per benchmark under the given section
(default "current"): each benchmark in the output replaces its entry
there, and entries for benchmarks the output does not hold are kept, so
the section always has the latest number of every benchmark ever
recorded in it — the reference benchguard.py compares against. Other
sections already in the JSON file — notably the pinned "baseline"
section recording the pre-optimization numbers — are preserved.

Every recording is also appended to the file's "history" list as
{section, commit, date, benchmarks}, holding exactly what that run
measured, so earlier numbers stay in the file after a later recording
replaces them in the section. When the list does not exist yet, the
section's existing numbers open it (date null: they predate it).

The commit is `git rev-parse --short HEAD`, with "+dirty" appended when
the working tree has uncommitted changes, and the date is the UTC time
of recording; the section carries its latest recording's commit, and
history tells which recording measured each entry. A per-benchmark
delta summary of the section against the "baseline" section is printed
after writing.
"""
import json
import re
import subprocess
import sys
from datetime import datetime, timezone

LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$")
METRIC = re.compile(r"([-+\d.eE]+) (\S+)")
# The standard units' keys; a custom b.ReportMetric unit (rejects/offer)
# is recorded under its own name.
KEYS = {"ns/op": "ns_op", "B/op": "b_op", "allocs/op": "allocs_op"}


def parse(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            m = LINE.match(line.strip())
            if not m:
                continue
            name, iters, rest = m.groups()
            rec = {"iterations": int(iters)}
            for value, unit in METRIC.findall(rest):
                rec[KEYS.get(unit, unit)] = float(value)
            if "ns_op" in rec:
                out[name] = rec
    return out


def commit_stamp():
    """The measured-at commit: short HEAD, marked when the tree is dirty."""
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    if not head:
        return "unknown"
    dirty = subprocess.run(
        ["git", "status", "--porcelain"], capture_output=True, text=True
    ).stdout.strip()
    return head + "+dirty" if dirty else head


def print_deltas(doc, section, against="baseline"):
    """Per-benchmark ns/op delta of `section` vs `against`."""
    if against not in doc or against == section:
        return
    cur = doc[section]["benchmarks"]
    base = doc[against]["benchmarks"]
    shared = sorted(set(cur) & set(base))
    if not shared:
        return
    width = max(len(n) for n in shared)
    print(f"\n{section} ({doc[section]['commit']}) vs "
          f"{against} ({doc[against]['commit']}), ns/op:")
    for name in shared:
        c, b = cur[name]["ns_op"], base[name]["ns_op"]
        delta = (c - b) / b * 100 if b else float("nan")
        print(f"  {name:<{width}}  {b:>14.1f} -> {c:>14.1f}  {delta:+7.1f}%")
    only = sorted(set(cur) - set(base))
    if only:
        print(f"  (no {against} entry: {', '.join(only)})")


def main():
    bench_out, json_path = sys.argv[1], sys.argv[2]
    section = sys.argv[3] if len(sys.argv) > 3 else "current"
    try:
        with open(json_path) as fh:
            doc = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        doc = {}
    doc.setdefault("units", {"time": "ns/op", "mem": "B/op", "allocs": "allocs/op"})
    fresh = parse(bench_out)
    if not fresh:
        sys.exit(f"benchjson: no benchmark results in {bench_out}; {json_path} left as it was")
    commit = commit_stamp()
    history = doc.setdefault("history", [])
    if not history and section in doc:
        history.append({"section": section, "commit": doc[section].get("commit"),
                        "date": None, "benchmarks": doc[section]["benchmarks"]})
    history.append({"section": section, "commit": commit,
                    "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "benchmarks": fresh})
    recorded = dict(doc.get(section, {}).get("benchmarks", {}))
    recorded.update(fresh)
    doc[section] = {"commit": commit, "benchmarks": recorded}
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fresh)} benchmarks to {json_path} [{section}] "
          f"({len(recorded)} recorded there, {len(history)} recordings in history)")
    print_deltas(doc, section)


if __name__ == "__main__":
    main()
