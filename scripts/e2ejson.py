#!/usr/bin/env python3
"""Fold end-to-end benchmark records into BENCH_e2e.json.

Usage: e2ejson.py RECORDS_JSONL JSON_PATH

RECORDS_JSONL holds the records `bash bench/run.sh -append FILE` writes:
one JSON line per invocation, stamped with the commit it measured, each
carrying every workload's metrics, seed and output digest. All records
in the file must come from one commit and one set of run settings
(-seconds, -runs, -trace); make one file per commit.

For each workload the script summarizes the end-to-end metrics that
BENCHMARK.json lists (setup_s, work_per_s, peak_rss_mb,
alloc_kib_per_work): the first quartile, median and third quartile over
the records, by Python's statistics.quantiles (n=4, the "exclusive"
method `bench/run.sh compare` uses), with the seeds measured, the
output digest of each seed, and the operations attempted and failed.

The summary replaces the file's "current" section and is appended to
its "history" list, so earlier recordings stay in the file:
performance is kept as a series, not a snapshot.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTINGS = ("seconds", "runs", "trace")


def end_to_end():
    """The end-to-end metrics BENCHMARK.json declares, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: {"unit": m["unit"], "better": m["better"]}
                for m in json.load(fh)["end_to_end"]}


def load(path):
    records = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as err:
                    sys.exit(f"e2ejson: {path}:{n}: {err}")
    if not records:
        sys.exit(f"e2ejson: no records in {path}")
    for key in ("commit",) + SETTINGS:
        values = {json.dumps(r.get(key)) for r in records}
        if len(values) > 1:
            sys.exit(f"e2ejson: {path} mixes {key} values {sorted(values)}; "
                     f"make one file per commit and setting")
    return records


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def summarize(records, metrics):
    """Per workload: quartiles of each end-to-end metric over the records."""
    workloads = {}
    for rec in records:
        for w in rec["workloads"]:
            s = workloads.setdefault(w["workload"], {
                "seeds": [], "digests": {}, "attempted": 0, "failed": 0,
                "samples": {name: [] for name in metrics}})
            s["seeds"].append(w["seed"])
            s["digests"][str(w["seed"])] = w["digest"]
            s["attempted"] += w["attempted"]
            s["failed"] += w["failed"]
            for name in metrics:
                m = w["metrics"].get(name)
                if m is not None:
                    s["samples"][name].append(m["value"])
    for s in workloads.values():
        samples = s.pop("samples")
        s["runs"] = len(s["seeds"])
        s["seeds"] = sorted(set(s["seeds"]))
        s["metrics"] = {}
        for name, xs in samples.items():
            if xs:
                q1, q2, q3 = quartiles(xs)
                s["metrics"][name] = {"q1": q1, "median": q2, "q3": q3}
    return workloads


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    records_path, json_path = sys.argv[1], sys.argv[2]
    metrics = end_to_end()
    records = load(records_path)
    try:
        with open(json_path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc["metrics"] = metrics
    first = records[0]
    entry = {
        "commit": first["commit"],
        "date": max(r["time"] for r in records),
        "go": first["go"],
        "nproc": first["nproc"],
        "settings": {k: first[k] for k in SETTINGS},
        "workloads": summarize(records, metrics),
    }
    doc["current"] = entry
    doc.setdefault("history", []).append(entry)
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records of {entry['commit']} to {json_path} "
          f"({len(doc['history'])} recordings in history)")
    for name, w in sorted(entry["workloads"].items()):
        cells = ", ".join(f"{m} {v['median']:.4g} [{v['q1']:.4g}, {v['q3']:.4g}]"
                          for m, v in w["metrics"].items())
        print(f"  {name}: {cells}")


if __name__ == "__main__":
    main()
