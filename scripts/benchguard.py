#!/usr/bin/env python3
"""Fail when a pinned hot benchmark regresses against the committed
numbers.

Usage: benchguard.py BENCH_OUTPUT_FILE JSON_PATH [SECTION]

Compares the fresh `go test -bench` output against the given section of
BENCH_single_trial.json (default "current") and exits non-zero if any
pinned benchmark's ns/op regressed by more than the tolerance
(BENCH_GUARD_TOLERANCE, default 0.20 = 20%), or if a pin recorded at 0
allocs/op allocates: allocation counts do not drift with host speed, so
that check holds on every runner.

Only the pinned set below is enforced: these are the per-frame hot
leaves whose cost the evaluation's wall-clock floor is built on (plus
the fault-churn bookkeeping loop, the per-epoch overhead every fault
trial pays; the surrogate and diurnal-million sweeps, the scale
contracts of the fidelity tiers and the streaming arrival API: ~100k
sessions over 1000 machines and ~1M sessions over 10k machines must
stay in whole-seconds territory; the round-robin offer on a
saturated 10k-machine fleet, which the headroom index keeps at
O(log n) instead of a probe of every machine; the least-count,
least-demand and bin-packing offers on that fleet (bin-packing scored
against a fixed six-profile interference table), which the fit-masked
ranking trees keep at a descent that skips every subtree with no
fitting machine or no machine that could beat the best so far, instead
of a scan of every fitting machine; two layers of the diurnal-million
sweep in isolation, the arrival source's cost per session and the
surrogate's cost per machine-epoch; one frame copy through an
otherwise idle shared link, the PCIe and NIC traffic every simulated
frame makes, which the link serves with a single completion event; and
the event kernel's cost per scheduled event with one event pending,
which its value heap keeps free of allocation and interface calls),
and they are stable enough (no allocation churn, no I/O) that a >20%
move is a code regression, not noise.

A pinned benchmark with no recorded entry in the JSON fails the guard:
a silently missing pin is indistinguishable from an unguarded
regression. A pinned benchmark absent from the *fresh run* is only
reported — the CI bench regex and the pin set can evolve independently
— but a missing recorded number means someone pinned a benchmark
without recording it (or renamed one without updating the JSON), and
the fix is to add its numbers to the JSON section.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from benchjson import parse  # noqa: E402  (shared bench-line parser)

PINNED = [
    "BenchmarkSceneRender",
    "BenchmarkDetect",
    "BenchmarkBatchDetect/B8",
    "BenchmarkMatMulTransB",
    "BenchmarkLSTMStep",
    "BenchmarkDenseForward",
    "BenchmarkTracerFramePath",
    "BenchmarkFaultChurnBookkeeping",
    "BenchmarkSurrogateSweep",
    "BenchmarkDiurnalMillionSweep",
    "BenchmarkPlacementSaturated/roundrobin",
    "BenchmarkPlacementSaturated/leastcount",
    "BenchmarkPlacementSaturated/leastdemand",
    "BenchmarkPlacementSaturated/binpack",
    "BenchmarkArrivalSource",
    "BenchmarkSurrogateEpoch",
    "BenchmarkSharedLinkTransfer/single",
    "BenchmarkKernelEventChurn",
]


def main():
    bench_out, json_path = sys.argv[1], sys.argv[2]
    section = sys.argv[3] if len(sys.argv) > 3 else "current"
    tolerance = float(os.environ.get("BENCH_GUARD_TOLERANCE", "0.20"))
    fresh = parse(bench_out)
    with open(json_path) as fh:
        doc = json.load(fh)
    if section not in doc or "benchmarks" not in doc.get(section, {}):
        print(f"benchguard: FAIL: {json_path} has no [{section}][benchmarks] "
              f"section (sections present: {', '.join(sorted(doc))}) — "
              f"pass an existing section name or record one")
        return 1
    recorded = doc[section]["benchmarks"]

    failures = []
    for name in PINNED:
        if name not in recorded:
            print(f"benchguard: FAIL: {name} is pinned but has no recorded "
                  f"entry in [{section}] of {json_path} — record its "
                  f"ns_op there (run `go test -bench '{name}$' -benchtime "
                  f"500ms` and add the result) or unpin it")
            failures.append(name)
            continue
        if name not in fresh:
            print(f"benchguard: {name}: not present in this run — skipped")
            continue
        got, want = fresh[name]["ns_op"], recorded[name]["ns_op"]
        ratio = got / want if want else float("inf")
        verdict = "ok"
        if ratio > 1 + tolerance:
            verdict = "REGRESSED"
        allocs = fresh[name].get("allocs_op", 0)
        if recorded[name].get("allocs_op") == 0 and allocs > 0:
            verdict = f"ALLOCATES ({allocs:g} allocs/op, recorded 0)"
        if verdict != "ok":
            failures.append(name)
        print(f"benchguard: {name}: {want:.1f} -> {got:.1f} ns/op "
              f"({(ratio - 1) * 100:+.1f}%, tolerance {tolerance:.0%}) {verdict}")

    if failures:
        print(f"benchguard: FAIL: {len(failures)} pinned benchmark(s) regressed "
              f">{tolerance:.0%}, allocated where 0 allocs/op is recorded or "
              f"went unrecorded vs [{section}] of {json_path}: "
              f"{', '.join(failures)}")
        return 1
    print(f"benchguard: all pinned benchmarks within {tolerance:.0%} of [{section}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
