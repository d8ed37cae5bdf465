#!/usr/bin/env python3
"""Validate the `BENCH {...}` JSON lines a benchmark binary printed.

Usage: check_bench.py <output-file> <required-name> [<required-name> ...]

Fails (exit 1) if any `BENCH ` line is not followed by a single valid JSON
object with a string `name` field, if any required name never appears, or if a
record of a known name is missing the keys its schema requires — so a refactor
that silently empties a record (a latency record without its percentiles, a
fan-out point without its throughput) breaks the build instead of the perf
trajectory. CI pipes each bench smoke run through a file and calls
this afterwards.
"""

import json
import sys

# Per-record required keys, by record name. Names absent from this table are
# only checked for basic shape (a JSON object with a string `name`).
SCHEMAS = {
    "micro_latency": {"experiment", "workers", "load", "p50_ns", "p99_ns"},
    "micro_throughput": {"workers", "updates", "records_per_s"},
    "micro_join_install": {"keys", "size", "latency_us"},
    # `micro --reduce-bulk`: a count over every key of a collection loaded in one
    # epoch, one record per key count (each double the last). Records after the first
    # also carry `ratio_2x` (this size's ms over the previous size's): a linear
    # reduce doubles, so that is the number to watch, not the milliseconds.
    "micro_reduce_bulk": {"keys", "ms"},
    # `micro --durable-epoch`: the same 100-update epochs on an in-memory and on a
    # durable core, one record per state size (each double the last). `overhead_us`
    # is durable minus in-memory; records after the first also carry
    # `overhead_vs_smallest_x`, which must stay near 1: durability costs O(changes),
    # so an epoch of fixed size does not notice the state growing.
    "micro_durable_epoch": {"rows", "memory_us", "durable_us", "overhead_us"},
    # `micro --spine-merge`: the same 100-update epoch inserted into a `Row`-keyed spine,
    # one record per rows held (each double the last). `per_epoch_us` is the mean
    # `Spine::insert`; `vs_smallest_x` (its ratio to the first size's) may grow with the
    # layer count — logarithmically — but never with the rows; `ns_per_fuel_unit` is
    # what the merge kernel charges per unit of fuel on a two-batch merge of that size.
    "micro_spine_merge": {"rows", "per_epoch_us", "ns_per_fuel_unit", "vs_smallest_x"},
    # The fault-injection sweep: every point must be answered without panics or
    # invariant violations, and heal latency (fault cleared -> read-write again)
    # is the robustness number being tracked.
    "chaos_sweep": {
        "seed",
        "steps",
        "fault_points",
        "exercised",
        "panics",
        "violations",
        "degraded_transitions",
        "heals",
        "heal_p50_ns",
        "heal_p99_ns",
    },
    # The workload bins (`tpch`, `datalog`, `graspan`, `graph_batch`): one record per
    # table row, emitted only after every answer behind the row matched its scalar
    # baseline. The required keys identify the row; which measurements accompany them
    # depends on the table.
    "tpch": {"table", "query"},
    "datalog": {"table", "program", "graph"},
    "graspan": {"table", "graph", "variables"},
    "graph_batch": {"graph", "system", "workers"},
    # Per-command cost of the network boundary (codec + framing + sequencer +
    # all-worker execution, full loopback round trip) vs direct Manager::execute.
    # One point of the multi-client fan-out curve: N concurrent connections
    # against one reactor, single-update RTT percentiles across all of them plus
    # aggregate throughput. A flat rtt_p50_ns across clients is the event-driven
    # fabric's acceptance shape.
    "server_fanout": {
        "workers",
        "clients",
        "updates",
        "rtt_p50_ns",
        "rtt_p99_ns",
        "throughput_per_s",
        "durable",
    },
}


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    path, required = sys.argv[1], set(sys.argv[2:])

    seen = set()
    errors = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.startswith("BENCH "):
                continue
            body = line[len("BENCH "):].strip()
            try:
                record = json.loads(body)
            except json.JSONDecodeError as exc:
                errors.append(f"{path}:{lineno}: unparsable BENCH line: {exc}")
                continue
            if not isinstance(record, dict) or not isinstance(record.get("name"), str):
                errors.append(f"{path}:{lineno}: BENCH object lacks a string 'name'")
                continue
            name = record["name"]
            missing = SCHEMAS.get(name, set()) - record.keys()
            if missing:
                errors.append(
                    f"{path}:{lineno}: {name} record is missing required keys: "
                    + ", ".join(sorted(missing))
                )
                continue
            seen.add(name)
            print(f"ok: {path}:{lineno}: {name} ({len(record)} fields)")

    for name in sorted(required - seen):
        errors.append(f"{path}: required BENCH record {name!r} never emitted")

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
