#!/usr/bin/env bash
# Compare two BENCH_throughput.json files row by row.
#
#   scripts/bench_diff.sh OLD.json NEW.json
#
# Rows are matched on (protocol, transport, wal_backend, group_commit,
# optimizations) — files from before the backend axis existed fall back
# to "log", and rows from before the optimization axis default to
# "baseline" — and the
# table shows txn/s, commit-latency p99 and physical flushes side by
# side with percentage deltas, followed by the scale-curve rows
# (matched on lanes × in-flight × saturation), the failure-path rows
# (in-doubt p99, recovery duration) and the saturation cell's windowed
# timeline summary when both files carry them. Exits non-zero on
# malformed input, schema drift (a row missing its required fields, or
# the timeline section disappearing after it existed) or a NEW row whose
# configuration was not live (group commit on, yet no batching), never
# on a slow result — CI runs it as a schema and liveness gate, the
# deltas themselves are warn-only.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD.json NEW.json" >&2
    exit 2
fi

python3 - "$1" "$2" <<'EOF'
import json, sys

old_path, new_path = sys.argv[1], sys.argv[2]
old, new = json.load(open(old_path)), json.load(open(new_path))

def key(r):
    return (
        r["protocol"],
        r["transport"],
        # `or`, not a .get default: the default is evaluated eagerly and
        # would raise KeyError on rows that no longer carry "log".
        r.get("wal_backend") or r["log"],
        r["group_commit"],
        r.get("optimizations", "baseline"),
    )

def pct(a, b):
    if a == 0:
        return "   n/a"
    return f"{(b - a) / a * 100:+6.1f}%"

old_rows = {key(r): r for r in old.get("results", [])}
new_rows = {key(r): r for r in new.get("results", [])}

# Liveness gate, NEW file only (old baselines may predate the fix): a
# row claiming group commit must show batching — some group flushes, and
# fewer physical flushes than forces.
dead = [
    r for r in new.get("results", [])
    if r["group_commit"] and r["log_forces"] > 0
    and not (r["group_flushes"] > 0 and r["physical_flushes"] < r["log_forces"])
]
for r in dead:
    print(
        f"{new_path}: group commit not live in {r['protocol']}/{r['transport']}/"
        f"{key(r)[2]}: group_flushes={r['group_flushes']} "
        f"physical_flushes={r['physical_flushes']} log_forces={r['log_forces']}",
        file=sys.stderr,
    )
assert not dead, f"{new_path}: {len(dead)} gc-on row(s) ran without group commit"

print(f"throughput: {old_path} -> {new_path}")
hdr = f"{'config':<46} {'txn/s old':>10} {'txn/s new':>10} {'Δ':>7}  {'p99 old':>8} {'p99 new':>8} {'Δ':>7}"
print(hdr)
print("-" * len(hdr))
for k in sorted(set(old_rows) | set(new_rows)):
    name = f"{k[0]}/{k[1]}/{k[2]}/gc={'on' if k[3] else 'off'}"
    if k[4] != "baseline":
        name += f"/{k[4]}"
    o, n = old_rows.get(k), new_rows.get(k)
    if o is None or n is None:
        print(f"{name:<46} {'(only in ' + (new_path if o is None else old_path) + ')'}")
        continue
    print(
        f"{name:<46} {o['txns_per_sec']:>10.1f} {n['txns_per_sec']:>10.1f} "
        f"{pct(o['txns_per_sec'], n['txns_per_sec'])}  "
        f"{o['latency_us']['p99']:>8} {n['latency_us']['p99']:>8} "
        f"{pct(o['latency_us']['p99'], n['latency_us']['p99'])}"
    )

old_sc = {(r["lanes"], r["in_flight"], r["saturation"]): r for r in old.get("scale_curve", [])}
new_sc = {(r["lanes"], r["in_flight"], r["saturation"]): r for r in new.get("scale_curve", [])}
if old_sc or new_sc:
    print()
    print("scale curve (open loop, lanes x in-flight; sat = admission-control cell):")
    hdr = (
        f"{'cell':<22} {'txn/s old':>10} {'txn/s new':>10} {'Δ':>7}  "
        f"{'p99 old':>8} {'p99 new':>8} {'Δ':>7} {'rej old':>8} {'rej new':>8}"
    )
    print(hdr)
    print("-" * len(hdr))
    for k in sorted(set(old_sc) | set(new_sc)):
        name = f"lanes={k[0]}/inflight={k[1]}{'/sat' if k[2] else ''}"
        o, n = old_sc.get(k), new_sc.get(k)
        if o is None or n is None:
            print(f"{name:<22} {'(only in ' + (new_path if o is None else old_path) + ')'}")
            continue
        print(
            f"{name:<22} {o['txns_per_sec']:>10.1f} {n['txns_per_sec']:>10.1f} "
            f"{pct(o['txns_per_sec'], n['txns_per_sec'])}  "
            f"{o['latency_us']['p99']:>8} {n['latency_us']['p99']:>8} "
            f"{pct(o['latency_us']['p99'], n['latency_us']['p99'])} "
            f"{o['rejected']:>8} {n['rejected']:>8}"
        )

# Failure-path rows are keyed on (protocol, lanes); files from before the
# sharded cells existed carry no "lanes" field and default to 1.
old_fp = {(r["protocol"], r.get("lanes", 1)): r for r in old.get("failure_path", [])}
new_fp = {(r["protocol"], r.get("lanes", 1)): r for r in new.get("failure_path", [])}
if old_fp or new_fp:
    print()
    print("failure path (kill/restart, file log; lanes=1 tcp, lanes>1 channel):")
    hdr = f"{'cell':<26} {'in-doubt p99 old':>16} {'new':>10} {'recover ms old':>15} {'new':>10}"
    print(hdr)
    print("-" * len(hdr))
    for k in sorted(set(old_fp) | set(new_fp)):
        name = f"{k[0]}/lanes={k[1]}"
        o, n = old_fp.get(k), new_fp.get(k)
        if o is None or n is None:
            print(f"{name:<26} (only in {new_path if o is None else old_path})")
            continue
        print(
            f"{name:<26} {o['in_doubt_us']['p99']:>16} {n['in_doubt_us']['p99']:>10} "
            f"{o['restart_to_recovered_ms']:>15.1f} {n['restart_to_recovered_ms']:>10.1f}"
        )

# Timeline section (the saturation cell's windowed telemetry): validate
# the schema wherever the section appears; once the old file carries it,
# a new file without it is schema drift.
def check_timeline(d, path):
    t = d.get("timeline")
    if t is None:
        return None
    for f in ("cell", "window_us", "late_drops", "windows"):
        assert f in t, f"{path}: timeline missing {f!r}"
    assert t["windows"], f"{path}: timeline.windows is empty"
    required = {"start_us", "committed", "aborted", "rejected", "tps",
                "commit_p99_us", "admit_queue_max", "in_flight_max"}
    for w in t["windows"]:
        missing = required - w.keys()
        assert not missing, f"{path}: timeline window missing {missing}: {w}"
    return t

old_tl = check_timeline(old, old_path)
new_tl = check_timeline(new, new_path)
assert not (old_tl is not None and new_tl is None), \
    f"{new_path}: timeline section dropped (present in {old_path}): schema drift"
if new_tl is not None:
    peak = max(w["tps"] for w in new_tl["windows"])
    queue = max(w["admit_queue_max"] for w in new_tl["windows"])
    rejected = sum(w["rejected"] for w in new_tl["windows"])
    print()
    print(
        f"timeline ({new_tl['cell']} cell, {new_tl['window_us']}us windows): "
        f"{len(new_tl['windows'])} active windows, peak {peak:.0f} txn/s, "
        f"peak admit queue {queue}, {rejected} rejections"
    )
EOF
