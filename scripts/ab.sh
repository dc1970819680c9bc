#!/usr/bin/env bash
# Paired A/B of BENCHMARK.json's command: <parent-ref> against the working
# tree, the way ROADMAP's ground rules and examples/serve_bench/README.md
# ask for it.
#
#   scripts/ab.sh <parent-ref> [pairs=10]
#
# The parent is extracted with `git archive` into $AB_DIR (default
# ${TMPDIR:-/tmp}/vllm-ab) and built there; the change is this checkout. For
# every workload and pair both sides run BENCHMARK.json's command with the
# same seed (42 + pair) back to back, alternating which side goes first. The
# report is one row per workload x end-to-end metric — quartiles of each
# side, the change of the median, the bound and a verdict — then every run
# made, and one `commit` / `nproc`-tagged record of the change's 24 medians
# appended to BENCH_e2e.json (`vllm_bench::append_trajectory`).
#
# Verdicts: "REGRESSION" — the change's median is worse than the parent's by
# more than the bound; "unresolved" — either side's inter-quartile range is
# wider than the bound and not every run of the change beats every run of
# the parent; "better" — the change wins at least nine tenths of the pairs
# (ties count for neither) and the medians differ by more than the parent's
# inter-quartile range; otherwise "unchanged". AB_WORKLOADS="a b" restricts
# the workloads. Two cores: nothing else should be running.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:?usage: scripts/ab.sh <parent-ref> [pairs=10]}
pairs=${2:-10}
command -v python3 >/dev/null || { echo "scripts/ab.sh needs python3" >&2; exit 2; }

change=$PWD
sha=$(git rev-parse --short "$ref^{commit}")
work=${AB_DIR:-${TMPDIR:-/tmp}/vllm-ab}
parent=$work/parent-$sha
runs=$work/runs-$sha.tsv
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"

field() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
mapfile -t cmd < <(field "'\n'.join(b['command'])")
seconds=$(field "b['run_seconds']")
workloads=${AB_WORKLOADS:-$(field "' '.join(w['name'] for w in b['workloads'])")}

for side in "$parent" "$change"; do
    echo "==> building $side" >&2
    (cd "$side" && cargo build --release --offline --quiet \
        --manifest-path examples/serve_bench/Cargo.toml)
done

: >"$runs"
run_side() { # side-name dir workload pair
    local out status=0
    out=$(cd "$2" && "${cmd[@]}" --workload "$3" --seed $((42 + $4)) \
        --seconds "$seconds" --trace 0) || status=$?
    printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$status" "$(tail -n 1 <<<"$out")" >>"$runs"
}
for workload in $workloads; do
    for ((pair = 0; pair < pairs; pair++)); do
        echo "==> $workload pair $((pair + 1))/$pairs" >&2
        if ((pair % 2 == 0)); then
            run_side parent "$parent" "$workload" "$pair"
            run_side change "$change" "$workload" "$pair"
        else
            run_side change "$change" "$workload" "$pair"
            run_side parent "$parent" "$workload" "$pair"
        fi
    done
done

python3 - "$runs" "$sha" "$pairs" <<'PY' | cargo run --release --offline --quiet -p vllm-bench --bin trajectory -- BENCH_e2e.json
import json, sys
runs_path, sha, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
runs = {}  # (workload, side) -> [(pair, exit status, result)]
for line in open(runs_path):
    side, workload, pair, status, last = line.rstrip("\n").split("\t", 4)
    try:
        result = json.loads(last)
    except ValueError:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    runs.setdefault((workload, side), []).append((int(pair), int(status), result))

def quartiles(xs):
    xs = sorted(xs)
    at = lambda q: xs[min(len(xs) - 1, max(0, round(q * (len(xs) - 1))))]
    return at(0.25), at(0.5), at(0.75)

def values(workload, side, name):
    return [r["metrics"][name]["value"] for _, _, r in sorted(runs[(workload, side)], key=lambda t: t[0])
            if name in r["metrics"]]

log = lambda *a: print(*a, file=sys.stderr)
record = {"bench": "serve_bench_e2e", "parent": sha, "pairs": pairs}
log(f"\n{'workload':14} {'metric':13} {'parent q1/med/q3':>29} {'change q1/med/q3':>29} {'d median':>9} {'bound':>6}  verdict")
for workload in sorted({w for w, _ in runs}, key=[w["name"] for w in bench["workloads"]].index):
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p, c = values(workload, "parent", name), values(workload, "change", name)
        if not p or not c:
            log(f"{workload:14} {name:13} no successful runs on one side")
            continue
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        record[f"{workload}.{name}"] = cm
        delta = (cm - pm) / pm if pm else 0.0
        worse = delta if lower else -delta
        beats = lambda a, b: a < b if lower else a > b
        wins = sum(beats(x, y) for x, y in zip(c, p))
        losses = sum(beats(y, x) for x, y in zip(c, p))
        spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
        dominates = all(beats(x, y) for x in c for y in p)
        if worse > m["bound"]:
            verdict = "REGRESSION"
        elif spread > m["bound"] and not dominates:
            verdict = f"unresolved (spread {spread:.0%})"
        elif wins >= 0.9 * len(p) and abs(cm - pm) > p3 - p1:
            verdict = f"better ({wins}/{len(p)} pairs)"
        else:
            verdict = f"unchanged ({wins} won, {losses} lost)"
        fmt = lambda a, b, c_: f"{a:9.3f}/{b:9.3f}/{c_:9.3f}"
        log(f"{workload:14} {name:13} {fmt(p1, pm, p3)} {fmt(c1, cm, c3)} {delta:+9.1%} {m['bound']:6.0%}  {verdict}")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for _, _, r in runs[(workload, side)])
        failed = sum(r["failed"] for _, _, r in runs[(workload, side)])
        bad = [pair for pair, status, r in runs[(workload, side)] if status or not r["correct"]]
        log(f"{workload:14} {side}: {failed} of {attempted} requests failed; runs not correct: {bad or 'none'}")
log("\nevery run, in pair order (parent / change):")
for (workload, side), rs in sorted(runs.items()):
    for m in metrics:
        log(f"{workload:14} {side:6} {m['name']:13} " + " ".join(f"{v:.3f}" for v in values(workload, side, m["name"])))
print(json.dumps(record))
PY
