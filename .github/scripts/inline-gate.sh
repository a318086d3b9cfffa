#!/usr/bin/env bash
# Inlining gate for the native annotation path (DESIGN §2, "What an
# annotation costs natively"). Natively an annotation is exec.Thread's
# counter bump inlined into the kernel loop; that holds only while
# Region.At and the exec.Thread methods stay under the compiler's inlining
# budget (80), and several sit within five of it. An edit that pushes one
# over would silently put a call back on every edge of every kernel, so
# this fails the build instead. Run from the repository root.
set -euo pipefail

exec_m=$(go build -gcflags=-m=2 ./internal/exec 2>&1)
fail=0
for fn in 'Region.At' \
	'(*Thread).Load' '(*Thread).Store' \
	'(*Thread).AtomicLoad' '(*Thread).AtomicStore' '(*Thread).AtomicRMW' \
	'(*Thread).LoadSpan' '(*Thread).StoreSpan' '(*Thread).LoadGather' \
	'(*Thread).AtomicLoadSweep' '(*Thread).LoadSweep' \
	'(*Thread).Compute' '(*Thread).Active'; do
	line=$(grep -F "can inline $fn with cost" <<<"$exec_m" || true)
	if [ -z "$line" ]; then
		echo "inline gate: $fn is no longer inlinable:" >&2
		grep -F "inline $fn" <<<"$exec_m" >&2 || true
		fail=1
	else
		echo "$line" | sed -E 's/^.*can inline (.*) with cost ([0-9]+).*$/ok: \1 inlines, cost \2 of 80/'
	fi
done

# CSR.Neighbors is called once per vertex visit by every kernel and cuts
# its weights branch-free (DESIGN §1, "Building a CSR"); it must inline
# too.
graph_m=$(go build -gcflags=-m=2 ./internal/graph 2>&1)
line=$(grep -F "can inline (*CSR).Neighbors with cost" <<<"$graph_m" || true)
if [ -z "$line" ]; then
	echo "inline gate: (*CSR).Neighbors is no longer inlinable:" >&2
	grep -F "inline (*CSR).Neighbors" <<<"$graph_m" >&2 || true
	fail=1
else
	echo "$line" | sed -E 's/^.*can inline (.*) with cost ([0-9]+).*$/ok: \1 inlines, cost \2 of 80/'
fi

# Every kernel body, not a sample: if any function of internal/core still
# called one of them out of line, the package object would hold an
# undefined reference to it. (bfsFrontierRun.run, pageRankPullRun.run and
# BFS's body are the hot ones; the check covers all 306 annotation sites.)
obj=$(mktemp)
trap 'rm -f "$obj"' EXIT
go build -o "$obj" ./internal/core
calls=$(go tool nm "$obj" | grep -E ' U crono/internal/(exec\.(\(\*Thread\)\.|Region\.At$)|graph\.\(\*CSR\)\.Neighbors$)' || true)
if [ -n "$calls" ]; then
	echo "inline gate: internal/core calls these out of line:" >&2
	echo "$calls" >&2
	fail=1
else
	echo "ok: internal/core holds no out-of-line call to exec.(*Thread).*, exec.Region.At or graph.(*CSR).Neighbors"
fi
exit $fail
