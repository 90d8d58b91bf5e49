#!/usr/bin/env bash
# sim-identity.sh — show that this checkout simulates exactly what its
# parent commit does.
#
# Builds the base revision (default HEAD^, extracted with `git archive`
# into a temporary directory, so nothing is registered in .git) and the
# checkout, produces the same artifacts from both, and cmp's every one
# (each differing artifact is named; any difference exits 1):
#
#   - dvmc-sim -nodes 4 -trace-out over {directory,snooping} x
#     {SC,TSO,PSO,RMO} x {oltp,slash} x seeds {1,2} at -txns 300 (32
#     traces a side)
#   - dvmc-sim -txns 300 with -spans-out and -metrics-out, both protocols,
#     at 8 and at 16 nodes (span dump, telemetry snapshot, stdout; 16
#     nodes is 101 kernel components, more than one 64-bit word of the
#     kernel's calendar)
#   - stdout of CI's two fuzz-smoke campaigns
#   - per fault kind (all 19): dvmc-fuzz run -seed 7 -n 40 -fault-frac 1
#     -kinds <kind> -v, stdout and exit code
#   - dvmc-errors -n 40 -each on directory/TSO and snooping/RMO, stdout
#     and exit code
#   - dvmc-fuzz replay of the committed corpus (re-records all 13 .trc)
#   - dvmc-fuzz replay -metrics-out of each corpus case, one telemetry
#     snapshot a case (its end cycle and recovery count show where the
#     run ended, which neither the verdict nor the trace pins)
#   - dvmc-stat check and check -json of two of the traces above, stdout
#     and exit code (the oracle's report, byte for byte)
#   - CI's campaign-determinism campaign dvmc-fuzz run -seed 5 -n 64
#     -fault-frac 0.5 -json, stdout, exit code and a cksum listing of its
#     -corpus tree
#   - the directory soak, seeds 1..8, which must also exit 0
#
# A commit that means to change simulated behaviour declares it with a
# trailer in its message:   Identity-Change: <reason>
# (on its own line; any commit between the base and HEAD counts). The
# script then still builds and runs both sides and names every differing
# artifact, but exits 0: the list is the change's evidence, for its
# author to trace each difference to the declared reason.
#
# usage: scripts/sim-identity.sh [base-rev]
set -euo pipefail

root=$(git rev-parse --show-toplevel)
base=${1:-HEAD^}

# Every commit since the base counts: on a pull request HEAD is the merge
# commit and the trailer sits on the commit merged in.
reason=$(git -C "$root" log --format=%B "$base"..HEAD | sed -n 's/^Identity-Change:[[:space:]]*//p' | head -n 1)
if [ -n "$reason" ]; then
	echo "sim-identity: listing mode, a commit since $base declares Identity-Change: $reason"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base/src" "$tmp/base/bin" "$tmp/base/out" "$tmp/head/bin" "$tmp/head/out"
git -C "$root" archive "$base" | tar -x -C "$tmp/base/src"

echo "sim-identity: building $(git -C "$root" rev-parse --short "$base") and the checkout"
for side in base head; do
	src=$tmp/base/src
	[ $side = head ] && src=$root
	(cd "$src" && go build -o "$tmp/$side/bin/" ./cmd/dvmc-stat ./cmd/dvmc-sim ./cmd/dvmc-fuzz ./cmd/dvmc-errors)
done

# The fault-kind vocabulary, in kind order (TestFaultKindStrings pins it).
kinds="msg-drop msg-duplicate msg-misroute msg-reorder msg-data-flip msg-stale-dup
	msg-reorder-burst cache-data-flip memory-data-flip wb-reorder wb-drop wb-corrupt
	lsq-value-flip lsq-bad-forward ctrl-permission-drop ctrl-silent-write
	ctrl-state-corrupt lt-skew nested-recovery"

# verdict OUTFILE CMD...: run a command that exits 0 (clean) or 2 (a
# failure found, an undetected fault) and append the exit code to its
# stdout, so the code is compared too instead of aborting the script.
verdict() {
	local outfile=$1 code=0
	shift
	"$@" >"$outfile" || code=$?
	echo "exit $code" >>"$outfile"
	[ $code -eq 0 ] || [ $code -eq 2 ]
}

# artifacts BIN SRC OUT: run the matrix with BIN's binaries, writing into
# OUT. File arguments are relative so stdout that names them compares
# equal; SRC supplies the committed fuzz corpus.
artifacts() {
	local bin=$1 src=$2 out=$3
	cd "$out"
	for p in directory snooping; do
		for m in SC TSO PSO RMO; do
			for w in oltp slash; do
				for s in 1 2; do
					"$bin/dvmc-sim" -nodes 4 -protocol $p -model $m -workload $w -seed $s -txns 300 \
						-trace-out "trace-$p-$m-$w-$s.trc" >/dev/null 2>>"$out.log"
				done
			done
		done
		"$bin/dvmc-sim" -protocol $p -workload oltp -model TSO -txns 300 \
			-spans-out "sim-$p.spans" -metrics-out "sim-$p.metrics.json" >"sim-$p.stdout"
		"$bin/dvmc-sim" -protocol $p -nodes 16 -txns 300 \
			-spans-out "sim16-$p.spans" -metrics-out "sim16-$p.metrics.json" >"sim16-$p.stdout"
	done
	"$bin/dvmc-fuzz" run -seed 1 -n 60 -fault-frac 0.5 -v >fuzz-smoke-1.stdout
	"$bin/dvmc-fuzz" run -seed 23 -n 80 -fault-frac 0.8 -v \
		-kinds msg-stale-dup,msg-reorder-burst,ctrl-state-corrupt,lt-skew,nested-recovery >fuzz-smoke-23.stdout
	for k in $kinds; do
		verdict "fuzz-kind-$k.stdout" "$bin/dvmc-fuzz" run -seed 7 -n 40 -fault-frac 1 -kinds $k -v
	done
	verdict errors-directory-TSO.stdout "$bin/dvmc-errors" -n 40 -each
	verdict errors-snooping-RMO.stdout "$bin/dvmc-errors" -n 40 -each -protocol snooping -model RMO
	(cd "$src" && "$bin/dvmc-fuzz" replay internal/fuzz/testdata/corpus) >fuzz-replay.stdout
	for c in "$src"/internal/fuzz/testdata/corpus/*.json; do
		c=$(basename "$c" .json)
		"$bin/dvmc-fuzz" replay -metrics-out "replay-$c.metrics.json" \
			"$src/internal/fuzz/testdata/corpus/$c.json" >/dev/null
	done
	for t in trace-directory-TSO-oltp-1 trace-snooping-RMO-slash-2; do
		verdict "check-$t.stdout" "$bin/dvmc-stat" check "$t.trc"
		verdict "check-json-$t.stdout" "$bin/dvmc-stat" check -json "$t.trc"
	done
	mkdir campaign-corpus
	verdict fuzz-campaign-5.stdout "$bin/dvmc-fuzz" run -seed 5 -n 64 -fault-frac 0.5 \
		-corpus campaign-corpus -json
	(cd campaign-corpus && find . -type f | LC_ALL=C sort | xargs -r cksum) >fuzz-campaign-5.corpus.cksum
	rm -r campaign-corpus # listed above; the comparison below is over files
	for s in 1 2 3 4 5 6 7 8; do
		"$bin/dvmc-sim" -workload oltp -protocol directory -model TSO -seed $s -txns 4500 >"soak-$s.stdout"
	done
}

(artifacts "$tmp/base/bin" "$tmp/base/src" "$tmp/base/out") &
base_pid=$!
(artifacts "$tmp/head/bin" "$root" "$tmp/head/out") &
head_pid=$!
status=0
wait $base_pid || { echo "sim-identity: a command failed on the base side" >&2; status=1; }
wait $head_pid || { echo "sim-identity: a command failed on the head side" >&2; status=1; }
[ $status -eq 0 ] || tail -n 5 "$tmp"/*/out.log >&2
[ $status -eq 0 ] || exit $status

n=0 differ=0
for f in "$tmp/base/out"/*; do
	name=$(basename "$f")
	n=$((n + 1))
	if cmp -s "$f" "$tmp/head/out/$name"; then
		continue
	fi
	differ=$((differ + 1))
	echo "sim-identity: DIFFERING ARTIFACT: $name" >&2
	cmp "$f" "$tmp/head/out/$name" >&2 || true
done
if [ $differ -gt 0 ]; then
	echo "sim-identity: $differ of $n artifacts differ" >&2
	if [ -n "$reason" ]; then
		echo "sim-identity: declared by Identity-Change: $reason"
		exit 0
	fi
	exit 1
fi
echo "sim-identity: $n artifacts identical between $(git -C "$root" rev-parse --short "$base") and the checkout"
