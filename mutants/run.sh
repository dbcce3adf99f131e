#!/usr/bin/env bash
# Mutation matrix: apply each mutants/*.patch to a fresh copy of the working
# tree, run every blocking CI net against it, and write which net caught
# which mutant to mutants/TABLE.md. The first row runs the unmodified copy,
# which every net must pass.
#
# With patch names as arguments (./mutants/run.sh 30-abort-publishes-partial-image
# ...; a trailing .patch is optional) it runs the unmodified row and those
# patches only, and splices their rows into TABLE.md, keeping the other
# patches' rows as they are. Either way TABLE.md ends up with one row and one
# note per patch in mutants/: a row whose patch is gone is dropped, and a
# patch with no row, run now or before, is an error.
#
# The nets are go test, go test -race -short and each determinism-contract
# pass (one column per TestDeterminismContract subtest, read off one run of
# that test; the go test columns skip it so each pass stands as its own net).
# A cell names the failing tests or findings; "-" means the net passed. The copy lives under mktemp -d, so
# TMPDIR picks the disk; logs stay there. Exits 1 when the unmodified copy
# fails a net or some mutant survives every net.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
patches=("$root"/mutants/*.patch)
if [ $# -gt 0 ]; then
	patches=()
	for name in "$@"; do
		patches+=("$root/mutants/${name%.patch}.patch")
	done
fi
for patch in "${patches[@]}"; do
	[ -f "$patch" ] || { echo "mutants: no patch $patch" >&2; exit 1; }
done

work=$(mktemp -d)
tree="$work/tree"
logs="$work/logs"
mkdir -p "$logs"

# fresh_tree copies the working tree (tracked and untracked files, minus
# build output) to $tree, always at the same path so the build cache keeps
# every package a mutant leaves alone.
fresh_tree() {
	rm -rf "$tree"
	mkdir -p "$tree"
	tar -C "$root" --exclude=./.git --exclude=./out --exclude=./bench/out \
		--exclude=./coverage.out -cf - . |
		tar -C "$tree" -xf -
}

# failures turns go test output into one "pkg.Test" line per failing
# top-level test, or "pkg: <why>" for a package that failed without one
# (a crashed simulation goroutine, a build error). A test that hit the
# go test timeout is named from the "running tests:" list of the panic.
failures() {
	awk '
	function short(p) {
		sub(/^github\.com\/slimio\/slimio\/?/, "", p)
		sub(/^internal\//, "", p)
		return p == "" ? "slimio" : p
	}
	/^--- FAIL: / { t[nt++] = $3; next }
	/^panic: / { if (pm == "") pm = substr($0, 8); next }
	/^\trunning tests:/ { getline; t[nt++] = $1; next }
	/^FAIL\t/ {
		pkg = short($2)
		if (nt == 0) {
			why = "failed"
			if ($0 ~ /\[build failed\]/) why = "build failed"
			else if (pm != "") why = "panic: " pm
			print pkg ": " why
		}
		for (i = 0; i < nt; i++) print pkg "." t[i] (i == 0 && pm != "" ? " (panic: " pm ")" : "")
		nt = 0; pm = ""; next
	}
	/^ok  / { nt = 0; pm = "" }
	'
}

# contract_findings prints the "file:line: message" findings the
# TestDeterminismContract subtest for pass $1 reported in go test output.
contract_findings() {
	awk -v name="TestDeterminismContract/$1" '
	/--- (FAIL|PASS|SKIP): / { on = ($3 == name); next }
	on && sub(/^ +[A-Za-z0-9_]+_test\.go:[0-9]+: /, "") && /^[^ ]+\.go:[0-9]+: / { print }
	'
}

# cell joins its stdin lines into one table cell: the first three, a count
# of the rest, "-" when empty.
cell() {
	awk '
	{ gsub(/\|/, "\\|"); if (length($0) > 90) $0 = substr($0, 1, 87) "..."; l[n++] = $0 }
	END {
		if (n == 0) { printf "-"; exit }
		for (i = 0; i < n && i < 3; i++) printf "%s%s", (i ? "; " : ""), l[i]
		if (n > 3) printf "; +%d more", n - 3
	}'
}

# run_nets runs every net in $tree and prints the row's cells, one per line.
# The timeouts are a few times the unmodified tree's run time, so a mutant
# that hangs costs minutes, not the defaults' tens of minutes.
run_nets() {
	local name=$1
	(cd "$tree" && go test -skip '^TestDeterminismContract$' -timeout 3m ./... >"$logs/$name.test" 2>&1)
	failures <"$logs/$name.test" | cell
	echo
	(cd "$tree" && go test -race -short -skip '^TestDeterminismContract$' -timeout 5m ./... >"$logs/$name.race" 2>&1)
	failures <"$logs/$name.race" | cell
	echo
	(cd "$tree" && go test -count=1 -run '^TestDeterminismContract$' ./internal/analysis >"$logs/$name.vet" 2>&1)
	for pass in $passes; do
		contract_findings "$pass" <"$logs/$name.vet" | cell
		echo
	done
}

fresh_tree
# Every patch must apply before the first row runs: a stale one then ends the
# run in seconds, not after the rows before it, and TABLE.md stays as it was.
for patch in "${patches[@]}"; do
	(cd "$tree" && GIT_CEILING_DIRECTORIES="$work" git apply --check "$patch") ||
		{ echo "mutants: $patch does not apply" >&2; rm -rf "$work"; exit 1; }
done
passes=$(cd "$tree" && go test -count=1 -v -run '^TestDeterminismContract$' ./internal/analysis |
	sed -n 's/^=== RUN   TestDeterminismContract\///p')
[ -n "$passes" ] || { echo "mutants: TestDeterminismContract ran no pass subtests" >&2; exit 1; }

header="| Mutant | go test | race -short |"
rule="|---|---|---|"
for pass in $passes; do
	header="$header $pass |"
	rule="$rule---|"
done

status=0
declare -A rows
for patch in none "${patches[@]}"; do
	if [ "$patch" = none ]; then
		name="(none)"
	else
		name=$(basename "$patch" .patch)
	fi
	echo "mutants: $name" >&2
	fresh_tree
	if [ "$patch" != none ] && ! patch -s -p1 -d "$tree" <"$patch"; then
		echo "mutants: $patch does not apply" >&2
		exit 1
	fi
	row="| $name |"
	caught=0
	while IFS= read -r c; do
		row="$row $c |"
		[ "$c" = "-" ] || caught=$((caught + 1))
	done < <(run_nets "$name")
	rows[$name]=$row
	if [ "$patch" = none ]; then
		[ "$caught" -eq 0 ] || { echo "mutants: the unmodified tree fails a net" >&2; status=1; }
		grep -q '^ok' "$logs/$name.vet" || { echo "mutants: the unmodified tree fails TestDeterminismContract" >&2; status=1; }
	else
		[ "$caught" -gt 0 ] || { echo "mutants: $name survives every net" >&2; status=1; }
	fi
done
rm -rf "$tree"

table="$root/mutants/TABLE.md"
if [ $# -gt 0 ]; then
	# Keep the rows of the patches not run now, under the same columns.
	grep -qxF "$header" "$table" ||
		{ echo "mutants: TABLE.md's columns are not the nets' now; run the full matrix" >&2; exit 1; }
	while IFS= read -r line; do
		name=${line#| }
		name=${name%% |*}
		[ -n "${rows[$name]+set}" ] || rows[$name]=$line
	done < <(grep '^| [0-9]' "$table")
fi
body="${rows["(none)"]}"$'\n'
notes=""
for patch in "$root"/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	[ -n "${rows[$name]+set}" ] ||
		{ echo "mutants: no row for $name; run ./mutants/run.sh $name" >&2; exit 1; }
	body="$body${rows[$name]}"$'\n'
	notes="$notes- \`$name\`: $(sed '/^$/q' "$patch" | tr '\n' ' ' | sed 's/ *$//')"$'\n'
done

{
	echo "# Mutation matrix"
	echo
	echo "Written by mutants/run.sh (\`make mutants\` reruns every row,"
	echo "\`./mutants/run.sh NAME...\` the named ones); do not edit by hand."
	echo "Each row is one patch in mutants/ applied to a copy of the tree; each"
	echo "column is a blocking CI net. A cell names what failed; \"-\" means the"
	echo "net passed. The first row is the unmodified tree. The pass columns are"
	echo "the subtests of internal/analysis.TestDeterminismContract, which the"
	echo "go test and race -short columns skip."
	echo
	echo "$header"
	echo "$rule"
	printf '%s' "$body"
	echo
	printf '%s' "$notes"
} >"$table"
echo "mutants: wrote mutants/TABLE.md (logs in $logs)" >&2
exit $status
