#!/usr/bin/env bash
# Checks the CI guards' test lists: every alternative of a `go test -run
# 'A|B|...'` list in the workflow must match a test, benchmark, example or
# fuzz target that `go test -list` finds in that step's packages. go test
# runs whatever a list matches and passes, so without this a renamed or
# deleted test would drop out of its guard unnoticed. Steps that run no
# test (`-run '^$'`) are skipped.
#
# It also fails when non-test Go outside internal/influence writes the
# objective's λ combination by hand — `(1-lambda)`, `(1 - lambda)` or
# `(1-<x>.Lambda)` — instead of reading influence.Score's Value. Test files
# keep their own copy on purpose, as an independent check of it. Run it
# from the root of the repository:
#
#	bash .github/guard-lists.sh
set -euo pipefail
set -f # a test list is not a glob
workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	list=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[[ $list == '^$' ]] && continue
	pkgs=()
	for word in $line; do
		[[ $word == . || $word == ./* ]] && pkgs+=("$word")
	done
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Benchmark|Example|Fuzz)' || true)
	IFS='|' read -ra alts <<<"$list"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "guard list entry '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E "^[[:space:]]*run: go test .*-run '" "$workflow")
# benchmark/ (the ladder) and internal/estimate/ (the interval bounds) are
# exempt until ROADMAP items B1 and P2 delete them.
if copies=$(grep -rnE --include='*.go' '\(1 ?- ?([[:alnum:]_]+\.)*[Ll]ambda\)' . |
	grep -v '_test\.go:' | grep -vE '^\./(internal/influence|benchmark|internal/estimate)/'); then
	echo "the objective's λ combination is written outside internal/influence (read influence.Score's Value):" >&2
	echo "$copies" >&2
	status=1
fi
exit $status
