#!/usr/bin/env bash
# Checks the CI guards' test lists: every alternative of a `go test -run
# 'A|B|...'` list in the workflow must match a test, benchmark, example or
# fuzz target that `go test -list` finds in that step's packages. go test
# runs whatever a list matches and passes, so without this a renamed or
# deleted test would drop out of its guard unnoticed. Steps that run no
# test (`-run '^$'`) are skipped. Run it from the root of the repository:
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
exit $status
