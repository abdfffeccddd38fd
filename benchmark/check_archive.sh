#!/bin/sh
# Builds the benchmark from what git would commit, not from the working
# tree: the repository's unanchored ignore patterns (viz/, crawl-data/,
# *.svg) already kept one package out of a commit, and a benchmark that
# only builds where it was written is no benchmark. Run from anywhere
# inside the repository; needs git, tar and go. Exports HEAD plus the
# index (so it can run before the commit that adds the benchmark).
set -eu
root=$(git rev-parse --show-toplevel)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
tree=$(git -C "$root" write-tree)
git -C "$root" archive "$tree" | tar -x -C "$out"
ignored=$(git -C "$root" ls-files --others --ignored --exclude-standard -- benchmark | grep -v '^benchmark/\.bench_tmp-' || true)
if [ -n "$ignored" ]; then
	echo "ignored files under benchmark/ would not be committed:" >&2
	echo "$ignored" >&2
	exit 1
fi
(cd "$out" && go build -o /dev/null ./benchmark/... && go vet ./benchmark/...)
echo "benchmark builds from the git export"
