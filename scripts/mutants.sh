#!/usr/bin/env bash
# The mutant catalogue's slow tier (scripts/mutants/README.md). Copies
# the working tree to a temporary directory; for every patch it requires
# the command after the patch's "Caught by:" line to pass on the
# unpatched copy, then applies the patch, requires the copy to build and
# the command to fail, and reverts the patch.
#
#   scripts/mutants.sh                       # every mutant
#   scripts/mutants.sh fence-refill-lowers   # only the named ones
#
# The copy builds into its own target directory, so the first run
# compiles the workspace from scratch. Exits 1 if any check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
TREE="$WORK/tree"
mkdir -p "$TREE"
# Tracked and untracked files, uncommitted edits included; ignored
# build output is left behind.
git ls-files -z --cached --others --exclude-standard \
  | while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done \
  | tar --null -T - -cf - | tar -xf - -C "$TREE"
export CARGO_TARGET_DIR="$WORK/target"

if [ $# -gt 0 ]; then
  patches=()
  for name in "$@"; do patches+=("scripts/mutants/$name.patch"); done
else
  patches=(scripts/mutants/*.patch)
fi

# The command after "Caught by:", split into words.
caught_by() {
  local line
  line=$(sed -n 's/^Caught by: //p' "$1")
  [ -n "$line" ] || { echo "$1: no 'Caught by:' line" >&2; return 1; }
  read -ra CMD <<< "$line"
  [ "${CMD[0]} ${CMD[1]}" = "cargo test" ] || { echo "$1: not a cargo test command" >&2; return 1; }
}

# Runs CMD in the copy, its output into the log named by $1.
run() { (cd "$TREE" && "${CMD[@]}") > "$1" 2>&1; }

failed=0
report() { echo "$1"; [ -z "${2:-}" ] || tail -n 15 "$2"; failed=1; }

# Every named test passes on the unpatched tree.
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  caught_by "$p" || { failed=1; continue; }
  log="$WORK/$name.clean.log"
  run "$log" || report "$name: the named test fails on the unpatched tree" "$log"
done

# Every mutant builds and is caught.
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  caught_by "$p" || continue
  (cd "$TREE" && git apply "$ROOT/$p") || { report "$name: does not apply"; continue; }
  log="$WORK/$name.log"
  if ! (cd "$TREE" && "${CMD[0]}" "${CMD[1]}" --no-run "${CMD[@]:2}") > "$log" 2>&1; then
    report "$name: the mutant does not build" "$log"
  elif run "$log"; then
    report "$name: NOT CAUGHT by ${CMD[*]}"
  else
    echo "$name: caught"
  fi
  (cd "$TREE" && git apply -R "$ROOT/$p")
done

[ "$failed" -eq 0 ] || { echo "mutant catalogue: a check failed"; exit 1; }
echo "mutant catalogue: ${#patches[@]} mutants caught, every named test passes unpatched"
