#!/usr/bin/env bash
# Reachability ratchet: every library function must be reached by a shipped
# program, or be named in tools/reach_allowlist.txt.
#
# usage: tools/reach_scan.sh [BUILD_DIR]    (default: build-reach)
#
# The shipped programs are odin_cli, the bench/ and examples/ programs and
# perfbench's odin_perfbench. The scan builds them unoptimized with every
# function in its own section (-O0 -fno-inline -ffunction-sections) and
# links with --gc-sections, so each program keeps only the functions it can
# reach. The library functions are the text symbols (nm types T, t, W, w)
# of the libodin_*.a archives whose qualified name is in namespace odin;
# the match is on the mangled name, so a std:: instantiation whose
# demangled return type merely starts with odin:: (say
# `odin::nn::Layer*& std::__get_helper<...>`) does not count. The unreached
# set is the library functions minus every function a program defines.
#
# The scan fails when the unreached set and the allowlist differ in either
# direction: a new function that no program calls fails, and so does an
# allowlisted function that a program now reaches or that is gone, so the
# list can only shrink.
#
# Blind spot: an inline function (a header or class-body definition) is
# emitted only where it is called, so one that only tests call has no
# out-of-line copy in any archive and never shows up here. An inline
# getter that library code calls does show up (as a weak symbol), but a
# class-body setter or accessor that only tests call is invisible, so
# header-only additions need a reviewer's eye.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
dir=${1:-"$root/build-reach"}
allowlist="$root/tools/reach_allowlist.txt"
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
mkdir -p "$dir"
log="$dir/build.log"

build() {
  if ! "$@" >>"$log" 2>&1; then
    tail -n 50 "$log" >&2
    echo "reach_scan: build step failed: $*" >&2
    exit 2
  fi
}
: >"$log"
build cmake -S "$root" -B "$dir/main" "${flags[@]}"
build cmake --build "$dir/main" -j"$(nproc)"
build cmake -S "$root/perfbench" -B "$dir/perfbench" "${flags[@]}"
build cmake --build "$dir/perfbench" -j"$(nproc)" --target odin_perfbench

# Demangled odin:: text symbols defined in the given files, one per line.
odin_text() {
  nm --defined-only "$@" 2>/dev/null |
    awk 'NF == 3 && $2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[KVRO]*4odin/ {print $3}' |
    c++filt | LC_ALL=C sort -u
}

mapfile -t libs < <(find "$dir/main/src" -name 'libodin_*.a' | sort)
programs=("$dir/main/tools/odin_cli" "$dir/perfbench/odin_perfbench")
for sub in bench examples; do
  for f in "$dir/main/$sub"/*; do
    [[ -f $f && -x $f ]] && programs+=("$f")
  done
done

odin_text "${libs[@]}" >"$dir/library.txt"
odin_text "${programs[@]}" >"$dir/reached.txt"
LC_ALL=C comm -23 "$dir/library.txt" "$dir/reached.txt" >"$dir/unreached.txt"
{ grep -v -e '^#' -e '^[[:space:]]*$' "$allowlist" || true; } |
  LC_ALL=C sort -u >"$dir/allowed.txt"

new=$(LC_ALL=C comm -23 "$dir/unreached.txt" "$dir/allowed.txt")
stale=$(LC_ALL=C comm -13 "$dir/unreached.txt" "$dir/allowed.txt")
echo "reach_scan: ${#libs[@]} libraries, ${#programs[@]} programs," \
     "$(wc -l <"$dir/library.txt") library functions," \
     "$(wc -l <"$dir/unreached.txt") reached by no program"
status=0
if [[ -n $new ]]; then
  echo "Library functions that no shipped program reaches (call them from" \
       "a program, move them under tests/, or delete them):"
  echo "$new" | sed 's/^/  + /'
  status=1
fi
if [[ -n $stale ]]; then
  echo "Allowlisted functions that are now reached or gone (remove them" \
       "from tools/reach_allowlist.txt):"
  echo "$stale" | sed 's/^/  - /'
  status=1
fi
if (( status == 0 )); then
  echo "Unreached functions match tools/reach_allowlist.txt:"
  sed 's/^/  /' "$dir/unreached.txt"
fi
exit $status
