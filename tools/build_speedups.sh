#!/usr/bin/env bash
# Build the optional C accelerator, repro.sim._speedups, in place.  It
# exports EventCore, the event-kernel heap and dispatch loop.
#
#   tools/build_speedups.sh             # build src/repro/sim/_speedups.*.so
#   tools/build_speedups.sh --check     # exit 0 iff the built module imports
#   tools/build_speedups.sh --sanitize  # ASan+UBSan instrumented build
#
# Plain cc against the current interpreter's headers — no pip, no
# setuptools.  Everything keeps working without the .so (repro.sim
# falls back to the pure-Python core), so failure here is advisory.
#
# A --sanitize build replaces the .so in place (and always rebuilds, so
# a later plain run restores the optimized module); importing it from
# a stock CPython needs the ASan runtime preloaded:
#
#   LD_PRELOAD="$(cc -print-file-name=libasan.so)" \
#   ASAN_OPTIONS=detect_leaks=0 python -m pytest tests/sim/test_engines.py
#
# (leak detection is off because CPython's allocator intentionally
# keeps arenas alive at exit).
set -u
cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python3}"
SRC=src/repro/sim/_speedups.c

include_dir="$("$PYTHON" -c 'import sysconfig; print(sysconfig.get_paths()["include"])')"
ext_suffix="$("$PYTHON" -c 'import sysconfig; print(sysconfig.get_config_var("EXT_SUFFIX"))')"
out="src/repro/sim/_speedups${ext_suffix}"

if ! command -v cc >/dev/null 2>&1; then
    echo "build_speedups: no C compiler on PATH; using the pure-Python kernel" >&2
    exit 1
fi

if [ "${1:-}" = "--check" ]; then
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" "$PYTHON" - <<'EOF'
import sys
try:
    from repro.sim import _speedups
except ImportError:
    sys.exit(1)
print(f"_speedups OK: {_speedups.__file__}")
EOF
    exit $?
fi

if [ "${1:-}" = "--sanitize" ]; then
    # Instrumented build: never skipped, never left ambiguous — the
    # caller is about to LD_PRELOAD the ASan runtime and run tests.
    set -x
    cc -O1 -g -fPIC -shared -fsanitize=address,undefined \
        -fno-sanitize-recover=undefined \
        -Wall -Wextra -Wno-unused-parameter \
        -I"$include_dir" "$SRC" -lm -o "$out"
    set +x
    echo "build_speedups: built SANITIZED $out"
    echo "build_speedups: rebuild without --sanitize before benchmarking"
    exit 0
fi

# Skip the rebuild when the source is unchanged and older than the .so,
# unless the current .so is an instrumented one (it links libasan).
if [ -e "$out" ] && [ "$out" -nt "$SRC" ] \
        && ! ldd "$out" 2>/dev/null | grep -q libasan; then
    echo "build_speedups: $out is up to date"
    exit 0
fi

set -x
cc -O2 -fPIC -shared -Wall -Wextra -Wno-unused-parameter \
    -I"$include_dir" "$SRC" -lm -o "$out"
set +x
echo "build_speedups: built $out"
