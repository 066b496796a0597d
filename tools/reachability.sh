#!/usr/bin/env bash
# Reachability probe: which hpf90d:: functions does no product keep?
#
#   tools/reachability.sh <build-dir>
#
# Builds the library, every tests/ suite, the tools/ binaries, the examples
# and perfbench (from perfbench/CMakeLists.txt, unedited) into <build-dir>
# at -O0 -fno-inline with a section per function and per datum, linked
# with --gc-sections, so a product binary keeps exactly the functions some
# path from its main() reaches. (-fno-jump-tables: a switch's jump table
# would otherwise sit in one shared .rodata that keeps every switch's
# function alive. -fkeep-inline-functions: GCC emits an inline function
# only where it is used, so a header-inline function nothing calls would
# otherwise be defined nowhere and escape the probe.) It then prints every
# hpf90d:: function that is defined in libhpf90d.a or in a test binary but
# kept by no product (tools, examples, perfbench). bench/ is neither a
# product nor probed.
#
# Names are compared with parameter lists dropped and template arguments
# collapsed to <>, so overloads and instantiations count as one name;
# anonymous-namespace helpers are skipped (they go with their callers).
# Special members with the signatures the compiler declares implicitly
# (default, copy and move constructors, copy and move assignments,
# destructors) are skipped too: -fkeep-inline-functions emits a struct's
# implicit ones although nothing calls them, and nm cannot tell those from
# user-declared ones.
#
# Exit status: 0 when every printed name is in
# tools/reachability_allowlist.txt and every allowlist entry names a
# printed name; 1 otherwise (an unlisted name, or a stale entry). An
# allowlist line is `name  # reason`; the reason says who the function is
# for while no product calls it.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
build=$(cd "$1" && pwd)
allowlist="$root/tools/reachability_allowlist.txt"
jobs=${JOBS:-$(nproc)}

flags="-O0 -fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections -fno-jump-tables"
link="-Wl,--gc-sections"
configure() {  # <source-dir> <build-dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Reachability \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" >/dev/null
}

names() {  # <file>...: the target names of sources, one per line
  for f in "$@"; do basename "$f" .cpp; done
}
tests=$(names "$root"/tests/*.cpp)
tools=$(names "$root"/tools/*.cpp)
examples=$(names "$root"/examples/*.cpp)

configure "$root" "$build/main"
targets=(hpf90d)
for t in $tests $tools; do targets+=("$t"); done
for e in $examples; do targets+=("example_$e"); done
cmake --build "$build/main" -j "$jobs" --target "${targets[@]}" >/dev/null

configure "$root/perfbench" "$build/perfbench"
cmake --build "$build/perfbench" -j "$jobs" --target perfbench >/dev/null

products=()
for t in $tools; do products+=("$build/main/tools/$t"); done
for e in $examples; do products+=("$build/main/examples/$e"); done
products+=("$build/perfbench/perfbench")
probed=("$build/main/libhpf90d.a")
for t in $tests; do probed+=("$build/main/$t"); done

# defined functions (text or weak), demangled, one per line
functions() { nm -C --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TtWw]$/' | cut -d' ' -f3-; }

functions "${products[@]}" >"$build/kept.txt"
functions "${probed[@]}" >"$build/defined.txt"

python3 - "$build/kept.txt" "$build/defined.txt" "$allowlist" <<'EOF'
import re
import sys

OPERATOR = re.compile(r"operator(\(\)|<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>| )")
QUALIFIERS = re.compile(r"( (const|volatile|noexcept|&&|&))+$")
REWRITES = [  # spaces and brackets that are part of a name, and decorations
    (re.compile(r"\{lambda\([^{}]*\)#(\d+)\}"), r"{lambda#\1}"),
    (re.compile(r"\(anonymous namespace\)"), "{anonymous}"),
    (re.compile(r"\[abi:cxx11\]|^(non-)?virtual thunk to "), ""),
]

def normalize(sym):
    """void hpf90d::a::B<int>::f<2>(int) const -> hpf90d::a::B<>::f<>"""
    for pattern, repl in REWRITES:
        sym = pattern.sub(repl, sym)
    sym = QUALIFIERS.sub("", sym)
    out, depth, i = [], 0, 0  # depth: open < and ( brackets
    while i < len(sym):
        m = OPERATOR.match(sym, i) if depth == 0 else None
        if m and (not out or out[-1] == ":"):  # its brackets are its name
            out.extend(m.group(0))
            i = m.end()
            continue
        c = sym[i]
        if c in "<(":
            if depth == 0 and c == "<":
                out.extend("<>")
            depth += 1
        elif c in ">)" and depth:
            depth -= 1
        elif c == " " and depth == 0:
            out.clear()  # what came before was a return type
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out).split("::{lambda")[0]  # a lambda is its function's

def parameters(sym):
    """The text of sym's outermost parameter list (the last one)."""
    sym = QUALIFIERS.sub("", sym)
    depth = 0
    for i in range(len(sym) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(sym[i], 0)
        if depth == 0:
            return sym[i + 1:-1]
    return ""

def implicit_signature(sym, name):
    """Whether sym has the signature of an implicitly declared special member."""
    cls, _, member = name.rpartition("::")
    last = cls.rpartition("::")[2].replace("<>", "")
    if member == "~" + last:
        return True
    if member not in (last, "operator="):
        return False
    params = parameters(sym)
    own = re.fullmatch(r"(.*::)?" + re.escape(last) + r"(<.*>)? ?(const&|&&)", params)
    return own is not None or (member == last and params in ("", "void"))

def read(path):
    with open(path) as f:
        symbols = {line for line in f.read().splitlines() if "hpf90d::" in line}
    names = ((normalize(s), s) for s in symbols)
    return {n for n, s in names
            if n.startswith("hpf90d::") and "{anonymous}" not in n
            and not implicit_signature(s, n)}

kept = read(sys.argv[1])
unreached = sorted(read(sys.argv[2]) - kept)

allowed = {}  # entry -> allowlist line; "X::*" covers X and every name under it
with open(sys.argv[3]) as f:
    for lineno, line in enumerate(f, 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition("#")
        if not sep or not reason.strip():
            sys.exit(f"{sys.argv[3]}:{lineno}: entry without a '# reason'")
        allowed[name.strip()] = lineno

def covers(entry, name):
    if entry.endswith("::*"):
        return name == entry[:-3] or name.startswith(entry[:-1])
    return name == entry

used, bad = set(), 0
for name in unreached:
    entries = [e for e in allowed if covers(e, name)]
    used.update(entries)
    print(f"  allowed  {name}" if entries else f"UNREACHED  {name}")
    bad += not entries
for entry, lineno in allowed.items():
    if entry not in used:
        print(f"    STALE  {entry}  (allowlist line {lineno} names nothing unreached)")
        bad += 1
print(f"{len(unreached)} names no product keeps; {bad} problem(s)")
sys.exit(1 if bad else 0)
EOF
