#!/usr/bin/env python3
"""Semantic contract analyzer for libsbf, built on libclang (DESIGN.md §11).

Where scripts/sbf_lint.py enforces structural rules with regexes, this
analyzer parses real ASTs out of compile_commands.json and checks contracts
that need semantic information:

  memory-order     every std::atomic operation must spell its memory_order
                   explicitly (including the CAS failure order); seq_cst is
                   reserved for the documented (field, op) allowlist below,
                   which must stay described in DESIGN.md §11; and every
                   release-class write to a field must have a matching
                   acquire-or-stronger load of the SAME field somewhere —
                   an unpaired release publishes to nobody.
  alloc-free       no allocation is reachable from the batch/delta/SIMD
                   kernel entry points: the call graph from every function
                   defined in the kernel files is walked to operator new,
                   malloc-family calls and allocating std:: members.
                   Template bodies whose calls do not resolve are scanned
                   at token level for the same symbols (over-approximate,
                   which is the safe direction for an allocation ban).
  nodiscard        every public function returning Status/StatusOr must be
                   covered by [[nodiscard]] — on the function itself or on
                   the returned class (src/util/status.h declares both
                   class-level). A dropped Status is a swallowed failure.
  wire-ownership   file-stream and byte-level file I/O calls are confined
                   to src/io/, resolved through the AST (a member function
                   named `read` on a repo class is fine; a call that
                   resolves to POSIX read(2) outside src/io/ is not).
                   Console output to stdout/stderr is exempt, matching
                   sbf_lint rule 1.

Usage:
  python3 scripts/sbf_analyze.py [--compile-commands build/compile_commands.json]
  python3 scripts/sbf_analyze.py --self-test        # seeded-violation fixtures
  python3 scripts/sbf_analyze.py --require-libclang # CI: absence is an error

Exit status: 0 clean, 1 violations (or a fixture failing to trip its
check), 2 infrastructure error, 77 libclang unavailable (skip; ctest maps
it to SKIP via SKIP_RETURN_CODE, CI passes --require-libclang instead).
"""

import argparse
import glob
import json
import os
import pathlib
import re
import shlex
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "analyzer_fixtures"
DESIGN = REPO / "DESIGN.md"
SKIP_EXIT = 77

# --------------------------------------------------------------------------
# Check 1: memory-order discipline.

ATOMIC_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set", "clear",
}
ORDER_NAMES = {"relaxed", "consume", "acquire", "release", "acq_rel",
               "seq_cst"}
# Ops that can publish under release/acq_rel ordering.
WRITE_OPS = ATOMIC_OPS - {"load"}

# The ONLY (field, op) pairs allowed to use memory_order_seq_cst, each tied
# to the window-handshake protocol documented in DESIGN.md §11: the writer's
# seq-cst {enter live_writers, read pending_ptr} must totally order against
# the migrator's seq-cst {publish pending_ptr, spin on live_writers} — the
# Dekker-style store/load pattern that acquire/release cannot express.
SEQ_CST_ALLOWLIST = {
    ("live_writers", "fetch_add"):
        "writer enter side of the window handshake (DESIGN.md §11)",
    ("live_writers", "load"):
        "migrator drain spin of the window handshake (DESIGN.md §11)",
    ("pending_ptr", "load"):
        "writer window-observation read of the handshake (DESIGN.md §11)",
    ("pending_ptr", "store"):
        "migrator window-open publication of the handshake (DESIGN.md §11)",
}

# --------------------------------------------------------------------------
# Check 2: allocation freedom of the kernel entry points.

# (path, extra parse flags): the AVX2 TU needs its target feature to parse
# standalone (mirrors src/CMakeLists.txt's COMPILE_OPTIONS). simd_kernels.cc is the runtime dispatcher, included
# because its Init path must not allocate either.
KERNEL_SPECS = [
    (SRC / "core" / "batch_kernels.h", []),
    (SRC / "core" / "delta_kernels.h", []),
    (SRC / "core" / "simd_kernels.cc", []),
    (SRC / "core" / "simd_kernels_generic.cc", []),
    (SRC / "core" / "simd_kernels_avx2.cc", ["-mavx2"]),
]
BANNED_ALLOC_FUNCS = {"malloc", "calloc", "realloc", "aligned_alloc",
                      "posix_memalign", "strdup", "make_unique",
                      "make_shared"}
BANNED_ALLOC_MEMBERS = {"push_back", "emplace_back", "push_front", "resize",
                        "reserve", "emplace", "insert", "append", "assign",
                        "shrink_to_fit"}

# --------------------------------------------------------------------------
# Check 4: wire ownership.

BANNED_IO_FUNCS = {
    "fopen", "freopen", "fdopen", "fwrite", "fread", "fseek", "ftell",
    "rewind", "fflush", "fclose", "open", "openat", "creat", "write",
    "read", "pwrite", "pread", "pwritev", "preadv", "fsync", "fdatasync",
    "ftruncate", "rename", "renameat", "unlink", "unlinkat", "mkstemp",
    "mkostemp",
}
BANNED_IO_HELPERS = {"ReadFileBytes", "WriteFileBytes"}
FSTREAM_TYPE = re.compile(r"\b(?:basic_)?[io]?fstream\b")


class Violation:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        try:
            rel = pathlib.Path(self.path).resolve().relative_to(REPO)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: {self.check}: {self.message}"


# --------------------------------------------------------------------------
# libclang loading. The python bindings and the shared library both live in
# version-suffixed locations on Debian/Ubuntu; try the obvious spots before
# giving up, and give up LOUDLY with the skip exit code.

def _candidate_binding_dirs():
    out = []
    for pattern in ("/usr/lib/llvm-*/lib/python3*/dist-packages",
                    "/usr/lib/llvm-*/lib/python3*/site-packages",
                    "/usr/lib/llvm-*/lib/python3/dist-packages"):
        out.extend(glob.glob(pattern))
    return sorted(out, reverse=True)


def _candidate_libraries():
    libs = []
    for pattern in ("/usr/lib/llvm-*/lib/libclang.so*",
                    "/usr/lib/llvm-*/lib/libclang-*.so*",
                    "/usr/lib/*-linux-gnu/libclang.so*",
                    "/usr/lib/*-linux-gnu/libclang-*.so*"):
        libs.extend(p for p in glob.glob(pattern) if "libclang-cpp" not in p)
    return sorted(libs, reverse=True)


def load_cindex(require):
    """Returns (cindex module, Index) or exits with SKIP_EXIT/2."""
    try:
        import clang.cindex as cindex  # noqa: F401
    except ImportError:
        sys.path.extend(_candidate_binding_dirs())
        try:
            import clang.cindex as cindex  # noqa: F401
        except ImportError:
            cindex = None
    if cindex is None:
        msg = ("sbf_analyze: python libclang bindings not found (looked for "
               "module 'clang.cindex' on sys.path and under /usr/lib/llvm-*)")
        if require:
            print(msg, file=sys.stderr)
            sys.exit(2)
        print(f"{msg} — SKIPPING the contract analysis. Install "
              f"python3-clang to run it locally; CI runs it for real.")
        sys.exit(SKIP_EXIT)

    explicit = os.environ.get("SBF_LIBCLANG")
    candidates = [explicit] if explicit else _candidate_libraries()
    index = None
    if not candidates:
        # Let the bindings try their default lookup.
        candidates = [None]
    last_error = None
    for lib in candidates:
        try:
            if lib is not None:
                cindex.Config.set_library_file(lib)
            index = cindex.Index.create()
            break
        except Exception as e:  # LibclangError or load failure
            last_error = e
            index = None
    if index is None:
        msg = (f"sbf_analyze: libclang shared library could not be loaded "
               f"(tried {candidates!r}; set SBF_LIBCLANG to the .so path): "
               f"{last_error}")
        if require:
            print(msg, file=sys.stderr)
            sys.exit(2)
        print(f"{msg} — SKIPPING the contract analysis.")
        sys.exit(SKIP_EXIT)
    return cindex, index


# --------------------------------------------------------------------------
# Compile database and parsing.

def load_compile_db(path):
    """{realpath of source: clang arg list} for every entry under src/."""
    with open(path) as f:
        entries = json.load(f)
    db = {}
    for entry in entries:
        source = os.path.realpath(os.path.join(entry.get("directory", "."),
                                               entry["file"]))
        if not source.startswith(str(SRC) + os.sep):
            continue
        argv = entry.get("arguments") or shlex.split(entry["command"])
        args = []
        skip_next = False
        for arg in argv[1:]:
            if skip_next:
                skip_next = False
                continue
            if arg == "-o":
                skip_next = True
                continue
            if arg == "-c":
                continue
            if not arg.startswith("-") and os.path.realpath(
                    os.path.join(entry.get("directory", "."),
                                 arg)) == source:
                continue
            args.append(arg)
        db[source] = args
    return db


def parse_tu(cindex, index, path, args):
    tu = index.parse(path, args=args)
    fatal = [d for d in tu.diagnostics
             if d.severity >= cindex.Diagnostic.Fatal]
    errors = [d for d in tu.diagnostics
              if d.severity == cindex.Diagnostic.Error]
    return tu, fatal, errors


def file_tokens(cursor, cindex):
    """Non-comment token spellings of a cursor's extent."""
    return [t.spelling for t in cursor.get_tokens()
            if t.kind != cindex.TokenKind.COMMENT]


def in_namespace(cursor, name):
    parent = cursor.semantic_parent
    while parent is not None and parent.kind is not None:
        if parent.kind.name == "NAMESPACE" and parent.spelling == name:
            return True
        if parent.kind.name == "TRANSLATION_UNIT":
            return False
        parent = parent.semantic_parent
    return False


def is_free_function(cursor):
    """True when the referenced decl is a free function (global or in a
    namespace), not a class member — disambiguates POSIX read/write from
    methods that happen to share the name."""
    parent = cursor.semantic_parent
    while parent is not None and parent.kind is not None:
        kind = parent.kind.name
        if kind in ("CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE",
                    "CLASS_TEMPLATE_PARTIAL_SPECIALIZATION"):
            return False
        if kind == "TRANSLATION_UNIT":
            return True
        parent = parent.semantic_parent
    return True


# --------------------------------------------------------------------------
# Check 1 implementation.

def collect_atomic_sites(cindex, tu, within_prefixes):
    """[(path, line, col, field, op, [orders])] for atomic ops in scope."""
    sites = []
    for c in tu.cursor.walk_preorder():
        if c.kind != cindex.CursorKind.CALL_EXPR:
            continue
        if c.spelling not in ATOMIC_OPS:
            continue
        loc = c.location
        if loc.file is None:
            continue
        path = os.path.realpath(loc.file.name)
        if not any(path.startswith(p) for p in within_prefixes):
            continue
        ref = c.referenced
        atomic = False
        if ref is not None and ref.semantic_parent is not None:
            parent = ref.semantic_parent.spelling
            atomic = parent.startswith("atomic") or "atomic" in parent
        if not atomic:
            # Unresolved (dependent) call, or a non-atomic method that
            # happens to share a name — fall back to the base type.
            children = list(c.get_children())
            if children and "atomic" in children[0].type.spelling:
                atomic = True
        if not atomic:
            continue
        toks = file_tokens(c, cindex)
        orders = []
        for i, t in enumerate(toks):
            if t.startswith("memory_order_"):
                orders.append(t[len("memory_order_"):])
            elif (t == "memory_order" and i + 2 < len(toks)
                  and toks[i + 1] == "::" and toks[i + 2] in ORDER_NAMES):
                orders.append(toks[i + 2])
        field = "?"
        if c.spelling in toks:
            i = toks.index(c.spelling)
            if i >= 2 and toks[i - 1] in (".", "->"):
                field = toks[i - 2]
        sites.append((path, loc.line, loc.column, field, c.spelling, orders))
    return sites


def check_memory_order(sites, allowlist, check_design_tie=True):
    violations = []
    seen = set()
    deduped = []
    for site in sites:
        key = site[:3]
        if key in seen:
            continue
        seen.add(key)
        deduped.append(site)

    by_field = {}
    for path, line, _col, field, op, orders in deduped:
        by_field.setdefault(field, []).append((path, line, op, orders))
        if not orders:
            violations.append(Violation(
                "memory-order", path, line,
                f"atomic {field}.{op} with implicit memory order — every "
                f"atomic op must spell its ordering (DESIGN.md §11)"))
            continue
        if op.startswith("compare_exchange") and len(orders) < 2:
            violations.append(Violation(
                "memory-order", path, line,
                f"atomic {field}.{op} spells only the success order — the "
                f"failure order must be explicit too"))
        if "seq_cst" in orders and (field, op) not in allowlist:
            violations.append(Violation(
                "memory-order", path, line,
                f"atomic {field}.{op} uses memory_order_seq_cst but "
                f"({field}, {op}) is not on the documented allowlist — "
                f"either justify it in DESIGN.md §11 and add it to "
                f"sbf_analyze.py's SEQ_CST_ALLOWLIST, or weaken the order"))

    # Release-pairing: a release-class write to a field publishes to the
    # acquire-or-stronger loads of that SAME field; with none, nothing can
    # ever synchronize with the write.
    for field, ops in sorted(by_field.items()):
        release_writes = [(p, l) for p, l, op, orders in ops
                          if op in WRITE_OPS
                          and ("release" in orders or "acq_rel" in orders)]
        # A CAS with an acquire-class order performs an acquire load of the
        # field too, so it counts as the pairing read.
        paired_reads = [1 for _p, _l, op, orders in ops
                        if (op == "load"
                            or op.startswith("compare_exchange"))
                        and any(o in ("acquire", "acq_rel", "seq_cst")
                                for o in orders)]
        if release_writes and not paired_reads:
            path, line = release_writes[0]
            violations.append(Violation(
                "memory-order", path, line,
                f"release-ordered write to atomic field '{field}' has no "
                f"matching acquire/seq_cst load of the same field anywhere "
                f"in the analyzed sources — an unpaired release "
                f"synchronizes with nothing (DESIGN.md §11 pairing table)"))

    if check_design_tie:
        violations.extend(check_design_allowlist_tie(allowlist))
    return violations


def check_design_allowlist_tie(allowlist):
    """Every allowlisted field must be described in DESIGN.md §11, so the
    allowlist cannot silently outgrow its documentation."""
    violations = []
    text = DESIGN.read_text() if DESIGN.exists() else ""
    match = re.search(r"^## 11\..*?(?=^## |\Z)", text,
                      re.MULTILINE | re.DOTALL)
    section = match.group(0) if match else ""
    if not section:
        violations.append(Violation(
            "memory-order", str(DESIGN), 1,
            "DESIGN.md has no '## 11.' section — the seq_cst allowlist "
            "must stay documented there"))
        return violations
    for field, _op in sorted(allowlist):
        if field not in section:
            violations.append(Violation(
                "memory-order", str(DESIGN), 1,
                f"allowlisted atomic field '{field}' is not mentioned in "
                f"DESIGN.md §11 — document the protocol or drop the "
                f"allowlist entry"))
    return violations


# --------------------------------------------------------------------------
# Check 2 implementation.

FUNC_KINDS = ("FUNCTION_DECL", "CXX_METHOD", "FUNCTION_TEMPLATE",
              "CONSTRUCTOR", "DESTRUCTOR")


def _is_std(cursor):
    return in_namespace(cursor, "std") or in_namespace(cursor, "__gnu_cxx")


def check_alloc_free(cindex, index, kernel_specs):
    violations = []
    for path, extra_args in kernel_specs:
        path = pathlib.Path(path)
        args = ["-x", "c++", "-std=c++20", f"-I{SRC}"] + list(extra_args)
        if not path.exists():
            violations.append(Violation(
                "alloc-free", str(path), 1,
                "kernel file listed in sbf_analyze.py does not exist — "
                "update KERNEL_SPECS"))
            continue
        tu, fatal, _errors = parse_tu(cindex, index, str(path), args)
        if fatal:
            violations.append(Violation(
                "alloc-free", str(path), 1,
                f"failed to parse: {fatal[0].spelling}"))
            continue
        real = os.path.realpath(str(path))
        # Function definitions in this file, plus a call graph over every
        # function definition the TU pulled in from repo headers.
        defs = {}     # usr -> cursor
        entries = []  # usrs of functions defined in the kernel file itself
        for c in tu.cursor.walk_preorder():
            if c.kind.name not in FUNC_KINDS or not c.is_definition():
                continue
            loc = c.location
            if loc.file is None:
                continue
            where = os.path.realpath(loc.file.name)
            if not where.startswith(str(SRC) + os.sep) and where != real:
                continue
            usr = c.get_usr()
            defs[usr] = c
            if where == real:
                entries.append(usr)

        graph = {}    # usr -> set of callee usrs (repo-defined only)
        direct = {}   # usr -> [(line, what)]
        for usr, c in defs.items():
            callees = set()
            allocs = []
            for d in c.walk_preorder():
                kind = d.kind.name
                if kind == "CXX_NEW_EXPR":
                    allocs.append((d.location.line, "operator new"))
                elif kind == "CALL_EXPR":
                    r = d.referenced
                    if r is None:
                        continue
                    name = r.spelling
                    if name in BANNED_ALLOC_FUNCS:
                        allocs.append((d.location.line, f"{name}()"))
                    elif name in BANNED_ALLOC_MEMBERS and _is_std(r):
                        allocs.append(
                            (d.location.line, f"std member .{name}()"))
                    else:
                        callee_usr = r.get_usr()
                        if callee_usr in defs or r.is_definition():
                            callees.add(callee_usr)
            # Dependent (template) bodies: calls may not resolve, so scan
            # tokens for the banned names too. Over-approximate by design.
            if c.kind.name == "FUNCTION_TEMPLATE":
                for t in c.get_tokens():
                    if (t.kind == cindex.TokenKind.IDENTIFIER
                            and t.spelling in
                            (BANNED_ALLOC_FUNCS | BANNED_ALLOC_MEMBERS)):
                        allocs.append((t.location.line,
                                       f"{t.spelling} (token scan of "
                                       f"dependent body)"))
                    elif (t.kind == cindex.TokenKind.KEYWORD
                          and t.spelling == "new"):
                        allocs.append((t.location.line,
                                       "operator new (token scan of "
                                       "dependent body)"))
            graph[usr] = callees
            direct[usr] = allocs

        # BFS from the kernel file's own functions.
        seen_usrs = set(entries)
        frontier = list(entries)
        via = {u: None for u in entries}
        while frontier:
            u = frontier.pop()
            for v in graph.get(u, ()):
                if v in defs and v not in seen_usrs:
                    seen_usrs.add(v)
                    via[v] = u
                    frontier.append(v)

        reported = set()
        for usr in seen_usrs:
            for line, what in direct.get(usr, ()):
                key = (defs[usr].location.file.name, line, what)
                if key in reported:
                    continue
                reported.add(key)
                chain = []
                u = usr
                while u is not None:
                    chain.append(defs[u].spelling or "<anon>")
                    u = via.get(u)
                violations.append(Violation(
                    "alloc-free", defs[usr].location.file.name, line,
                    f"{what} reachable from kernel entry point "
                    f"{' <- '.join(chain)} — kernel pipelines must not "
                    f"allocate (DESIGN.md §11)"))
    return violations


# --------------------------------------------------------------------------
# Check 3 implementation.

STATUS_RETURN = re.compile(r"^(?:\w+::)*Status(?:Or<.*>)?$")


def _tokens_until(cursor, cindex, stop):
    out = []
    for t in cursor.get_tokens():
        if t.kind == cindex.TokenKind.COMMENT:
            continue
        if t.spelling == stop:
            break
        out.append(t.spelling)
    return out


CLASS_KINDS = ("CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE")
CLASS_NAME = re.compile(r"^(?:\w+::)*(\w+)")


def covered_class_names(cindex, tus, within_prefixes):
    """Names of repo classes declared with a class-level [[nodiscard]].
    Collected from class *definitions* (which have real token extents —
    template instantiations do not) and matched by name, which is exact
    enough within one repository."""
    covered = set()
    for tu in tus:
        for c in tu.cursor.walk_preorder():
            if c.kind.name not in CLASS_KINDS or not c.is_definition():
                continue
            loc = c.location
            if loc.file is None:
                continue
            path = os.path.realpath(loc.file.name)
            if not any(path.startswith(p) for p in within_prefixes):
                continue
            if c.spelling and "nodiscard" in _tokens_until(c, cindex, "{"):
                covered.add(c.spelling)
    return covered


def check_nodiscard(cindex, tus, within_prefixes):
    violations = []
    seen = set()
    covered_classes = covered_class_names(cindex, tus, within_prefixes)

    for tu in tus:
        for c in tu.cursor.walk_preorder():
            if c.kind.name not in ("FUNCTION_DECL", "CXX_METHOD"):
                continue
            loc = c.location
            if loc.file is None:
                continue
            path = os.path.realpath(loc.file.name)
            if not any(path.startswith(p) for p in within_prefixes):
                continue
            usr = c.get_usr()
            if usr in seen:
                continue
            canonical = c.result_type.get_canonical().spelling
            if not STATUS_RETURN.match(canonical):
                continue
            seen.add(usr)
            if c.kind.name == "CXX_METHOD":
                access = c.access_specifier
                if access is not None and access.name != "PUBLIC":
                    continue
            if in_namespace(c, "internal") or in_namespace(c, "detail"):
                continue
            if "nodiscard" in _tokens_until(c, cindex, "("):
                continue
            m = CLASS_NAME.match(canonical)
            if m and m.group(1) in covered_classes:
                continue
            violations.append(Violation(
                "nodiscard", path, loc.line,
                f"public function '{c.spelling}' returns {canonical} "
                f"without [[nodiscard]] coverage (neither on the function "
                f"nor on the returned class) — a dropped Status is a "
                f"swallowed failure"))
    return violations


# --------------------------------------------------------------------------
# Check 4 implementation.

def check_wire_ownership(cindex, tus, within_prefixes, exempt_prefixes):
    violations = []
    seen = set()
    for tu in tus:
        for c in tu.cursor.walk_preorder():
            loc = c.location
            if loc.file is None:
                continue
            path = os.path.realpath(loc.file.name)
            if not any(path.startswith(p) for p in within_prefixes):
                continue
            if any(path.startswith(p) for p in exempt_prefixes):
                continue
            kind = c.kind.name
            if kind == "VAR_DECL" and FSTREAM_TYPE.search(c.type.spelling):
                key = (path, loc.line, "fstream")
                if key not in seen:
                    seen.add(key)
                    violations.append(Violation(
                        "wire-ownership", path, loc.line,
                        f"file stream ({c.type.spelling}) outside src/io/ — "
                        f"byte I/O goes through the wire/io layer"))
                continue
            if kind != "CALL_EXPR":
                continue
            ref = c.referenced
            if ref is None:
                continue
            name = ref.spelling
            if name in BANNED_IO_FUNCS and is_free_function(ref):
                toks = file_tokens(c, cindex)
                if "stdout" in toks or "stderr" in toks:
                    continue  # console output is not wire I/O (lint rule 1)
                key = (path, loc.line, name)
                if key in seen:
                    continue
                seen.add(key)
                violations.append(Violation(
                    "wire-ownership", path, loc.line,
                    f"call resolves to file-I/O primitive '{name}' outside "
                    f"src/io/ — the io layer owns every byte that reaches "
                    f"disk"))
            elif name in BANNED_IO_HELPERS and in_namespace(ref, "io"):
                key = (path, loc.line, name)
                if key in seen:
                    continue
                seen.add(key)
                violations.append(Violation(
                    "wire-ownership", path, loc.line,
                    f"io::{name} called outside src/io/ — wrap the access "
                    f"in an io-layer API instead"))
    return violations


# --------------------------------------------------------------------------
# Repo analysis driver.

def analyze_repo(cindex, index, db_path):
    if not os.path.exists(db_path):
        print(f"sbf_analyze: no compile database at {db_path} — configure "
              f"with cmake first (CMAKE_EXPORT_COMPILE_COMMANDS is on by "
              f"default)", file=sys.stderr)
        return 2
    db = load_compile_db(db_path)
    if not db:
        print(f"sbf_analyze: {db_path} holds no src/ entries",
              file=sys.stderr)
        return 2

    src_prefix = [str(SRC) + os.sep]
    io_prefix = [str(SRC / "io") + os.sep]

    tus = []
    infra = []
    atomic_sites = []
    for source, args in sorted(db.items()):
        tu, fatal, errors = parse_tu(cindex, index, source, args)
        if fatal or errors:
            diag = (fatal + errors)[0]
            infra.append(f"{source}: parse error: {diag.spelling} "
                         f"({diag.location})")
            continue
        tus.append(tu)
        atomic_sites.extend(collect_atomic_sites(cindex, tu, src_prefix))

    if infra:
        for line in infra:
            print(f"sbf_analyze: {line}", file=sys.stderr)
        print(f"sbf_analyze: {len(infra)} translation unit(s) failed to "
              f"parse — refusing to report a partial analysis as clean",
              file=sys.stderr)
        return 2

    violations = []
    violations += check_memory_order(atomic_sites, SEQ_CST_ALLOWLIST)
    violations += check_alloc_free(cindex, index, KERNEL_SPECS)
    violations += check_nodiscard(cindex, tus, src_prefix)
    violations += check_wire_ownership(cindex, tus, src_prefix, io_prefix)

    for v in violations:
        print(v)
    if violations:
        print(f"sbf_analyze: {len(violations)} violation(s)")
        return 1
    print(f"sbf_analyze: clean ({len(tus)} TUs, {len(atomic_sites)} atomic "
          f"sites, 4 checks)")
    return 0


# --------------------------------------------------------------------------
# Self-test: every check must catch its seeded fixture and stay quiet on
# the clean one. This is what ctest runs (tests/CMakeLists.txt) and what CI
# runs before the real analysis — a check that cannot catch its own planted
# bug is not a gate.

def self_test(cindex, index):
    failures = []
    args = ["-x", "c++", "-std=c++20", f"-I{SRC}"]

    def parse_fixture(name):
        path = FIXTURES / name
        tu, fatal, errors = parse_tu(cindex, index, str(path), args)
        if fatal or errors:
            failures.append(f"{name}: fixture failed to parse: "
                            f"{(fatal + errors)[0].spelling}")
            return None
        return tu

    fixture_prefix = [str(FIXTURES) + os.sep, str(FIXTURES)]

    # memory-order: the seeded fixture must trip all four violation shapes.
    tu = parse_fixture("memory_order_violation.cc")
    if tu is not None:
        sites = collect_atomic_sites(cindex, tu, fixture_prefix)
        found = check_memory_order(sites, SEQ_CST_ALLOWLIST,
                                   check_design_tie=False)
        text = "\n".join(str(v) for v in found)
        for needle, label in [
                ("implicit memory order", "implicit-order"),
                ("failure order must be explicit", "cas-failure-order"),
                ("not on the documented allowlist", "rogue-seq-cst"),
                ("unpaired release", "unpaired-release")]:
            if needle not in text:
                failures.append(f"memory-order: seeded {label} violation "
                                f"not caught; got:\n{text or '(nothing)'}")

    # memory-order: the clean fixture must stay clean.
    tu = parse_fixture("memory_order_clean.cc")
    if tu is not None:
        sites = collect_atomic_sites(cindex, tu, fixture_prefix)
        if not sites:
            failures.append("memory-order: clean fixture produced no atomic "
                            "sites — the collector went blind")
        found = check_memory_order(sites, SEQ_CST_ALLOWLIST,
                                   check_design_tie=False)
        if found:
            failures.append(f"memory-order: clean fixture flagged: "
                            f"{[str(v) for v in found]}")

    # alloc-free: the seeded kernel fixture must trip via the call graph.
    found = check_alloc_free(
        cindex, index, [(FIXTURES / "alloc_violation.h", [])])
    text = "\n".join(str(v) for v in found)
    if "push_back" not in text:
        failures.append(f"alloc-free: seeded std member allocation not "
                        f"caught; got:\n{text or '(nothing)'}")
    if "operator new" not in text:
        failures.append(f"alloc-free: seeded operator new not caught; "
                        f"got:\n{text or '(nothing)'}")
    if "KernelEntry" not in text:
        failures.append("alloc-free: violation chain does not name the "
                        "kernel entry point")

    # alloc-free: the real kernels must be clean (this is also the live
    # gate, but asserting it here catches a check that flags everything).
    found = check_alloc_free(cindex, index, KERNEL_SPECS)
    if found:
        failures.append(f"alloc-free: real kernels flagged: "
                        f"{[str(v) for v in found]}")

    # nodiscard: exactly the uncovered function must be flagged.
    tu = parse_fixture("nodiscard_violation.h")
    if tu is not None:
        found = check_nodiscard(cindex, [tu], fixture_prefix)
        text = "\n".join(str(v) for v in found)
        if "Uncovered" not in text:
            failures.append(f"nodiscard: seeded uncovered Status return not "
                            f"caught; got:\n{text or '(nothing)'}")
        if "CoveredByFunction" in text or "CoveredByClass" in text:
            failures.append(f"nodiscard: covered functions were flagged: "
                            f"{text}")

    # wire-ownership: byte I/O in a fixture "outside src/io" must be
    # flagged, and the stdout exemption must hold.
    tu = parse_fixture("wire_violation.cc")
    if tu is not None:
        found = check_wire_ownership(cindex, [tu], fixture_prefix, [])
        text = "\n".join(str(v) for v in found)
        for needle in ("fopen", "fwrite"):
            if needle not in text:
                failures.append(f"wire-ownership: seeded {needle} not "
                                f"caught; got:\n{text or '(nothing)'}")
        if "stdout" in text:
            failures.append(f"wire-ownership: stdout exemption lost: {text}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print("sbf_analyze self-test: all 4 checks catch their seeded fixtures")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--compile-commands",
                    default=str(REPO / "build" / "compile_commands.json"))
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation fixtures instead of the "
                         "repo analysis")
    ap.add_argument("--require-libclang", action="store_true",
                    help="treat missing libclang as an error (CI), not a "
                         "skip")
    opts = ap.parse_args()

    cindex, index = load_cindex(opts.require_libclang)
    if opts.self_test:
        return self_test(cindex, index)
    return analyze_repo(cindex, index, opts.compile_commands)


if __name__ == "__main__":
    sys.exit(main())
