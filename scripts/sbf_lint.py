#!/usr/bin/env python3
"""Project-specific lint rules for libsbf (run by the CI lint job).

Structural rules that generic linters cannot express:

  1. wire-ownership  — raw byte I/O (file streams, manual little-endian
     byte packing) is confined to src/io/; everything else must go through
     the wire::Writer/Reader layer so the framed {magic, version, size,
     crc32c} envelope stays the single encoding authority.
  2. hot-path-checks — the always-on SBF_CHECK macros are banned from the
     designated hot-path headers (batch kernels, BitVector accessors,
     fixed-width counter accessors): per-probe preconditions there must be
     SBF_DCHECK, which compiles out of release builds.
  3. golden-coverage — every kMagic frame tag declared in src/io/wire.h
     must be pinned by at least one golden blob under tests/golden/ whose
     leading four bytes are that magic. A new frame type without a golden
     is exactly how silent wire-format drift starts.
  4. kernel-allocations — the batch-kernel pipelines (src/core/
     batch_kernels.h) and the delta-buffer accumulate/drain kernels
     (src/core/delta_kernels.h — the epoch-merge hot path) must not
     allocate: no new/make_unique/std::vector/std::string/push_back/
     resize/reserve. The kernels' contract is that position rings live on
     the stack and delta maps view caller-owned storage.
  5. tsan-coverage — the CI workflow must keep a dedicated ThreadSanitizer
     leg that runs the concurrency suites (concurrent_sbf_test,
     concurrent_delta_test, and expansion_test's dual-write window races)
     with retry + timeout flags. Dropping a suite from the TSan leg is how
     a data race ships while the release leg stays green.
  6. simd-differential — every SIMD kernel entry point declared as a
     function-pointer field of simd::BlockKernels (src/core/simd_kernels.h)
     must be exercised by name in tests/simd_differential_test.cc, the
     suite that pins each ISA variant to the scalar reference. A vector
     kernel without a registered differential test is an unverified
     bit-for-bit equivalence claim.
  7. decode-view-differential — every CounterVector backing implements
     the grouped read hook (DecodeBlock is pure virtual, so the compiler
     enforces that part), and every backing must be exercised by name in
     tests/decode_view_test.cc, the suite that pins each DecodeBlock to
     the scalar Get reference, and the serial-scan bulk add
     (SerialScanCounterVector::AddMany, the epoch Apply path) to the
     scalar Increment loop, across group boundaries, rebuilds, slack
     borrows and widenings. An unregistered implementation is an
     unverified equivalence claim, exactly like an untested SIMD kernel.
  8. durable-record-coverage — every WalRecordType enumerator declared in
     src/io/delta_log.h must appear by name in
     tests/crash_recovery_test.cc, the crash-matrix suite that replays
     logs through recovery. A record type the recovery tests never
     mention is a durability path that has never survived a simulated
     crash.
  9. static-analysis-coverage — the CI workflow must keep BOTH semantic
     static-analysis gates: a clang thread-safety leg that configures with
     -DSBF_THREAD_SAFETY=ON and runs scripts/check_thread_safety.py, and a
     lint-job step that runs scripts/sbf_analyze.py with
     --require-libclang (so a missing libclang fails CI instead of
     silently skipping). Dropping either gate un-checks every annotated
     lock contract and atomic protocol at once.
 10. one-allocation-path — madvise, mmap and std::align_val_t may appear
     in src/ only in util/aligned_alloc.h. Its AlignedAllocator is the one
     allocator under BitVector and so under every counter backing; its
     size rule (64-byte alignment, or 2 MiB pages advised MADV_HUGEPAGE
     for DRAM-sized arrays) holds only while no second path forks off.

Run from anywhere inside the repository:  python3 scripts/sbf_lint.py
Self-test (used by ctest):                python3 scripts/sbf_lint.py --self-test
Exit status: 0 clean, 1 violations, 2 internal error.
"""

import pathlib
import re
import struct
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
GOLDEN_DIR = REPO / "tests" / "golden"
WIRE_HEADER = SRC / "io" / "wire.h"

# Rule 2: headers whose accessors sit inside per-probe loops.
HOT_PATH_FILES = [
    SRC / "core" / "batch_kernels.h",
    SRC / "core" / "delta_kernels.h",
    SRC / "core" / "simd_kernels.h",
    SRC / "bitstream" / "bit_vector.h",
    SRC / "sai" / "fixed_counter_vector.h",
    SRC / "util" / "prefetch.h",
]

# Rule 4: the batch-kernel pipelines, the delta accumulate/drain kernels
# (every buffered insert and every epoch merge runs through them), and the
# SIMD block-kernel translation units.
KERNEL_FILES = [
    SRC / "core" / "batch_kernels.h",
    SRC / "core" / "delta_kernels.h",
    SRC / "core" / "simd_kernels_generic.cc",
    SRC / "core" / "simd_kernels_avx2.cc",
]

# Rule 6: the kernel dispatch table and the differential suite that must
# cover every one of its entry points.
SIMD_KERNELS_HEADER = SRC / "core" / "simd_kernels.h"
SIMD_DIFFERENTIAL_TEST = REPO / "tests" / "simd_differential_test.cc"
# A function-pointer field of the BlockKernels table, e.g.
#   int (*blocked_add64)(uint64_t* block, ...);
SIMD_FIELD = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")

# Rule 7: counter-vector backings and the grouped read/write differential suite.
DECODE_VIEW_TEST = REPO / "tests" / "decode_view_test.cc"
BACKING_DECL = re.compile(r"class\s+(\w+)\s+(?:final\s+)?:\s*public\s+"
                          r"CounterVector\b")

# Rule 8: the WAL record-type enum and the crash-matrix suite that must
# exercise every enumerator through simulated-crash recovery.
DELTA_LOG_HEADER = SRC / "io" / "delta_log.h"
CRASH_RECOVERY_TEST = REPO / "tests" / "crash_recovery_test.cc"
WAL_RECORD_ENUM = re.compile(
    r"enum\s+class\s+WalRecordType[^{]*\{([^}]*)\}", re.DOTALL)
WAL_RECORD_ENUMERATOR = re.compile(r"\b(k\w+)\s*=")

# Rule 5: the CI workflow and what its TSan leg must keep running.
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
TSAN_REQUIRED_SUITES = ["concurrent_sbf_test", "concurrent_delta_test",
                        "expansion_test"]
TSAN_REQUIRED_FLAGS = ["--repeat until-pass:1", "--timeout 300"]

RAW_IO_PATTERNS = [
    (re.compile(r"std::[io]fstream|std::fstream"), "file stream"),
    (re.compile(r"\bfopen\s*\("), "fopen"),
    (re.compile(r"\bfread\s*\("), "fread"),
    (re.compile(r"\bfwrite\s*\("), "fwrite"),
    # Manual little-endian byte extraction, e.g. (v >> 8) & 0xFF.
    (re.compile(r">>\s*(?:8|16|24|32|40|48|56)\s*\)?\s*&\s*0x[fF]{2}\b"),
     "manual byte packing"),
]

CHECK_PATTERN = re.compile(r"\bSBF_CHECK(?:_MSG)?\s*\(")

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\s"), "new"),
    (re.compile(r"std::make_unique|std::make_shared"), "make_unique/shared"),
    (re.compile(r"std::vector\s*<"), "std::vector"),
    (re.compile(r"std::string\b"), "std::string"),
    (re.compile(r"\.push_back\s*\(|\.emplace_back\s*\("), "push_back"),
    (re.compile(r"\.resize\s*\(|\.reserve\s*\("), "resize/reserve"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
]

# Rule 10: the single home of aligned and huge-page allocation.
ALLOCATOR_HEADER = SRC / "util" / "aligned_alloc.h"
ALLOCATION_PATH_PATTERNS = [
    (re.compile(r"\bmadvise\s*\("), "madvise"),
    (re.compile(r"\bmmap(?:64)?\s*\("), "mmap"),
    (re.compile(r"\balign_val_t\b"), "std::align_val_t"),
]

MAGIC_DECL = re.compile(
    r"kMagic\w+\s*=\s*FourCc\('(.)',\s*'(.)',\s*'(.)',\s*'(.)'\)")


def source_files(root):
    for ext in ("*.cc", "*.h", "*.cpp"):
        yield from root.rglob(ext)


def iter_code_lines(path):
    """Yields (lineno, line) with block/line comments stripped."""
    in_block = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if in_block:
            end = line.find("*/")
            if end == -1:
                continue
            line = line[end + 2:]
            in_block = False
        while True:
            start = line.find("/*")
            if start == -1:
                break
            end = line.find("*/", start + 2)
            if end == -1:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + line[end + 2:]
        cut = line.find("//")
        if cut != -1:
            line = line[:cut]
        yield lineno, line


def check_wire_ownership(violations):
    for path in source_files(SRC):
        if SRC / "io" in path.parents:
            continue
        for lineno, line in iter_code_lines(path):
            # Console output is not wire I/O.
            if "stdout" in line or "stderr" in line:
                continue
            for pattern, what in RAW_IO_PATTERNS:
                if pattern.search(line):
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"wire-ownership: {what} outside src/io/ — encode "
                        f"through wire::Writer/Reader")


def check_hot_path_checks(violations):
    for path in HOT_PATH_FILES:
        for lineno, line in iter_code_lines(path):
            if CHECK_PATTERN.search(line):
                violations.append(
                    f"{path.relative_to(REPO)}:{lineno}: "
                    f"hot-path-checks: SBF_CHECK in a hot-path header — "
                    f"use SBF_DCHECK for per-probe preconditions")


def check_golden_coverage(violations):
    declared = {}
    for match in MAGIC_DECL.finditer(WIRE_HEADER.read_text()):
        magic = struct.unpack("<I", "".join(match.groups()).encode())[0]
        declared[magic] = "".join(match.groups())
    covered = set()
    for blob in sorted(GOLDEN_DIR.glob("*.bin")):
        head = blob.read_bytes()[:4]
        if len(head) == 4:
            covered.add(struct.unpack("<I", head)[0])
    for magic, tag in sorted(declared.items()):
        if magic not in covered:
            violations.append(
                f"src/io/wire.h: golden-coverage: frame tag '{tag}' has no "
                f"golden blob under tests/golden/ — add one (see "
                f"golden_wire_test.cc regeneration notes)")


def check_kernel_allocations(violations):
    for path in KERNEL_FILES:
        for lineno, line in iter_code_lines(path):
            for pattern, what in ALLOC_PATTERNS:
                if pattern.search(line):
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"kernel-allocations: {what} inside a batch-kernel "
                        f"pipeline — kernels must not allocate")


def check_one_allocation_path(violations):
    for path in source_files(SRC):
        if path == ALLOCATOR_HEADER:
            continue
        for lineno, line in iter_code_lines(path):
            for pattern, what in ALLOCATION_PATH_PATTERNS:
                if pattern.search(line):
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"one-allocation-path: {what} outside "
                        f"src/util/aligned_alloc.h — allocate through "
                        f"AlignedAllocator")


def check_tsan_coverage(violations, workflow_text=None):
    """The dedicated TSan leg must run the concurrency suites with the
    retry + timeout flags (flaky-looking hangs under TSan must fail the
    leg, not wedge it)."""
    text = (CI_WORKFLOW.read_text()
            if workflow_text is None else workflow_text)
    # Split the workflow into top-level jobs (keys at two-space indent) and
    # keep those that are ThreadSanitizer legs: named *tsan* or configured
    # with sanitize: thread.
    jobs = {}
    name = None
    for line in text.splitlines():
        m = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if m:
            name = m.group(1)
            jobs[name] = []
        elif name is not None:
            jobs[name].append(line)
    tsan_text = "\n".join(
        "\n".join(body) for job, body in jobs.items()
        if "tsan" in job or "sanitize: thread" in "\n".join(body))
    for suite in TSAN_REQUIRED_SUITES:
        if suite not in tsan_text:
            violations.append(
                f".github/workflows/ci.yml: tsan-coverage: {suite} is not "
                f"exercised by any ThreadSanitizer leg")
    for flag in TSAN_REQUIRED_FLAGS:
        if flag not in tsan_text:
            violations.append(
                f".github/workflows/ci.yml: tsan-coverage: TSan ctest "
                f"invocation lost the '{flag}' flag")


def check_static_analysis_coverage(violations, workflow_text=None):
    """Both semantic gates must stay wired into CI: a job that builds with
    -DSBF_THREAD_SAFETY=ON and runs check_thread_safety.py, and a lint step
    that runs sbf_analyze.py --require-libclang."""
    text = (CI_WORKFLOW.read_text()
            if workflow_text is None else workflow_text)
    jobs = {}
    name = None
    for line in text.splitlines():
        m = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if m:
            name = m.group(1)
            jobs[name] = []
        elif name is not None:
            jobs[name].append(line)
    bodies = {job: "\n".join(body) for job, body in jobs.items()}

    ts_jobs = [b for b in bodies.values()
               if "-DSBF_THREAD_SAFETY=ON" in b
               and "check_thread_safety.py" in b]
    if not ts_jobs:
        violations.append(
            ".github/workflows/ci.yml: static-analysis-coverage: no job "
            "both configures with -DSBF_THREAD_SAFETY=ON and runs "
            "scripts/check_thread_safety.py — the annotated lock contracts "
            "are unchecked")

    analyze_jobs = [b for b in bodies.values()
                    if "sbf_analyze.py" in b and "--require-libclang" in b]
    if not analyze_jobs:
        violations.append(
            ".github/workflows/ci.yml: static-analysis-coverage: no job "
            "runs scripts/sbf_analyze.py with --require-libclang — the "
            "memory-order/alloc-free/nodiscard/wire contracts are "
            "unchecked (and a missing libclang would skip silently)")


def simd_kernel_entry_points():
    """Names of the function-pointer fields of simd::BlockKernels."""
    fields = []
    for _, line in iter_code_lines(SIMD_KERNELS_HEADER):
        for match in SIMD_FIELD.finditer(line):
            fields.append(match.group(1))
    return fields


def check_simd_differential(violations, test_text=None):
    """Every kernel entry point needs a registered scalar-differential
    test: the suite must mention the field by name (it drives each ISA's
    implementation against the generic reference)."""
    fields = simd_kernel_entry_points()
    if not fields:
        violations.append(
            "src/core/simd_kernels.h: simd-differential: no BlockKernels "
            "entry points parsed — the table moved or the field syntax "
            "changed; update sbf_lint.py's SIMD_FIELD pattern")
        return
    if test_text is None:
        if not SIMD_DIFFERENTIAL_TEST.exists():
            violations.append(
                "tests/simd_differential_test.cc: simd-differential: the "
                "differential suite is missing")
            return
        test_text = SIMD_DIFFERENTIAL_TEST.read_text()
    for field in fields:
        if field not in test_text:
            violations.append(
                f"tests/simd_differential_test.cc: simd-differential: "
                f"kernel entry point '{field}' has no scalar-differential "
                f"coverage — every ISA variant must be pinned to the "
                f"generic reference")


def counter_vector_backings():
    """(class name, header path, header text) of every concrete backing."""
    backings = []
    for path in source_files(SRC):
        if not path.name.endswith(".h"):
            continue
        text = "\n".join(line for _, line in iter_code_lines(path))
        for match in BACKING_DECL.finditer(text):
            backings.append((match.group(1), path, text))
    return backings


def check_decode_view_differential(violations, test_text=None):
    """Every backing's DecodeBlock (and serial-scan's bulk add) is pinned
    by the differential suite."""
    backings = counter_vector_backings()
    if not backings:
        violations.append(
            "src/sai: decode-view-differential: no CounterVector backings "
            "parsed — the class declarations moved; update sbf_lint.py's "
            "BACKING_DECL pattern")
        return
    if test_text is None:
        if not DECODE_VIEW_TEST.exists():
            violations.append(
                "tests/decode_view_test.cc: decode-view-differential: the "
                "grouped read/write differential suite is missing")
            return
        test_text = DECODE_VIEW_TEST.read_text()
    for name, _, _ in backings:
        if name not in test_text:
            violations.append(
                f"tests/decode_view_test.cc: decode-view-differential: "
                f"backing '{name}' has no registered differential coverage "
                f"of its DecodeBlock (or serial-scan AddMany) — every "
                f"implementation must be pinned to the scalar reference")


def wal_record_types():
    """Enumerator names of io::WalRecordType (comment-stripped parse)."""
    text = "\n".join(line for _, line in iter_code_lines(DELTA_LOG_HEADER))
    match = WAL_RECORD_ENUM.search(text)
    if not match:
        return []
    return WAL_RECORD_ENUMERATOR.findall(match.group(1))


def check_durable_record_coverage(violations, test_text=None):
    """Every WAL record type must be exercised by the crash-matrix suite:
    a record kind recovery has never replayed is untested durability."""
    enumerators = wal_record_types()
    if not enumerators:
        violations.append(
            "src/io/delta_log.h: durable-record-coverage: no WalRecordType "
            "enumerators parsed — the enum moved or changed syntax; update "
            "sbf_lint.py's WAL_RECORD_ENUM pattern")
        return
    if test_text is None:
        if not CRASH_RECOVERY_TEST.exists():
            violations.append(
                "tests/crash_recovery_test.cc: durable-record-coverage: the "
                "crash-matrix suite is missing")
            return
        test_text = CRASH_RECOVERY_TEST.read_text()
    for name in enumerators:
        if name not in test_text:
            violations.append(
                f"tests/crash_recovery_test.cc: durable-record-coverage: "
                f"WAL record type '{name}' is never exercised by the "
                f"crash-matrix suite — every record kind must survive a "
                f"simulated crash and replay")


def run_lint():
    violations = []
    check_wire_ownership(violations)
    check_hot_path_checks(violations)
    check_golden_coverage(violations)
    check_kernel_allocations(violations)
    check_tsan_coverage(violations)
    check_static_analysis_coverage(violations)
    check_simd_differential(violations)
    check_decode_view_differential(violations)
    check_durable_record_coverage(violations)
    check_one_allocation_path(violations)
    for v in violations:
        print(v)
    if violations:
        print(f"sbf_lint: {len(violations)} violation(s)")
        return 1
    print("sbf_lint: clean")
    return 0


def self_test():
    """Verifies each rule actually fires on a synthetic violation."""
    import tempfile

    failures = []

    def expect(rule, text, should_fire, label):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".cc", delete=False) as tmp:
            tmp.write(text)
            name = pathlib.Path(tmp.name)
        try:
            fired = False
            for lineno, line in iter_code_lines(name):
                if "stdout" in line or "stderr" in line:
                    continue
                for pattern, _ in rule:
                    if pattern.search(line):
                        fired = True
            if fired != should_fire:
                failures.append(f"{label}: fired={fired}, want {should_fire}")
        finally:
            name.unlink()

    expect(RAW_IO_PATTERNS, 'std::ofstream out("x");', True, "raw-io stream")
    expect(RAW_IO_PATTERNS, "b = (v >> 8) & 0xFF;", True, "raw-io packing")
    expect(RAW_IO_PATTERNS, "// std::ofstream in a comment", False,
           "raw-io comment")
    expect(RAW_IO_PATTERNS, "std::fwrite(s.data(), 1, n, stdout);", False,
           "raw-io stdout exemption")
    expect([(CHECK_PATTERN, "check")], "SBF_CHECK(i < m_);", True,
           "hot-path check")
    expect([(CHECK_PATTERN, "check")], "SBF_DCHECK(i < m_);", False,
           "hot-path dcheck allowed")
    expect(ALLOC_PATTERNS, "std::vector<uint64_t> ring(n);", True,
           "kernel alloc")
    expect(ALLOC_PATTERNS, "uint64_t ring[kBatchWindow * kMaxK];", False,
           "kernel stack array")
    expect(ALLOCATION_PATH_PATTERNS, "::madvise(p, n, MADV_HUGEPAGE);", True,
           "allocation-path madvise")
    expect(ALLOCATION_PATH_PATTERNS,
           "void* p = mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);", True,
           "allocation-path mmap")
    expect(ALLOCATION_PATH_PATTERNS,
           "::operator new(n, std::align_val_t{64});", True,
           "allocation-path align_val_t")
    expect(ALLOCATION_PATH_PATTERNS, "// madvise(p, n, MADV_HUGEPAGE);",
           False, "allocation-path comment")
    expect(ALLOCATION_PATH_PATTERNS, "std::vector<uint64_t> mmap_offsets;",
           False, "allocation-path identifier")
    clean = []
    check_one_allocation_path(clean)
    if clean:
        failures.append(f"one-allocation-path: tree not clean: {clean}")
    if not any(p.search(ALLOCATOR_HEADER.read_text())
               for p, _ in ALLOCATION_PATH_PATTERNS):
        failures.append(
            "one-allocation-path: util/aligned_alloc.h no longer holds the "
            "allocation path; update ALLOCATOR_HEADER")

    # golden-coverage fires when a magic is missing from the covered set.
    declared = MAGIC_DECL.findall(WIRE_HEADER.read_text())
    if not declared:
        failures.append("golden-coverage: no kMagic declarations parsed")
    violations = []
    check_golden_coverage(violations)
    if violations:
        failures.append(f"golden-coverage: tree not clean: {violations}")

    # tsan-coverage fires when a suite or flag is dropped from the TSan
    # leg, and stays quiet on the real workflow.
    synthetic = ("tsan-broken:\n    sanitize: thread\n"
                 "    run: ctest -R concurrent_sbf_test\n")
    fired = []
    check_tsan_coverage(fired, workflow_text=synthetic)
    for suite in ("concurrent_delta_test", "expansion_test"):
        if not any(suite in v for v in fired):
            failures.append(f"tsan-coverage: missing {suite} did not fire")
    if not any("--repeat until-pass:1" in v for v in fired):
        failures.append("tsan-coverage: missing retry flag did not fire")
    clean = []
    check_tsan_coverage(clean)
    if clean:
        failures.append(f"tsan-coverage: tree not clean: {clean}")

    # static-analysis-coverage fires when either semantic gate is dropped
    # from the workflow, and stays quiet on the real tree.
    missing_ts = ("lint:\n    steps:\n"
                  "      - run: python3 scripts/sbf_analyze.py "
                  "--require-libclang\n")
    fired = []
    check_static_analysis_coverage(fired, workflow_text=missing_ts)
    if not any("check_thread_safety.py" in v for v in fired):
        failures.append(
            "static-analysis-coverage: dropped thread-safety leg did not "
            "fire")
    missing_analyze = ("thread-safety:\n    steps:\n"
                       "      - run: cmake -B b -DSBF_THREAD_SAFETY=ON\n"
                       "      - run: python3 scripts/check_thread_safety.py\n")
    fired = []
    check_static_analysis_coverage(fired, workflow_text=missing_analyze)
    if not any("sbf_analyze.py" in v for v in fired):
        failures.append(
            "static-analysis-coverage: dropped analyzer step did not fire")
    clean = []
    check_static_analysis_coverage(clean)
    if clean:
        failures.append(f"static-analysis-coverage: tree not clean: {clean}")

    # simd-differential fires when an entry point has no coverage, and
    # stays quiet on the real tree.
    fields = simd_kernel_entry_points()
    if len(fields) < 2:
        failures.append(
            f"simd-differential: expected several BlockKernels entry "
            f"points, parsed {fields}")
    else:
        synthetic = " ".join(fields[1:])  # drop one field's coverage
        fired = []
        check_simd_differential(fired, test_text=synthetic)
        if not any(fields[0] in v for v in fired):
            failures.append(
                "simd-differential: uncovered entry point did not fire")
        clean = []
        check_simd_differential(clean)
        if clean:
            failures.append(f"simd-differential: tree not clean: {clean}")

    # decode-view-differential fires when a backing loses its coverage,
    # and stays quiet on the real tree.
    backings = [name for name, _, _ in counter_vector_backings()]
    if len(backings) < 2:
        failures.append(
            f"decode-view-differential: expected several backings, "
            f"parsed {backings}")
    else:
        synthetic = " ".join(backings[1:])  # drop one backing's coverage
        fired = []
        check_decode_view_differential(fired, test_text=synthetic)
        if not any(backings[0] in v for v in fired):
            failures.append(
                "decode-view-differential: uncovered backing did not fire")
        clean = []
        check_decode_view_differential(clean)
        if clean:
            failures.append(
                f"decode-view-differential: tree not clean: {clean}")

    # durable-record-coverage fires when a WAL record type loses its
    # crash-matrix coverage, and stays quiet on the real tree.
    enumerators = wal_record_types()
    if len(enumerators) < 2:
        failures.append(
            f"durable-record-coverage: expected several WalRecordType "
            f"enumerators, parsed {enumerators}")
    else:
        synthetic = " ".join(enumerators[1:])  # drop one type's coverage
        fired = []
        check_durable_record_coverage(fired, test_text=synthetic)
        if not any(enumerators[0] in v for v in fired):
            failures.append(
                "durable-record-coverage: uncovered record type did not "
                "fire")
        clean = []
        check_durable_record_coverage(clean)
        if clean:
            failures.append(
                f"durable-record-coverage: tree not clean: {clean}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print(f"sbf_lint self-test: all rules fire correctly "
          f"({len(declared)} frame tags covered)")
    return 0


def main():
    if "--self-test" in sys.argv:
        code = self_test()
        if code != 0:
            return code
        return run_lint()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
