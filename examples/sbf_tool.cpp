// sbf_tool — a small command-line utility around the library, the kind of
// artifact a deployment actually ships:
//
//   sbf_tool build  <filter-file> [m] [k]   build a filter from stdin keys
//                                           (one key per line; repeated
//                                           lines raise the multiplicity)
//   sbf_tool query  <filter-file> <key>...  estimate multiplicities
//   sbf_tool heavy  <filter-file> <T> <key>...
//                                           keys with estimate >= T
//   sbf_tool merge  <out> <in1> <in2>...    union compatible filters
//   sbf_tool info   <filter-file>           parameters and fill statistics
//   sbf_tool health <filter-file>           occupancy, live FPR estimate and
//                                           the HEALTHY/DEGRADED/SATURATED
//                                           verdict (any filter frame)
//   sbf_tool load   <file>                  inspect any wire frame: envelope,
//                                           filter type, round-trip check
//   sbf_tool audit  <file>                  deserialize any frame and run its
//                                           structural validator
//                                           (CheckInvariants); exit 0 iff the
//                                           structure passes
//   sbf_tool storage <file>                 compact-backing internals: used /
//                                           slack / overhead bits, rebuild and
//                                           push tallies, per-group slack
//                                           histogram (bare 'SBcc' frames or
//                                           filters with a compact backing)
//   sbf_tool save   <in> <out>              load any filter frame and save
//                                           its canonical re-serialization
//   sbf_tool recover <dir>                  recover a durable store directory
//                                           (checkpoints + WAL) and report the
//                                           verdict; exit 0 clean, 2 torn tail
//                                           truncated, 3 quarantined/rebuilt,
//                                           4 unrecoverable
//   sbf_tool log-dump <wal>                 per-record WAL metadata: header
//                                           generation, each record's
//                                           sequence/type/keys, torn-tail
//                                           diagnosis (exit 2 when torn)
//
// `build`/`query`/... work on SBF files: the flat 'SBsf', blocked 'SBbk'
// and 'SBb2', and counting Bloom (sticky4) 'SBcb' frames. `load`/`save`
// accept *any* filter frame (those, RM, TRM, sharded...) via the
// polymorphic wire codec.
//
// Run with no arguments for a self-demo that exercises every subcommand in
// a temp directory (so the example binary stays runnable standalone).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bloom_filter.h"
#include "core/sbf_algebra.h"
#include "core/spectral_bloom_filter.h"
#include "sai/compact_counter_vector.h"
#include "sai/counter_vector.h"
#include "io/delta_log.h"
#include "io/durable_store.h"
#include "io/filter_codec.h"
#include "io/wire.h"
#include "util/health.h"

namespace {

using sbf::SbfOptions;
using sbf::SpectralBloomFilter;

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool ReadFile(const std::string& path, std::vector<uint8_t>* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  return true;
}

int Fail(const char* message) {
  std::fprintf(stderr, "sbf_tool: %s\n", message);
  return 1;
}

SpectralBloomFilter Load(const std::string& path, bool* ok) {
  std::vector<uint8_t> bytes;
  *ok = false;
  if (!ReadFile(path, &bytes)) {
    std::fprintf(stderr, "sbf_tool: cannot read %s\n", path.c_str());
    SbfOptions fallback;
    fallback.m = 1;
    fallback.k = 1;
    return SpectralBloomFilter(fallback);
  }
  auto filter = SpectralBloomFilter::Deserialize(bytes);
  if (!filter.ok()) {
    std::fprintf(stderr, "sbf_tool: %s: %s\n", path.c_str(),
                 filter.status().ToString().c_str());
    SbfOptions fallback;
    fallback.m = 1;
    fallback.k = 1;
    return SpectralBloomFilter(fallback);
  }
  *ok = true;
  return std::move(filter).value();
}

int CmdBuild(int argc, char** argv) {
  if (argc < 3) return Fail("build needs an output path");
  SbfOptions options;
  options.m = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 100000;
  options.k = argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 5;
  options.policy = sbf::SbfPolicy::kMinimumSelection;  // mergeable
  options.backing = sbf::CounterBacking::kCompact;
  SpectralBloomFilter filter(options);

  char line[4096];
  uint64_t lines = 0;
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    size_t len = std::strlen(line);
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    if (len == 0) continue;
    filter.InsertBytes(std::string_view(line, len));
    ++lines;
  }
  if (!WriteFile(argv[2], filter.Serialize())) return Fail("write failed");
  std::printf("built %s: %llu insertions, m=%llu k=%u, %zu bytes on disk\n",
              argv[2], (unsigned long long)lines,
              (unsigned long long)filter.m(), filter.k(),
              filter.Serialize().size());
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 4) return Fail("query needs a filter and at least one key");
  bool ok = false;
  const SpectralBloomFilter filter = Load(argv[2], &ok);
  if (!ok) return 1;
  for (int i = 3; i < argc; ++i) {
    std::printf("%s\t%llu\n", argv[i],
                (unsigned long long)filter.EstimateBytes(argv[i]));
  }
  return 0;
}

int CmdHeavy(int argc, char** argv) {
  if (argc < 5) return Fail("heavy needs a filter, a threshold and keys");
  bool ok = false;
  const SpectralBloomFilter filter = Load(argv[2], &ok);
  if (!ok) return 1;
  const uint64_t threshold = std::strtoull(argv[3], nullptr, 10);
  for (int i = 4; i < argc; ++i) {
    if (filter.EstimateBytes(argv[i]) >= threshold) {
      std::printf("%s\n", argv[i]);
    }
  }
  return 0;
}

// N as printed by info/merge. Blocked and sticky4 frames do not record N,
// so such a loaded filter's total_items() is not the count of what it
// holds.
std::string ItemsText(const SpectralBloomFilter& filter) {
  if (filter.block_size() != 0 ||
      filter.options().backing == sbf::CounterBacking::kSticky4) {
    return "unrecorded";
  }
  return std::to_string(filter.total_items());
}

int CmdMerge(int argc, char** argv) {
  if (argc < 5) return Fail("merge needs an output and >= 2 inputs");
  bool ok = false;
  SpectralBloomFilter merged = Load(argv[3], &ok);
  if (!ok) return 1;
  for (int i = 4; i < argc; ++i) {
    const SpectralBloomFilter next = Load(argv[i], &ok);
    if (!ok) return 1;
    const sbf::Status status = UnionInto(&merged, next);
    if (!status.ok()) return Fail(status.ToString().c_str());
  }
  if (!WriteFile(argv[2], merged.Serialize())) return Fail("write failed");
  std::printf("merged %d filters into %s (items=%s)\n", argc - 3, argv[2],
              ItemsText(merged).c_str());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) return Fail("info needs a filter path");
  bool ok = false;
  const SpectralBloomFilter filter = Load(argv[2], &ok);
  if (!ok) return 1;
  const uint64_t nonzero = filter.Health().nonzero_counters;
  std::printf("m=%llu k=%u policy=%s items=%s\n",
              (unsigned long long)filter.m(), filter.k(),
              filter.Name().c_str(), ItemsText(filter).c_str());
  std::printf("counters nonzero: %llu (%.1f%%), memory %zu KB\n",
              (unsigned long long)nonzero, 100.0 * nonzero / filter.m(),
              filter.MemoryUsageBits() / 8192);
  return 0;
}

int CmdHealth(int argc, char** argv) {
  if (argc < 3) return Fail("health needs a filter path");
  std::vector<uint8_t> bytes;
  if (!ReadFile(argv[2], &bytes)) return Fail("cannot read input");
  auto filter = sbf::DeserializeFilter(bytes);
  if (!filter.ok()) return Fail(filter.status().ToString().c_str());
  const sbf::FilterHealth health = filter.value()->Health();
  std::printf("%s: %s\n", filter.value()->Name().c_str(),
              health.ToString().c_str());
  // A non-zero exit for anything unhealthy makes the command usable as a
  // monitoring probe: 0 healthy, 2 degraded, 3 saturated.
  switch (health.state) {
    case sbf::HealthState::kHealthy:
      return 0;
    case sbf::HealthState::kDegraded:
      return 2;
    case sbf::HealthState::kSaturated:
      return 3;
  }
  return 0;
}

int CmdLoad(int argc, char** argv) {
  if (argc < 3) return Fail("load needs a file path");
  std::vector<uint8_t> bytes;
  if (!ReadFile(argv[2], &bytes)) return Fail("cannot read input");

  const auto envelope = sbf::wire::ProbeFrame(bytes);
  if (!envelope.ok()) return Fail(envelope.status().ToString().c_str());
  const uint32_t magic = envelope.value().magic;
  std::printf("frame: magic '%c%c%c%c' v%u, payload %llu bytes, crc32c %08x\n",
              static_cast<char>(magic), static_cast<char>(magic >> 8),
              static_cast<char>(magic >> 16), static_cast<char>(magic >> 24),
              envelope.value().version,
              (unsigned long long)envelope.value().payload_size,
              envelope.value().crc32c);

  auto filter = sbf::DeserializeFilter(bytes);
  if (!filter.ok()) return Fail(filter.status().ToString().c_str());
  std::printf("filter: %s, %zu KB in memory\n",
              filter.value()->Name().c_str(),
              filter.value()->MemoryUsageBits() / 8192);
  if (filter.value()->Serialize() != bytes) {
    return Fail("re-serialization is not byte-identical");
  }
  std::printf("round-trip: re-serialization byte-identical\n");
  return 0;
}

// Deserializes any library frame — filter frontends, the plain Bloom
// filter, or a bare counter-vector backing — and runs its structural
// validator. This is the always-available entry point of the SBF_AUDIT
// layer (DESIGN.md §7): the validators are compiled into every build, so a
// deployment can vet a frame it received before serving from it.
int CmdAudit(int argc, char** argv) {
  if (argc < 3) return Fail("audit needs a file path");
  std::vector<uint8_t> bytes;
  if (!ReadFile(argv[2], &bytes)) return Fail("cannot read input");

  const uint32_t magic = sbf::wire::PeekMagic(bytes);
  std::string name;
  sbf::Status verdict = sbf::Status::Ok();
  if (magic == sbf::wire::kMagicBloomFilter) {
    auto filter = sbf::BloomFilter::Deserialize(bytes);
    if (!filter.ok()) return Fail(filter.status().ToString().c_str());
    name = "bloom";
    verdict = filter.value().CheckInvariants();
  } else if (magic == sbf::wire::kMagicFixedCounters ||
             magic == sbf::wire::kMagicCompactCounters ||
             magic == sbf::wire::kMagicSerialScanCounters) {
    auto counters = sbf::DeserializeCounterVector(bytes);
    if (!counters.ok()) return Fail(counters.status().ToString().c_str());
    name = counters.value()->Name();
    verdict = counters.value()->CheckInvariants();
  } else {
    auto filter = sbf::DeserializeFilter(bytes);
    if (!filter.ok()) return Fail(filter.status().ToString().c_str());
    name = filter.value()->Name();
    verdict = filter.value()->CheckInvariants();
  }
  if (!verdict.ok()) {
    std::fprintf(stderr, "sbf_tool: audit %s: %s: %s\n", argv[2],
                 name.c_str(), verdict.ToString().c_str());
    return 4;
  }
  std::printf("audit %s: %s: all structural invariants hold\n", argv[2],
              name.c_str());
  return 0;
}

// Dumps the compact backing's storage economics — the N + o(N) + O(m)
// decomposition of Section 4.4 on a live frame. Accepts a bare 'SBcc'
// counter frame or any filter frame whose backing is the compact vector.
// Rebuild/push tallies are process-local, so on a freshly loaded frame they
// report only the load-time layout build (zero for both).
int CmdStorage(int argc, char** argv) {
  if (argc < 3) return Fail("storage needs a file path");
  std::vector<uint8_t> bytes;
  if (!ReadFile(argv[2], &bytes)) return Fail("cannot read input");

  // Keep whichever owner we deserialize alive for the whole dump.
  std::unique_ptr<sbf::CounterVector> bare;
  std::unique_ptr<sbf::FrequencyFilter> filter;
  const sbf::CompactCounterVector* cv = nullptr;
  if (sbf::wire::PeekMagic(bytes) == sbf::wire::kMagicCompactCounters) {
    auto counters = sbf::DeserializeCounterVector(bytes);
    if (!counters.ok()) return Fail(counters.status().ToString().c_str());
    bare = std::move(counters).value();
    cv = dynamic_cast<const sbf::CompactCounterVector*>(bare.get());
  } else {
    auto loaded = sbf::DeserializeFilter(bytes);
    if (!loaded.ok()) return Fail(loaded.status().ToString().c_str());
    filter = std::move(loaded).value();
    if (const auto* sbf_filter =
            dynamic_cast<const SpectralBloomFilter*>(filter.get())) {
      cv = dynamic_cast<const sbf::CompactCounterVector*>(
          &sbf_filter->counters());
    }
  }
  if (cv == nullptr) {
    return Fail("storage needs an 'SBcc' frame or a compact-backed filter");
  }

  const size_t used = cv->UsedBits();
  const size_t base = cv->BaseArrayBits();
  const size_t overhead = cv->OverheadBits();
  std::printf("compact: m=%zu group_size=%zu groups=%zu\n", cv->size(),
              cv->group_size(), cv->group_count());
  std::printf("payload used: %zu bits, base array: %zu bits (slack %zu)\n",
              used, base, base - used);
  std::printf("overhead: %zu bits (offsets, widths, prefix samples)\n",
              overhead);
  std::printf("total: %zu bits = %.2f bits/counter\n", cv->MemoryUsageBits(),
              static_cast<double>(cv->MemoryUsageBits()) / cv->size());
  std::printf("rebuilds: %zu, pushed bits: %llu\n", cv->rebuild_count(),
              (unsigned long long)cv->pushed_bits_total());

  // Slack histogram: how far each group sits from its next forced push.
  size_t min_slack = ~size_t{0}, max_slack = 0;
  uint64_t total_slack = 0;
  for (size_t g = 0; g < cv->group_count(); ++g) {
    const size_t s = cv->GroupSlackBits(g);
    min_slack = std::min(min_slack, s);
    max_slack = std::max(max_slack, s);
    total_slack += s;
  }
  std::printf("group slack bits: min=%zu mean=%.1f max=%zu\n", min_slack,
              static_cast<double>(total_slack) / cv->group_count(),
              max_slack);
  constexpr size_t kBuckets = 8;
  size_t histogram[kBuckets] = {0};
  const size_t bucket_width = max_slack / kBuckets + 1;
  for (size_t g = 0; g < cv->group_count(); ++g) {
    histogram[cv->GroupSlackBits(g) / bucket_width] += 1;
  }
  for (size_t b = 0; b < kBuckets; ++b) {
    std::printf("  slack [%4zu, %4zu): %zu group(s)\n", b * bucket_width,
                (b + 1) * bucket_width, histogram[b]);
  }
  return 0;
}

int CmdSave(int argc, char** argv) {
  if (argc < 4) return Fail("save needs an input and an output path");
  std::vector<uint8_t> bytes;
  if (!ReadFile(argv[2], &bytes)) return Fail("cannot read input");
  auto filter = sbf::DeserializeFilter(bytes);
  if (!filter.ok()) return Fail(filter.status().ToString().c_str());
  const std::vector<uint8_t> canonical = filter.value()->Serialize();
  if (!WriteFile(argv[3], canonical)) return Fail("write failed");
  std::printf("saved %s: %s, %zu bytes\n", argv[3],
              filter.value()->Name().c_str(), canonical.size());
  return 0;
}

// Recovers (and repairs) a durable store directory, reporting the verdict
// with monitoring-probe exit codes like `health`: 0 clean or fresh, 2 a
// torn log tail was truncated, 3 a checkpoint was quarantined or the
// state was rebuilt from logs alone, 4 unrecoverable.
int CmdRecover(int argc, char** argv) {
  if (argc < 3) return Fail("recover needs a store directory");
  sbf::DurableOptions options;
  options.filter.m = 4096;  // only used if the directory is empty
  options.filter.num_shards = 4;
  options.filter.k = 4;
  auto store = sbf::DurableSbf::Open(argv[2], options);
  if (!store.ok()) {
    std::fprintf(stderr, "sbf_tool: recover %s: %s\n", argv[2],
                 store.status().ToString().c_str());
    // FailedPrecondition = not a store directory at all (usage error);
    // DataLoss = a store that cannot be recovered.
    return store.status().code() == sbf::Status::Code::kDataLoss ? 4 : 1;
  }
  const sbf::DurabilityStats stats = store.value()->Stats();
  std::printf("recover %s: %s\n", argv[2], stats.ToString().c_str());
  std::printf("filter: %s\n", store.value()->Health().ToString().c_str());
  switch (stats.recovery) {
    case sbf::RecoveryVerdict::kFreshStart:
    case sbf::RecoveryVerdict::kClean:
      return 0;
    case sbf::RecoveryVerdict::kTornTail:
      return 2;
    case sbf::RecoveryVerdict::kQuarantined:
    case sbf::RecoveryVerdict::kLogOnlyRebuild:
      return 3;
    case sbf::RecoveryVerdict::kUnrecoverable:
      return 4;  // unreachable from a live store; kept for totality
  }
  return 0;
}

// Dumps a WAL file record by record: the header's generation and embedded
// configuration frame, then each record's sequence, type and payload
// shape, then the torn-tail diagnosis. Exit 2 flags a torn tail so the
// command doubles as a probe.
int CmdLogDump(int argc, char** argv) {
  if (argc < 3) return Fail("log-dump needs a WAL path");
  std::vector<uint8_t> bytes;
  if (!ReadFile(argv[2], &bytes)) return Fail("cannot read input");
  auto scanned = sbf::io::ScanLog(bytes);
  if (!scanned.ok()) return Fail(scanned.status().ToString().c_str());
  const sbf::io::LogScan& scan = scanned.value();
  std::printf("wal %s: generation %llu, embedded config frame %zu bytes\n",
              argv[2], (unsigned long long)scan.header.generation,
              scan.header.empty_filter_frame.size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const sbf::io::WalRecord& record = scan.records[i];
    if (record.type == sbf::io::WalRecordType::kDeltaBatch) {
      std::printf("  [%3zu] seq=%llu delta-batch %s %zu key(s) x%llu\n", i,
                  (unsigned long long)record.sequence,
                  record.is_remove ? "remove" : "insert", record.keys.size(),
                  (unsigned long long)record.count);
    } else {
      std::printf("  [%3zu] seq=%llu checkpoint-seal next-generation=%llu\n",
                  i, (unsigned long long)record.sequence,
                  (unsigned long long)record.next_generation);
    }
  }
  std::printf("%zu record(s), %llu valid byte(s), %llu ignored\n",
              scan.records.size(), (unsigned long long)scan.valid_bytes,
              (unsigned long long)scan.ignored_bytes);
  if (scan.torn_tail) {
    std::printf("torn tail: %s (clean end-of-log, not corruption)\n",
                scan.tail_reason.c_str());
    return 2;
  }
  return 0;
}

int SelfDemo(const char* binary) {
  std::printf("sbf_tool self-demo (run '%s help' for usage)\n\n", binary);
  const std::string dir = "/tmp/sbf_tool_demo";
  const std::string self(binary);
  int failures = 0;
  auto run = [&failures](const std::string& command) {
    if (std::system(command.c_str()) != 0) ++failures;
  };
  run("mkdir -p " + dir);

  // Two "sites" build filters over their own logs, then merge.
  run("printf 'alice\\nbob\\nalice\\ncarol\\n' | " + self + " build " + dir +
      "/site1.sbf 4096 4");
  run("printf 'alice\\ndave\\n' | " + self + " build " + dir +
      "/site2.sbf 4096 4");
  run(self + " merge " + dir + "/all.sbf " + dir + "/site1.sbf " + dir +
      "/site2.sbf");
  run(self + " query " + dir + "/all.sbf alice bob carol dave erin");
  run(self + " heavy " + dir + "/all.sbf 2 alice bob carol dave");
  run(self + " info " + dir + "/all.sbf");
  run(self + " health " + dir + "/all.sbf");

  // The generic wire path: inspect the frame, re-save its canonical bytes,
  // and confirm the copy is identical.
  run(self + " load " + dir + "/all.sbf");
  run(self + " audit " + dir + "/all.sbf");
  run(self + " storage " + dir + "/all.sbf");
  run(self + " save " + dir + "/all.sbf " + dir + "/all.copy.sbf");
  run("cmp -s " + dir + "/all.sbf " + dir + "/all.copy.sbf");

  // Durability: stand up a checkpoint+WAL store, survive a "restart", and
  // inspect it with the recovery tooling.
  const std::string store_dir = dir + "/store";
  run("rm -rf " + store_dir);
  {
    sbf::DurableOptions options;
    options.filter.m = 4096;
    options.filter.k = 4;
    options.filter.num_shards = 4;
    auto store = sbf::DurableSbf::Open(store_dir, options);
    if (store.ok()) {
      for (uint64_t key = 0; key < 32; ++key) {
        if (!store.value()->Insert(key, 1 + key % 3).ok()) ++failures;
      }
      if (!store.value()->Checkpoint().ok()) ++failures;
      if (!store.value()->Insert(999, 7).ok()) ++failures;
    } else {
      ++failures;
    }
  }
  run(self + " recover " + store_dir);
  run(self + " log-dump " + store_dir + "/wal-1.log");

  if (failures > 0) {
    std::fprintf(stderr, "self-demo: %d command(s) failed\n", failures);
    return 1;
  }
  std::printf("\nself-demo: all subcommands passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return SelfDemo(argv[0]);
  if (std::strcmp(argv[1], "build") == 0) return CmdBuild(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return CmdQuery(argc, argv);
  if (std::strcmp(argv[1], "heavy") == 0) return CmdHeavy(argc, argv);
  if (std::strcmp(argv[1], "merge") == 0) return CmdMerge(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return CmdInfo(argc, argv);
  if (std::strcmp(argv[1], "health") == 0) return CmdHealth(argc, argv);
  if (std::strcmp(argv[1], "load") == 0) return CmdLoad(argc, argv);
  if (std::strcmp(argv[1], "audit") == 0) return CmdAudit(argc, argv);
  if (std::strcmp(argv[1], "storage") == 0) return CmdStorage(argc, argv);
  if (std::strcmp(argv[1], "save") == 0) return CmdSave(argc, argv);
  if (std::strcmp(argv[1], "recover") == 0) return CmdRecover(argc, argv);
  if (std::strcmp(argv[1], "log-dump") == 0) return CmdLogDump(argc, argv);
  std::printf(
      "usage: %s build <out> [m] [k] < keys\n"
      "       %s query <filter> <key>...\n"
      "       %s heavy <filter> <threshold> <key>...\n"
      "       %s merge <out> <in1> <in2>...\n"
      "       %s info  <filter>\n"
      "       %s health <filter>   (exit 0 healthy / 2 degraded / 3 saturated)\n"
      "       %s load  <file>\n"
      "       %s audit <file>      (exit 0 iff structural invariants hold)\n"
      "       %s storage <file>    (compact-backing storage internals)\n"
      "       %s save  <in> <out>\n"
      "       %s recover <dir>     (exit 0 clean / 2 torn tail / 3 rebuilt "
      "/ 4 unrecoverable)\n"
      "       %s log-dump <wal>    (per-record WAL metadata; exit 2 torn)\n",
      argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0],
      argv[0], argv[0], argv[0], argv[0]);
  return std::strcmp(argv[1], "help") == 0 ? 0 : 1;
}
