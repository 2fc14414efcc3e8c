#include "io/durable_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "io/wire.h"
#include "util/fault_injection.h"
#include "util/thread_annotations.h"

namespace sbf {

namespace {

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

// Strict `<prefix><decimal generation><suffix>` filename parse; rejects
// empty digits, non-digits and overflow so stray files never masquerade as
// generations.
bool ParseGeneration(const std::string& name, const std::string& prefix,
                     const std::string& suffix, uint64_t* generation) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = value;
  return true;
}

struct DirListing {
  std::vector<uint64_t> checkpoints;  // generations, ascending
  std::vector<uint64_t> wals;         // generations, ascending
  std::vector<std::string> tmps;      // full paths of leftover *.tmp
};

StatusOr<DirListing> ListStore(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::FailedPrecondition(Errno("open store directory", dir));
  }
  DirListing listing;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    uint64_t generation = 0;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      listing.tmps.push_back(dir + "/" + name);
    } else if (ParseGeneration(name, "checkpoint-", ".sbf", &generation)) {
      listing.checkpoints.push_back(generation);
    } else if (ParseGeneration(name, "wal-", ".log", &generation)) {
      listing.wals.push_back(generation);
    }
    // Anything else (including *.quarantined evidence) is left alone.
  }
  ::closedir(d);
  std::sort(listing.checkpoints.begin(), listing.checkpoints.end());
  std::sort(listing.wals.begin(), listing.wals.end());
  return listing;
}

// Writes `bytes` to `path` (truncating) and fsyncs, with the injected
// short-write and fsync crash points armed — the checkpoint body shares
// the WAL's failure model.
Status WriteFileWithCrashPoints(const std::string& path,
                                wire::ByteSpan bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Status::DataLoss(Errno("create checkpoint", path));
  size_t intended = bytes.size();
  size_t cut = intended;
  const bool short_write = fault::ShouldShortWrite(intended, &cut);
  if (short_write) intended = cut;
  size_t written = 0;
  while (written < intended) {
    const ssize_t n = ::write(fd, bytes.data() + written, intended - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::DataLoss(Errno("write checkpoint", path));
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (short_write) {
    ::close(fd);
    return Status::DataLoss("injected short write tore checkpoint " + path);
  }
  if (fault::ShouldFailFsync()) {
    ::close(fd);
    return Status::DataLoss("injected fsync failure on " + path);
  }
  if (::fsync(fd) != 0) {
    const Status status = Status::DataLoss(Errno("fsync checkpoint", path));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::Ok();
}

// Makes a rename in `dir` durable: without the directory fsync the new
// name itself can be lost in a crash even though the data blocks survived.
Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::DataLoss(Errno("open directory", dir));
  if (::fsync(fd) != 0) {
    const Status status = Status::DataLoss(Errno("fsync directory", dir));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::Ok();
}

void QuarantineFile(const std::string& path) {
  const std::string aside = path + ".quarantined";
  ::rename(path.c_str(), aside.c_str());
}

// Applies one replayed record to the recovering filter. Seal records carry
// no state (they only mark that a checkpoint captured everything before
// them).
void ApplyRecord(ConcurrentSbf& filter, const io::WalRecord& record) {
  if (record.type != io::WalRecordType::kDeltaBatch) return;
  if (record.keys.empty()) return;
  if (record.is_remove) {
    for (const uint64_t key : record.keys) filter.Remove(key, record.count);
  } else {
    filter.InsertBatch(record.keys.data(), record.keys.size(), record.count);
  }
}

struct ScannedWal {
  std::vector<uint8_t> bytes;  // backing storage for scan's header span
  io::LogScan scan;
  bool ok = false;
  std::string error;
};

}  // namespace

const char* RecoveryVerdictName(RecoveryVerdict verdict) {
  switch (verdict) {
    case RecoveryVerdict::kFreshStart:
      return "fresh-start";
    case RecoveryVerdict::kClean:
      return "clean";
    case RecoveryVerdict::kTornTail:
      return "torn-tail";
    case RecoveryVerdict::kQuarantined:
      return "quarantined";
    case RecoveryVerdict::kLogOnlyRebuild:
      return "log-only-rebuild";
    case RecoveryVerdict::kUnrecoverable:
      return "unrecoverable";
  }
  return "unknown";
}

std::string DurabilityStats::ToString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "durability: recovery=%s torn_tail=%d quarantined=%u replayed=%llu "
      "gen=%llu wal_bytes=%llu appended=%llu checkpoints=%llu retries=%llu "
      "failures=%llu age=%.3fs wedged=%d",
      RecoveryVerdictName(recovery), recovered_torn_tail ? 1 : 0,
      quarantined_checkpoints,
      static_cast<unsigned long long>(replayed_records),
      static_cast<unsigned long long>(generation),
      static_cast<unsigned long long>(wal_bytes),
      static_cast<unsigned long long>(appended_records),
      static_cast<unsigned long long>(checkpoints_written),
      static_cast<unsigned long long>(checkpoint_retries),
      static_cast<unsigned long long>(checkpoint_failures),
      checkpoint_age_seconds, wedged ? 1 : 0);
  std::string out(buf);
  if (!last_error.empty()) out += " last_error=\"" + last_error + "\"";
  return out;
}

std::string CheckpointPath(const std::string& dir, uint64_t generation) {
  return dir + "/checkpoint-" + std::to_string(generation) + ".sbf";
}

std::string WalPath(const std::string& dir, uint64_t generation) {
  return dir + "/wal-" + std::to_string(generation) + ".log";
}

StatusOr<RecoveryOutcome> RecoverStore(
    const std::string& dir, const ConcurrentSbfOptions* fresh_options) {
  auto listed = ListStore(dir);
  if (!listed.ok()) return listed.status();
  DirListing ls = std::move(listed).value();

  // A *.tmp is a checkpoint that never reached its rename — pre-atomic
  // garbage by definition, deleted unconditionally.
  for (const std::string& tmp : ls.tmps) ::unlink(tmp.c_str());

  if (ls.checkpoints.empty() && ls.wals.empty()) {
    if (fresh_options == nullptr) {
      return Status::FailedPrecondition(
          "store directory " + dir +
          " holds no checkpoint or log and no fresh configuration was given");
    }
    RecoveryOutcome out{ConcurrentSbf(*fresh_options)};
    out.verdict = RecoveryVerdict::kFreshStart;
    out.detail = "empty directory: initialized a new store";
    return out;
  }

  std::string detail;
  uint32_t quarantined = 0;
  bool torn = false;
  bool log_only = false;
  const bool had_checkpoints = !ls.checkpoints.empty();

  // Appending resumes at the highest generation any file claims, loadable
  // or not — a quarantined checkpoint-G still means generation G happened.
  uint64_t resume_gen = 0;
  for (const uint64_t g : ls.checkpoints) resume_gen = std::max(resume_gen, g);
  for (const uint64_t g : ls.wals) resume_gen = std::max(resume_gen, g);

  // Newest checkpoint that deserializes AND passes its own invariant
  // audit wins; everything newer that failed is renamed aside as evidence.
  std::optional<ConcurrentSbf> base;
  uint64_t replay_from = 0;
  for (auto it = ls.checkpoints.rbegin(); it != ls.checkpoints.rend(); ++it) {
    const std::string path = CheckpointPath(dir, *it);
    std::vector<uint8_t> bytes;
    std::string why;
    const Status read = io::ReadFileBytes(path, &bytes);
    if (read.ok()) {
      auto filter = ConcurrentSbf::Deserialize(bytes);
      if (filter.ok()) {
        Status inv = filter.value().CheckInvariants();
        if (inv.ok()) {
          base.emplace(std::move(filter).value());
          replay_from = *it;
          break;
        }
        why = inv.message();
      } else {
        why = filter.status().message();
      }
    } else {
      why = read.message();
    }
    QuarantineFile(path);
    ++quarantined;
    detail += "quarantined checkpoint generation " + std::to_string(*it) +
              " (" + why + "); ";
  }

  // Scan every log up front (retention keeps at most a handful). The scan
  // struct keeps the file bytes alive because the decoded header's
  // embedded-filter span points into them.
  std::map<uint64_t, ScannedWal> scans;
  for (const uint64_t g : ls.wals) {
    ScannedWal sw;
    const Status read = io::ReadFileBytes(WalPath(dir, g), &sw.bytes);
    if (read.ok()) {
      auto scan = io::ScanLog(sw.bytes);
      if (scan.ok()) {
        sw.scan = std::move(scan).value();
        sw.ok = true;
      } else {
        sw.error = scan.status().message();
      }
    } else {
      sw.error = read.message();
    }
    scans.emplace(g, std::move(sw));
  }

  // A log whose HEADER is destroyed is not replayable at all (the torn-
  // tail rule only applies after a valid header). Rename it aside so a
  // fresh log can take its name.
  for (auto& [g, sw] : scans) {
    if (sw.ok) continue;
    QuarantineFile(WalPath(dir, g));
    ++quarantined;
    detail += "quarantined unreadable wal generation " + std::to_string(g) +
              " (" + sw.error + "); ";
  }

  if (!base.has_value()) {
    // No checkpoint survived (or none ever existed — a young store).
    // Rebuild from the lowest scannable log's embedded empty filter, which
    // carries the store's full configuration.
    for (auto& [g, sw] : scans) {
      if (!sw.ok) continue;
      auto filter = ConcurrentSbf::Deserialize(sw.scan.header.empty_filter_frame);
      if (filter.ok()) {
        Status inv = filter.value().CheckInvariants();
        if (inv.ok()) {
          base.emplace(std::move(filter).value());
          replay_from = g;
          if (had_checkpoints) {
            log_only = true;
            detail += "no usable checkpoint; rebuilt by replaying logs from "
                      "generation " +
                      std::to_string(g) + "; ";
          }
          if (g > 0) {
            detail += "state checkpointed before generation " +
                      std::to_string(g) + " could not be reconstructed; ";
          }
          break;
        }
        detail += "wal generation " + std::to_string(g) +
                  " embedded filter failed invariants (" + inv.message() +
                  "); ";
      } else {
        detail += "wal generation " + std::to_string(g) +
                  " embedded filter unusable (" + filter.status().message() +
                  "); ";
      }
    }
    if (!base.has_value()) {
      return Status::DataLoss("unrecoverable store at " + dir +
                              ": no loadable checkpoint and no scannable "
                              "log; " +
                              detail);
    }
  }

  // Replay the surviving suffix in generation order. Logs below the base
  // checkpoint's generation are already captured by it and are skipped.
  uint64_t replayed = 0;
  uint64_t max_sequence = 0;
  for (auto& [g, sw] : scans) {
    if (!sw.ok || g < replay_from) continue;
    if (sw.scan.torn_tail) {
      torn = true;
      detail += "wal generation " + std::to_string(g) + " torn tail (" +
                sw.scan.tail_reason + "; " +
                std::to_string(sw.scan.ignored_bytes) + " bytes dropped); ";
    }
    for (const io::WalRecord& record : sw.scan.records) {
      ApplyRecord(*base, record);
      ++replayed;
      max_sequence = std::max(max_sequence, record.sequence);
    }
  }

  Status inv = base->CheckInvariants();
  if (!inv.ok()) {
    return Status::DataLoss("recovered filter failed invariants: " +
                            inv.message());
  }

  RecoveryOutcome out{std::move(*base)};
  out.quarantined = quarantined;
  out.torn_tail = torn;
  out.replayed_records = replayed;
  out.next_sequence = max_sequence + 1;
  out.resume_generation = resume_gen;
  const auto resume_it = scans.find(resume_gen);
  if (resume_it != scans.end() && resume_it->second.ok) {
    out.resume_wal_exists = true;
    out.resume_wal_valid_bytes = resume_it->second.scan.valid_bytes;
  }
  out.verdict = log_only         ? RecoveryVerdict::kLogOnlyRebuild
                : quarantined > 0 ? RecoveryVerdict::kQuarantined
                : torn            ? RecoveryVerdict::kTornTail
                                  : RecoveryVerdict::kClean;
  out.detail = detail.empty() ? "clean recovery" : detail;
  return out;
}

// --- DurableSbf ------------------------------------------------------------

DurableSbf::DurableSbf(DurableOptions options, RecoveryOutcome outcome)
    : options_(std::move(options)),
      filter_(std::move(outcome.filter)),
      generation_(outcome.resume_generation),
      next_sequence_(outcome.next_sequence),
      last_checkpoint_(std::chrono::steady_clock::now()) {
  stats_.recovery = outcome.verdict;
  stats_.recovered_torn_tail = outcome.torn_tail;
  stats_.quarantined_checkpoints = outcome.quarantined;
  stats_.replayed_records = outcome.replayed_records;
  stats_.generation = generation_;
}

StatusOr<std::unique_ptr<DurableSbf>> DurableSbf::Open(const std::string& dir,
                                                       DurableOptions options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::FailedPrecondition(Errno("create store directory", dir));
  }
  auto recovered = RecoverStore(dir, &options.filter);
  if (!recovered.ok()) return recovered.status();
  RecoveryOutcome outcome = std::move(recovered).value();
  const bool resume = outcome.resume_wal_exists;
  const uint64_t resume_gen = outcome.resume_generation;
  const uint64_t resume_bytes = outcome.resume_wal_valid_bytes;

  std::unique_ptr<DurableSbf> store(
      new DurableSbf(std::move(options), std::move(outcome)));
  store->dir_ = dir;

  const std::string wal_path = WalPath(dir, resume_gen);
  {
    // No other thread can reference the store yet, but opening the log
    // under its mutex keeps wal_/stats_ access provable for the analysis.
    util::MutexLock lock(store->log_mu_);
    auto writer =
        resume ? io::DeltaLogWriter::Resume(wal_path, resume_bytes,
                                            store->options_.sync_each_append)
               : io::DeltaLogWriter::Create(wal_path, resume_gen,
                                            store->EmptyFilterFrame(),
                                            store->options_.sync_each_append);
    if (!writer.ok()) return writer.status();
    store->wal_ = std::move(writer).value();
    store->stats_.wal_bytes = store->wal_.bytes_written();
  }

  if (store->options_.background_checkpointer &&
      (store->options_.checkpoint_interval_ms > 0 ||
       store->options_.checkpoint_log_bytes > 0)) {
    store->checkpointer_ = std::thread(&DurableSbf::CheckpointerLoop,
                                       store.get());
  }
  return store;
}

DurableSbf::~DurableSbf() {
  {
    util::MutexLock wake(cp_wake_mu_);
    stop_ = true;
  }
  cp_wake_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
  util::MutexLock lock(log_mu_);
  if (wal_.open() && !wedged_ && !options_.sync_each_append) {
    // Best-effort flush of unsynced appends; with sync_each_append every
    // acked record is already durable.
    (void)wal_.Sync();
  }
  wal_.Close();
}

const std::vector<uint8_t>& DurableSbf::EmptyFilterFrame() {
  if (empty_filter_frame_.empty()) {
    empty_filter_frame_ = ConcurrentSbf(filter_.options()).Serialize();
  }
  return empty_filter_frame_;
}

Status DurableSbf::Insert(uint64_t key, uint64_t count) {
  return AppendAndApply(/*is_remove=*/false, count, &key, 1);
}

Status DurableSbf::Remove(uint64_t key, uint64_t count) {
  return AppendAndApply(/*is_remove=*/true, count, &key, 1);
}

Status DurableSbf::InsertBatch(const uint64_t* keys, size_t n,
                               uint64_t count) {
  return AppendAndApply(/*is_remove=*/false, count, keys, n);
}

Status DurableSbf::AppendAndApply(bool is_remove, uint64_t count,
                                  const uint64_t* keys, size_t n) {
  if (n == 0) return Status::Ok();
  if (count == 0) {
    return Status::InvalidArgument("durable update count must be nonzero");
  }
  util::MutexLock lock(log_mu_);
  if (wedged_) {
    return Status::FailedPrecondition(
        "durable store is wedged after a crash point (" + stats_.last_error +
        "); reopen the directory to recover");
  }
  const std::vector<uint8_t> frame =
      io::EncodeWalDeltaBatch(next_sequence_, is_remove, count, keys, n);
  Status append = wal_.Append(frame);
  if (!append.ok()) {
    // The record may be partially on disk; recovery's torn-tail rule
    // discards it, matching the NOT-acknowledged contract.
    wedged_ = true;
    stats_.wedged = true;
    stats_.last_error = append.message();
    return append;
  }
  ++next_sequence_;
  stats_.wal_bytes = wal_.bytes_written();
  ++stats_.appended_records;

  if (is_remove) {
    for (size_t i = 0; i < n; ++i) filter_.Remove(keys[i], count);
  } else {
    filter_.InsertBatch(keys, n, count);
  }

  if (options_.background_checkpointer && options_.checkpoint_log_bytes > 0 &&
      stats_.wal_bytes >= options_.checkpoint_log_bytes) {
    {
      util::MutexLock wake(cp_wake_mu_);
      size_trigger_ = true;
    }
    cp_wake_.notify_one();
  }
  return Status::Ok();
}

Status DurableSbf::CheckpointOnce() {
  util::MutexLock lock(log_mu_);
  if (wedged_) {
    return Status::FailedPrecondition(
        "durable store is wedged (" + stats_.last_error + ")");
  }
  // Appends are blocked for the whole protocol (we hold log_mu_), so
  // checkpoint-G cleanly captures every record of wal-(G-1) and earlier —
  // the partition invariant recovery's generation math depends on.
  filter_.Flush();
  const std::vector<uint8_t> snapshot = filter_.Serialize();
  const uint64_t next_gen = generation_ + 1;
  const std::string final_path = CheckpointPath(dir_, next_gen);
  const std::string tmp_path = final_path + ".tmp";

  Status write = WriteFileWithCrashPoints(tmp_path, snapshot);
  if (!write.ok()) return write;  // *.tmp garbage; recovery deletes it

  if (fault::ShouldFailBeforeRename()) {
    // Crash point: the finished tmp never becomes visible. Nothing durable
    // changed, so the store is NOT wedged — a retry is safe and recovery
    // would simply ignore the tmp.
    return Status::DataLoss("injected crash before checkpoint rename of " +
                            tmp_path);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::DataLoss(Errno("rename checkpoint", final_path));
  }
  Status dir_sync = FsyncDir(dir_);
  const bool post_rename_crash = fault::ShouldFailAfterRename();
  if (!dir_sync.ok() || post_rename_crash) {
    // Crash point: checkpoint-(G+1) may already be visible while this
    // process still holds wal-G open. Appending further records would put
    // acked state where recovery (which replays from the NEWEST
    // checkpoint) never looks, so the store wedges; reopening the
    // directory resumes cleanly at generation G+1.
    wedged_ = true;
    stats_.wedged = true;
    stats_.last_error = post_rename_crash
                            ? "injected crash after checkpoint rename of " +
                                  final_path
                            : dir_sync.message();
    return Status::DataLoss(stats_.last_error);
  }

  // Seal the old log (diagnostic breadcrumb; the checkpoint already
  // supersedes it, so a failed seal append is not fatal) and rotate.
  Status seal =
      wal_.Append(io::EncodeWalCheckpointSeal(next_sequence_, next_gen));
  if (seal.ok()) ++next_sequence_;
  wal_.Close();

  auto next_wal =
      io::DeltaLogWriter::Create(WalPath(dir_, next_gen), next_gen,
                                 EmptyFilterFrame(),
                                 options_.sync_each_append);
  if (!next_wal.ok()) {
    // The new checkpoint is live but there is no log to append to — same
    // wedge rationale as the post-rename crash.
    wedged_ = true;
    stats_.wedged = true;
    stats_.last_error = next_wal.status().message();
    return next_wal.status();
  }
  wal_ = std::move(next_wal).value();
  generation_ = next_gen;

  // Retention: current + previous generation. Generation G-1 was only
  // needed while checkpoint G could still be quarantined; now that G+1
  // exists, drop it.
  if (next_gen >= 2) {
    const uint64_t dead = next_gen - 2;
    ::unlink(CheckpointPath(dir_, dead).c_str());
    ::unlink(WalPath(dir_, dead).c_str());
  }

  stats_.wal_bytes = wal_.bytes_written();
  stats_.generation = next_gen;
  ++stats_.checkpoints_written;
  last_checkpoint_ = std::chrono::steady_clock::now();
  return Status::Ok();
}

Status DurableSbf::CheckpointWithRetries() {
  uint64_t backoff_ms = options_.backoff_initial_ms;
  Status status = Status::Ok();
  for (uint32_t attempt = 0;; ++attempt) {
    status = CheckpointOnce();
    if (status.ok()) return status;
    {
      util::MutexLock lock(log_mu_);
      if (wedged_) break;  // crash points are terminal, never retried
    }
    if (attempt >= options_.checkpoint_retries) break;
    {
      util::MutexLock lock(log_mu_);
      ++stats_.checkpoint_retries;
    }
    {
      // Predicate-free backoff nap: a CV predicate lambda is analyzed as a
      // separate function and cannot prove it holds cp_wake_mu_, so stop_
      // is checked explicitly under the lock on both sides of the wait. A
      // spurious wakeup merely shortens one backoff sleep.
      util::MutexLock wake(cp_wake_mu_);
      if (stop_) break;
      cp_wake_.wait_for(wake.native(), std::chrono::milliseconds(backoff_ms));
      if (stop_) break;
    }
    backoff_ms = std::min<uint64_t>(backoff_ms * 2 + (backoff_ms == 0),
                                    options_.backoff_max_ms);
  }
  util::MutexLock lock(log_mu_);
  ++stats_.checkpoint_failures;
  stats_.last_error = status.message();
  return status;
}

Status DurableSbf::Checkpoint() {
  util::MutexLock serialize(checkpoint_mu_);
  return CheckpointWithRetries();
}

Status DurableSbf::SyncLog() {
  util::MutexLock lock(log_mu_);
  if (wedged_) {
    return Status::FailedPrecondition(
        "durable store is wedged (" + stats_.last_error + ")");
  }
  Status status = wal_.Sync();
  if (!status.ok()) {
    wedged_ = true;
    stats_.wedged = true;
    stats_.last_error = status.message();
  }
  return status;
}

uint64_t DurableSbf::generation() const {
  util::MutexLock lock(log_mu_);
  return generation_;
}

DurabilityStats DurableSbf::Stats() const {
  util::MutexLock lock(log_mu_);
  DurabilityStats out = stats_;
  out.generation = generation_;
  out.checkpoint_age_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    last_checkpoint_)
          .count();
  return out;
}

void DurableSbf::CheckpointerLoop() {
  for (;;) {
    const auto wait = options_.checkpoint_interval_ms > 0
                          ? std::chrono::milliseconds(
                                options_.checkpoint_interval_ms)
                          : std::chrono::milliseconds(200);
    bool size_hit = false;
    {
      // Predicate-free wait (see CheckpointWithRetries): the triggers are
      // read under the lock before sleeping and re-read after. A spurious
      // wakeup just runs one cheap trigger evaluation and loops back.
      util::MutexLock wake(cp_wake_mu_);
      if (!stop_ && !size_trigger_) {
        cp_wake_.wait_for(wake.native(), wait);
      }
      if (stop_) return;
      size_hit = size_trigger_;
      size_trigger_ = false;
    }
    bool interval_hit = false;
    {
      util::MutexLock lock(log_mu_);
      if (options_.checkpoint_interval_ms > 0) {
        interval_hit = std::chrono::steady_clock::now() - last_checkpoint_ >=
                       std::chrono::milliseconds(
                           options_.checkpoint_interval_ms);
      }
      // Re-check the size trigger directly in case the notify was missed.
      if (options_.checkpoint_log_bytes > 0 &&
          stats_.wal_bytes >= options_.checkpoint_log_bytes) {
        size_hit = true;
      }
      if (wedged_) return;  // nothing further to do; mutations are dead
    }
    if (!interval_hit && !size_hit) continue;
    util::MutexLock serialize(checkpoint_mu_);
    (void)CheckpointWithRetries();  // failures land in stats_.last_error
  }
}

}  // namespace sbf
