#ifndef SBF_IO_DURABLE_STORE_H_
#define SBF_IO_DURABLE_STORE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_sbf.h"
#include "io/delta_log.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sbf {

// Crash-safe persistence for a ConcurrentSbf (DESIGN.md §10): a store
// directory holds periodic full-filter checkpoints plus a write-ahead
// delta log (io/delta_log.h), so a restart recovers to exactly the set of
// acknowledged updates instead of re-ingesting the stream.
//
//   <dir>/checkpoint-<G>.sbf   full 'SBcs' filter frame, generation G
//   <dir>/wal-<G>.log          deltas applied AFTER checkpoint G
//
// Invariants the protocol maintains (and recovery leans on):
//  * A checkpoint is only ever visible under its final name via
//    temp-file + atomic rename; a crash mid-write leaves only a *.tmp
//    that recovery deletes.
//  * checkpoint-G captures every record of wal-(G-1) and earlier: appends
//    are blocked for the duration of the checkpoint protocol, so the
//    record stream is cleanly partitioned by generation.
//  * Two generations are retained (current and previous). Falling back
//    from a quarantined checkpoint-G to checkpoint-(G-1) therefore always
//    finds wal-(G-1) + wal-G to replay, reconstructing the same state.
//  * wal-0 embeds (like every log header) an empty filter with the
//    store's full configuration, so a store that never checkpointed — or
//    whose checkpoints were all quarantined — rebuilds from logs alone.

// How the store came back up. Order is by increasing severity; the verdict
// reported is the worst condition encountered.
enum class RecoveryVerdict {
  kFreshStart = 0,   // empty directory: a new store was initialized
  kClean = 1,        // checkpoint + log replayed with no damage
  kTornTail = 2,     // a log ended in a torn record; truncated and resumed
  kQuarantined = 3,  // a checkpoint failed validation; renamed aside and
                     // recovered from the previous generation
  kLogOnlyRebuild = 4,  // no checkpoint usable; rebuilt by replaying logs
                        // from the embedded empty-filter configuration
  kUnrecoverable = 5,   // nothing usable in the directory (reported via
                        // status, never via a live store)
};

const char* RecoveryVerdictName(RecoveryVerdict verdict);

// Everything `DurableSbf::Stats()` reports about durability health — the
// Health()-style snapshot for the persistence layer.
struct DurabilityStats {
  // Recovery facts, frozen at Open().
  RecoveryVerdict recovery = RecoveryVerdict::kFreshStart;
  bool recovered_torn_tail = false;
  uint32_t quarantined_checkpoints = 0;
  uint64_t replayed_records = 0;

  // Live log / checkpoint state.
  uint64_t generation = 0;
  uint64_t wal_bytes = 0;            // current log size on disk
  uint64_t appended_records = 0;     // records acked since Open()
  uint64_t checkpoints_written = 0;  // successful checkpoints since Open()
  uint64_t checkpoint_retries = 0;   // backoff retries that were needed
  uint64_t checkpoint_failures = 0;  // attempts that exhausted retries
  double checkpoint_age_seconds = 0.0;  // since last checkpoint (or Open)
  bool wedged = false;  // an injected/real crash point left the store
                        // read-only; recover by reopening the directory
  std::string last_error;

  // One-line human-readable rendering for tools and logs.
  std::string ToString() const;
};

// Tuning for DurableSbf. `filter` configures a freshly initialized store;
// a recovered store keeps the configuration persisted in its files.
struct DurableOptions {
  ConcurrentSbfOptions filter;
  // fsync the log after every acked append. Turning it off trades the
  // tail of the log (one crash's worth of unsynced records) for append
  // throughput; the torn-tail recovery rule absorbs the difference.
  bool sync_each_append = true;
  // Checkpoint when the log grows past this many bytes (0 disables).
  uint64_t checkpoint_log_bytes = 8ull << 20;
  // Checkpoint when the last one is older than this (0 disables).
  uint32_t checkpoint_interval_ms = 0;
  // Run the triggers on a background thread. Off by default so tests and
  // single-shot tools control checkpoint timing explicitly.
  bool background_checkpointer = false;
  // Transient-failure policy for one checkpoint request: the first
  // attempt plus up to `checkpoint_retries` retries, sleeping an
  // exponentially growing backoff between attempts.
  uint32_t checkpoint_retries = 4;
  uint32_t backoff_initial_ms = 10;
  uint32_t backoff_max_ms = 2000;
};

// Result of recovering a store directory (exposed separately from
// DurableSbf so tooling and tests can drive recovery without standing up
// the live frontend).
struct RecoveryOutcome {
  explicit RecoveryOutcome(ConcurrentSbf f) : filter(std::move(f)) {}

  ConcurrentSbf filter;
  RecoveryVerdict verdict = RecoveryVerdict::kFreshStart;
  bool torn_tail = false;
  uint32_t quarantined = 0;
  uint64_t replayed_records = 0;
  // Where appending resumes: generation, whether wal-<generation> exists,
  // and its valid byte count (the scanner's truncation point).
  uint64_t resume_generation = 0;
  bool resume_wal_exists = false;
  uint64_t resume_wal_valid_bytes = 0;
  uint64_t next_sequence = 1;
  std::string detail;  // human-readable recovery notes
};

// Paranoid scan-forward recovery over `dir`. Loads the newest checkpoint
// that deserializes AND passes CheckInvariants(), quarantining failures
// (renamed to *.quarantined) and falling back generation by generation;
// replays the surviving log suffix with torn tails treated as clean ends;
// rebuilds from the logs' embedded configuration when no checkpoint
// survives. `fresh_options` configures a brand-new store when the
// directory is empty (pass nullptr to fail instead). Deletes leftover
// *.tmp files. Returns kUnrecoverable conditions as a non-OK status.
StatusOr<RecoveryOutcome> RecoverStore(const std::string& dir,
                                       const ConcurrentSbfOptions* fresh_options);

// Path helpers (exposed for tests/tooling).
std::string CheckpointPath(const std::string& dir, uint64_t generation);
std::string WalPath(const std::string& dir, uint64_t generation);

// Crash-safe frontend: a ConcurrentSbf whose acknowledged mutations
// survive process death. Every Insert/Remove appends a WAL record before
// touching counters (write-ahead), and a background or explicit
// Checkpoint() compacts the log into a full-filter snapshot.
//
// Mutations return Status because durability can fail; a failed append
// means the op is NOT acknowledged (it may or may not be partially on
// disk — recovery's torn-tail rule discards the partial record). After a
// crash-point failure the store wedges: reads keep serving, mutations
// fail, and the directory reopens cleanly via Open().
//
// Thread safety: reads delegate to ConcurrentSbf and are safe under
// concurrent mutators; mutations serialize on the internal log mutex
// (the WAL is one append stream). MI-policy filters additionally need
// external write serialization for replay to be order-faithful — the
// same caveat as ConcurrentSbf's delta buffering.
//
// Lock hierarchy (DESIGN.md §11, enforced by the thread-safety
// annotations below): checkpoint_mu_ -> log_mu_ -> cp_wake_mu_. The
// checkpoint mutex serializes whole checkpoint protocols and protects no
// data; the log mutex guards every mutable log/stats field; the wake
// mutex is a leaf guarding only the checkpointer wake flags.
class DurableSbf {
 public:
  // Opens (recovering) or initializes (creating) the store at `dir`.
  static StatusOr<std::unique_ptr<DurableSbf>> Open(const std::string& dir,
                                                    DurableOptions options);

  // Stops the checkpointer and syncs the log; does NOT checkpoint.
  ~DurableSbf();

  DurableSbf(const DurableSbf&) = delete;
  DurableSbf& operator=(const DurableSbf&) = delete;

  // --- mutations (write-ahead, acked only on OK) -------------------------

  Status Insert(uint64_t key, uint64_t count = 1);
  Status Remove(uint64_t key, uint64_t count = 1);
  Status InsertBatch(const uint64_t* keys, size_t n, uint64_t count = 1);

  // --- reads (thread-safe, never wedge) ----------------------------------

  [[nodiscard]] uint64_t Estimate(uint64_t key) const {
    return filter_.Estimate(key);
  }
  void EstimateBatch(const uint64_t* keys, size_t n, uint64_t* out) const {
    filter_.EstimateBatch(keys, n, out);
  }
  [[nodiscard]] FilterHealth Health() const { return filter_.Health(); }
  [[nodiscard]] Status CheckInvariants() const {
    return filter_.CheckInvariants();
  }
  [[nodiscard]] const ConcurrentSbf& filter() const noexcept {
    return filter_;
  }
  [[nodiscard]] uint64_t generation() const;

  // --- durability control ------------------------------------------------

  // Runs the checkpoint protocol now, with the configured retry/backoff
  // policy. Serializes against the background checkpointer.
  Status Checkpoint();

  // fsyncs the log (a barrier for sync_each_append = false callers).
  Status SyncLog();

  // Durability health snapshot.
  [[nodiscard]] DurabilityStats Stats() const;

 private:
  explicit DurableSbf(DurableOptions options, RecoveryOutcome outcome);

  // One acked mutation: seal a record, append it, apply it to the filter.
  Status AppendAndApply(bool is_remove, uint64_t count, const uint64_t* keys,
                        size_t n) SBF_EXCLUDES(log_mu_, cp_wake_mu_);
  // One checkpoint attempt (no retries).
  Status CheckpointOnce() SBF_REQUIRES(checkpoint_mu_) SBF_EXCLUDES(log_mu_);
  // Attempt + retries with exponential backoff.
  Status CheckpointWithRetries() SBF_REQUIRES(checkpoint_mu_)
      SBF_EXCLUDES(log_mu_, cp_wake_mu_);
  void CheckpointerLoop()
      SBF_EXCLUDES(checkpoint_mu_, log_mu_, cp_wake_mu_);
  // empty_filter_frame_, built on first use.
  const std::vector<uint8_t>& EmptyFilterFrame() SBF_REQUIRES(log_mu_);

  DurableOptions options_;
  std::string dir_;
  ConcurrentSbf filter_;

  // Log state, guarded by log_mu_ (mutations + checkpoint rotation).
  mutable util::Mutex log_mu_;
  io::DeltaLogWriter wal_ SBF_GUARDED_BY(log_mu_);
  uint64_t generation_ SBF_GUARDED_BY(log_mu_) = 0;
  // Serialized empty filter with the store's configuration: every new
  // log's header embeds it. Built once, when Open creates a log or else at
  // the first rotation (the store never expands, so it never changes).
  std::vector<uint8_t> empty_filter_frame_ SBF_GUARDED_BY(log_mu_);
  uint64_t next_sequence_ SBF_GUARDED_BY(log_mu_) = 1;
  bool wedged_ SBF_GUARDED_BY(log_mu_) = false;
  DurabilityStats stats_ SBF_GUARDED_BY(log_mu_);
  std::chrono::steady_clock::time_point last_checkpoint_
      SBF_GUARDED_BY(log_mu_);

  // Checkpointer serialization (manual + background callers). Protects no
  // data — it makes a whole checkpoint protocol (which takes and drops
  // log_mu_ internally) one critical section.
  util::Mutex checkpoint_mu_;

  // Background thread lifecycle. cp_wake_mu_ is a leaf: nothing is ever
  // acquired while it is held.
  util::Mutex cp_wake_mu_;
  std::condition_variable cp_wake_;
  bool stop_ SBF_GUARDED_BY(cp_wake_mu_) = false;
  bool size_trigger_ SBF_GUARDED_BY(cp_wake_mu_) = false;
  std::thread checkpointer_;
};

}  // namespace sbf

#endif  // SBF_IO_DURABLE_STORE_H_
