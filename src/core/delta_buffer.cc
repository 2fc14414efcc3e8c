#include "core/delta_buffer.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/concurrent_sbf.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace sbf {
namespace {

// One thread's handle on one filter's registry. Entries are matched by
// registry address but validated through the weak_ptr, so an address
// reused by a later filter never aliases a stale entry.
struct TlsEntry {
  std::weak_ptr<DeltaRegistry> registry;
  std::shared_ptr<DeltaSet> set;
};

struct TlsHolder {
  std::vector<TlsEntry> entries;

  DeltaSet* Find(const DeltaRegistry* key) noexcept {
    for (size_t i = 0; i < entries.size();) {
      const std::shared_ptr<DeltaRegistry> registry = entries[i].registry.lock();
      if (registry == nullptr) {  // filter died; prune lazily
        entries[i] = std::move(entries.back());
        entries.pop_back();
        continue;
      }
      if (registry.get() == key) return entries[i].set.get();
      ++i;
    }
    return nullptr;
  }

  // Thread exit: drain this thread's buffered deltas into every filter
  // that is still alive, then unregister. Without this, ops buffered by a
  // short-lived writer thread would only surface at the next Flush().
  ~TlsHolder() {
    for (TlsEntry& entry : entries) {
      const std::shared_ptr<DeltaRegistry> registry = entry.registry.lock();
      if (registry == nullptr) continue;
      util::MutexLock lock(registry->mu);
      if (registry->owner != nullptr) {
        registry->owner->DrainDeltaSet(*entry.set);
      }
      auto& sets = registry->sets;
      const auto it = std::find(sets.begin(), sets.end(), entry.set);
      if (it != sets.end()) {
        *it = std::move(sets.back());
        sets.pop_back();
      }
    }
  }
};

thread_local TlsHolder tls_holder;

}  // namespace

DeltaSet::DeltaSet(uint32_t num_shards, const DeltaBufferOptions& options)
    : num_shards_(num_shards), options_(options) {
  SBF_CHECK_MSG(num_shards >= 1, "DeltaSet: need at least one shard");
  SBF_CHECK_MSG(options.capacity >= 2 &&
                    (options.capacity & (options.capacity - 1)) == 0,
                "DeltaSet: capacity must be a power of two >= 2");
  SBF_CHECK_MSG(
      options.merge_keys >= 1 && options.merge_keys <= options.capacity,
      "DeltaSet: merge_keys must be in [1, capacity]");
  const size_t slots = static_cast<size_t>(num_shards) * options.capacity;
  keys_.resize(slots, 0);
  nets_.resize(slots, 0);
  occupied_.resize(
      static_cast<size_t>(num_shards) * DeltaBitmapWords(options.capacity), 0);
  states_.resize(num_shards);
  batch_cursor_.resize(num_shards, 0);
  batch_touched_.resize(num_shards, 0);
}

size_t DeltaSet::MemoryBits() const noexcept {
  return 8 * ((keys_.size() + nets_.size() + occupied_.size()) *
                  sizeof(uint64_t) +
              states_.size() * sizeof(ShardState) +
              batch_cursor_.size() * sizeof(uint64_t) +
              batch_touched_.size() * sizeof(uint32_t));
}

DeltaSet* ThreadDeltaSet(const std::shared_ptr<DeltaRegistry>& registry,
                         uint32_t num_shards,
                         const DeltaBufferOptions& options) {
  if (DeltaSet* found = tls_holder.Find(registry.get())) return found;
  auto set = std::make_shared<DeltaSet>(num_shards, options);
  {
    util::MutexLock lock(registry->mu);
    registry->sets.push_back(set);
  }
  tls_holder.entries.push_back(TlsEntry{registry, set});
  return tls_holder.entries.back().set.get();
}

DeltaSet* ThreadDeltaSetIfExists(const DeltaRegistry* registry) noexcept {
  return tls_holder.Find(registry);
}

}  // namespace sbf
