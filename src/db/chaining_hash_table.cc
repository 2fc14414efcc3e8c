#include "db/chaining_hash_table.h"

#include <cmath>

#include "util/check.h"

namespace sbf {

ChainingHashTable::ChainingHashTable(size_t num_buckets, uint64_t seed,
                                     HashFamily::Kind kind)
    : hash_(1, num_buckets, seed, kind), buckets_(num_buckets, -1) {
  SBF_CHECK_MSG(num_buckets >= 1, "hash table needs >= 1 bucket");
}

void ChainingHashTable::Insert(uint64_t key, uint64_t count) {
  const uint64_t b = hash_.Position(key, 0);
  for (int32_t i = buckets_[b]; i != -1; i = nodes_[i].next) {
    if (nodes_[i].key == key) {
      nodes_[i].count += count;
      return;
    }
  }
  int32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
    nodes_[index] = Node{key, count, buckets_[b]};
  } else {
    index = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(Node{key, count, buckets_[b]});
  }
  buckets_[b] = index;
  ++num_keys_;
}

void ChainingHashTable::Remove(uint64_t key, uint64_t count) {
  const uint64_t b = hash_.Position(key, 0);
  int32_t prev = -1;
  for (int32_t i = buckets_[b]; i != -1; prev = i, i = nodes_[i].next) {
    if (nodes_[i].key != key) continue;
    SBF_CHECK_MSG(nodes_[i].count >= count, "hash table count underflow");
    nodes_[i].count -= count;
    if (nodes_[i].count == 0) {
      if (prev == -1) {
        buckets_[b] = nodes_[i].next;
      } else {
        nodes_[prev].next = nodes_[i].next;
      }
      free_list_.push_back(i);
      --num_keys_;
    }
    return;
  }
  SBF_CHECK_MSG(false, "removing a key absent from the hash table");
}

uint64_t ChainingHashTable::Count(uint64_t key) const {
  const uint64_t b = hash_.Position(key, 0);
  for (int32_t i = buckets_[b]; i != -1; i = nodes_[i].next) {
    if (nodes_[i].key == key) return nodes_[i].count;
  }
  return 0;
}

size_t ChainingHashTable::MemoryUsageBits() const {
  return buckets_.size() * 8 * sizeof(int32_t) +
         nodes_.size() * 8 * sizeof(Node);
}

double ChainingHashTable::ModelBitsLoose(size_t num_keys) {
  if (num_keys < 2) return static_cast<double>(num_keys);
  return static_cast<double>(num_keys) *
         std::log2(static_cast<double>(num_keys));
}

double ChainingHashTable::ModelBitsTight(size_t num_keys) {
  double bits = 0.0;
  for (size_t i = 2; i <= num_keys; ++i) {
    bits += std::log2(static_cast<double>(i));
  }
  return bits;
}

}  // namespace sbf
