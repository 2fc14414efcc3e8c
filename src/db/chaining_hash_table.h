#ifndef SBF_DB_CHAINING_HASH_TABLE_H_
#define SBF_DB_CHAINING_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "hashing/hash_family.h"

namespace sbf {

// A textbook chaining hash table mapping keys to counts — the stand-in for
// the LEDA hash table the paper benchmarks against in Section 6.4 (LEDA
// "uses chaining for collision resolving", and the paper plugs the SBF's
// own hash functions into it for a maximally matched comparison; this
// class does exactly that via HashFamily with k = 1).
//
// Unlike the SBF it stores the keys themselves, which is what makes it
// exact — and what the storage comparison of Figure 15 charges it for.
class ChainingHashTable {
 public:
  ChainingHashTable(size_t num_buckets, uint64_t seed = 0,
                    HashFamily::Kind kind = HashFamily::Kind::kModuloMultiply);

  void Insert(uint64_t key, uint64_t count = 1);
  // Removes occurrences; erases the node when its count reaches zero.
  void Remove(uint64_t key, uint64_t count = 1);
  uint64_t Count(uint64_t key) const;
  bool Contains(uint64_t key) const { return Count(key) > 0; }

  size_t num_buckets() const { return buckets_.size(); }
  // Number of distinct keys stored.
  size_t size() const { return num_keys_; }

  // Actual memory: bucket heads + nodes (key, count, next).
  size_t MemoryUsageBits() const;
  // The paper's loose model for hash-table key storage: m * log2(m) bits.
  static double ModelBitsLoose(size_t num_keys);
  // The tighter model: sum_{i=1..m} log2(i) bits.
  static double ModelBitsTight(size_t num_keys);

 private:
  struct Node {
    uint64_t key;
    uint64_t count;
    int32_t next;
  };

  HashFamily hash_;
  std::vector<int32_t> buckets_;  // head index into nodes_, -1 if empty
  std::vector<Node> nodes_;
  std::vector<int32_t> free_list_;
  size_t num_keys_ = 0;
};

}  // namespace sbf

#endif  // SBF_DB_CHAINING_HASH_TABLE_H_
