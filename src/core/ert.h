#ifndef BRAHMA_CORE_ERT_H_
#define BRAHMA_CORE_ERT_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "index/extendible_hash.h"
#include "storage/object_id.h"

namespace brahma {

// External Reference Table of one partition P (paper Section 2): stores
// every reference R -> O such that O belongs to P and R does not — i.e.,
// back pointers for references entering P from other partitions. The
// objects O noted here are the "referenced objects" of the ERT and seed
// the fuzzy traversal.
//
// Implemented on the extendible hash index, as in Brahma (Section 5).
// Thread-safe; maintained by the log analyzer for user transactions and
// directly by the reorganizer for its own reference rewrites (Figure 5).
class Ert {
 public:
  Ert() : table_(/*bucket_capacity=*/8) {}

  void AddRef(ObjectId child, ObjectId parent) {
    table_.Insert(child, parent);
  }

  // Removes one occurrence of (child, parent); returns true if present.
  bool RemoveRef(ObjectId child, ObjectId parent) {
    return table_.EraseOne(child, parent);
  }

  // All external parents currently noted for child.
  std::vector<ObjectId> ParentsOf(ObjectId child) const {
    return table_.Lookup(child);
  }

  bool HasEntry(ObjectId child, ObjectId parent) const {
    bool found = false;
    table_.ForEachValue(child, [&found, parent](const ObjectId& p) {
      if (p == parent) found = true;
    });
    return found;
  }

  // Distinct referenced objects (traversal seeds).
  std::vector<ObjectId> ReferencedObjects() const {
    std::unordered_set<ObjectId> seen;
    table_.ForEach([&seen](const ObjectId& child, const ObjectId&) {
      seen.insert(child);
    });
    return {seen.begin(), seen.end()};
  }

  // Snapshot of all (child, parent) entries.
  std::vector<std::pair<ObjectId, ObjectId>> Entries() const {
    std::vector<std::pair<ObjectId, ObjectId>> out;
    table_.ForEach([&out](const ObjectId& c, const ObjectId& p) {
      out.emplace_back(c, p);
    });
    return out;
  }

  size_t Size() const { return table_.Size(); }
  void Clear() { table_.Clear(); }

 private:
  ExtendibleHash<ObjectId, ObjectId, ObjectIdHash> table_;
};

// One ERT per partition.
class ErtSet {
 public:
  explicit ErtSet(uint32_t num_partitions) {
    for (uint32_t i = 0; i < num_partitions; ++i) {
      erts_.push_back(std::make_unique<Ert>());
    }
  }

  Ert& For(PartitionId p) { return *erts_[p]; }
  const Ert& For(PartitionId p) const { return *erts_[p]; }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(erts_.size());
  }
  void ClearAll() {
    for (auto& e : erts_) e->Clear();
  }

 private:
  std::vector<std::unique_ptr<Ert>> erts_;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_ERT_H_
