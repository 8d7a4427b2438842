#ifndef BRAHMA_CORE_PARENT_LISTS_H_
#define BRAHMA_CORE_PARENT_LISTS_H_

#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/object_id.h"

namespace brahma {

// Parent lists built by the fuzzy traversal (paper Section 3.4) and kept
// current during migration: when an object O migrates to O_new, the
// parent lists of O's not-yet-migrated children replace O by O_new
// (Figure 5). Thread-safe: the parallel migration pipeline has N workers
// reading and patching lists concurrently (each worker only touches the
// entries of objects whose parents it has locked, but the map itself is
// shared). Readers get snapshot copies, never references into the map.
class ParentLists {
 public:
  ParentLists() = default;

  ParentLists(ParentLists&& other) noexcept {
    std::lock_guard<std::mutex> g(other.mu_);
    lists_ = std::move(other.lists_);
  }
  ParentLists& operator=(ParentLists&& other) noexcept {
    if (this != &other) {
      std::scoped_lock g(mu_, other.mu_);
      lists_ = std::move(other.lists_);
    }
    return *this;
  }

  void AddParent(ObjectId child, ObjectId parent) {
    std::lock_guard<std::mutex> g(mu_);
    lists_[child].insert(parent);
  }

  void RemoveParent(ObjectId child, ObjectId parent) {
    std::lock_guard<std::mutex> g(mu_);
    auto it = lists_.find(child);
    if (it == lists_.end()) return;
    it->second.erase(parent);
  }

  std::vector<ObjectId> Get(ObjectId child) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = lists_.find(child);
    if (it == lists_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  bool Contains(ObjectId child, ObjectId parent) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = lists_.find(child);
    return it != lists_.end() && it->second.count(parent) > 0;
  }

  void Erase(ObjectId child) {
    std::lock_guard<std::mutex> g(mu_);
    lists_.erase(child);
  }

  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return lists_.size();
  }

  // Replaces old_parent by new_parent in every list it appears in (used
  // when resuming from a checkpoint that predates some migrations).
  void ReplaceParentEverywhere(ObjectId old_parent, ObjectId new_parent) {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& [child, parents] : lists_) {
      (void)child;
      if (parents.erase(old_parent) > 0) parents.insert(new_parent);
    }
  }

  // Checkpoint support: flatten to (child, parent) pairs and back.
  std::vector<std::pair<ObjectId, ObjectId>> Flatten() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::pair<ObjectId, ObjectId>> out;
    for (const auto& [child, parents] : lists_) {
      for (ObjectId p : parents) out.emplace_back(child, p);
    }
    return out;
  }
  static ParentLists FromFlat(
      const std::vector<std::pair<ObjectId, ObjectId>>& flat) {
    ParentLists pl;
    for (const auto& [child, parent] : flat) pl.AddParent(child, parent);
    return pl;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<ObjectId, std::unordered_set<ObjectId>> lists_;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_PARENT_LISTS_H_
