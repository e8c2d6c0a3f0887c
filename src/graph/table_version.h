// Content identity of the mutable input tables (SocialGraph, ProfileTable,
// VisibilityTable), for the caches that fingerprint them.
//
// A (table address, mutation epoch) pair can be forged: epochs start at
// 0 in every table, so assigning one table to another with an equal
// epoch keeps both the address and the epoch while the contents change.
// A TableVersion pairs the epoch with a stamp drawn from one
// process-wide counter whenever a table is constructed, copied or moved
// (both sides of a move, assignments included), so two equal versions
// always mean the same object with no mutation in between — the same
// contents. Mutations only bump the plain epoch, so hot mutators such as
// SocialGraph::AddEdge pay no atomic operation.

#ifndef SIGHT_GRAPH_TABLE_VERSION_H_
#define SIGHT_GRAPH_TABLE_VERSION_H_

#include <atomic>
#include <cstdint>

namespace sight {

/// (stamp, epoch) of one table. The default value matches no table.
struct TableVersion {
  uint64_t stamp = 0;
  uint64_t epoch = 0;

  bool operator==(const TableVersion&) const = default;
};

/// A process-wide unique stamp, renewed on every construction, copy and
/// move of the object holding it, the moved-from side included.
class VersionStamp {
 public:
  VersionStamp() : value_(Next()) {}
  VersionStamp(const VersionStamp&) : value_(Next()) {}
  VersionStamp(VersionStamp&& other) noexcept : value_(Next()) {
    other.value_ = Next();
  }
  VersionStamp& operator=(const VersionStamp&) {
    value_ = Next();
    return *this;
  }
  VersionStamp& operator=(VersionStamp&& other) noexcept {
    value_ = Next();
    other.value_ = Next();
    return *this;
  }

  uint64_t id() const { return value_; }

 private:
  static uint64_t Next() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t value_;
};

}  // namespace sight

#endif  // SIGHT_GRAPH_TABLE_VERSION_H_
