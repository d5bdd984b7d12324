// Sorted-vector map replacements for hot-path std::map uses.
//
// Two flavors:
//
//  * FlatMap<K, V>     — a sorted vector of (key, value) pairs with a
//    std::map-compatible API subset. One contiguous allocation, binary-search
//    lookups, linear memmove on insert/erase: the right trade for the small,
//    read-mostly tables on the routing data path (per-node route tables are
//    dozens of entries, probed on every hop, mutated a few times a second).
//    Iteration order is ascending key order — identical to std::map — so
//    MixDigest folds and genesis snapshot bytes are unchanged by the swap.
//
//  * FlatNameMap<T>    — a sorted vector of (name, unique_ptr<T>) rows for
//    the StatsRegistry: string_view binary-search lookups without allocation,
//    lexicographic iteration (Prometheus export order preserved), and
//    pointer-stable values — callers cache Counter*/Histogram* across
//    arbitrary registry growth, exactly as std::map guaranteed.
// Both flavors carry a MemDomain template tag (default kFlatMap; the
// StatsRegistry instantiates kStatsRegistry) and report their backing-store
// footprint to the memory observatory (telemetry/mem_counters.h): capacity
// growth on insert, the whole store on destruction. Element-payload heap
// (e.g. a TimeSeries' samples) belongs to the element's own domain, not the
// table's; long names beyond the small-string buffer are charged per row.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/mem_counters.h"

namespace viator::base {

namespace internal {

/// Heap bytes behind one std::string: zero inside the small-string buffer,
/// capacity + NUL otherwise. Deterministic for a given standard library,
/// which is all the pinned baselines require.
inline std::size_t StringHeapBytes(const std::string& s) {
  constexpr std::size_t kSsoCapacity = std::string().capacity();
  return s.capacity() <= kSsoCapacity ? 0 : s.capacity() + 1;
}

/// Domain-tagged charge/release pair shared by the flat containers.
template <telemetry::mem::Domain Domain>
inline void ChargeBytes(std::size_t bytes) {
#if VIATOR_PLANES
  if (bytes != 0) telemetry::mem::OnAlloc(Domain, bytes);
#else
  (void)bytes;
#endif
}

template <telemetry::mem::Domain Domain>
inline void ReleaseBytes(std::size_t bytes) {
#if VIATOR_PLANES
  if (bytes != 0) telemetry::mem::OnFree(Domain, bytes);
#else
  (void)bytes;
#endif
}

}  // namespace internal

template <typename K, typename V,
          telemetry::mem::Domain Domain = telemetry::mem::Domain::kFlatMap>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  FlatMap(const FlatMap& other) : entries_(other.entries_) {
    internal::ChargeBytes<Domain>(CapacityBytes());
  }
  // Moves transfer the charged buffer wholesale (the moved-from vector is
  // left with zero capacity), so the counters need no adjustment.
  FlatMap(FlatMap&& other) noexcept = default;
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) {
      internal::ReleaseBytes<Domain>(CapacityBytes());
      entries_ = other.entries_;
      internal::ChargeBytes<Domain>(CapacityBytes());
    }
    return *this;
  }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      internal::ReleaseBytes<Domain>(CapacityBytes());
      entries_ = std::move(other.entries_);
    }
    return *this;
  }
  ~FlatMap() { internal::ReleaseBytes<Domain>(CapacityBytes()); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  iterator find(const K& key) {
    auto it = LowerBound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    auto it = LowerBound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  bool contains(const K& key) const { return find(key) != end(); }

  V& operator[](const K& key) {
    auto it = LowerBound(key);
    if (it == entries_.end() || it->first != key) {
      const std::size_t before = entries_.capacity();
      const std::size_t index = static_cast<std::size_t>(it - entries_.begin());
      entries_.insert(it, value_type(key, V{}));
      if (entries_.capacity() != before) {
        internal::ChargeBytes<Domain>((entries_.capacity() - before) *
                                      sizeof(value_type));
      }
      it = entries_.begin() + static_cast<std::ptrdiff_t>(index);
    }
    return it->second;
  }

  iterator erase(iterator pos) { return entries_.erase(pos); }
  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }

 private:
  std::size_t CapacityBytes() const {
    return entries_.capacity() * sizeof(value_type);
  }

  iterator LowerBound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator LowerBound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

template <typename T,
          telemetry::mem::Domain Domain = telemetry::mem::Domain::kFlatMap>
class FlatNameMap {
  struct Row;

 public:
  FlatNameMap() = default;
  FlatNameMap(FlatNameMap&&) noexcept = default;
  FlatNameMap& operator=(FlatNameMap&& other) noexcept {
    if (this != &other) {
      internal::ReleaseBytes<Domain>(OwnedBytes());
      rows_ = std::move(other.rows_);
    }
    return *this;
  }
  ~FlatNameMap() { internal::ReleaseBytes<Domain>(OwnedBytes()); }

  /// Finds or creates the named value. The returned reference (and the
  /// address behind it) stays valid for the map's lifetime: values live
  /// behind unique_ptrs, only the index vector moves.
  T& GetOrCreate(std::string_view name) {
    auto it = LowerBound(name);
    if (it == rows_.end() || it->name != name) {
      const std::size_t before = rows_.capacity();
      const std::size_t index = static_cast<std::size_t>(it - rows_.begin());
      it = rows_.insert(it, Row{std::string(name), std::make_unique<T>()});
      std::size_t grown = sizeof(T) + internal::StringHeapBytes(it->name);
      if (rows_.capacity() != before) {
        grown += (rows_.capacity() - before) * sizeof(Row);
      }
      internal::ChargeBytes<Domain>(grown);
      it = rows_.begin() + static_cast<std::ptrdiff_t>(index);
    }
    return *it->value;
  }

  const T* Find(std::string_view name) const {
    auto it = LowerBound(name);
    return it != rows_.end() && it->name == name ? it->value.get() : nullptr;
  }

  bool contains(std::string_view name) const { return Find(name) != nullptr; }

  /// Precondition: the name exists (std::map::at contract).
  const T& at(std::string_view name) const { return *Find(name); }

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Const iteration in lexicographic name order, yielding
  // pair<const std::string&, const T&> so existing structured-binding loops
  // (`for (const auto& [name, metric] : reg.counters())`) compile unchanged.
  class const_iterator {
   public:
    using reference = std::pair<const std::string&, const T&>;

    reference operator*() const { return {row_->name, *row_->value}; }
    struct ArrowProxy {
      reference pair;
      const reference* operator->() const { return &pair; }
    };
    ArrowProxy operator->() const { return ArrowProxy{**this}; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return row_ == other.row_;
    }
    bool operator!=(const const_iterator& other) const {
      return row_ != other.row_;
    }

   private:
    friend class FlatNameMap;
    explicit const_iterator(const Row* row) : row_(row) {}
    const Row* row_;
  };

  const_iterator begin() const { return const_iterator(rows_.data()); }
  const_iterator end() const {
    return const_iterator(rows_.data() + rows_.size());
  }
  const_iterator find(std::string_view name) const {
    auto it = LowerBound(name);
    if (it != rows_.end() && it->name == name) {
      return const_iterator(rows_.data() + (it - rows_.begin()));
    }
    return end();
  }

 private:
  struct Row {
    std::string name;
    std::unique_ptr<T> value;
  };

  /// Exactly what the incremental charges summed to: the index vector's
  /// capacity plus each row's value object and out-of-buffer name bytes.
  std::size_t OwnedBytes() const {
    std::size_t bytes = rows_.capacity() * sizeof(Row);
    for (const Row& row : rows_) {
      bytes += sizeof(T) + internal::StringHeapBytes(row.name);
    }
    return bytes;
  }

  typename std::vector<Row>::const_iterator LowerBound(
      std::string_view name) const {
    return std::lower_bound(
        rows_.begin(), rows_.end(), name,
        [](const Row& row, std::string_view n) { return row.name < n; });
  }
  typename std::vector<Row>::iterator LowerBound(std::string_view name) {
    return std::lower_bound(
        rows_.begin(), rows_.end(), name,
        [](const Row& row, std::string_view n) { return row.name < n; });
  }

  std::vector<Row> rows_;
};

}  // namespace viator::base
