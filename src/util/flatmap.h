// Open-addressed hash containers with clear-keeps-capacity semantics.
//
// The node-based std::unordered_* containers free every node on clear() and malloc on every
// insert, which makes them unusable in a loop that must be allocation-free at steady state
// (the per-trial race-detector scratch in particular). These flat tables keep their backing
// arrays across Clear() calls: after the first few trials grow a table to its high-water
// capacity, inserts and lookups never touch the heap again.
//
// Deliberately minimal: integral keys only, linear probing, power-of-two capacity,
// tombstone deletion, value type must be default-constructible and assignable. Iteration
// order is unspecified — callers that need deterministic output must not iterate (the race
// detector only does keyed lookups; its outputs follow trace order).
#ifndef SRC_UTIL_FLATMAP_H_
#define SRC_UTIL_FLATMAP_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace snowboard {

// 64-bit finalizer (splitmix64); integral keys of any width are widened first.
inline uint64_t FlatHashMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename Key, typename Value>
class FlatMap {
 public:
  FlatMap() { Rehash(kInitialCapacity); }

  // Value slot for `key`, inserting a default-constructed value if absent.
  Value& operator[](Key key) {
    if ((used_ + 1) * 4 >= capacity_ * 3) {
      Rehash(capacity_ * 2);
    }
    size_t index = Probe(key, /*for_insert=*/true);
    if (states_[index] != kFull) {
      used_ += states_[index] == kEmpty ? 1 : 0;  // A reused tombstone was already counted.
      states_[index] = kFull;
      keys_[index] = key;
      values_[index] = Value();  // Slots are recycled across Clear(); reset stale content.
      size_++;
    }
    return values_[index];
  }

  Value* Find(Key key) {
    size_t index = Probe(key, /*for_insert=*/false);
    return index != kNotFound ? &values_[index] : nullptr;
  }
  const Value* Find(Key key) const {
    size_t index = const_cast<FlatMap*>(this)->Probe(key, /*for_insert=*/false);
    return index != kNotFound ? &values_[index] : nullptr;
  }

  void Erase(Key key) {
    size_t index = Probe(key, /*for_insert=*/false);
    if (index != kNotFound) {
      states_[index] = kTombstone;  // used_ unchanged: the slot still lengthens probes.
      size_--;
    }
  }

  // True if `key` was newly inserted (false if already present).
  bool Insert(Key key) {
    size_t before = size_;
    (void)(*this)[key];
    return size_ != before;
  }

  bool Contains(Key key) const { return Find(key) != nullptr; }
  size_t size() const { return size_; }

  // Empties the table but keeps the backing arrays: no allocation on refill up to the
  // high-water element count.
  void Clear() {
    std::memset(states_.data(), kEmpty, states_.size());
    size_ = 0;
    used_ = 0;
  }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr size_t kInitialCapacity = 64;
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t Probe(Key key, bool for_insert) {
    size_t mask = capacity_ - 1;
    size_t index = static_cast<size_t>(FlatHashMix(static_cast<uint64_t>(key))) & mask;
    size_t first_tombstone = kNotFound;
    for (;;) {
      uint8_t state = states_[index];
      if (state == kEmpty) {
        if (!for_insert) {
          return kNotFound;
        }
        return first_tombstone != kNotFound ? first_tombstone : index;
      }
      if (state == kFull && keys_[index] == key) {
        return index;
      }
      if (state == kTombstone && first_tombstone == kNotFound) {
        first_tombstone = index;
      }
      index = (index + 1) & mask;
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint8_t> old_states = std::move(states_);
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    size_t old_capacity = capacity_;

    capacity_ = new_capacity;
    states_.assign(capacity_, kEmpty);
    keys_.assign(capacity_, Key());
    values_.assign(capacity_, Value());
    size_ = 0;
    used_ = 0;
    for (size_t i = 0; i < old_capacity; i++) {
      if (old_states[i] == kFull) {
        (*this)[old_keys[i]] = old_values[i];
      }
    }
  }

  std::vector<uint8_t> states_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t used_ = 0;  // Full + tombstone slots (controls load-factor growth).
};

// Set facade over FlatMap (the byte value is dead weight but keeps one implementation;
// uint8_t rather than bool to dodge the std::vector<bool> proxy).
template <typename Key>
class FlatSet {
 public:
  bool Insert(Key key) { return map_.Insert(key); }
  bool Contains(Key key) const { return map_.Contains(key); }
  size_t size() const { return map_.size(); }
  void Clear() { map_.Clear(); }

 private:
  FlatMap<Key, uint8_t> map_;
};

}  // namespace snowboard

#endif  // SRC_UTIL_FLATMAP_H_
