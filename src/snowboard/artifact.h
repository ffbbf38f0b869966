// Typed campaign artifacts and their checkpoint mechanics.
//
// Every pipeline stage produces one artifact (corpus, profiles, PMC table, test list,
// final result). A StageDef<T> states how that artifact is checkpointed — entry name,
// serializer, deserializer, staleness gate — and StageRunner supplies the mechanics: the
// campaign engine resolves loads up front on the coordinator thread (TryLoad) and
// persists from whichever pool worker completes a stage (Persist). There is exactly one
// implementation of verify-load, staleness-gating, and dead-process suppression.
#ifndef SRC_SNOWBOARD_ARTIFACT_H_
#define SRC_SNOWBOARD_ARTIFACT_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "src/snowboard/checkpoint.h"
#include "src/util/fault.h"

namespace snowboard {

// Declarative description of one stage's checkpoint entry.
template <typename T>
struct StageDef {
  std::string entry;  // Checkpoint entry name; "" = not checkpointed.
  std::function<std::string(const T&)> serialize;
  std::function<std::optional<T>(const std::string&)> deserialize;
  // Staleness gate for loaded values (e.g. a profile set whose size no longer matches the
  // corpus is stale, not corrupt). Empty = any verified load is acceptable.
  std::function<bool(const T&)> validate;
};

class StageRunner {
 public:
  // `store` may be null (checkpointing off); `fault` may be null (no injection). With
  // `resume`, TryLoad consults the store; without it, stages always compute.
  StageRunner(CheckpointStore* store, FaultInjector* fault, bool resume)
      : store_(store), fault_(fault), resume_(resume) {}

  CheckpointStore* store() const { return store_; }
  FaultInjector* fault() const { return fault_; }
  bool resume() const { return resume_; }

  // True once an injected crash has fired anywhere: the "process" is dead, so stages stop
  // starting new work, nothing more is persisted, and callers unwind with partial state.
  bool dead() const { return fault_ != nullptr && fault_->crashed(); }

  // Verified checkpoint load: entry present, deserializes, and passes the staleness gate.
  template <typename T>
  std::optional<T> TryLoad(const StageDef<T>& def) const {
    if (store_ == nullptr || !resume_ || def.entry.empty()) {
      return std::nullopt;
    }
    std::optional<std::string> text = store_->Get(def.entry);
    if (!text.has_value()) {
      return std::nullopt;
    }
    std::optional<T> value = def.deserialize(*text);
    if (value.has_value() && def.validate && !def.validate(*value)) {
      return std::nullopt;
    }
    return value;
  }

  // Commits the artifact unless the stage is unpersisted or the process is already dead
  // (a dead process must leave only what it durably committed before the crash).
  template <typename T>
  void Persist(const StageDef<T>& def, const T& value) const {
    if (store_ == nullptr || def.entry.empty() || dead()) {
      return;
    }
    store_->Put(def.entry, def.serialize(value));
  }

 private:
  CheckpointStore* store_;
  FaultInjector* fault_;
  bool resume_;
};

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_ARTIFACT_H_
