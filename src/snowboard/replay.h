// Deterministic bug reproduction (§6).
//
// "Snowboard has the benefit of providing a reliable environment to replicate bugs once they
// are found ... in all cases we evaluated, Snowboard was able to reproduce found bugs."
//
// Schedule recording is the one mechanism: RecordingScheduler wraps any scheduler and logs
// its switch decisions as a compact decision string; ReplayScheduler re-applies the exact
// decision sequence with NO dependence on the original scheduler's internals, so a recorded
// schedule survives scheduler-algorithm changes and can be attached to a bug report.
// ReplaySchedule is the one replay: the minimizer's probes and ReplayTokenTrial both run
// through it.
#ifndef SRC_SNOWBOARD_REPLAY_H_
#define SRC_SNOWBOARD_REPLAY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/snowboard/explorer.h"

namespace snowboard {

// Upper bound on a parseable schedule string. Recorded schedules are bounded by the trial
// instruction budget (one decision per memory access), so anything past this is adversarial
// input, not a recording.
inline constexpr size_t kMaxScheduleLength = 1 << 20;

// A recorded schedule: for each access (in per-vCPU execution order is not enough — the
// global access index is used, which the serialized engine makes well-defined), whether a
// switch was requested after it.
struct RecordedSchedule {
  std::vector<bool> switch_after;  // Indexed by global access ordinal.

  // Compact textual form ("..S..S.S") for bug reports; parseable by FromString.
  std::string ToString() const;
  // Rejecting parse: any character other than '.'/'S', or a string past
  // kMaxScheduleLength, yields nullopt (tokens cross trust boundaries — bug trackers,
  // checked-in corpora — so junk must never round-trip into a bogus schedule).
  static std::optional<RecordedSchedule> FromString(const std::string& text);
  size_t SwitchCount() const;
  bool operator==(const RecordedSchedule&) const = default;
};

// Wraps an inner scheduler, forwarding its decisions while recording them.
class RecordingScheduler : public TrialScheduler {
 public:
  explicit RecordingScheduler(TrialScheduler* inner) : inner_(inner) {}

  void SeedTrial(uint64_t seed) override {
    schedule_.switch_after.clear();
    inner_->SeedTrial(seed);
  }
  bool BeforeAccess(VcpuId vcpu, const Access& access) override {
    return inner_->BeforeAccess(vcpu, access);
  }
  bool AfterAccess(VcpuId vcpu, const Access& access) override {
    bool do_switch = inner_->AfterAccess(vcpu, access);
    schedule_.switch_after.push_back(do_switch);
    return do_switch;
  }
  void OnNotLive(VcpuId vcpu) override { inner_->OnNotLive(vcpu); }

  const RecordedSchedule& schedule() const { return schedule_; }

 private:
  TrialScheduler* inner_;
  RecordedSchedule schedule_;
};

// Replays a recorded decision sequence. Past the end of the recording it never switches
// (the trial outcome of interest has already been steered into place by then).
class ReplayScheduler : public TrialScheduler {
 public:
  explicit ReplayScheduler(RecordedSchedule schedule) : schedule_(std::move(schedule)) {}

  void SeedTrial(uint64_t seed) override { next_ = 0; }
  bool AfterAccess(VcpuId vcpu, const Access& access) override {
    if (next_ >= schedule_.switch_after.size()) {
      return false;
    }
    return schedule_.switch_after[next_++];
  }

 private:
  RecordedSchedule schedule_;
  size_t next_ = 0;
};

// The one replay of a recorded schedule: restores the snapshot, runs `programs` (guest
// function i on vCPU i) under a ReplayScheduler over `schedule` with an instruction budget
// of `max_instructions`, and runs `detectors` over the finished trial into `out`. `run` and
// `out` are caller-owned, so a caller replaying many schedules recycles their capacity.
void ReplaySchedule(KernelVm& vm, const std::vector<Engine::GuestFn>& programs,
                    const RecordedSchedule& schedule, uint64_t max_instructions,
                    DetectorSuite* detectors, Engine::RunResult* run, DetectorResult* out);

// --- Replay tokens: a finding as a shippable artifact. ---
//
// A token is self-contained: it embeds the program pair, the PMC hint, the per-trial seed,
// the (minimized) recorded schedule, and the detector fingerprint the recorded trial
// produced. Re-executing it needs nothing but a booted KernelVm — no corpus, no checkpoint
// directory, no site-name registry from the original process. The single-line textual form
// (FormatReplayToken / ParseReplayToken in serialize.h) is versioned and checksummed.
struct ReplayToken {
  int issue_id = 0;          // Table 2 classification (0 = unclassified).
  int write_test = -1;       // Program-pair corpus ids (provenance; -1 = unknown).
  int read_test = -1;
  uint64_t trial_seed = 0;   // The exact SeedTrial value of the recorded trial.
  uint64_t max_instructions = 0;  // The trial's instruction budget.
  uint64_t fingerprint = 0;  // DetectorFingerprint of the recorded (minimized) trial.
  RecordedSchedule schedule;
  PmcKey hint;               // The PMC that steered the finding (provenance).
  Program writer;
  Program reader;

  bool operator==(const ReplayToken&) const = default;
};

// The result of re-executing a token's trial.
struct ReplayVerdict {
  bool completed = false;          // The replayed trial ran to a terminal engine state.
  uint64_t fingerprint = 0;        // DetectorFingerprint of the replayed trial.
  bool fingerprint_match = false;  // fingerprint == token.fingerprint.
  DetectorResult detectors;        // Full detector output, for reporting divergence.
};

// The token of `record`, a finding of `test` explored under the per-test `options` (the
// trial seed and instruction budget come from them). Nullopt when the recorded schedule
// does not parse.
std::optional<ReplayToken> MakeReplayToken(const ConcurrentTest& test,
                                           const FindingRecord& record,
                                           const ExplorerOptions& options);

// Deterministically re-executes the token's trial (ReplaySchedule over the recorded
// decisions, programs on vCPU 0/1, the full detector suite; a zero budget means the
// engine's default) and verifies the detector fingerprint. The token's schedule fully
// determines the interleaving, so the verdict is identical on any machine, worker count,
// or engine configuration.
ReplayVerdict ReplayTokenTrial(KernelVm& vm, const ReplayToken& token);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_REPLAY_H_
