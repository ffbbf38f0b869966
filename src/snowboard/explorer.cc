#include "src/snowboard/explorer.h"

#include <algorithm>

#include "src/snowboard/minimize.h"
#include "src/snowboard/profile.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/report.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/flatmap.h"
#include "src/util/hash.h"
#include "src/util/trace.h"

namespace snowboard {

uint64_t AccessFeatureHash(AccessType type, GuestAddr addr, uint8_t len, SiteId site,
                           uint64_t value) {
  return HashAll(static_cast<uint64_t>(type), addr, len, site, value);
}

namespace {

uint64_t SideFeatureHash(const PmcSide& side, AccessType type) {
  return AccessFeatureHash(type, side.addr, side.len, side.site, side.value);
}

uint64_t AccessHash(const Access& access) {
  return AccessFeatureHash(access.type, access.addr, access.len, access.site, access.value);
}

}  // namespace

// --------------------------------------------------------------------------------------------
// PmcMatcher.
// --------------------------------------------------------------------------------------------

PmcMatcher::PmcMatcher(const std::vector<Pmc>* pmcs, size_t max_indexed) : pmcs_(pmcs) {
  size_t count = std::min(pmcs->size(), max_indexed);
  for (uint32_t i = 0; i < count; i++) {
    uint64_t h = SideFeatureHash((*pmcs)[i].key.write, AccessType::kWrite);
    by_write_feature_[h].push_back(i);
  }
}

const std::vector<uint32_t>* PmcMatcher::CandidatesForWrite(uint64_t write_feature_hash) const {
  auto it = by_write_feature_.find(write_feature_hash);
  return it == by_write_feature_.end() ? nullptr : &it->second;
}

// --------------------------------------------------------------------------------------------
// PmcScheduler.
// --------------------------------------------------------------------------------------------

void PmcScheduler::ResetForTest(const PmcKey& initial_pmc) {
  current_pmcs_.clear();
  pmc_feature_hashes_.clear();
  flags_.clear();
  addr_filter_.Clear();
  AddPmc(initial_pmc);
}

void PmcScheduler::SeedTrial(uint64_t seed) {
  rng_.Seed(seed);
  for (std::optional<Access>& last : last_access_) {
    last.reset();
  }
}

void PmcScheduler::AddPmc(const PmcKey& pmc) {
  current_pmcs_.push_back(pmc);
  pmc_feature_hashes_.insert(SideFeatureHash(pmc.write, AccessType::kWrite));
  pmc_feature_hashes_.insert(SideFeatureHash(pmc.read, AccessType::kRead));
  addr_filter_.Add(pmc.write.addr);
  addr_filter_.Add(pmc.read.addr);
}

void PmcScheduler::RollbackAttempt() {
  for (uint64_t flag : flag_journal_) {
    flags_.erase(flag);
  }
  flag_journal_.clear();
}

bool PmcScheduler::PerformedPmcAccess(const Access& access) const {
  return pmc_feature_hashes_.count(AccessHash(access)) != 0;
}

bool PmcScheduler::PmcAccessComing(const Access& access) const {
  return flags_.count(AccessHash(access)) != 0;
}

bool PmcScheduler::AfterAccess(VcpuId vcpu, const Access& access) {
  // Adaptive preemption (equiv.h): a site learned to carry communication edges earns an
  // extra boosted switch draw even when it matches no PMC feature. The table is null
  // unless pruning installed one, so the non-pruning RNG stream is untouched.
  bool do_switch = AdaptiveHot(access.site) && rng_.Chance(1, kAdaptiveBoost);

  // Fast path for the per-access hot site: nearly every access in a trial touches an
  // address that is in neither the PMC watch set nor flags, which the address filter
  // proves without computing the feature hash or probing either exact set. A filter miss
  // can never be a real member (no false negatives), and the RNG is untouched on this
  // path — the coin flips below happen exactly when they did before, so trial schedules
  // are bit-for-bit unchanged. Algorithm 2 line 22 must still run.
  if (!addr_filter_.MayContain(access.addr)) {
    last_access_[vcpu] = access;
    switch_decisions_ += do_switch ? 1 : 0;
    return do_switch;
  }

  // Algorithm 2 lines 16-17: a flags hit means the PMC access is about to execute on this
  // thread; non-deterministically switch away to let the other side interpose.
  if (flags_enabled_ && PmcAccessComing(access)) {
    do_switch = rng_.Coin();
  }
  // Lines 18-21: the access just performed IS a PMC access; remember this thread's previous
  // access as a flag for future trials, and non-deterministically reschedule.
  if (PerformedPmcAccess(access)) {
    const std::optional<Access>& previous = last_access_[vcpu];
    if (flags_enabled_ && previous.has_value()) {
      uint64_t flag = AccessHash(*previous);
      if (flags_.insert(flag).second) {
        flag_journal_.push_back(flag);
      }
      addr_filter_.Add(previous->addr);
    }
    if (rng_.Coin()) {
      do_switch = true;
    }
  }
  // Line 22: last_access[current_thread] = access.
  last_access_[vcpu] = access;
  switch_decisions_ += do_switch ? 1 : 0;
  return do_switch;
}

// --------------------------------------------------------------------------------------------
// Exploration loop (Algorithm 2's per-PMC body).
// --------------------------------------------------------------------------------------------

namespace {

// Reusable scratch for FindIncidentalPmcs: flat tables and vectors that keep their capacity
// across trials, so the steady-state trial loop performs no heap allocation here.
struct IncidentalScratch {
  FlatSet<uint64_t> write_features;
  std::vector<uint64_t> write_order;  // Write features in first-occurrence trace order.
  FlatSet<uint64_t> read_features;
  std::vector<uint32_t> matches;
};

// Incidental-PMC search (line 26): find PMCs different from the current ones whose write
// and read features BOTH occurred in the trial's accesses. Candidates are collected by
// scanning write features in first-occurrence trace order, so the result (and the adoption
// draw made from it) is a deterministic function of the trace, independent of any hash
// table's layout. Fills `scratch->matches`.
void FindIncidentalPmcs(const Trace& trace, const PmcMatcher& matcher,
                        const FlatSet<uint64_t>& current_keys, IncidentalScratch* scratch) {
  scratch->write_features.Clear();
  scratch->write_order.clear();
  scratch->read_features.Clear();
  scratch->matches.clear();
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) {
      continue;
    }
    uint64_t h = AccessHash(event.access);
    if (event.access.type == AccessType::kWrite) {
      if (scratch->write_features.Insert(h)) {
        scratch->write_order.push_back(h);
      }
    } else {
      scratch->read_features.Insert(h);
    }
  }
  for (uint64_t write_feature : scratch->write_order) {
    const std::vector<uint32_t>* candidates = matcher.CandidatesForWrite(write_feature);
    if (candidates == nullptr) {
      continue;
    }
    for (uint32_t index : *candidates) {
      const PmcKey& key = matcher.pmcs()[index].key;
      if (current_keys.Contains(key.Hash())) {
        continue;
      }
      if (scratch->read_features.Contains(SideFeatureHash(key.read, AccessType::kRead))) {
        scratch->matches.push_back(index);
        if (scratch->matches.size() >= 64) {
          return;  // Plenty to draw one from.
        }
      }
    }
  }
}

// True when some finding in `detectors` classifies to Table 2 issue `issue_id`.
bool HasIssue(const DetectorResult& detectors, int issue_id) {
  for (const RaceReport& race : detectors.races) {
    if (ClassifyRace(race) == issue_id) return true;
  }
  for (const std::string& line : detectors.console_hits) {
    if (ClassifyConsoleLine(line) == issue_id) return true;
  }
  if (detectors.panicked && ClassifyConsoleLine(detectors.panic_message) == issue_id) {
    return true;
  }
  for (const DeadlockReport& deadlock : detectors.deadlocks) {
    if (ClassifyDeadlock(deadlock) == issue_id) return true;
  }
  for (const LostWakeupReport& lost : detectors.lost_wakeups) {
    if (ClassifyLostWakeup(lost) == issue_id) return true;
  }
  for (const LivelockReport& livelock : detectors.livelocks) {
    if (ClassifyLivelock(livelock) == issue_id) return true;
  }
  return false;
}

// One PMC channel the trial loop checks (§5.3.2): did `hint` carry data from the writer
// vCPU to the reader vCPU in some trial?
struct ChannelCheck {
  PmcKey hint;
  VcpuId writer;
  VcpuId reader;
};

// The one trial loop: runs `programs` (program i on vCPU i) under `scheduler`. Incidental-PMC
// adoption runs when both `pmc_scheduler` and `matcher` are non-null; the outcome's channel
// flag is set once any of `channels` is exercised.
ExploreOutcome RunTrialLoop(KernelVm& vm, const std::vector<const Program*>& programs,
                            const std::vector<ChannelCheck>& channels,
                            TrialScheduler& scheduler, PmcScheduler* pmc_scheduler,
                            const PmcMatcher* matcher, const ExplorerOptions& options) {
  ExploreOutcome outcome;
  const bool adopt = pmc_scheduler != nullptr && matcher != nullptr;
  FlatSet<uint64_t> current_keys;
  if (adopt) {
    for (const PmcKey& key : pmc_scheduler->current_pmcs()) {
      current_keys.Insert(key.Hash());
    }
  }
  std::unordered_set<uint64_t> race_signatures;
  std::unordered_set<uint64_t> console_hashes;
  std::unordered_set<uint64_t> panic_hashes;
  std::unordered_set<uint64_t> deadlock_signatures;
  std::unordered_set<uint64_t> lost_wakeup_signatures;
  std::unordered_set<uint64_t> livelock_signatures;
  Rng adoption_rng(options.seed ^ 0xadadadadull);

  // Trial-scoped buffers, hoisted: the guest functions, run result (trace storage), race
  // detector scratch, and incidental-search scratch are all built once and recycled, so a
  // steady-state iteration of this loop performs no heap allocation (trial_alloc_test
  // asserts this on the distilled loop).
  std::vector<Engine::GuestFn> vcpu_fns;
  for (size_t i = 0; i < programs.size(); i++) {
    vcpu_fns.push_back(MakeProgramRunner(vm.globals(), *programs[i], static_cast<int>(i)));
  }
  // Every trial runs through a recorder so a first-seen finding can be captured with the
  // exact decision sequence that produced it. The recording buffer keeps its capacity
  // across trials (SeedTrial clears, not reallocates), preserving the no-alloc steady state.
  RecordingScheduler recorder(&scheduler);
  Engine::RunOptions run_opts;
  run_opts.scheduler = &recorder;
  run_opts.max_instructions = options.max_instructions;
  Engine::RunResult result;
  DetectorSuite detector_suite(options.detectors);
  DetectorResult detectors;
  IncidentalScratch incidental;

  // Schedule-equivalence pruning state (equiv.h). The fingerprint scratch and seen-set
  // keep their capacity across trials (no steady-state allocation); the adaptive table is
  // installed on the scheduler only while this test runs, and only ever learns from this
  // test's own seeded trials, so schedules remain a function of (test, seed).
  const bool prune = options.prune.enabled;
  HbScratch hb_scratch;
  FlatSet<uint64_t> seen_fingerprints;
  AdaptiveSiteTable site_table;
  if (prune) {
    scheduler.set_adaptive_sites(&site_table);
  }
  const uint64_t switch_base = scheduler.switch_decisions();
  // Decisions made during discarded hung attempts: subtracted from the outcome so a
  // retry that succeeds is byte-identical to the attempt never having hung.
  uint64_t discarded_switches = 0;
  // The trial budget counts EXECUTIONS, exactly as with pruning off — a duplicate trial
  // still spends its slot (it already ran; only its analysis is skipped). The savings come
  // from saturation: K consecutive duplicates end the test early, forfeiting the rest of
  // the budget. Extending the budget for duplicates instead was measured to run MORE
  // executions than the unpruned loop on the reference campaign, inverting the win.
  int consecutive_duplicates = 0;

  uint64_t trial_fingerprint = 0;  // Computed lazily, at most once per trial.
  int fingerprint_trial = -1;
  auto capture_finding = [&](FindingKind kind, uint64_t key, int trial) {
    if (fingerprint_trial != trial) {
      trial_fingerprint = DetectorFingerprint(detectors);
      fingerprint_trial = trial;
    }
    TrialCapture capture;
    capture.kind = static_cast<uint8_t>(kind);
    capture.finding_key = key;
    capture.trial = trial;
    capture.fingerprint = trial_fingerprint;
    capture.schedule = recorder.schedule().ToString();
    capture.orig_switches = static_cast<uint32_t>(recorder.schedule().SwitchCount());
    capture.min_switches = capture.orig_switches;
    outcome.captures.push_back(std::move(capture));
  };

  for (int trial = 0; trial < options.num_trials; trial++) {
    if (options.fault != nullptr && options.fault->At("explorer.trial")) {
      break;  // Simulated worker death mid-test; the partial outcome must be discarded.
    }
    TRACE_SPAN("explore.trial", static_cast<uint64_t>(trial));
    outcome.trials_run++;

    // A hung attempt (real, or injected by the crash-sweep harness) is discarded before
    // the detectors see it and re-run from the same restored snapshot with the same seed,
    // so a retry that succeeds is byte-identical to the attempt never having hung: its
    // switch decisions are subtracted from the outcome and the scheduler un-learns the
    // flags the attempt recorded (flags feed later decisions in the same run, so a
    // pre-learned flag would shift the retry's RNG stream off the no-hang baseline).
    int attempt = 0;
    for (;;) {
      const uint64_t attempt_base = scheduler.switch_decisions();
      scheduler.BeginAttempt();
      recorder.SeedTrial(options.seed + static_cast<uint64_t>(trial));
      vm.RestoreSnapshot();
      vm.engine().RunInto(vcpu_fns, run_opts, &result);
      bool injected_hang = options.fault != nullptr && options.fault->HangTrial();
      if ((!result.hang && !injected_hang) || attempt >= options.max_trial_retries) {
        break;
      }
      scheduler.RollbackAttempt();
      discarded_switches += scheduler.switch_decisions() - attempt_base;
      attempt++;
      outcome.trials_retried++;
      ActiveCounters().trials_retried.fetch_add(1, std::memory_order_relaxed);
      TRACE_INSTANT("explore.trial_retry", static_cast<uint64_t>(trial));
    }
    TRACE_COUNTER("explore.scheduler_switches", scheduler.switch_decisions());

    if (result.hang) {
      outcome.any_hang = true;
    }

    // Schedule-equivalence check: a trial whose happens-before fingerprint was already
    // explored is detector-equivalent to the earlier trial that produced it (same
    // communication edges in the same order), so detectors, the channel check, and
    // incidental adoption are all skipped — they would re-derive already-recorded facts.
    // K consecutive duplicates saturate the test: fresh seeds have stopped finding new
    // interleavings, so the remaining budget is forfeit.
    if (prune) {
      uint64_t hb = HbFingerprint(result.trace, &hb_scratch);
      if (!seen_fingerprints.Insert(hb)) {
        outcome.trials_pruned++;
        ActiveCounters().trials_pruned.fetch_add(1, std::memory_order_relaxed);
        TRACE_INSTANT("explore.trial_pruned", static_cast<uint64_t>(trial));
        if (++consecutive_duplicates >= options.prune.saturation_window) {
          outcome.saturated = true;
          break;
        }
        continue;
      }
      consecutive_duplicates = 0;
      for (SiteId site : hb_scratch.edge_sites) {
        site_table.Record(site);
      }
    }

    for (size_t c = 0; c < channels.size() && !outcome.channel_exercised; c++) {
      outcome.channel_exercised = PmcChannelExercised(result.trace, channels[c].hint,
                                                      channels[c].writer, channels[c].reader);
    }

    detector_suite.Run(result, &detectors);
    bool bug_this_trial = detectors.panicked || !detectors.console_hits.empty() ||
                          !detectors.races.empty() || !detectors.deadlocks.empty() ||
                          !detectors.lost_wakeups.empty() || !detectors.livelocks.empty();
    for (const RaceReport& race : detectors.races) {
      if (race_signatures.insert(race.Signature()).second) {
        outcome.races.push_back(race);
        capture_finding(FindingKind::kRace, race.Signature(), trial);
      }
    }
    for (const std::string& line : detectors.console_hits) {
      if (console_hashes.insert(Fnv1a(line)).second) {
        outcome.console_hits.push_back(line);
        capture_finding(FindingKind::kConsole, Fnv1a(line), trial);
      }
    }
    if (detectors.panicked) {
      if (panic_hashes.insert(Fnv1a(detectors.panic_message)).second) {
        outcome.panic_messages.push_back(detectors.panic_message);
        capture_finding(FindingKind::kPanic, Fnv1a(detectors.panic_message), trial);
      }
    }
    for (const DeadlockReport& deadlock : detectors.deadlocks) {
      if (deadlock_signatures.insert(deadlock.Signature()).second) {
        outcome.deadlocks.push_back(deadlock);
        capture_finding(FindingKind::kDeadlock, deadlock.Signature(), trial);
      }
    }
    for (const LostWakeupReport& lost : detectors.lost_wakeups) {
      if (lost_wakeup_signatures.insert(lost.Signature()).second) {
        outcome.lost_wakeups.push_back(lost);
        capture_finding(FindingKind::kLostWakeup, lost.Signature(), trial);
      }
    }
    for (const LivelockReport& livelock : detectors.livelocks) {
      if (livelock_signatures.insert(livelock.Signature()).second) {
        outcome.livelocks.push_back(livelock);
        capture_finding(FindingKind::kLivelock, livelock.Signature(), trial);
      }
    }
    if (bug_this_trial && !outcome.bug_found) {
      outcome.bug_found = true;
      outcome.first_bug_trial = trial;
    }
    // Classification takes the site-registry lock per finding, so it runs only when a
    // target issue can end the test.
    if (options.target_issue != 0 && HasIssue(detectors, options.target_issue)) {
      outcome.target_found = true;
      outcome.first_target_trial = trial;
      break;
    }

    // Lines 26-27: adopt one incidental PMC observed in this trial.
    if (adopt) {
      FindIncidentalPmcs(result.trace, *matcher, current_keys, &incidental);
      if (!incidental.matches.empty()) {
        uint32_t pick = incidental.matches[adoption_rng.Below(incidental.matches.size())];
        const PmcKey& key = matcher->pmcs()[pick].key;
        if (current_keys.Insert(key.Hash())) {
          pmc_scheduler->AddPmc(key);
        }
      }
    }
  }

  outcome.switch_decisions = scheduler.switch_decisions() - switch_base - discarded_switches;
  ActiveCounters().scheduler_switch_decisions.fetch_add(outcome.switch_decisions,
                                                        std::memory_order_relaxed);
  if (prune) {
    scheduler.set_adaptive_sites(nullptr);  // The table dies with this test.
  }
  if (outcome.saturated) {
    ActiveCounters().tests_saturated.fetch_add(1, std::memory_order_relaxed);
    TRACE_INSTANT("explore.test_saturated", static_cast<uint64_t>(outcome.trials_run));
  }

  // Shrink each captured schedule toward the 2-preemption ideal. This runs after the trial
  // loop so it adds no fault points or hang ordinals (the crash-sweep's point count stays a
  // function of the campaign shape alone); under an injected crash the partial outcome is
  // discarded anyway, so the replays are skipped. Each probe is a deterministic replay, so
  // the minimized schedules — and everything serialized from them — are identical on any
  // worker count or engine configuration.
  if (options.minimize_schedules && !outcome.captures.empty() &&
      !(options.fault != nullptr && options.fault->crashed())) {
    Engine::RunOptions replay_opts;
    replay_opts.max_instructions = options.max_instructions;
    for (TrialCapture& capture : outcome.captures) {
      std::optional<RecordedSchedule> recorded =
          RecordedSchedule::FromString(capture.schedule);
      if (!recorded.has_value()) {
        continue;
      }
      FindingKind kind = static_cast<FindingKind>(capture.kind);
      uint64_t last_fingerprint = 0;
      auto probe = [&](const RecordedSchedule& candidate) {
        ReplayScheduler replayer(candidate);
        replayer.SeedTrial(0);
        replay_opts.scheduler = &replayer;
        vm.RestoreSnapshot();
        vm.engine().RunInto(vcpu_fns, replay_opts, &result);
        detector_suite.Run(result, &detectors);
        if (!DetectorResultContainsKey(detectors, kind, capture.finding_key)) {
          return false;
        }
        last_fingerprint = DetectorFingerprint(detectors);
        return true;
      };
      MinimizeStats stats;
      RecordedSchedule minimized = MinimizeSchedule(*recorded, probe, MinimizeOptions(), &stats);
      if (stats.reproduced) {
        // The final successful probe ran exactly `minimized`, so its fingerprint is the
        // one a replay of this capture will produce.
        capture.schedule = minimized.ToString();
        capture.fingerprint = last_fingerprint;
        capture.min_switches = static_cast<uint32_t>(stats.min_switches);
      }
    }
  }
  return outcome;
}

}  // namespace

ExploreOutcome ExploreConcurrentTest(KernelVm& vm, const ConcurrentTest& test,
                                     const PmcMatcher* matcher,
                                     const ExplorerOptions& options) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(test.hint);
  return RunTrialLoop(vm, {&test.writer, &test.reader}, {{test.hint, 0, 1}}, scheduler,
                      &scheduler, matcher, options);
}

ExploreOutcome ExploreWithScheduler(KernelVm& vm, const ConcurrentTest& test,
                                    TrialScheduler& scheduler, bool check_channel,
                                    const ExplorerOptions& options) {
  std::vector<ChannelCheck> channels;
  if (check_channel) {
    channels.push_back({test.hint, 0, 1});
  }
  return RunTrialLoop(vm, {&test.writer, &test.reader}, channels, scheduler,
                      /*pmc_scheduler=*/nullptr, /*matcher=*/nullptr, options);
}

ExploreOutcome ExploreThreeThreaded(KernelVm& vm, const ThreeThreadTest& test,
                                    const ExplorerOptions& options) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(test.hint_a);
  scheduler.AddPmc(test.hint_b);
  return RunTrialLoop(vm, {&test.programs[0], &test.programs[1], &test.programs[2]},
                      {{test.hint_a, 0, 1}, {test.hint_b, 0, 2}, {test.hint_b, 1, 2}},
                      scheduler, &scheduler, /*matcher=*/nullptr, options);
}

}  // namespace snowboard
