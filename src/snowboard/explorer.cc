#include "src/snowboard/explorer.h"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>

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
  std::vector<std::vector<Candidate>> groups;  // In order of first appearance.
  for (uint32_t i = 0; i < count; i++) {
    const PmcKey& key = (*pmcs)[i].key;
    FeatureIds& read = ids_[SideFeatureHash(key.read, AccessType::kRead)];
    if (read.read == kNoId) {
      read.read = num_reads_++;
    }
    const Candidate candidate{key.Hash(), i, read.read};
    FeatureIds& write = ids_[SideFeatureHash(key.write, AccessType::kWrite)];
    if (write.group == kNoId) {
      write.group = static_cast<uint32_t>(groups.size());
      groups.emplace_back();
    }
    groups[write.group].push_back(candidate);
  }
  for (const std::vector<Candidate>& group : groups) {
    group_begin_.push_back(static_cast<uint32_t>(candidates_.size()));
    candidates_.insert(candidates_.end(), group.begin(), group.end());
  }
  group_begin_.push_back(static_cast<uint32_t>(candidates_.size()));
}

void PmcMatcher::FindIncidental(const Trace& trace, const FlatSet<uint64_t>& current_keys,
                                Search* search) const {
  search->groups_hit_.clear();
  search->matches_.clear();
  // Size the stamps on a test's first search, and zero them again before the stamp would
  // wrap: a zero slot never equals a live stamp, which starts at 1.
  if (search->group_stamp_.size() != group_begin_.size() - 1 ||
      search->read_stamp_.size() != num_reads_ || search->stamp_ == UINT32_MAX) {
    search->group_stamp_.assign(group_begin_.size() - 1, 0);
    search->read_stamp_.assign(num_reads_, 0);
    search->stamp_ = 0;
  }
  const uint32_t stamp = ++search->stamp_;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) {
      continue;
    }
    const FeatureIds* ids = ids_.Find(AccessHash(event.access));
    if (ids == nullptr) {
      continue;
    }
    if (event.access.type == AccessType::kWrite) {
      if (ids->group != kNoId && search->group_stamp_[ids->group] != stamp) {
        search->group_stamp_[ids->group] = stamp;
        search->groups_hit_.push_back(ids->group);
      }
    } else if (ids->read != kNoId) {
      search->read_stamp_[ids->read] = stamp;
    }
  }
  for (uint32_t group : search->groups_hit_) {
    for (uint32_t c = group_begin_[group]; c < group_begin_[group + 1]; c++) {
      const Candidate& candidate = candidates_[c];
      if (search->read_stamp_[candidate.read] != stamp ||
          current_keys.Contains(candidate.key_hash)) {
        continue;
      }
      search->matches_.push_back(candidate.pmc);
      if (search->matches_.size() >= kMaxMatches) {
        return;
      }
    }
  }
}

// --------------------------------------------------------------------------------------------
// PmcScheduler.
// --------------------------------------------------------------------------------------------

void PmcScheduler::ResetForTest(const PmcKey& initial_pmc) {
  current_pmcs_.clear();
  pmc_feature_hashes_.Clear();
  flags_.Clear();
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
  pmc_feature_hashes_.Insert(SideFeatureHash(pmc.write, AccessType::kWrite));
  pmc_feature_hashes_.Insert(SideFeatureHash(pmc.read, AccessType::kRead));
  addr_filter_.Add(pmc.write.addr);
  addr_filter_.Add(pmc.read.addr);
}

void PmcScheduler::RollbackAttempt() {
  for (uint64_t flag : flag_journal_) {
    flags_.Erase(flag);
  }
  flag_journal_.clear();
}

bool PmcScheduler::PerformedPmcAccess(const Access& access) const {
  return pmc_feature_hashes_.Contains(AccessHash(access));
}

bool PmcScheduler::PmcAccessComing(const Access& access) const {
  return flags_.Contains(AccessHash(access));
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
      if (flags_.Insert(flag)) {
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
  // Cross-trial dedup: the keys of the findings already recorded, one set per kind.
  std::array<FlatSet<uint64_t>, kFindingKindCount> seen_findings;
  Rng adoption_rng(options.seed ^ 0xadadadadull);

  // Trial-scoped buffers, hoisted: the guest functions, run result (trace storage), race
  // detector scratch, and incidental-search stamps are all built once and recycled, and
  // the scheduler's PMC and flag sets are flat tables, so a steady-state iteration of this
  // loop (adoption included) performs no heap allocation (trial_alloc_test asserts this on
  // the distilled loop).
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
  std::vector<FindingKey> trial_findings;
  PmcMatcher::Search incidental;

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

    // Each finding is triaged once, by the trial that first reports it: the record takes
    // its classification, its evidence and the schedule that produced it.
    detector_suite.Run(result, &detectors);
    FindingKeys(detectors, &trial_findings);
    std::optional<uint64_t> fingerprint;  // Of this trial, once it records a finding.
    bool target_hit = false;
    for (const FindingKey& finding : trial_findings) {
      if (!seen_findings[static_cast<size_t>(finding.kind)].Insert(finding.key)) {
        continue;
      }
      if (!fingerprint.has_value()) {
        fingerprint = DetectorFingerprint(detectors);
      }
      FindingRecord& record = outcome.findings.emplace_back();
      record.kind = finding.kind;
      record.key = finding.key;
      record.issue_id = ClassifyFinding(detectors, finding);
      record.evidence = DescribeFinding(detectors, finding);
      record.trial = trial;
      record.fingerprint = *fingerprint;
      record.schedule = recorder.schedule().ToString();
      record.orig_switches = static_cast<uint32_t>(recorder.schedule().SwitchCount());
      record.min_switches = record.orig_switches;
      // A classification is a function of the dedup key, so the first trial that reports
      // the target issue is the trial that records it.
      target_hit = target_hit ||
                   (options.target_issue != 0 && record.issue_id == options.target_issue);
    }
    if (!trial_findings.empty() && !outcome.bug_found) {
      outcome.bug_found = true;
      outcome.first_bug_trial = trial;
    }
    if (target_hit) {
      outcome.target_found = true;
      outcome.first_target_trial = trial;
      break;
    }

    // Lines 26-27: adopt one incidental PMC observed in this trial.
    if (adopt) {
      matcher->FindIncidental(result.trace, current_keys, &incidental);
      const std::vector<uint32_t>& matches = incidental.matches();
      if (!matches.empty()) {
        uint32_t pick = matches[adoption_rng.Below(matches.size())];
        const PmcKey& key = matcher->pmcs()[pick].key;
        if (current_keys.Insert(key.Hash())) {
          pmc_scheduler->AddPmc(key);
        }
      }
    }
  }

  outcome.switch_decisions = scheduler.switch_decisions() - switch_base - discarded_switches;
  if (prune) {
    scheduler.set_adaptive_sites(nullptr);  // The table dies with this test.
  }
  if (outcome.saturated) {
    TRACE_INSTANT("explore.test_saturated", static_cast<uint64_t>(outcome.trials_run));
  }

  // Kind first, then first sighting (ExploreOutcome::findings).
  std::stable_sort(
      outcome.findings.begin(), outcome.findings.end(),
      [](const FindingRecord& a, const FindingRecord& b) { return a.kind < b.kind; });

  // Shrink each recorded schedule toward the 2-preemption ideal. This runs after the trial
  // loop so it adds no fault points or hang ordinals (the crash-sweep's point count stays a
  // function of the campaign shape alone); under an injected crash the partial outcome is
  // discarded anyway, so the replays are skipped. Each probe is a deterministic replay, so
  // the minimized schedules — and everything serialized from them — are identical on any
  // worker count or engine configuration.
  if (options.minimize_schedules && !outcome.findings.empty() &&
      !(options.fault != nullptr && options.fault->crashed())) {
    // A replay is a pure function of the schedule string (same programs, same snapshot), so
    // each distinct candidate runs once per test: the findings of one trial share their
    // first probe, and most findings probe the switch-free schedule. A memo hit still
    // spends a probe of the minimizer's budget, so every search path is unchanged.
    struct ProbeResult {
      uint64_t fingerprint = 0;
      std::vector<FindingKey> findings;
    };
    std::unordered_map<std::string, ProbeResult> probe_memo;
    for (FindingRecord& record : outcome.findings) {
      std::optional<RecordedSchedule> recorded = RecordedSchedule::FromString(record.schedule);
      if (!recorded.has_value()) {
        continue;
      }
      uint64_t last_fingerprint = 0;
      auto probe = [&](const RecordedSchedule& candidate) {
        auto [memo, fresh] = probe_memo.try_emplace(candidate.ToString());
        if (fresh) {
          ReplaySchedule(vm, vcpu_fns, candidate, options.max_instructions, &detector_suite,
                         &result, &detectors);
          memo->second.fingerprint = DetectorFingerprint(detectors);
          FindingKeys(detectors, &memo->second.findings);
        }
        const std::vector<FindingKey>& findings = memo->second.findings;
        if (std::none_of(findings.begin(), findings.end(), [&](const FindingKey& f) {
              return f.kind == record.kind && f.key == record.key;
            })) {
          return false;
        }
        last_fingerprint = memo->second.fingerprint;
        return true;
      };
      MinimizeStats stats;
      RecordedSchedule minimized = MinimizeSchedule(*recorded, probe, MinimizeOptions(), &stats);
      if (stats.reproduced) {
        // The final successful probe ran exactly `minimized`, so its fingerprint is the
        // one a replay of this record will produce.
        record.schedule = minimized.ToString();
        record.fingerprint = last_fingerprint;
        record.min_switches = static_cast<uint32_t>(stats.min_switches);
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
