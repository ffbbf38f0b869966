#include "src/snowboard/serve.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/report_html.h"
#include "src/util/fs.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace snowboard {

namespace {

constexpr const char* kSpecHeader = "snowboard-campaign-spec-v2";
// v1 specs carried a `streaming 0|1` engine switch. They stay readable so a fleet root
// written before v2 re-adopts its campaigns; the key is accepted there and dropped.
constexpr const char* kSpecHeaderV1 = "snowboard-campaign-spec-v1";
constexpr const char* kDoneTag = "sb-done-v1";

}  // namespace

std::string SerializeCampaignSpec(const CampaignSpec& spec) {
  std::string out = std::string(kSpecHeader) + "\n";
  StrAppendf(&out, "name %s\n", spec.name.c_str());
  StrAppendf(&out, "seed %llu\n", static_cast<unsigned long long>(spec.seed));
  StrAppendf(&out, "strategy %s\n", StrategyToken(spec.strategy));
  StrAppendf(&out, "corpus-size %d\n", spec.corpus_size);
  StrAppendf(&out, "corpus-iters %d\n", spec.corpus_iters);
  StrAppendf(&out, "budget %llu\n", static_cast<unsigned long long>(spec.budget));
  StrAppendf(&out, "trials %d\n", spec.trials);
  StrAppendf(&out, "workers %d\n", spec.workers);
  StrAppendf(&out, "priority %d\n", spec.priority);
  StrAppendf(&out, "detectors %s\n", FormatDetectorMask(spec.detectors).c_str());
  StrAppendf(&out, "prune %d\n", spec.prune ? 1 : 0);
  StrAppendf(&out, "prune-saturation %d\n", spec.prune_saturation);
  return out;
}

std::optional<CampaignSpec> ParseCampaignSpec(const std::string& text) {
  CampaignSpec spec;
  bool saw_header = false;
  bool v1 = false;
  bool saw_name = false;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    std::string line =
        text.substr(start, end == std::string::npos ? std::string::npos : end - start);
    start = end == std::string::npos ? text.size() : end + 1;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();  // Tolerate CRLF submissions (curl --data-binary from Windows).
    }
    if (line.empty()) {
      continue;
    }
    if (!saw_header) {
      v1 = line == kSpecHeaderV1;
      if (line != kSpecHeader && !v1) {
        return std::nullopt;
      }
      saw_header = true;
      continue;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return std::nullopt;
    }
    std::string key = line.substr(0, space);
    std::string value = line.substr(space + 1);
    uint64_t u64 = 0;
    int i32 = 0;
    if (key == "name") {
      spec.name = value;
      saw_name = true;
    } else if (key == "seed" && ParseU64(value, &u64)) {
      spec.seed = u64;
    } else if (key == "strategy" && StrategyFromName(value, &spec.strategy)) {
      // Parsed in the condition.
    } else if (key == "corpus-size" && ParseInt(value, &i32)) {
      spec.corpus_size = i32;
    } else if (key == "corpus-iters" && ParseInt(value, &i32)) {
      spec.corpus_iters = i32;
    } else if (key == "budget" && ParseU64(value, &u64)) {
      spec.budget = static_cast<size_t>(u64);
    } else if (key == "trials" && ParseInt(value, &i32)) {
      spec.trials = i32;
    } else if (key == "workers" && ParseInt(value, &i32)) {
      spec.workers = i32;
    } else if (key == "priority" && ParseInt(value, &i32)) {
      spec.priority = i32;
    } else if (key == "detectors" && ParseDetectorMask(value, &spec.detectors)) {
      // Parsed in the condition.
    } else if (v1 && key == "streaming" && ParseInt(value, &i32) &&
               (i32 == 0 || i32 == 1)) {
      // Dropped: there is one campaign engine.
    } else if (key == "prune" && ParseInt(value, &i32) && (i32 == 0 || i32 == 1)) {
      spec.prune = i32 == 1;
    } else if (key == "prune-saturation" && ParseInt(value, &i32)) {
      spec.prune_saturation = i32;
    } else {
      return std::nullopt;  // Unknown key or malformed value: reject, never guess.
    }
  }
  if (!saw_header || !saw_name || !CampaignSpecError(spec).empty()) {
    return std::nullopt;
  }
  return spec;
}

std::string CampaignSpecError(const CampaignSpec& spec) {
  if (!CheckpointStore::ValidName(spec.name)) {
    return "invalid campaign name (use [A-Za-z0-9._-])";
  }
  const char* low = spec.corpus_size < 1        ? "corpus-size"
                    : spec.corpus_iters < 1     ? "corpus-iters"
                    : spec.budget < 1           ? "budget"
                    : spec.trials < 1           ? "trials"
                    : spec.workers < 1          ? "workers"
                    : spec.prune_saturation < 1 ? "prune-saturation"
                                                : nullptr;
  return low == nullptr ? "" : std::string(low) + " must be >= 1";
}

PipelineOptions CampaignPipelineOptions(const CampaignSpec& spec,
                                        const std::string& checkpoint_dir,
                                        int granted_workers, int journal_flush_records) {
  PipelineOptions options;
  options.seed = spec.seed;
  options.corpus.seed = spec.seed * 41 + 1;
  options.corpus.target_size = spec.corpus_size;
  options.corpus.max_iterations = spec.corpus_iters;
  options.strategy = spec.strategy;
  options.max_concurrent_tests = spec.budget;
  options.explorer.num_trials = spec.trials;
  options.explorer.detectors = spec.detectors;
  options.explorer.prune.enabled = spec.prune;
  options.explorer.prune.saturation_window = spec.prune_saturation;
  options.num_workers = granted_workers;
  options.checkpoint_dir = checkpoint_dir;
  options.journal_flush_records = journal_flush_records;
  return options;
}

const char* CampaignStateName(CampaignState state) {
  switch (state) {
    case CampaignState::kQueued:
      return "queued";
    case CampaignState::kRunning:
      return "running";
    case CampaignState::kDone:
      return "done";
    case CampaignState::kFailed:
      return "failed";
    case CampaignState::kCancelled:
      return "cancelled";
  }
  return "<unknown>";
}

std::string FormatDoneMarker(const DoneMarker& marker) {
  return std::string(kDoneTag) + " " + std::to_string(marker.tests_executed) + " " +
         std::to_string(marker.findings) + "\n";
}

std::optional<DoneMarker> ParseDoneMarker(const std::string& text) {
  // The trailing newline is required, so a cut inside the last count cannot parse as a
  // smaller one.
  if (text.empty() || text.back() != '\n') {
    return std::nullopt;
  }
  std::string line = text.substr(0, text.size() - 1);
  size_t first = line.find(' ');
  size_t second = first == std::string::npos ? first : line.find(' ', first + 1);
  DoneMarker marker;
  if (second == std::string::npos || line.substr(0, first) != kDoneTag ||
      !ParseU64(line.substr(first + 1, second - first - 1), &marker.tests_executed) ||
      !ParseU64(line.substr(second + 1), &marker.findings)) {
    return std::nullopt;
  }
  return marker;
}

// The idle condition variable lives out-of-line so the header needs no <condition_variable>
// include; one per process is fine because waits re-check per-server predicates.
namespace {
std::condition_variable& IdleCv() {
  static std::condition_variable* cv = new std::condition_variable;
  return *cv;
}
}  // namespace

FleetServer::FleetServer(const FleetOptions& options) : options_(options) {
  if (options_.total_workers < 1) {
    options_.total_workers = 1;
  }
  if (options_.max_active < 1) {
    options_.max_active = 1;
  }
  ok_ = EnsureDirectory(options_.root);
  if (!ok_) {
    SB_LOG(kWarn) << "serve: cannot create fleet root " << options_.root;
    return;
  }
  AdoptExisting();
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeStartLocked();
}

FleetServer::~FleetServer() { Drain(); }

bool FleetServer::ok() const { return ok_; }

std::string FleetServer::DirFor(const std::string& id) const {
  return options_.root + "/" + id;
}

std::string FleetServer::CheckpointDirFor(const std::string& id) const {
  return DirFor(id) + "/checkpoint";
}

void FleetServer::AdoptExisting() {
  // Deterministic adoption order: directory names sorted. Only directories holding a
  // spec.txt count — a submit that died before committing the spec left nothing adoptable.
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.root, ec)) {
    if (entry.is_directory()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& name : names) {
    std::optional<std::string> spec_text = ReadFileContents(DirFor(name) + "/spec.txt");
    if (!spec_text.has_value()) {
      continue;
    }
    auto campaign = std::make_unique<Campaign>();
    std::optional<CampaignSpec> spec = ParseCampaignSpec(*spec_text);
    campaign->submit_sequence = ++next_submit_sequence_;
    if (!spec.has_value() || spec->name != name) {
      campaign->spec.name = name;
      campaign->state = CampaignState::kFailed;
      campaign->error = "unreadable or mismatched spec.txt";
    } else {
      campaign->spec = *spec;
      if (PathExists(DirFor(name) + "/cancelled")) {
        campaign->state = CampaignState::kCancelled;
      } else {
        std::optional<std::string> done = ReadFileContents(DirFor(name) + "/done");
        std::optional<DoneMarker> marker;
        if (done.has_value()) {
          marker = ParseDoneMarker(*done);
        }
        if (marker.has_value()) {
          campaign->state = CampaignState::kDone;
          campaign->tests_executed = marker->tests_executed;
          campaign->findings = marker->findings;
        } else {
          // Queued, or mid-flight when the previous daemon died, or completed under a
          // marker that does not parse: the checkpoint directory holds everything durable
          // and the campaign re-runs with resume, re-executing only what was never
          // journaled.
          campaign->state = CampaignState::kQueued;
        }
      }
    }
    by_id_[name] = campaign.get();
    campaigns_.push_back(std::move(campaign));
  }
}

bool FleetServer::CheckDeadLocked() {
  if (!dead_ && options_.fault != nullptr && options_.fault->crashed()) {
    DeclareDeadLocked();
  }
  return dead_;
}

void FleetServer::DeclareDeadLocked() {
  if (dead_) {
    return;
  }
  dead_ = true;
  for (std::unique_ptr<Campaign>& campaign : campaigns_) {
    if (campaign->state == CampaignState::kRunning) {
      campaign->stopper.Kill("serve.dead");
    }
  }
  IdleCv().notify_all();
}

void FleetServer::MaybeStartLocked() {
  while (!paused_ && !draining_ && !dead_) {
    int free = options_.total_workers - granted_total_;
    if (free < 1 || running_count_ >= options_.max_active) {
      return;
    }
    // Pick the queued campaign with the highest priority (ties: submission order), and
    // count the runnable set for the fair share.
    Campaign* best = nullptr;
    int queued = 0;
    for (std::unique_ptr<Campaign>& campaign : campaigns_) {
      if (campaign->state != CampaignState::kQueued) {
        continue;
      }
      queued++;
      if (best == nullptr || campaign->spec.priority > best->spec.priority) {
        best = campaign.get();
      }
    }
    if (best == nullptr) {
      return;
    }
    // Fair share: with R campaigns runnable (running + queued), nobody is granted more
    // than W/R workers (min 1), so a wide early campaign cannot starve later submissions
    // of the whole pool. The request is a ceiling, never a floor.
    int runnable = running_count_ + queued;
    int fair_cap = std::max(1, options_.total_workers / std::max(1, runnable));
    int grant = std::max(1, std::min({best->spec.workers, free, fair_cap}));
    best->granted = grant;
    granted_total_ += grant;
    running_count_++;
    best->state = CampaignState::kRunning;
    best->start_sequence = ++next_start_sequence_;
    best->stopper.SetParent(options_.fault);
    // Join finished runners before adding one: an exited, unjoined thread keeps its stack
    // until Drain. A settled runner never takes the lock again; the calling runner waits
    // for the next start, and nothing joins here once Drain has begun.
    for (std::unique_ptr<Campaign>& campaign : campaigns_) {
      if (campaign->state != CampaignState::kRunning && campaign->runner.joinable() &&
          campaign->runner.get_id() != std::this_thread::get_id()) {
        campaign->runner.join();
      }
    }
    best->runner = std::thread([this, best]() { RunnerMain(best); });
  }
}

void FleetServer::RunnerMain(Campaign* campaign) {
  PipelineOptions run_options =
      CampaignPipelineOptions(campaign->spec, CheckpointDirFor(campaign->spec.name),
                              campaign->granted, options_.journal_flush_records);
  // Always resume: a fresh directory resumes from nothing, a re-adopted one from its
  // journal, and a fingerprint mismatch (spec changed under the same name) resets — one
  // code path, no first-run special case.
  run_options.resume = true;
  run_options.fault = &campaign->stopper;
  OnCampaignFinished(campaign, run_options, RunSnowboardPipeline(run_options));
}

void FleetServer::OnCampaignFinished(Campaign* campaign,
                                     const PipelineOptions& run_options,
                                     const PipelineResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  granted_total_ -= campaign->granted;
  running_count_--;
  campaign->granted = 0;
  if (!campaign->stopper.crashed()) {
    // Ran to completion: commit report.json + report.html, then the done marker — the
    // marker is the commit point, so a death anywhere in this sequence leaves a campaign
    // that re-runs (cheaply, fully journaled) and rewrites the same bytes.
    std::string dir = DirFor(campaign->spec.name);
    CampaignReport report = BuildCampaignReport(run_options, result);
    DoneMarker marker{result.tests_executed, result.findings.first_findings().size()};
    bool committed =
        AtomicWriteFile(dir + "/report.json", RenderReportJson(report), options_.fault) &&
        AtomicWriteFile(dir + "/report.html", RenderReportHtml(report), options_.fault) &&
        AtomicWriteFile(dir + "/done", FormatDoneMarker(marker), options_.fault);
    if (committed) {
      campaign->tests_executed = marker.tests_executed;
      campaign->findings = marker.findings;
      campaign->state = CampaignState::kDone;
    } else if (CheckDeadLocked()) {
      campaign->state = CampaignState::kQueued;  // The next daemon re-adopts and re-runs.
    } else {
      campaign->state = CampaignState::kFailed;
      campaign->error = "cannot write campaign report";
    }
  } else if (CheckDeadLocked()) {
    // Daemon death: the campaign goes back to "queued on disk" — in-memory state says so
    // too, so a status probe during shutdown reports the truth.
    campaign->state = CampaignState::kQueued;
  } else if (campaign->cancel_requested) {
    // Cooperative cancel completed, even when a drain landed after it: the cancel was
    // acknowledged, so the marker makes it durable. The checkpoint stays valid and
    // resumable (minus at most one unflushed journal batch, exactly as a crash would lose).
    if (!AtomicWriteFile(DirFor(campaign->spec.name) + "/cancelled", "cancelled\n",
                         options_.fault)) {
      CheckDeadLocked();  // Marker write can only fail here by injected daemon death.
    }
    campaign->state = CampaignState::kCancelled;
  } else if (draining_) {
    campaign->state = CampaignState::kQueued;  // The next daemon re-adopts and resumes it.
  } else {
    // The stopper crashed without cancel/drain/death: a campaign-level injected fault
    // (not used by the daemon itself, but reachable through custom specs in tests).
    campaign->state = CampaignState::kFailed;
    campaign->error = std::string("campaign crashed at ") + campaign->stopper.crash_site();
  }
  MaybeStartLocked();
  IdleCv().notify_all();
}

FleetRc FleetServer::Submit(const CampaignSpec& spec, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (CheckDeadLocked()) {
    *error = "daemon is dead (injected fault)";
    return FleetRc::kUnavailable;
  }
  if (draining_) {
    *error = "daemon is draining";
    return FleetRc::kUnavailable;
  }
  if (std::string invalid = CampaignSpecError(spec); !invalid.empty()) {
    *error = invalid;
    return FleetRc::kInvalid;
  }
  if (by_id_.count(spec.name) != 0) {
    *error = "duplicate campaign id";
    return FleetRc::kConflict;
  }
  if (!EnsureDirectory(DirFor(spec.name))) {
    *error = "cannot create campaign directory";
    return FleetRc::kIoError;
  }
  // The durable admission point: after this write the campaign exists across daemon
  // restarts. An injected death here is the "accepted but never acknowledged" case —
  // the client must re-submit and tolerate a duplicate-id answer.
  if (!AtomicWriteFile(DirFor(spec.name) + "/spec.txt", SerializeCampaignSpec(spec),
                       options_.fault)) {
    if (CheckDeadLocked()) {
      *error = "daemon died during submit";
      return FleetRc::kUnavailable;
    }
    *error = "cannot persist campaign spec";
    return FleetRc::kIoError;
  }
  auto campaign = std::make_unique<Campaign>();
  campaign->spec = spec;
  campaign->submit_sequence = ++next_submit_sequence_;
  by_id_[spec.name] = campaign.get();
  campaigns_.push_back(std::move(campaign));
  MaybeStartLocked();
  return FleetRc::kOk;
}

FleetRc FleetServer::Cancel(const std::string& id, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (CheckDeadLocked()) {
    *error = "daemon is dead (injected fault)";
    return FleetRc::kUnavailable;
  }
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    *error = "unknown campaign";
    return FleetRc::kNotFound;
  }
  Campaign* campaign = it->second;
  switch (campaign->state) {
    case CampaignState::kQueued:
      if (!AtomicWriteFile(DirFor(id) + "/cancelled", "cancelled\n", options_.fault)) {
        if (CheckDeadLocked()) {
          *error = "daemon died during cancel";
          return FleetRc::kUnavailable;
        }
        *error = "cannot persist cancel marker";
        return FleetRc::kIoError;
      }
      campaign->state = CampaignState::kCancelled;
      IdleCv().notify_all();
      return FleetRc::kOk;
    case CampaignState::kRunning:
      // Cooperative kill: the campaign unwinds at its next fault point; the runner writes
      // the durable marker on the way out (OnCampaignFinished).
      campaign->cancel_requested = true;
      campaign->stopper.Kill("serve.cancel");
      return FleetRc::kOk;
    default:
      *error = std::string("campaign already ") + CampaignStateName(campaign->state);
      return FleetRc::kConflict;
  }
}

CampaignStatus FleetServer::StatusLocked(const Campaign& campaign) const {
  CampaignStatus status;
  status.id = campaign.spec.name;
  status.state = campaign.state;
  status.strategy = StrategyToken(campaign.spec.strategy);
  status.priority = campaign.spec.priority;
  status.workers_requested = campaign.spec.workers;
  status.workers_granted = campaign.granted;
  status.seed = campaign.spec.seed;
  status.submit_sequence = campaign.submit_sequence;
  status.start_sequence = campaign.start_sequence;
  status.error = campaign.error;
  if (campaign.state == CampaignState::kDone) {
    status.tests_executed = campaign.tests_executed;
    status.findings = campaign.findings;
  }
  status.report_ready = PathExists(DirFor(campaign.spec.name) + "/report.json");
  return status;
}

size_t FleetServer::JournaledTests(const std::string& id, Strategy strategy) const {
  return ReadJournalFile(CheckpointDirFor(id), std::string("execute.") + StrategyName(strategy))
      .size();
}

std::optional<CampaignStatus> FleetServer::Status(const std::string& id) {
  CampaignStatus status;
  Strategy strategy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      return std::nullopt;
    }
    status = StatusLocked(*it->second);
    strategy = it->second->spec.strategy;
  }
  status.tests_journaled = JournaledTests(id, strategy);
  return status;
}

std::vector<CampaignStatus> FleetServer::List() {
  std::vector<CampaignStatus> out;
  std::vector<Strategy> strategies;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::unique_ptr<Campaign>& campaign : campaigns_) {
      out.push_back(StatusLocked(*campaign));
      strategies.push_back(campaign->spec.strategy);
    }
  }
  for (size_t i = 0; i < out.size(); i++) {
    out[i].tests_journaled = JournaledTests(out[i].id, strategies[i]);
  }
  return out;
}

std::optional<std::string> FleetServer::ReportJson(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (by_id_.count(id) == 0) {
      return std::nullopt;
    }
  }
  return ReadFileContents(DirFor(id) + "/report.json");
}

std::optional<std::string> FleetServer::SpecText(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (by_id_.count(id) == 0) {
      return std::nullopt;
    }
  }
  return ReadFileContents(DirFor(id) + "/spec.txt");
}

void FleetServer::Drain() {
  std::vector<Campaign*> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    for (std::unique_ptr<Campaign>& campaign : campaigns_) {
      if (campaign->state == CampaignState::kRunning) {
        campaign->stopper.Kill("serve.drain");
      }
      to_join.push_back(campaign.get());
    }
    IdleCv().notify_all();
  }
  // Join outside the lock: runner threads take it in OnCampaignFinished on their way out.
  // Each campaign spawns at most one runner per server lifetime (draining_ blocks
  // restarts), so a joined thread stays joined.
  for (Campaign* campaign : to_join) {
    if (campaign->runner.joinable()) {
      campaign->runner.join();
    }
  }
}

bool FleetServer::dead() {
  std::lock_guard<std::mutex> lock(mutex_);
  return CheckDeadLocked();
}

void FleetServer::SetPaused(bool paused) {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = paused;
  if (!paused_) {
    MaybeStartLocked();
  }
  IdleCv().notify_all();
}

int FleetServer::granted_workers() {
  std::lock_guard<std::mutex> lock(mutex_);
  return granted_total_;
}

void FleetServer::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  IdleCv().wait(lock, [&]() {
    if (running_count_ > 0) {
      return false;
    }
    if (paused_ || draining_ || dead_) {
      return true;
    }
    for (std::unique_ptr<Campaign>& campaign : campaigns_) {
      if (campaign->state == CampaignState::kQueued) {
        return false;  // Would have been started; a start is imminent.
      }
    }
    return true;
  });
}

std::string CampaignStatusJson(const CampaignStatus& status) {
  std::string out = "{\n";
  StrAppendf(&out, "  \"id\": \"%s\",\n", JsonEscape(status.id).c_str());
  StrAppendf(&out, "  \"state\": \"%s\",\n", CampaignStateName(status.state));
  StrAppendf(&out, "  \"strategy\": \"%s\",\n", JsonEscape(status.strategy).c_str());
  StrAppendf(&out, "  \"priority\": %d,\n", status.priority);
  StrAppendf(&out, "  \"workers_requested\": %d,\n", status.workers_requested);
  StrAppendf(&out, "  \"workers_granted\": %d,\n", status.workers_granted);
  StrAppendf(&out, "  \"seed\": %llu,\n", static_cast<unsigned long long>(status.seed));
  StrAppendf(&out, "  \"submit_sequence\": %llu,\n",
             static_cast<unsigned long long>(status.submit_sequence));
  StrAppendf(&out, "  \"start_sequence\": %llu,\n",
             static_cast<unsigned long long>(status.start_sequence));
  StrAppendf(&out, "  \"tests_executed\": %zu,\n", status.tests_executed);
  StrAppendf(&out, "  \"tests_journaled\": %zu,\n", status.tests_journaled);
  StrAppendf(&out, "  \"findings\": %zu,\n", status.findings);
  StrAppendf(&out, "  \"report_ready\": %s,\n", status.report_ready ? "true" : "false");
  StrAppendf(&out, "  \"error\": \"%s\"\n", JsonEscape(status.error).c_str());
  out += "}\n";
  return out;
}

std::string FleetStatusJson(FleetServer& server) {
  std::vector<CampaignStatus> all = server.List();
  size_t by_state[5] = {0, 0, 0, 0, 0};
  for (const CampaignStatus& status : all) {
    by_state[static_cast<size_t>(status.state)]++;
  }
  std::string out = "{\n";
  StrAppendf(&out, "  \"workers_total\": %d,\n", server.total_workers());
  StrAppendf(&out, "  \"workers_granted\": %d,\n", server.granted_workers());
  StrAppendf(&out, "  \"campaigns\": %zu,\n", all.size());
  StrAppendf(&out, "  \"queued\": %zu,\n",
             by_state[static_cast<size_t>(CampaignState::kQueued)]);
  StrAppendf(&out, "  \"running\": %zu,\n",
             by_state[static_cast<size_t>(CampaignState::kRunning)]);
  StrAppendf(&out, "  \"done\": %zu,\n",
             by_state[static_cast<size_t>(CampaignState::kDone)]);
  StrAppendf(&out, "  \"failed\": %zu,\n",
             by_state[static_cast<size_t>(CampaignState::kFailed)]);
  StrAppendf(&out, "  \"cancelled\": %zu,\n",
             by_state[static_cast<size_t>(CampaignState::kCancelled)]);
  StrAppendf(&out, "  \"dead\": %s\n", server.dead() ? "true" : "false");
  out += "}\n";
  return out;
}

}  // namespace snowboard
