#include "src/snowboard/replay.h"

namespace snowboard {

std::string RecordedSchedule::ToString() const {
  std::string text;
  text.reserve(switch_after.size());
  for (bool decision : switch_after) {
    text.push_back(decision ? 'S' : '.');
  }
  return text;
}

std::optional<RecordedSchedule> RecordedSchedule::FromString(const std::string& text) {
  if (text.size() > kMaxScheduleLength) {
    return std::nullopt;
  }
  RecordedSchedule schedule;
  schedule.switch_after.reserve(text.size());
  for (char c : text) {
    if (c != '.' && c != 'S') {
      return std::nullopt;
    }
    schedule.switch_after.push_back(c == 'S');
  }
  return schedule;
}

size_t RecordedSchedule::SwitchCount() const {
  size_t count = 0;
  for (bool decision : switch_after) {
    count += decision ? 1 : 0;
  }
  return count;
}

void ReplaySchedule(KernelVm& vm, const std::vector<Engine::GuestFn>& programs,
                    const RecordedSchedule& schedule, uint64_t max_instructions,
                    DetectorSuite* detectors, Engine::RunResult* run, DetectorResult* out) {
  ReplayScheduler replayer(schedule);
  replayer.SeedTrial(0);
  Engine::RunOptions opts;
  opts.scheduler = &replayer;
  opts.max_instructions = max_instructions;
  vm.RestoreSnapshot();
  vm.engine().RunInto(programs, opts, run);
  detectors->Run(*run, out);
}

std::optional<ReplayToken> MakeReplayToken(const ConcurrentTest& test,
                                           const FindingRecord& record,
                                           const ExplorerOptions& options) {
  std::optional<RecordedSchedule> schedule = RecordedSchedule::FromString(record.schedule);
  if (!schedule.has_value()) {
    return std::nullopt;
  }
  ReplayToken token;
  token.issue_id = record.issue_id;
  token.write_test = test.write_test;
  token.read_test = test.read_test;
  token.trial_seed = options.seed + static_cast<uint64_t>(record.trial);
  token.max_instructions = options.max_instructions;
  token.fingerprint = record.fingerprint;
  token.schedule = std::move(*schedule);
  token.hint = test.hint;
  token.writer = test.writer;
  token.reader = test.reader;
  return token;
}

ReplayVerdict ReplayTokenTrial(KernelVm& vm, const ReplayToken& token) {
  const std::vector<Engine::GuestFn> programs = {
      MakeProgramRunner(vm.globals(), token.writer, 0),
      MakeProgramRunner(vm.globals(), token.reader, 1)};
  const uint64_t budget = token.max_instructions > 0 ? token.max_instructions
                                                     : Engine::RunOptions().max_instructions;
  Engine::RunResult result;
  DetectorSuite detectors;
  ReplayVerdict verdict;
  ReplaySchedule(vm, programs, token.schedule, budget, &detectors, &result, &verdict.detectors);
  verdict.completed = result.completed || result.panicked || result.hang;
  verdict.fingerprint = DetectorFingerprint(verdict.detectors);
  verdict.fingerprint_match = verdict.fingerprint == token.fingerprint;
  return verdict;
}

}  // namespace snowboard
