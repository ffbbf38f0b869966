// Shared fixtures for the tests that pin campaign outputs: the reference campaign, the
// handcrafted detector-prey suite (#18-#22), and byte-compared golden files.
//
// Goldens live in tests/corpus/ next to the replay tokens. They hold only for a build
// configured from the checkout path they were generated at (SB_SITE ids hash the
// absolute __FILE__), so every test that reads one carries the `replay` ctest label,
// never `fast`. Regenerate after an intentional output change with
//   SB_UPDATE_CORPUS=1 ./sb_tests --gtest_filter='<test>'
// and commit the rewritten files.
#ifndef TESTS_GOLDEN_H_
#define TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/ipc/port.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serialize.h"
#include "src/util/fs.h"

namespace snowboard {

inline std::string CorpusDir() { return SB_TEST_CORPUS_DIR; }

inline bool UpdateMode() {
  const char* env = std::getenv("SB_UPDATE_CORPUS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Byte-compares `actual` with tests/corpus/<name>. In update mode the first comparison
// per golden rewrites the file, so a loop over worker counts regenerates from its first
// run and still checks the rest against it.
inline void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  static std::set<std::string> rewritten;
  const std::string path = CorpusDir() + "/" + name;
  if (UpdateMode() && rewritten.insert(name).second) {
    ASSERT_TRUE(WriteStringToFile(path, actual)) << path;
  }
  std::optional<std::string> golden = ReadFileContents(path);
  ASSERT_TRUE(golden.has_value()) << "missing " << path
                                  << " (run with SB_UPDATE_CORPUS=1 to generate)";
  EXPECT_EQ(actual, *golden) << name << " diverges from the checked-in golden; "
                             << "regenerate with SB_UPDATE_CORPUS=1 if intentional";
}

// The reference campaign shared by the goldens, the replay corpus, the report tests and
// the prune A/B.
inline PipelineOptions ReferenceCampaignOptions(int num_workers) {
  PipelineOptions options;
  options.seed = 7;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 40;
  options.corpus.target_size = 32;
  options.strategy = Strategy::kSInsPair;
  options.max_concurrent_tests = 24;
  options.explorer.num_trials = 8;
  options.num_workers = num_workers;
  return options;
}

inline Program HandcraftedProgram(std::initializer_list<Call> calls) {
  Program p;
  p.calls = calls;
  return p;
}

inline Call HandcraftedCall(uint32_t nr, std::initializer_list<int64_t> args) {
  Call call;
  call.nr = nr;
  int i = 0;
  for (int64_t a : args) {
    call.args[i++] = Arg::Const(a);
  }
  return call;
}

inline ConcurrentTest HandcraftedPair(Program writer, Program reader, int base_id) {
  ConcurrentTest test;
  test.writer = std::move(writer);
  test.reader = std::move(reader);
  test.write_test = base_id;
  test.read_test = base_id + 1;
  return test;
}

// The fuzzer's vocabulary is frozen at the original 24 syscalls, so the generated
// reference campaign never reaches the seeded deadlock/lost-wakeup/livelock prey. This
// fixed handcrafted test set does, one pair per issue.
inline std::vector<ConcurrentTest> DetectorPreyTests() {
  std::vector<ConcurrentTest> tests;
  // #18: blocking recv vs send (generation re-sampled after the empty check). The
  // receiver runs on vCPU 0 so a single preemption inside the seeded window lets the
  // sender's count++/wake land before the stale generation sample — one switch, not two.
  tests.push_back(HandcraftedPair(
      HandcraftedProgram({HandcraftedCall(kSysPortRecv, {0, kPortRecvWait})}),
      HandcraftedProgram({HandcraftedCall(kSysPortSend, {0})}), 100));
  // #19: mount vs umount lock-order inversion.
  tests.push_back(HandcraftedPair(HandcraftedProgram({HandcraftedCall(kSysMount, {}),
                                                      HandcraftedCall(kSysMount, {}),
                                                      HandcraftedCall(kSysMount, {})}),
                                  HandcraftedProgram({HandcraftedCall(kSysUmount, {0}),
                                                      HandcraftedCall(kSysUmount, {0}),
                                                      HandcraftedCall(kSysUmount, {0})}),
                                  102));
  // #20: racing umounts leak a superblock ref; the waiter spins forever.
  Program mount_umount_wait = HandcraftedProgram(
      {HandcraftedCall(kSysMount, {}), HandcraftedCall(kSysUmount, {kUmountWait})});
  tests.push_back(HandcraftedPair(mount_umount_wait, mount_umount_wait, 104));
  // #21: port pair transferred in opposite argument orders (AB/BA).
  tests.push_back(HandcraftedPair(
      HandcraftedProgram({HandcraftedCall(kSysPortTransfer, {0, 1}),
                          HandcraftedCall(kSysPortTransfer, {0, 1})}),
      HandcraftedProgram({HandcraftedCall(kSysPortTransfer, {1, 0}),
                          HandcraftedCall(kSysPortTransfer, {1, 0})}),
      106));
  // #22: blocking recv vs close (the shutdown wake lands in the seeded window).
  tests.push_back(HandcraftedPair(
      HandcraftedProgram({HandcraftedCall(kSysPortRecv, {0, kPortRecvWait})}),
      HandcraftedProgram({HandcraftedCall(kSysPortClose, {0})}), 108));
  return tests;
}

inline PipelineOptions DetectorPreyOptions(int num_workers) {
  PipelineOptions options;
  options.seed = 7;
  options.strategy = Strategy::kRandomPairing;
  options.num_workers = num_workers;
  options.explorer.seed = 2021;
  options.explorer.num_trials = 256;
  // Livelocked trials spin until the budget trips; the detectors only need the tail
  // window, so a small budget keeps the suite fast without masking any finding.
  options.explorer.max_instructions = 60'000;
  return options;
}

}  // namespace snowboard

#endif  // TESTS_GOLDEN_H_
