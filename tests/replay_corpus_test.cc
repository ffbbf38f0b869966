// Replay regression corpus: the checked-in tokens under tests/corpus/ are shippable
// reproducers for the findings the reference campaign surfaces. Three bars, held
// forever once a token is checked in:
//   1. Every corpus token still parses and replays to its exact recorded detector
//      fingerprint — on a fresh VM, with delta restore on or off.
//   2. Re-running the reference campaign reproduces the corpus tokens BYTE-identically,
//      at 1/2/4/8 workers. A token is part of the deterministic output surface, exactly
//      like the serialized result.
//   3. The deliberately-divergent token (valid checksum, flipped fingerprint) parses but
//      fails fingerprint verification — the divergence path the CLI turns into exit 3.
//
// Regenerate after an intentional format or schedule change with:
//   SB_UPDATE_CORPUS=1 ./sb_tests --gtest_filter='ReplayCorpusTest.*'
// and commit the rewritten tests/corpus/*.token files.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/serialize.h"
#include "src/util/fs.h"
#include "tests/golden.h"

namespace snowboard {
namespace {

// Runs the reference campaign and returns issue id -> replay token text.
std::map<int, std::string> CampaignTokens(int num_workers) {
  PipelineResult result = RunSnowboardPipeline(ReferenceCampaignOptions(num_workers));
  std::map<int, std::string> tokens;
  for (const auto& [id, finding] : result.findings.first_findings()) {
    EXPECT_FALSE(finding.replay_token.empty())
        << "finding " << id << " shipped without a replay token";
    tokens[id] = finding.replay_token;
  }
  return tokens;
}

std::string TrimTrailingWhitespace(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r' ||
                           text.back() == ' ' || text.back() == '\t')) {
    text.pop_back();
  }
  return text;
}

// Reads the checked-in issue-<id>.token files (divergent.token excluded).
std::map<int, std::string> CheckedInTokens() {
  std::map<int, std::string> tokens;
  if (!std::filesystem::is_directory(CorpusDir())) {
    return tokens;
  }
  for (const auto& entry : std::filesystem::directory_iterator(CorpusDir())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("issue-", 0) != 0 || entry.path().extension() != ".token") {
      continue;
    }
    int id = std::atoi(name.substr(6).c_str());
    std::optional<std::string> contents = ReadFileContents(entry.path().string());
    if (contents.has_value()) {
      tokens[id] = TrimTrailingWhitespace(*contents);
    }
  }
  return tokens;
}

// Rewrites the corpus from the 1-worker reference campaign (SB_UPDATE_CORPUS=1).
void UpdateCorpus(const std::map<int, std::string>& tokens) {
  ASSERT_TRUE(EnsureDirectory(CorpusDir()));
  for (const auto& [id, token] : tokens) {
    std::string path = CorpusDir() + "/issue-" + std::to_string(id) + ".token";
    ASSERT_TRUE(WriteStringToFile(path, token + "\n")) << path;
  }
  // The divergent token: same trial, flipped expected fingerprint, valid checksum. It
  // must parse but fail verification — the cli smoke test drives exit code 3 with it.
  ASSERT_FALSE(tokens.empty());
  std::optional<ReplayToken> first = ParseReplayToken(tokens.begin()->second);
  ASSERT_TRUE(first.has_value());
  first->fingerprint ^= 1;
  ASSERT_TRUE(WriteStringToFile(CorpusDir() + "/divergent.token",
                                FormatReplayToken(*first) + "\n"));
}

// --- Detector-prey reference suite (#18-#22, tests/golden.h). ---
//
// The corpus tokens for the detector prey come from the fixed handcrafted test set,
// executed through the SAME campaign engine (ExecuteCampaign: shared worker pool,
// journaling, token assembly) — which also holds the detectors to the worker-count
// determinism bar above.

// Runs the handcrafted suite through the campaign execute stage; issue id -> token.
std::map<int, std::string> DetectorCampaignTokens(int num_workers) {
  PipelineOptions options = DetectorPreyOptions(num_workers);
  PipelineResult result;
  ExecuteCampaign(DetectorPreyTests(), /*use_pmc_hints=*/false, nullptr, options, &result);
  std::map<int, std::string> tokens;
  for (const auto& [id, finding] : result.findings.first_findings()) {
    EXPECT_GE(id, 18) << "stray non-detector finding: " << finding.evidence;
    EXPECT_FALSE(finding.replay_token.empty())
        << "finding " << id << " shipped without a replay token";
    tokens[id] = finding.replay_token;
  }
  return tokens;
}

TEST(ReplayCorpusTest, DetectorCampaignTokensMatchCorpusAcrossWorkers) {
  std::map<int, std::string> base = DetectorCampaignTokens(/*num_workers=*/1);
  // Every seeded detector issue must be exposed and tokenized.
  std::set<int> ids;
  for (const auto& [id, token] : base) {
    ids.insert(id);
  }
  EXPECT_EQ(ids, (std::set<int>{18, 19, 20, 21, 22}));

  if (UpdateMode()) {
    ASSERT_TRUE(EnsureDirectory(CorpusDir()));
    for (const auto& [id, token] : base) {
      std::string path = CorpusDir() + "/issue-" + std::to_string(id) + ".token";
      ASSERT_TRUE(WriteStringToFile(path, token + "\n")) << path;
    }
  }

  std::map<int, std::string> corpus = CheckedInTokens();
  for (const auto& [id, token] : base) {
    EXPECT_EQ(corpus[id], token)
        << "checked-in token for issue " << id << " diverges from the reference suite; "
           "regenerate with SB_UPDATE_CORPUS=1 if intentional";
  }

  // Same determinism bar as the fuzzed campaign: byte-identical tokens at any worker
  // count.
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    EXPECT_EQ(DetectorCampaignTokens(workers), base);
  }
}

TEST(ReplayCorpusTest, CampaignTokensMatchCorpusAcrossWorkers) {
  std::map<int, std::string> base = CampaignTokens(/*num_workers=*/1);
  ASSERT_FALSE(base.empty()) << "the reference campaign surfaced no findings";
  if (UpdateMode()) {
    UpdateCorpus(base);
  }

  // The corpus also holds the detector-prey tokens (#18-#22, from the handcrafted suite
  // above); the fuzzed reference campaign owns everything below that range.
  std::map<int, std::string> corpus = CheckedInTokens();
  std::erase_if(corpus, [](const auto& entry) { return entry.first >= 18; });
  EXPECT_EQ(corpus, base) << "checked-in corpus diverges from the reference campaign; "
                             "regenerate with SB_UPDATE_CORPUS=1 if intentional";

  // The token is part of the deterministic output surface: byte-identical at any worker
  // count.
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    EXPECT_EQ(CampaignTokens(workers), base);
  }
}

TEST(ReplayCorpusTest, CorpusTokensReplayToTheirFingerprint) {
  std::map<int, std::string> corpus = CheckedInTokens();
  ASSERT_FALSE(corpus.empty()) << "no tokens under " << CorpusDir()
                               << " (run with SB_UPDATE_CORPUS=1 to generate)";
  for (const auto& [id, text] : corpus) {
    SCOPED_TRACE(testing::Message() << "issue " << id);
    std::optional<ReplayToken> token = ParseReplayToken(text);
    ASSERT_TRUE(token.has_value()) << text;
    EXPECT_EQ(token->issue_id, id);

    // Replay on a fresh VM reproduces the recorded fingerprint exactly.
    KernelVm vm;
    ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
    EXPECT_TRUE(verdict.completed);
    EXPECT_TRUE(verdict.fingerprint_match)
        << "expected " << token->fingerprint << ", observed " << verdict.fingerprint;

    // Delta restore is a pure optimization: the reference full-restore path must replay
    // to the identical fingerprint.
    KernelVm::SetDeltaRestoreEnabled(false);
    KernelVm full_vm;
    ReplayVerdict full = ReplayTokenTrial(full_vm, *token);
    KernelVm::SetDeltaRestoreEnabled(true);
    EXPECT_EQ(full.fingerprint, verdict.fingerprint) << "delta-restore A/B divergence";
    EXPECT_TRUE(full.fingerprint_match);
  }
}

TEST(ReplayCorpusTest, DivergentTokenParsesButFailsVerification) {
  std::optional<std::string> text = ReadFileContents(CorpusDir() + "/divergent.token");
  ASSERT_TRUE(text.has_value()) << "missing divergent.token (run with SB_UPDATE_CORPUS=1)";
  std::optional<ReplayToken> token = ParseReplayToken(TrimTrailingWhitespace(*text));
  ASSERT_TRUE(token.has_value()) << "divergent.token must still be a well-formed token";
  KernelVm vm;
  ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
  EXPECT_FALSE(verdict.fingerprint_match)
      << "the divergent token unexpectedly matched; was the corpus regenerated?";
}

}  // namespace
}  // namespace snowboard
