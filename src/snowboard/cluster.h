// PMC clustering strategies — §4.3, Table 1.
//
// A clustering strategy = a clustering key (PMC features folded into a cluster id) plus a
// filter predicate (some strategies discard PMCs outright). Clusters are later visited from
// least to most populous — "PMCs from smaller clusters could be regarded as uncommon among
// all predicted PMCs, so exercising them is likely to trigger behaviors not often seen in
// production, or not well tested."
#ifndef SRC_SNOWBOARD_CLUSTER_H_
#define SRC_SNOWBOARD_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/snowboard/pmc.h"

namespace snowboard {

enum class Strategy {
  kSFull = 0,        // All features: the costliest baseline.
  kSCh,              // Channel: everything except values.
  kSChNull,          // Channel, filtered to all-zero write values.
  kSChUnaligned,     // Channel, filtered to mismatched ranges.
  kSChDouble,        // Channel, filtered to double-fetch leaders.
  kSIns,             // Single instruction (a pair of clusterings: writes and reads).
  kSInsPair,         // (write instruction, read instruction).
  kSMem,             // Memory ranges only.
  // Generation-method variants evaluated in Table 3 (not Table 1 strategies):
  kRandomSInsPair,   // S-INS-PAIR keys with randomized cluster order.
  kRandomPairing,    // Baseline: random test pairs, no PMC.
  kDuplicatePairing, // Baseline: identical test pairs, no PMC.
};

inline constexpr Strategy kAllClusteringStrategies[] = {
    Strategy::kSFull,     Strategy::kSCh,   Strategy::kSChNull, Strategy::kSChUnaligned,
    Strategy::kSChDouble, Strategy::kSIns,  Strategy::kSInsPair, Strategy::kSMem,
};

// Every strategy, clustering and baseline alike (CLI listings, spec round-trips).
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kSFull,     Strategy::kSCh,        Strategy::kSChNull,
    Strategy::kSChUnaligned, Strategy::kSChDouble, Strategy::kSIns,
    Strategy::kSInsPair,  Strategy::kSMem,       Strategy::kRandomSInsPair,
    Strategy::kRandomPairing, Strategy::kDuplicatePairing,
};

const char* StrategyName(Strategy strategy);

// Canonical flag-style token ("S-INS-PAIR", "RANDOM-PAIRING"): uppercase, hyphenated, no
// spaces — what the CLI accepts and what campaign specs store. Differs from StrategyName
// only for the baselines, whose display names contain spaces.
const char* StrategyToken(Strategy strategy);

// Parses a StrategyToken back; false on an unknown name. The single name→enum mapping the
// CLI, the serve daemon, and the spec parser all share, so they cannot drift.
bool StrategyFromName(const std::string& name, Strategy* strategy);

// True for the strategies that cluster PMCs (everything except the two baselines).
bool StrategyUsesPmcs(Strategy strategy);

struct PmcCluster {
  uint64_t key = 0;                // Cluster id (hash of the clustering-key features).
  std::vector<uint32_t> members;   // Indices into the PMC vector.
};

// Applies the strategy's filter and groups surviving PMCs by the clustering key. For kSIns,
// each PMC lands in TWO clusters (its write-instruction cluster and its read-instruction
// cluster), per Table 1's "strategy pair". Clusters come in the order their keys first
// appear over the PMC index, and each cluster's members ascend.
std::vector<PmcCluster> ClusterPmcs(const std::vector<Pmc>& pmcs, Strategy strategy);

// The Table 1 filter predicate, exposed for tests.
bool StrategyFilter(Strategy strategy, const PmcKey& key);

// The Table 1 clustering key, exposed for tests. `which` selects the S-INS sub-strategy
// (0 = write instruction, 1 = read instruction); ignored otherwise.
uint64_t StrategyKey(Strategy strategy, const PmcKey& key, int which);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_CLUSTER_H_
