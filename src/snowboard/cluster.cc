#include "src/snowboard/cluster.h"

#include <unordered_map>

#include "src/util/assert.h"
#include "src/util/hash.h"

namespace snowboard {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSFull:
      return "S-FULL";
    case Strategy::kSCh:
      return "S-CH";
    case Strategy::kSChNull:
      return "S-CH-NULL";
    case Strategy::kSChUnaligned:
      return "S-CH-UNALIGNED";
    case Strategy::kSChDouble:
      return "S-CH-DOUBLE";
    case Strategy::kSIns:
      return "S-INS";
    case Strategy::kSInsPair:
      return "S-INS-PAIR";
    case Strategy::kSMem:
      return "S-MEM";
    case Strategy::kRandomSInsPair:
      return "Random S-INS-PAIR";
    case Strategy::kRandomPairing:
      return "Random pairing";
    case Strategy::kDuplicatePairing:
      return "Duplicate pairing";
  }
  return "<unknown>";
}

const char* StrategyToken(Strategy strategy) {
  switch (strategy) {
    case Strategy::kRandomSInsPair:
      return "RANDOM-S-INS-PAIR";
    case Strategy::kRandomPairing:
      return "RANDOM-PAIRING";
    case Strategy::kDuplicatePairing:
      return "DUPLICATE-PAIRING";
    default:
      return StrategyName(strategy);  // Clustering strategies: token == display name.
  }
}

bool StrategyFromName(const std::string& name, Strategy* strategy) {
  for (Strategy candidate : kAllStrategies) {
    if (name == StrategyToken(candidate)) {
      *strategy = candidate;
      return true;
    }
  }
  return false;
}

bool StrategyUsesPmcs(Strategy strategy) {
  return strategy != Strategy::kRandomPairing && strategy != Strategy::kDuplicatePairing;
}

bool StrategyFilter(Strategy strategy, const PmcKey& key) {
  switch (strategy) {
    case Strategy::kSChNull:
      return key.write.value == 0;  // [value_w = 0]
    case Strategy::kSChUnaligned:
      // [(addr_r != addr_w or byte_r != byte_w)]
      return key.read.addr != key.write.addr || key.read.len != key.write.len;
    case Strategy::kSChDouble:
      return key.df_leader;  // [df_leader]
    default:
      return true;  // [True]
  }
}

uint64_t StrategyKey(Strategy strategy, const PmcKey& key, int which) {
  switch (strategy) {
    case Strategy::kSFull:
      // (ins_w, addr_w, byte_w, value_w, ins_r, addr_r, byte_r, value_r)
      return HashAll(key.write.site, key.write.addr, key.write.len, key.write.value,
                     key.read.site, key.read.addr, key.read.len, key.read.value);
    case Strategy::kSCh:
    case Strategy::kSChNull:
    case Strategy::kSChUnaligned:
    case Strategy::kSChDouble:
      // (ins_w, addr_w, byte_w, ins_r, addr_r, byte_r)
      return HashAll(key.write.site, key.write.addr, key.write.len, key.read.site,
                     key.read.addr, key.read.len);
    case Strategy::kSIns:
      // (ins_{w/r}): one clustering on the write instruction, one on the read instruction.
      return which == 0 ? HashAll(uint64_t{0}, key.write.site)
                        : HashAll(uint64_t{1}, key.read.site);
    case Strategy::kSInsPair:
    case Strategy::kRandomSInsPair:
      // (ins_w, ins_r)
      return HashAll(key.write.site, key.read.site);
    case Strategy::kSMem:
      // (addr_w, byte_w, addr_r, byte_r)
      return HashAll(key.write.addr, key.write.len, key.read.addr, key.read.len);
    case Strategy::kRandomPairing:
    case Strategy::kDuplicatePairing:
      break;
  }
  SB_CHECK(false && "baseline generation methods do not cluster PMCs");
  return 0;
}

std::vector<PmcCluster> ClusterPmcs(const std::vector<Pmc>& pmcs, Strategy strategy) {
  SB_CHECK(StrategyUsesPmcs(strategy));
  std::unordered_map<uint64_t, size_t> index;  // Key -> position in `clusters`.
  std::vector<PmcCluster> clusters;
  auto add = [&](uint64_t key, uint32_t member) {
    auto [it, inserted] = index.try_emplace(key, clusters.size());
    if (inserted) {
      clusters.push_back(PmcCluster{key, {member}});
    } else {
      clusters[it->second].members.push_back(member);
    }
  };

  for (uint32_t i = 0; i < pmcs.size(); i++) {
    const PmcKey& key = pmcs[i].key;
    if (!StrategyFilter(strategy, key)) {
      continue;
    }
    add(StrategyKey(strategy, key, 0), i);
    if (strategy == Strategy::kSIns) {
      add(StrategyKey(strategy, key, 1), i);
    }
  }
  return clusters;
}

}  // namespace snowboard
