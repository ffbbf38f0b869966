#include "src/snowboard/equiv.h"

namespace snowboard {

namespace {

// FNV-1a primitives, folding a 64-bit word byte by byte (order-sensitive: folding the
// same words in a different order yields a different hash).
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvFold(uint64_t h, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

// Domain tag so an empty edge list and a single zero-filled edge cannot alias.
constexpr uint64_t kEdgeTag = 0xe1;

}  // namespace

uint64_t HbFingerprint(const Trace& trace, HbScratch* scratch,
                       std::vector<HbEdge>* edges_out) {
  scratch->last_write.Clear();
  scratch->edge_sites.clear();
  if (edges_out != nullptr) {
    edges_out->clear();
  }

  uint64_t h = kFnvOffset;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) {
      // Yields (and any future non-access events) are deliberately NOT folded: where the
      // scheduler preempted is schedule identity, and every seeded trial has a distinct
      // schedule by construction. Folding it would make every fingerprint unique and the
      // pruning vacuous; see the header comment.
      continue;
    }
    const Access& access = event.access;
    uint64_t addr = static_cast<uint64_t>(access.addr);
    if (access.type == AccessType::kWrite) {
      scratch->last_write[addr] = {access.site, access.vcpu};
    } else {
      const HbScratch::LastWrite* writer = scratch->last_write.Find(addr);
      if (writer != nullptr && writer->vcpu != access.vcpu) {
        // A reads-from edge crossing threads: the happens-before skeleton grows here.
        SiteId write_site = writer->site;
        h = FnvFold(h, kEdgeTag);
        h = FnvFold(h, write_site);
        h = FnvFold(h, access.site);
        h = FnvFold(h, addr);
        h = FnvFold(h, access.value);
        scratch->edge_sites.push_back(write_site);
        scratch->edge_sites.push_back(access.site);
        if (edges_out != nullptr) {
          edges_out->push_back({write_site, access.site, access.addr, access.value});
        }
      }
    }
  }
  return h;
}

}  // namespace snowboard
