#include "src/snowboard/equiv.h"

namespace snowboard {

void CollectHbEdges(const Trace& trace, HbScratch* scratch) {
  scratch->last_write.Clear();
  scratch->edges.clear();
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) {
      // Yields (and any future non-access events) carry no edge: where the scheduler
      // preempted is schedule identity, and every seeded trial has a distinct schedule by
      // construction. See the header comment.
      continue;
    }
    const Access& access = event.access;
    uint64_t addr = static_cast<uint64_t>(access.addr);
    if (access.type == AccessType::kWrite) {
      scratch->last_write[addr] = {access.site, access.vcpu};
    } else {
      const HbScratch::LastWrite* writer = scratch->last_write.Find(addr);
      if (writer != nullptr && writer->vcpu != access.vcpu) {
        // A reads-from edge crossing threads.
        scratch->edges.push_back({writer->site, access.site, access.addr, access.value});
      }
    }
  }
}

}  // namespace snowboard
