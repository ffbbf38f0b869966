#include "src/snowboard/detectors.h"

#include <algorithm>
#include <cstring>

#include "src/util/hash.h"

namespace snowboard {

namespace {

constexpr size_t kMaxRememberedPerGranuleVcpu = 16;

void JoinClock(std::array<uint64_t, RaceDetector::kMaxVcpus>& into,
               const std::array<uint64_t, RaceDetector::kMaxVcpus>& from) {
  for (int i = 0; i < RaceDetector::kMaxVcpus; i++) {
    into[i] = std::max(into[i], from[i]);
  }
}

// Locksets hold unique lock addrs; order is irrelevant to disjointness. They are tiny
// (nesting depth of held locks), so the quadratic scan beats any hashed structure.
bool LocksetsDisjoint(const std::vector<GuestAddr>& a, const std::vector<GuestAddr>& b) {
  for (GuestAddr lock : a) {
    for (GuestAddr other : b) {
      if (lock == other) {
        return false;
      }
    }
  }
  return true;
}

void LocksetInsert(std::vector<GuestAddr>& lockset, GuestAddr lock) {
  for (GuestAddr held : lockset) {
    if (held == lock) {
      return;  // Set semantics: recursive acquire keeps a single entry.
    }
  }
  lockset.push_back(lock);
}

void LocksetErase(std::vector<GuestAddr>& lockset, GuestAddr lock) {
  for (size_t i = 0; i < lockset.size(); i++) {
    if (lockset[i] == lock) {
      lockset[i] = lockset.back();
      lockset.pop_back();
      return;
    }
  }
}

}  // namespace

uint64_t RaceReport::Signature() const {
  SiteId lo = std::min(write_site, other_site);
  SiteId hi = std::max(write_site, other_site);
  return HashAll(lo, hi);
}

uint64_t DeadlockReport::Signature() const {
  // The cycle is canonically rotated at construction, so in-order hashing is stable
  // across trials that discover the same cycle from different entry points.
  uint64_t h = HashAll(uint64_t{0xdead}, locks.size());
  for (size_t i = 0; i < locks.size(); i++) {
    h = HashCombine(h, HashAll(static_cast<uint64_t>(locks[i]), sites[i]));
  }
  return h;
}

uint64_t LostWakeupReport::Signature() const {
  return HashAll(uint64_t{0x105f}, wait_site, notify_site);
}

uint64_t LivelockReport::Signature() const {
  uint64_t h = HashAll(uint64_t{0x11fe}, spin_sites.size());
  for (SiteId site : spin_sites) {
    h = HashCombine(h, site);
  }
  return h;
}

bool IsSuspiciousConsoleLine(const std::string& line) {
  static constexpr const char* kPatterns[] = {
      "BUG:",
      "EXT4-fs error",
      "blk_update_request: I/O error",
      "WARNING:",
      "Oops",
  };
  for (const char* pattern : kPatterns) {
    if (line.find(pattern) != std::string::npos) {
      return true;
    }
  }
  return false;
}

RaceDetector::GranuleSlot& RaceDetector::GetGranule(GuestAddr granule) {
  uint32_t* index = granule_index_.Find(granule);
  if (index != nullptr) {
    return granule_pool_[*index];
  }
  uint32_t slot = static_cast<uint32_t>(granule_pool_used_++);
  granule_index_[granule] = slot;
  if (slot < granule_pool_.size()) {
    // Recycle a slot from a previous trial: entries keep their lockset capacity.
    for (RememberedList& list : granule_pool_[slot].per_vcpu) {
      list.used = 0;
    }
  } else {
    granule_pool_.emplace_back();
  }
  return granule_pool_[slot];
}

void RaceDetector::Detect(const Trace& trace, std::vector<RaceReport>* races) {
  // FastTrack-style happens-before tracking:
  //   * per-vCPU vector clocks, incremented per event;
  //   * lock release -> subsequent acquire of the same lock object: HB edge;
  //   * marked-atomic store -> subsequent marked-atomic load of the same cell: HB edge
  //     (release/acquire semantics — this is what makes an RCU publish order the writer's
  //     initialization before the reader's dereference, eliminating init-then-publish false
  //     positives that a pure lockset analysis reports);
  //   * Eraser-style locksets on top (a common lock suppresses even without an HB edge in
  //     our serialized replay).
  // A race: overlapping ranges, different vCPUs, at least one write, not both marked, no
  // common lock, and the earlier access NOT happened-before the later one.
  std::memset(clocks_, 0, sizeof(clocks_));
  for (std::vector<GuestAddr>& lockset : locksets_) {
    lockset.clear();
  }
  lock_release_clocks_.Clear();
  atomic_release_clocks_.Clear();
  granule_index_.Clear();
  granule_pool_used_ = 0;
  seen_signatures_.Clear();
  races->clear();

  for (const Event& event : trace) {
    if (event.vcpu < 0 || event.vcpu >= kMaxVcpus) {
      continue;
    }
    int v = event.vcpu;
    clocks_[v][v]++;

    switch (event.kind) {
      case EventKind::kLockAcquire:
      case EventKind::kSharedAcquire: {
        LocksetInsert(locksets_[v], event.lock_addr);
        const VectorClock* release = lock_release_clocks_.Find(event.lock_addr);
        if (release != nullptr) {
          JoinClock(clocks_[v], *release);
        }
        continue;
      }
      case EventKind::kLockRelease:
      case EventKind::kSharedRelease: {
        LocksetErase(locksets_[v], event.lock_addr);
        JoinClock(lock_release_clocks_[event.lock_addr], clocks_[v]);
        continue;
      }
      case EventKind::kRcuReadLock:
      case EventKind::kRcuReadUnlock:
      case EventKind::kYield:
      case EventKind::kLockAcquireAttempt:
      case EventKind::kWaitBlock:
      case EventKind::kWaitNotify:
      case EventKind::kWaitResume:
        continue;
      case EventKind::kAccess:
        break;
    }

    const Access& a = event.access;
    if (a.type == AccessType::kWrite) {
      if (a.marked_atomic) {
        // Release semantics for marked stores (rcu_assign_pointer, WRITE_ONCE, unlocks).
        atomic_release_clocks_[a.addr] = clocks_[v];
      } else {
        // A plain overwrite breaks the publish chain through this cell.
        atomic_release_clocks_.Erase(a.addr);
      }
    } else {
      // ANY read observing a release-store's cell acquires it — this models the
      // dependency ordering real hardware gives a pointer chase (reading a published
      // pointer orders the publisher's earlier initialization before the dependent
      // accesses), so init-then-publish patterns are not reported even when the reader's
      // load is unmarked. The paper's #1 double fetch is still caught: its crash oracle
      // fires, and the re-fetch pattern itself is classified from the panic site.
      const VectorClock* release = atomic_release_clocks_.Find(a.addr);
      if (release != nullptr) {
        JoinClock(clocks_[v], *release);
      }
    }

    const std::vector<GuestAddr>& lockset = locksets_[v];
    GuestAddr first_granule = a.addr & ~3u;
    GuestAddr last_granule = (a.addr + a.len - 1) & ~3u;
    for (GuestAddr granule = first_granule; granule <= last_granule; granule += 4) {
      GranuleSlot& state = GetGranule(granule);
      // Compare against every other vCPU's remembered accesses.
      for (int other_vcpu = 0; other_vcpu < kMaxVcpus; other_vcpu++) {
        if (other_vcpu == v) {
          continue;
        }
        const RememberedList& theirs = state.per_vcpu[other_vcpu];
        for (size_t i = 0; i < theirs.used; i++) {
          const Remembered& other = theirs.entries[i];
          bool overlap = a.addr < other.addr + other.len && other.addr < a.addr + a.len;
          if (!overlap) {
            continue;
          }
          bool some_write =
              a.type == AccessType::kWrite || other.type == AccessType::kWrite;
          bool both_marked = a.marked_atomic && other.marked;
          if (!some_write || both_marked) {
            continue;
          }
          if (!LocksetsDisjoint(lockset, other.lockset)) {
            continue;
          }
          // Happens-before: `other` (earlier) is ordered before `a` iff its owner
          // timestamp is covered by this vCPU's clock.
          if (other.own_ts <= clocks_[v][other_vcpu]) {
            continue;
          }
          RaceReport report;
          if (a.type == AccessType::kWrite) {
            report.write_site = a.site;
            report.other_site = other.site;
          } else {
            report.write_site = other.site;
            report.other_site = a.site;
          }
          report.addr = a.addr;
          report.write_write =
              a.type == AccessType::kWrite && other.type == AccessType::kWrite;
          if (seen_signatures_.Insert(report.Signature())) {
            races->push_back(report);
          }
        }
      }
      // Remember this access: replace an existing same-key entry (keep the freshest).
      RememberedList& mine = state.per_vcpu[v];
      Remembered* target = nullptr;
      for (size_t i = 0; i < mine.used; i++) {
        Remembered& r = mine.entries[i];
        if (r.site == a.site && r.type == a.type) {
          target = &r;
          break;
        }
      }
      if (target == nullptr && mine.used < kMaxRememberedPerGranuleVcpu) {
        if (mine.used == mine.entries.size()) {
          mine.entries.emplace_back();
        }
        target = &mine.entries[mine.used++];
        target->site = a.site;
        target->type = a.type;
      }
      if (target != nullptr) {
        target->marked = a.marked_atomic;
        target->addr = a.addr;
        target->len = a.len;
        target->own_ts = clocks_[v][v];
        target->lockset.assign(lockset.begin(), lockset.end());
      }
    }
  }
}

void ConsoleDetector::Analyze(const Engine::RunResult& run, DetectorResult* out) {
  out->panicked = run.panicked;
  out->panic_message = run.panic_message;
  for (const std::string& line : run.console) {
    if (IsSuspiciousConsoleLine(line)) {
      out->console_hits.push_back(line);
    }
  }
}

void RaceDetector::Analyze(const Engine::RunResult& run, DetectorResult* out) {
  Detect(run.trace, &out->races);
}

// --- Lock-order (deadlock) detector. ---

namespace {

// Recursive three-color DFS over the acquisition graph. Nodes are registered in edge
// order, adjacency lists follow edge order, and DFS roots scan nodes in registration
// order, so the first cycle found is a deterministic function of the edge list.
struct CycleFinder {
  const std::vector<LockOrderEdge>& edges;
  std::vector<GuestAddr> nodes;               // Registration order.
  std::vector<std::vector<uint32_t>> out;     // Per-node outgoing edge indices.
  std::vector<uint32_t> edge_target;          // Per-edge target node id.
  std::vector<uint8_t> color;                 // 0 white, 1 gray (on path), 2 black.
  std::vector<uint32_t> path;                 // Edge indices on the current DFS path.
  std::vector<uint32_t>* cycle;

  size_t NodeId(GuestAddr addr) {
    for (size_t i = 0; i < nodes.size(); i++) {
      if (nodes[i] == addr) {
        return i;
      }
    }
    nodes.push_back(addr);
    out.emplace_back();
    return nodes.size() - 1;
  }

  bool Dfs(size_t n) {
    color[n] = 1;
    for (uint32_t ei : out[n]) {
      size_t m = edge_target[ei];
      if (color[m] == 1) {
        // Back edge: the cycle is the path suffix from where `m` was entered, plus ei.
        size_t start = path.size();  // Empty suffix (self-loop) unless found below.
        for (size_t k = 0; k < path.size(); k++) {
          if (edges[path[k]].from == nodes[m]) {
            start = k;
            break;
          }
        }
        cycle->assign(path.begin() + static_cast<ptrdiff_t>(start), path.end());
        cycle->push_back(ei);
        return true;
      }
      if (color[m] == 0) {
        path.push_back(ei);
        if (Dfs(m)) {
          return true;
        }
        path.pop_back();
      }
    }
    color[n] = 2;
    return false;
  }
};

}  // namespace

bool FindLockOrderCycle(const std::vector<LockOrderEdge>& edges,
                        std::vector<uint32_t>* cycle) {
  cycle->clear();
  CycleFinder finder{edges, {}, {}, {}, {}, {}, cycle};
  for (const LockOrderEdge& edge : edges) {
    size_t from = finder.NodeId(edge.from);
    finder.edge_target.push_back(static_cast<uint32_t>(finder.NodeId(edge.to)));
    finder.out[from].push_back(static_cast<uint32_t>(finder.edge_target.size() - 1));
  }
  finder.color.assign(finder.nodes.size(), 0);
  for (size_t n = 0; n < finder.nodes.size(); n++) {
    if (finder.color[n] == 0 && finder.Dfs(n)) {
      return true;
    }
  }
  return false;
}

void LockOrderDetector::AddEdges(VcpuId vcpu, GuestAddr lock, SiteId site) {
  for (GuestAddr held : held_[vcpu]) {
    if (held == lock) {
      continue;  // Recursive acquire is not an ordering edge.
    }
    LockOrderEdge edge{held, lock, site};
    bool known = false;
    for (const LockOrderEdge& existing : edges_) {
      if (existing == edge) {
        known = true;
        break;
      }
    }
    if (!known) {
      edges_.push_back(edge);
    }
  }
}

void LockOrderDetector::Analyze(const Engine::RunResult& run, DetectorResult* out) {
  // Gated on an actual hang: a cycle in the static acquisition order is only *potential*
  // deadlock, and reporting it on completing trials would flag lucky interleavings. The
  // engine flags every non-panic abort (liveness, budget) as hang, so a manifested
  // deadlock always reaches this path.
  if (!run.hang || run.panicked) {
    return;
  }
  for (std::vector<GuestAddr>& held : held_) {
    held.clear();
  }
  edges_.clear();
  for (const Event& event : run.trace) {
    if (event.vcpu < 0 || event.vcpu >= RaceDetector::kMaxVcpus) {
      continue;
    }
    switch (event.kind) {
      case EventKind::kLockAcquireAttempt:
        // The "wants" edge: blocked acquires never reach kLockAcquire, but the deadlock
        // cycle closes through exactly these edges.
        AddEdges(event.vcpu, event.lock_addr, event.access.site);
        break;
      case EventKind::kLockAcquire:
      case EventKind::kSharedAcquire:
        AddEdges(event.vcpu, event.lock_addr, event.access.site);
        LocksetInsert(held_[event.vcpu], event.lock_addr);
        break;
      case EventKind::kLockRelease:
      case EventKind::kSharedRelease:
        LocksetErase(held_[event.vcpu], event.lock_addr);
        break;
      default:
        break;
    }
  }
  if (!FindLockOrderCycle(edges_, &cycle_)) {
    return;
  }
  DeadlockReport report;
  // Canonical rotation: start the cycle at its smallest lock address so the same cycle
  // discovered from different entry points dedups to one signature.
  size_t n = cycle_.size();
  size_t start = 0;
  for (size_t i = 1; i < n; i++) {
    if (edges_[cycle_[i]].from < edges_[cycle_[start]].from) {
      start = i;
    }
  }
  for (size_t i = 0; i < n; i++) {
    const LockOrderEdge& edge = edges_[cycle_[(start + i) % n]];
    report.locks.push_back(edge.from);
    report.sites.push_back(edge.site);
  }
  out->deadlocks.push_back(std::move(report));
}

// --- Lost-wakeup detector. ---

void LostWakeupDetector::Analyze(const Engine::RunResult& run, DetectorResult* out) {
  if (!run.hang || run.panicked) {
    return;
  }
  for (Outstanding& waiting : waiting_) {
    waiting.active = false;
  }
  last_notify_.Clear();
  for (const Event& event : run.trace) {
    if (event.vcpu < 0 || event.vcpu >= RaceDetector::kMaxVcpus) {
      continue;
    }
    switch (event.kind) {
      case EventKind::kWaitBlock:
        waiting_[event.vcpu] = {true, event.lock_addr, event.access.site};
        break;
      case EventKind::kWaitResume:
        waiting_[event.vcpu].active = false;
        break;
      case EventKind::kWaitNotify:
        last_notify_[event.lock_addr] = event.access.site;
        break;
      default:
        break;
    }
  }
  for (int v = 0; v < RaceDetector::kMaxVcpus; v++) {
    if (!waiting_[v].active) {
      continue;
    }
    LostWakeupReport report;
    report.channel = waiting_[v].channel;
    report.wait_site = waiting_[v].site;
    const SiteId* notify = last_notify_.Find(waiting_[v].channel);
    report.notify_site = notify != nullptr ? *notify : kInvalidSite;
    report.vcpu = static_cast<VcpuId>(v);
    out->lost_wakeups.push_back(report);
  }
}

// --- Livelock detector. ---

void LivelockDetector::Analyze(const Engine::RunResult& run, DetectorResult* out) {
  if (!run.hang || run.panicked) {
    return;
  }
  const Trace& trace = run.trace;
  size_t window = std::min(kSpinWindow, trace.size() / 2);
  if (window < kMinWindow) {
    return;
  }
  size_t boundary = trace.size() - window;
  sites_before_.Clear();
  for (size_t i = 0; i < boundary; i++) {
    if (trace[i].access.site != kInvalidSite) {
      sites_before_.Insert(static_cast<uint64_t>(trace[i].access.site));
    }
  }
  acquires_.Clear();
  releases_.Clear();
  for (size_t i = boundary; i < trace.size(); i++) {
    const Event& event = trace[i];
    if (event.kind == EventKind::kWaitBlock) {
      return;  // A sleeper in the tail is the lost-wakeup detector's territory.
    }
    if (event.access.site != kInvalidSite &&
        !sites_before_.Contains(static_cast<uint64_t>(event.access.site))) {
      return;  // A new site retired inside the window: that is progress, not a livelock.
    }
    if (event.kind == EventKind::kLockAcquire) {
      acquires_[event.lock_addr]++;
    } else if (event.kind == EventKind::kLockRelease) {
      releases_[event.lock_addr]++;
    }
  }
  // Live cycling: some lock is taken AND dropped repeatedly inside the window. A deadlocked
  // vCPU never re-acquires, and a wait-channel sleeper never acquires at all, so this
  // separates "spinning hard while going nowhere" from the other hang shapes.
  bool cycling = false;
  spin_sites_.clear();
  for (size_t i = boundary; i < trace.size(); i++) {
    const Event& event = trace[i];
    if (event.kind != EventKind::kLockAcquire) {
      continue;
    }
    const uint32_t* acquires = acquires_.Find(event.lock_addr);
    const uint32_t* released = releases_.Find(event.lock_addr);
    if (acquires != nullptr && released != nullptr && *acquires >= kMinSpinAcquires &&
        *released >= kMinSpinAcquires) {
      cycling = true;
      if (event.access.site != kInvalidSite) {
        bool seen = false;
        for (SiteId site : spin_sites_) {
          seen = seen || site == event.access.site;
        }
        if (!seen) {
          spin_sites_.push_back(event.access.site);
        }
      }
    }
  }
  if (!cycling) {
    return;
  }
  LivelockReport report;
  report.spin_sites = spin_sites_;
  report.window_events = window;
  out->livelocks.push_back(std::move(report));
}

// --- Suite. ---

bool ParseDetectorMask(const std::string& text, uint32_t* mask) {
  if (text.empty() || text == "all") {
    *mask = kDetectorAll;
    return true;
  }
  if (text == "none") {  // FormatDetectorMask's rendering of an empty mask.
    *mask = 0;
    return true;
  }
  uint32_t result = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    std::string name = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (name == "console") {
      result |= kDetectorConsole;
    } else if (name == "race") {
      result |= kDetectorRace;
    } else if (name == "deadlock") {
      result |= kDetectorLockOrder;
    } else if (name == "lost-wakeup") {
      result |= kDetectorLostWakeup;
    } else if (name == "livelock") {
      result |= kDetectorLivelock;
    } else if (name == "all") {
      result |= kDetectorAll;
    } else {
      return false;
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  *mask = result;
  return true;
}

std::string FormatDetectorMask(uint32_t mask) {
  mask &= kDetectorAll;
  if (mask == kDetectorAll) {
    return "all";
  }
  if (mask == 0) {
    return "none";
  }
  struct Bit {
    uint32_t bit;
    const char* name;
  };
  // Same names, same order as ParseDetectorMask's accept list.
  constexpr Bit kBits[] = {
      {kDetectorConsole, "console"},      {kDetectorRace, "race"},
      {kDetectorLockOrder, "deadlock"},   {kDetectorLostWakeup, "lost-wakeup"},
      {kDetectorLivelock, "livelock"},
  };
  std::string out;
  for (const Bit& b : kBits) {
    if ((mask & b.bit) == 0) {
      continue;
    }
    if (!out.empty()) {
      out += ',';
    }
    out += b.name;
  }
  return out;
}

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kRace:
      return "race";
    case FindingKind::kConsole:
      return "console";
    case FindingKind::kPanic:
      return "panic";
    case FindingKind::kDeadlock:
      return "deadlock";
    case FindingKind::kLostWakeup:
      return "lost-wakeup";
    case FindingKind::kLivelock:
      return "livelock";
  }
  return "unknown";
}

void DetectorSuite::Run(const Engine::RunResult& run, DetectorResult* out) {
  out->panicked = false;
  out->panic_message.clear();
  out->console_hits.clear();
  out->races.clear();
  out->deadlocks.clear();
  out->lost_wakeups.clear();
  out->livelocks.clear();
  if (enabled_ & kDetectorConsole) {
    console_.Analyze(run, out);
  }
  if (enabled_ & kDetectorRace) {
    race_.Analyze(run, out);
  }
  if (enabled_ & kDetectorLockOrder) {
    lock_order_.Analyze(run, out);
  }
  if (enabled_ & kDetectorLostWakeup) {
    lost_wakeup_.Analyze(run, out);
  }
  if (enabled_ & kDetectorLivelock) {
    livelock_.Analyze(run, out);
  }
}

uint64_t DetectorFingerprint(const DetectorResult& result) {
  uint64_t h = HashAll(uint64_t{0xf19e}, result.panicked ? 1 : 0,
                       Fnv1a(result.panic_message), result.console_hits.size(),
                       result.races.size());
  for (const std::string& line : result.console_hits) {
    h = HashCombine(h, Fnv1a(line));
  }
  for (const RaceReport& race : result.races) {
    h = HashCombine(h, HashAll(race.write_site, race.other_site,
                               static_cast<uint64_t>(race.addr),
                               race.write_write ? 1 : 0));
  }
  // The newer report kinds are hashed only when present: race/console-era results (and
  // every fingerprint in the checked-in token corpus) hash exactly as before.
  if (!result.deadlocks.empty()) {
    h = HashCombine(h, HashAll(uint64_t{0xdead}, result.deadlocks.size()));
    for (const DeadlockReport& deadlock : result.deadlocks) {
      h = HashCombine(h, deadlock.Signature());
    }
  }
  if (!result.lost_wakeups.empty()) {
    h = HashCombine(h, HashAll(uint64_t{0x105f}, result.lost_wakeups.size()));
    for (const LostWakeupReport& lost : result.lost_wakeups) {
      h = HashCombine(h, HashAll(lost.Signature(), static_cast<uint64_t>(lost.channel),
                                 static_cast<uint64_t>(lost.vcpu)));
    }
  }
  if (!result.livelocks.empty()) {
    h = HashCombine(h, HashAll(uint64_t{0x11fe}, result.livelocks.size()));
    for (const LivelockReport& livelock : result.livelocks) {
      h = HashCombine(h, HashAll(livelock.Signature(), livelock.window_events));
    }
  }
  return h;
}

bool DetectorResultContainsKey(const DetectorResult& result, FindingKind kind,
                               uint64_t key) {
  switch (kind) {
    case FindingKind::kRace:
      for (const RaceReport& race : result.races) {
        if (race.Signature() == key) {
          return true;
        }
      }
      return false;
    case FindingKind::kConsole:
      for (const std::string& line : result.console_hits) {
        if (Fnv1a(line) == key) {
          return true;
        }
      }
      return false;
    case FindingKind::kPanic:
      return result.panicked && Fnv1a(result.panic_message) == key;
    case FindingKind::kDeadlock:
      for (const DeadlockReport& deadlock : result.deadlocks) {
        if (deadlock.Signature() == key) {
          return true;
        }
      }
      return false;
    case FindingKind::kLostWakeup:
      for (const LostWakeupReport& lost : result.lost_wakeups) {
        if (lost.Signature() == key) {
          return true;
        }
      }
      return false;
    case FindingKind::kLivelock:
      for (const LivelockReport& livelock : result.livelocks) {
        if (livelock.Signature() == key) {
          return true;
        }
      }
      return false;
  }
  return false;
}

std::vector<RaceReport> DetectRaces(const Trace& trace) {
  RaceDetector detector;
  std::vector<RaceReport> races;
  detector.Detect(trace, &races);
  return races;
}

DetectorResult RunDetectors(const Engine::RunResult& result) {
  DetectorResult out;
  DetectorSuite suite;
  suite.Run(result, &out);
  return out;
}

bool PmcChannelExercised(const Trace& trace, const PmcKey& hint, VcpuId writer_vcpu,
                         VcpuId reader_vcpu) {
  GuestAddr ov_start = std::max(hint.write.addr, hint.read.addr);
  GuestAddr ov_end = std::min(hint.write.end(), hint.read.end());
  if (ov_start >= ov_end) {
    return false;
  }
  uint32_t ov_len = ov_end - ov_start;

  bool write_seen = false;
  uint64_t written_projected = 0;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) {
      continue;
    }
    const Access& a = event.access;
    if (a.vcpu == writer_vcpu && a.type == AccessType::kWrite && a.site == hint.write.site &&
        a.addr == hint.write.addr && a.len == hint.write.len) {
      write_seen = true;
      written_projected = ProjectValue(a.addr, a.len, a.value, ov_start, ov_len);
      continue;
    }
    if (write_seen && a.vcpu == reader_vcpu && a.type == AccessType::kRead &&
        a.site == hint.read.site && a.addr == hint.read.addr && a.len == hint.read.len) {
      uint64_t read_projected = ProjectValue(a.addr, a.len, a.value, ov_start, ov_len);
      if (read_projected == written_projected) {
        return true;  // The reader saw the writer's bytes: the channel carried data.
      }
    }
  }
  return false;
}

}  // namespace snowboard
