#include "src/snowboard/report.h"

#include <sstream>

#include "src/sim/site.h"
#include "src/util/strings.h"

namespace snowboard {

const char* IssueTypeName(IssueType type) {
  switch (type) {
    case IssueType::kDataRace:
      return "DR";
    case IssueType::kAtomicityViolation:
      return "AV";
    case IssueType::kOrderViolation:
      return "OV";
    case IssueType::kDeadlock:
      return "DL";
    case IssueType::kLostWakeup:
      return "LW";
    case IssueType::kLivelock:
      return "LL";
  }
  return "?";
}

const std::vector<IssueInfo>& IssueCatalog() {
  static const std::vector<IssueInfo>* catalog = new std::vector<IssueInfo>{
      {1, "BUG: unable to handle page fault (rhashtable double fetch)",
       IssueType::kDataRace, "lib/rhashtable", true, false},
      {2, "EXT4-fs error: swap_inode_boot_loader: checksum invalid",
       IssueType::kAtomicityViolation, "fs/sbfs", true, false},
      {3, "EXT4-fs error: ext_check_inode: invalid magic", IssueType::kAtomicityViolation,
       "fs/sbfs", false, false},
      {4, "blk_update_request: I/O error", IssueType::kAtomicityViolation, "fs/", true,
       false},
      {5, "Data race: blkdev_ioctl() / generic_fadvise()", IssueType::kDataRace,
       "block/, mm/", true, false},
      {6, "Data race: do_mpage_readpage() / set_blocksize()", IssueType::kDataRace, "fs/",
       false, false},
      {7, "Data race: rawv6_send_hdrinc() / __dev_set_mtu()", IssueType::kDataRace, "net/",
       true, false},
      {8, "Data race: packet_getname() / e1000_set_mac()", IssueType::kDataRace, "net/",
       true, false},
      {9, "Data race: dev_ifsioc_locked() / eth_commit_mac_addr_change()",
       IssueType::kDataRace, "net/", true, false},
      {10, "Data race: fib6_get_cookie_safe() / fib6_clean_node()", IssueType::kDataRace,
       "net/", false, true},
      {11, "BUG: kernel NULL pointer dereference (configfs_lookup)", IssueType::kDataRace,
       "fs/configfs", true, false},
      {12, "BUG: kernel NULL pointer dereference (l2tp tunnel->sock)",
       IssueType::kOrderViolation, "net/l2tp", true, false},
      {13, "Data race: cache_alloc_refill() / free_block()", IssueType::kDataRace, "mm/",
       false, true},
      {14, "Data race: tty_port_open() / uart_do_autoconfig()", IssueType::kDataRace,
       "driver/tty", true, false},
      {15, "Data race: snd_ctl_elem_add()", IssueType::kDataRace, "sound/core", true, false},
      {16, "Data race: tcp_set_default_congestion_control() / tcp_set_congestion_control()",
       IssueType::kDataRace, "net/ipv4", false, true},
      {17, "Data race: fanout_demux_rollover() / __fanout_unlink()", IssueType::kDataRace,
       "net/packet", true, false},
      // The deadlock/lost-wakeup/livelock tier, seeded in the ports IPC module and the
      // vfs mount/unmount path (Haiku-shaped; ROADMAP item 3).
      {18, "Lost wakeup: port_recv() re-reads wait generation after its empty check",
       IssueType::kLostWakeup, "kernel/ipc/port", true, false},
      {19, "Deadlock: vfs_mount() vs vfs_umount() lock-order inversion (mount_lock/sb_lock)",
       IssueType::kDeadlock, "kernel/fs/vfs", true, false},
      {20, "Livelock: vfs_umount() busy-waits forever on a leaked reference",
       IssueType::kLivelock, "kernel/fs/vfs", true, false},
      {21, "Deadlock: port_transfer() locks port pair in argument order (AB/BA)",
       IssueType::kDeadlock, "kernel/ipc/port", true, false},
      {22, "Lost wakeup: port_recv() misses port_close() shutdown wake",
       IssueType::kLostWakeup, "kernel/ipc/port", true, false},
  };
  return *catalog;
}

const IssueInfo* FindIssue(int id) {
  for (const IssueInfo& issue : IssueCatalog()) {
    if (issue.id == id) {
      return &issue;
    }
  }
  return nullptr;
}

namespace {

bool Has(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

// Race classification rule: both sites' function names must match the issue's pair (in
// either role order, since write/write races report arbitrary roles).
struct RacePattern {
  int issue_id;
  const char* fn_a;
  const char* fn_b;
};

constexpr RacePattern kRacePatterns[] = {
    // Most specific first.
    {1, "RhtPtr", "RhtAssignUnlock"},
    {1, "RhtLookup", "RhtAssignUnlock"},
    {1, "RhtPtr", "RhtRemove"},
    {1, "RhtPtr", "RhtLockBucket"},  // Lock-bit CAS vs the plain double-fetch read.
    // The plain (unmarked) bucket fetch also breaks acquire ordering against the entry's
    // initialization — same missing-READ_ONCE root cause, same issue family.
    {1, "Kmalloc", "RhtLookup"},
    {1, "Kmalloc", "RhtPtr"},
    {1, "RhtInsert", "RhtLookup"},
    // Locking an entry reached through the unmarked bucket fetch races the allocator's
    // rezeroing of that entry — still the missing-READ_ONCE family.
    {1, "Kmalloc", "SpinLock"},
    {2, "SbfsSwapInodeBootLoader", "SbfsWrite"},
    {2, "SbfsSwapInodeBootLoader", "SbfsComputeChecksum"},
    // The swap path's checksum recomputation (no i_lock) against a locked writer.
    {2, "SbfsWrite", "SbfsComputeChecksum"},
    {2, "SbfsFtruncate", "SbfsComputeChecksum"},
    {2, "SbfsSwapInodeBootLoader", "SbfsRead"},
    {2, "SbfsSwapInodeBootLoader", "SbfsFtruncate"},
    {4, "SbfsFtruncate", "SbfsWrite"},
    {5, "BlkdevSetReadahead", "GenericFadviseBdev"},
    {6, "BlkdevSetBlocksize", "MpageReadpage"},
    {7, "DevSetMtu", "Rawv6SendHdrinc"},
    {8, "E1000SetMac", "PacketGetname"},
    // The driver's private-lock MAC commit also races the rtnl-locked commit (w/w).
    {8, "E1000SetMac", "DevIoctlSetMac"},
    {9, "DevIoctlSetMac", "DevIoctlGetMac"},
    {10, "Fib6CleanTree", "Fib6GetCookieSafe"},
    {11, "ConfigfsRmdir", "ConfigfsLookup"},
    {11, "ConfigfsMkdir", "ConfigfsLookup"},  // Same missing-parent-mutex root cause.
    // The lockless lookup can also observe a dirent mid-construction (allocator rezeroing):
    // still the missing-mutex family.
    {11, "Kmalloc", "ConfigfsLookup"},
    {11, "ConfigfsLookup", "ConfigfsLookup"},  // Two lockless lookups race on nlink.
    // A lookup's stale inode pointer races the block's reuse after rmdir freed it.
    {11, "FileAlloc", "ConfigfsLookup"},
    {11, "Kfree", "ConfigfsLookup"},
    {13, "Kmalloc", "Kmalloc"},
    {13, "Kmalloc", "Kfree"},
    {13, "Kfree", "Kfree"},
    {3, "SbfsWrite", "SbfsRead"},   // Extent-magic invalidate window vs the lockless check.
    {4, "SbfsWrite", "SbfsWrite"},  // The post-unlock dirty-clear in the writeback tail.
    {6, "BlkdevSetBlocksize", "BlkdevSetBlocksize"},  // Two plain blocksize stores.
    {14, "UartDoAutoconfig", "TtyPortOpen"},
    {15, "SndCtlElemAdd", "SndCtlElemAdd"},
    {16, "TcpSetDefaultCongestionControl", "TcpSetCongestionControl"},
    {17, "FanoutUnlink", "PacketSendmsg"},
};

// One-sided fallback rules: each of these functions is a known lockless/misordered accessor
// whose presence in ANY race pair identifies the issue family — the triage shortcut a human
// reviewer applies ("every report involving configfs_lookup is the missing-mutex bug").
struct SingleSidePattern {
  int issue_id;
  const char* fn;
};

constexpr SingleSidePattern kSingleSidePatterns[] = {
    {1, "RhtPtr"},
    {1, "RhtLookup"},
    {2, "SbfsComputeChecksum"},      // Only the swap path computes it without i_lock.
    {5, "GenericFadviseBdev"},
    {6, "MpageReadpage"},
    {7, "Rawv6SendHdrinc"},
    {8, "PacketGetname"},
    {9, "DevIoctlGetMac"},
    {10, "Fib6GetCookieSafe"},
    {11, "ConfigfsLookup"},
    {11, "ConfigfsReaddir"},  // The second lockless reader path (getdents).
    {17, "PacketSendmsg"},
};

}  // namespace

int ClassifyRace(const RaceReport& race) {
  std::string fn_write = LookupSite(race.write_site).function;
  std::string fn_other = LookupSite(race.other_site).function;
  for (const RacePattern& pattern : kRacePatterns) {
    bool forward = Has(fn_write, pattern.fn_a) && Has(fn_other, pattern.fn_b);
    bool backward = Has(fn_write, pattern.fn_b) && Has(fn_other, pattern.fn_a);
    if (forward || backward) {
      return pattern.issue_id;
    }
  }
  for (const SingleSidePattern& pattern : kSingleSidePatterns) {
    if (Has(fn_write, pattern.fn) || Has(fn_other, pattern.fn)) {
      return pattern.issue_id;
    }
  }
  return 0;
}

int ClassifyConsoleLine(const std::string& line) {
  // Panic messages embed the faulting site name ("at <Function> (file:line)").
  if (Has(line, "BUG:")) {
    if (Has(line, "L2tpXmit")) {
      return 12;
    }
    if (Has(line, "ConfigfsLookup")) {
      return 11;
    }
    if (Has(line, "RhtLookup") || Has(line, "RhtPtr")) {
      return 1;
    }
    if (Has(line, "PacketSendmsg")) {
      return 17;  // The harmful outcome of the fanout race.
    }
    if (Has(line, "MsgSnd") || Has(line, "MsgCtl") || Has(line, "MsgGet")) {
      return 1;  // Null chain walk reached through the rhashtable users.
    }
    return 0;
  }
  if (Has(line, "checksum invalid")) {
    return 2;
  }
  if (Has(line, "invalid magic")) {
    return 3;
  }
  if (Has(line, "blk_update_request: I/O error")) {
    return 4;
  }
  return 0;
}

int ClassifyDeadlock(const DeadlockReport& deadlock) {
  bool port_transfer = false;
  bool vfs_mount_path = false;
  for (SiteId site : deadlock.sites) {
    std::string fn = LookupSite(site).function;
    port_transfer = port_transfer || Has(fn, "PortTransfer");
    vfs_mount_path = vfs_mount_path || Has(fn, "VfsMount") || Has(fn, "VfsUmount");
  }
  if (port_transfer) {
    return 21;
  }
  if (vfs_mount_path) {
    return 19;
  }
  return 0;
}

int ClassifyLostWakeup(const LostWakeupReport& lost) {
  std::string wait_fn = LookupSite(lost.wait_site).function;
  std::string notify_fn = LookupSite(lost.notify_site).function;
  if (Has(wait_fn, "PortRecv")) {
    // Both lost wakeups sleep in the receive path; the missed-notify site tells them apart.
    return Has(notify_fn, "PortClose") ? 22 : 18;
  }
  return 0;
}

int ClassifyLivelock(const LivelockReport& livelock) {
  for (SiteId site : livelock.spin_sites) {
    if (Has(LookupSite(site).function, "VfsUmount")) {
      return 20;
    }
  }
  return 0;
}

int ClassifyFinding(const DetectorResult& result, const FindingKey& finding) {
  switch (finding.kind) {
    case FindingKind::kRace:
      return ClassifyRace(result.races[finding.index]);
    case FindingKind::kConsole:
      return ClassifyConsoleLine(result.console_hits[finding.index]);
    case FindingKind::kPanic:
      return ClassifyConsoleLine(result.panic_message);
    case FindingKind::kDeadlock:
      return ClassifyDeadlock(result.deadlocks[finding.index]);
    case FindingKind::kLostWakeup:
      return ClassifyLostWakeup(result.lost_wakeups[finding.index]);
    case FindingKind::kLivelock:
      return ClassifyLivelock(result.livelocks[finding.index]);
  }
  return 0;
}

std::string DescribeFinding(const DetectorResult& result, const FindingKey& finding) {
  switch (finding.kind) {
    case FindingKind::kRace: {
      const RaceReport& race = result.races[finding.index];
      return StrPrintf("data race: %s / %s @0x%x", SiteName(race.write_site).c_str(),
                       SiteName(race.other_site).c_str(), race.addr);
    }
    case FindingKind::kConsole:
      return result.console_hits[finding.index];
    case FindingKind::kPanic:
      return result.panic_message;
    case FindingKind::kDeadlock: {
      const DeadlockReport& deadlock = result.deadlocks[finding.index];
      std::string evidence = "deadlock: cycle";
      for (size_t i = 0; i < deadlock.locks.size(); i++) {
        evidence += StrPrintf(" 0x%x[%s]", deadlock.locks[i],
                              SiteName(deadlock.sites[i]).c_str());
      }
      return evidence;
    }
    case FindingKind::kLostWakeup: {
      const LostWakeupReport& lost = result.lost_wakeups[finding.index];
      return StrPrintf("lost wakeup: vcpu %u blocked at %s @0x%x, missed notify %s",
                       static_cast<uint32_t>(lost.vcpu), SiteName(lost.wait_site).c_str(),
                       lost.channel, SiteName(lost.notify_site).c_str());
    }
    case FindingKind::kLivelock: {
      const LivelockReport& livelock = result.livelocks[finding.index];
      std::string evidence =
          StrPrintf("livelock: no progress over %llu events, spinning at",
                    static_cast<unsigned long long>(livelock.window_events));
      for (SiteId site : livelock.spin_sites) {
        evidence += ' ';
        evidence += SiteName(site);
      }
      return evidence;
    }
  }
  return std::string();
}

void FindingsLog::Record(const Finding& finding) {
  total_++;
  auto it = first_findings_.find(finding.issue_id);
  if (it == first_findings_.end() || finding.test_index < it->second.test_index) {
    first_findings_[finding.issue_id] = finding;
  }
}

void FindingsLog::Restore(const std::map<int, Finding>& first_findings, size_t total) {
  first_findings_ = first_findings;
  total_ = total;
}

void FindingsLog::Merge(const FindingsLog& other) {
  total_ += other.total_;
  for (const auto& [id, finding] : other.first_findings_) {
    auto it = first_findings_.find(id);
    if (it == first_findings_.end() || finding.test_index < it->second.test_index) {
      first_findings_[id] = finding;
    }
  }
}

std::string FindingsLog::Summarize() const {
  std::ostringstream os;
  for (const auto& [id, finding] : first_findings_) {
    if (id == 0) {
      os << StrPrintf("  [unclassified] first at test %zu: %s\n", finding.test_index,
                      finding.evidence.c_str());
      continue;
    }
    const IssueInfo* issue = FindIssue(id);
    os << StrPrintf("  #%-2d %-4s %-12s %s%s (test %zu, trial %d, %s input)\n", id,
                    IssueTypeName(issue->type), issue->subsystem, issue->summary,
                    issue->harmful ? " [HARMFUL]" : (issue->benign ? " [benign]" : ""),
                    finding.test_index, finding.trial,
                    finding.duplicate_input ? "duplicate" : "distinct");
  }
  return os.str();
}

}  // namespace snowboard
