// Instruction-site registry.
//
// In the paper, PMC features include the guest *instruction address* of each memory access.
// Our kernel is compiled host code, so instead every static access site in kernel source is
// assigned a stable 64-bit id derived from its source location. The SB_SITE() macro expands
// to an expression yielding that site's id; the registry keeps the reverse mapping for
// human-readable bug reports ("function@file:line", the analog of addr2line on a vmlinux).
#ifndef SRC_SIM_SITE_H_
#define SRC_SIM_SITE_H_

#include <string>

#include "src/sim/types.h"

namespace snowboard {

struct SiteInfo {
  std::string file;
  int line = 0;
  std::string function;
};

// Registers (idempotently) a site and returns its stable id. Thread-safe.
SiteId RegisterSite(const char* file, int line, const char* function, int counter);

// Returns the info for a registered site; a placeholder entry for unknown ids.
SiteInfo LookupSite(SiteId id);

// "function (file:line)" for reports; "<site 0xNN>" if unregistered.
std::string SiteName(SiteId id);

}  // namespace snowboard

// Yields the stable SiteId of this source location. The static local caches the registration
// so the hot path is a single load. __COUNTER__ disambiguates multiple sites on one line;
// __func__ is evaluated at the call site (not inside the lambda) so reports carry the
// enclosing kernel function's name.
#define SB_SITE()                                                                      \
  ([](const char* sb_site_func) -> ::snowboard::SiteId {                               \
    static const ::snowboard::SiteId sb_site_id =                                      \
        ::snowboard::RegisterSite(__FILE__, __LINE__, sb_site_func, __COUNTER__);      \
    return sb_site_id;                                                                 \
  }(__func__))

#endif  // SRC_SIM_SITE_H_
