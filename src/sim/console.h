// The guest kernel console.
//
// The paper implements its primary bug oracle (`is_bug`) by "capturing guest-kernel console
// output" (§4.4.1). Our kernel prints oops/panic/fs-error lines to this console; the
// ConsoleDetector greps it after each trial.
#ifndef SRC_SIM_CONSOLE_H_
#define SRC_SIM_CONSOLE_H_

#include <string>
#include <vector>

namespace snowboard {

class Console {
 public:
  void Printk(const std::string& line) { lines_.push_back(line); }
  void Clear() { lines_.clear(); }
  const std::vector<std::string>& lines() const { return lines_; }

  // True if any line contains `needle`.
  bool Contains(const std::string& needle) const;

 private:
  std::vector<std::string> lines_;
};

}  // namespace snowboard

#endif  // SRC_SIM_CONSOLE_H_
