// Command tables, --help text and argument parsing shared by snowboard_cli and
// snowboard_serve.
//
// Each tool describes its commands as CommandInfo tables; the usage text and argument
// validation both read them, so the two cannot drift apart (tools/check_docs.py reads the
// same FlagInfo rows to require every flag in the docs). Unknown flags, stray positional
// arguments and integer values that are not decimal numbers in range are usage errors.
#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>

#include "src/util/strings.h"

namespace snowboard {

// One flag a command accepts. `value_name` is nullptr for valueless flags (--resume);
// "[N]" style names mark flags whose value is optional (--inject-faults).
struct FlagInfo {
  const char* name;        // Without the leading "--".
  const char* value_name;  // nullptr = boolean flag.
  const char* help;
};

struct CommandInfo {
  const char* name;
  const char* summary;
  std::span<const FlagInfo> flags;
};

// Lists every command with its flags, commands padded to `name_width`: the body of a
// tool's --help.
inline void PrintCommands(std::FILE* out, std::span<const CommandInfo> commands,
                          int name_width) {
  for (const CommandInfo& cmd : commands) {
    std::fprintf(out, "  %-*s %s\n", name_width, cmd.name, cmd.summary);
    for (const FlagInfo& flag : cmd.flags) {
      std::string left = std::string("--") + flag.name;
      if (flag.value_name != nullptr) {
        left += std::string(" ") + flag.value_name;
      }
      std::fprintf(out, "    %-24s %s\n", left.c_str(), flag.help);
    }
  }
}

inline const CommandInfo* FindCommand(std::span<const CommandInfo> commands,
                                      const std::string& name) {
  for (const CommandInfo& cmd : commands) {
    if (name == cmd.name) {
      return &cmd;
    }
  }
  return nullptr;
}

// One command's flags. Every getter returns its fallback when the flag is absent.
class Args {
 public:
  // Parses argv[first..] against `cmd`'s flag table. False, after a message on stderr, on
  // an unknown flag, a stray positional argument, or a value given to a valueless flag. A
  // flag followed by another flag (or by nothing) is stored as "1": --resume, and bare
  // --inject-faults, which means "crash at the first fault point".
  bool Parse(const char* tool, int argc, char** argv, int first, const CommandInfo& cmd) {
    context_ = std::string(tool) + " " + cmd.name;
    for (int i = first; i < argc; i++) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "%s: unexpected argument '%s'\n", context_.c_str(), arg);
        return false;
      }
      std::string key = arg + 2;
      const FlagInfo* flag = nullptr;
      for (const FlagInfo& candidate : cmd.flags) {
        if (key == candidate.name) {
          flag = &candidate;
          break;
        }
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "%s: unknown flag --%s\n", context_.c_str(), key.c_str());
        return false;
      }
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        values_[key] = '1';
      } else if (flag->value_name == nullptr) {
        std::fprintf(stderr, "%s: flag --%s takes no value\n", context_.c_str(), key.c_str());
        return false;
      } else {
        values_[key] = argv[++i];
      }
    }
    return true;
  }

  const char* Get(const std::string& key, const char* fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.c_str();
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  // Integer flags, read with ParseInt/ParseU64 (util/strings.h): false, after a message on
  // stderr, unless the value is a decimal number that fits (|value| <= 2^30 for GetInt).
  bool GetInt(const std::string& key, int fallback, int* out) const {
    *out = fallback;
    return Read(key, [out](const std::string& text) { return ParseInt(text, out); });
  }
  bool GetU64(const std::string& key, uint64_t fallback, uint64_t* out) const {
    *out = fallback;
    return Read(key, [out](const std::string& text) { return ParseU64(text, out); });
  }

 private:
  template <typename Parser>
  bool Read(const std::string& key, Parser parse) const {
    auto it = values_.find(key);
    if (it == values_.end() || parse(it->second)) {
      return true;
    }
    std::fprintf(stderr, "%s: --%s takes a decimal integer in range, not '%s'\n",
                 context_.c_str(), key.c_str(), it->second.c_str());
    return false;
  }

  std::string context_;  // "<tool> <command>", the prefix of every message.
  std::map<std::string, std::string> values_;
};

}  // namespace snowboard

#endif  // TOOLS_FLAGS_H_
