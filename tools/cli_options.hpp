// Option reading shared by the command-line tools (vasim, check_probe).
//
// A command declares the options it reads in its usage synopsis: every
// `--name` written there is read, `[--name]` as a flag and `--name VALUE`
// as an option that takes a value.  parse_options refuses, by name and
// before the command does any work, a name the tool does not know and a
// name this command does not read.  Numeric values are then read whole:
// "2k", "-1" or "0.97V" is an error, never the prefix that parses.
#ifndef VASIM_TOOLS_CLI_OPTIONS_HPP
#define VASIM_TOOLS_CLI_OPTIONS_HPP

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/common/types.hpp"

namespace vasim::cli {

/// Option names mapped to whether the option takes a value.
using OptionSet = std::map<std::string, bool, std::less<>>;

/// The options `synopsis` declares (see the file comment).
inline OptionSet declared_options(std::string_view synopsis) {
  OptionSet out;
  for (std::size_t at = synopsis.find("--"); at != std::string_view::npos;
       at = synopsis.find("--", at)) {
    at += 2;
    const std::size_t end = synopsis.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at);
    const bool takes_value = end < synopsis.size() && synopsis[end] == ' ';
    out[std::string(synopsis.substr(at, end - at))] = takes_value;
    at = end;
  }
  return out;
}

/// `head` then `synopsis`, its later lines indented to line up with the first.
inline std::string usage_line(const std::string& head, std::string_view synopsis) {
  std::string line = head;
  for (const char c : synopsis) {
    line += c == '\n' ? "\n" + std::string(head.size(), ' ') : std::string(1, c);
  }
  return line;
}

/// The options of one command line, by name; a flag's value is "1".
struct Args {
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return options.count(key) != 0; }
};

/// Reads argv[start, argc) as the options of the command `who`, which reads
/// `reads`; `known` holds every option of the tool.  Throws
/// std::invalid_argument on a name outside `known` ("unknown option '--x'")
/// and on one outside `reads` ("<who> does not read --x").  Returns false on
/// a word that is not an option and on a value option missing its value,
/// for the caller to print its usage.
inline bool parse_options(int start, int argc, char** argv, const OptionSet& reads,
                          const OptionSet& known, std::string_view who, Args& out) {
  for (int i = start; i < argc; ++i) {
    const std::string_view word = argv[i];
    if (word.rfind("--", 0) != 0) return false;
    const std::string name(word.substr(2));
    if (known.count(name) == 0) throw std::invalid_argument("unknown option '--" + name + "'");
    const auto it = reads.find(name);
    if (it == reads.end()) {
      throw std::invalid_argument(std::string(who) + " does not read --" + name);
    }
    if (!it->second) {
      out.options[name] = "1";
    } else {
      if (i + 1 >= argc) return false;
      out.options[name] = argv[++i];
    }
  }
  return true;
}

/// `text` as an unsigned integer no larger than `max`.  The whole text must
/// be decimal digits; anything else is refused naming `what`.
inline u64 parse_u64(std::string_view what, std::string_view text,
                     u64 max = std::numeric_limits<u64>::max()) {
  u64 x = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), x);
  if (ec == std::errc::invalid_argument || end != text.data() + text.size()) {
    throw std::invalid_argument(std::string(what) + " expects an unsigned integer, got '" +
                                std::string(text) + "'");
  }
  if (ec == std::errc::result_out_of_range || x > max) {
    throw std::invalid_argument(std::string(what) + " expects an unsigned integer no larger " +
                                "than " + std::to_string(max) + ", got '" + std::string(text) +
                                "'");
  }
  return x;
}

/// The value of --NAME read by parse_u64, or `fallback` when it is absent.
inline u64 opt_u64(const Args& args, const std::string& name, u64 fallback,
                   u64 max = std::numeric_limits<u64>::max()) {
  return args.has(name) ? parse_u64("option '--" + name + "'", args.get(name), max) : fallback;
}

/// The value of --NAME as a finite number, or `fallback` when it is absent;
/// trailing text ("0.97V"), "inf" and "nan" are refused by name.
inline double opt_double(const Args& args, const std::string& name, double fallback) {
  if (!args.has(name)) return fallback;
  const std::string v = args.get(name);
  double x = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size() || !std::isfinite(x)) {
    throw std::invalid_argument("option '--" + name + "' expects a finite number, got '" + v +
                                "'");
  }
  return x;
}

}  // namespace vasim::cli

#endif  // VASIM_TOOLS_CLI_OPTIONS_HPP
