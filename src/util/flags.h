#ifndef LEGO_UTIL_FLAGS_H_
#define LEGO_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace lego::flags {

/// Destination of an enum-like flag (--backend): parses the value and
/// stores it, or returns an error naming what it accepts.
using Setter = std::function<Status(std::string_view value)>;

/// Where a flag's value goes. A `bool*` is a switch: it takes no value and
/// is set to true. Every other destination takes a value; numbers go through
/// the checked conversions below, and a `std::vector<std::string>*` appends
/// one element per occurrence, in command-line order.
using Target = std::variant<bool*, int*, uint64_t*, double*, std::string*,
                            std::vector<std::string>*, Setter>;

/// One row of a tool's flag table.
struct Flag {
  std::string name;  // without the leading "--"
  Target target;
  std::string arg;   // value placeholder in the usage text; "" for switches
  std::string help;  // one line
};

/// Checked conversions: the whole of `text` must be one decimal number that
/// fits the destination (no sign for the unsigned one, a finite value for
/// the double). Nothing is stored on error.
Status ParseInt(std::string_view text, int* out);
Status ParseUint64(std::string_view text, uint64_t* out);
Status ParseDouble(std::string_view text, double* out);

/// A command-line tool's flag table plus the synopsis its usage text opens
/// with.
struct CommandLine {
  std::string synopsis;
  std::vector<Flag> flags;

  /// Parses argv[1..argc). A value flag takes "--x v" or "--x=v"; a switch
  /// takes "--x" only. Unknown flags (any argument that starts with '-' and
  /// names no row), a missing value, a value given to a switch and a
  /// malformed number are errors. Every other argument is a positional,
  /// appended to `positionals` in order.
  Status Parse(int argc, const char* const* argv,
               std::vector<std::string>* positionals) const;

  /// The synopsis, then one line per flag, in table order.
  std::string Usage() const;

  /// Parse for a tool's main: returns the positionals, or prints the error
  /// and the usage to stderr and exits with status 1.
  std::vector<std::string> ParseOrExit(int argc,
                                       const char* const* argv) const;

  /// Prints `error` and the usage to stderr and exits with status 1; for
  /// errors in positionals found after parsing.
  [[noreturn]] void Fail(const Status& error) const;
};

}  // namespace lego::flags

#endif  // LEGO_UTIL_FLAGS_H_
