//===- support/Options.h - Tiny command-line parser -------------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny declarative command-line parser for the benchmark harnesses and
/// example programs: "--name=value", "--name value", "--flag", and
/// positional arguments. Unknown options are fatal errors so typos in
/// experiment sweeps do not silently fall back to defaults.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SUPPORT_OPTIONS_H
#define ATC_SUPPORT_OPTIONS_H

#include <climits>
#include <string>
#include <vector>

namespace atc {

/// Upper bound for worker/thread-count flags: above any core count the
/// runtime targets, and far below where per-worker deques and trace
/// rings would exhaust memory.
inline constexpr long long MaxThreadsFlag = 1024;

/// Declarative option set. Register options, then call parse().
class OptionSet {
public:
  explicit OptionSet(std::string ProgramDescription = "")
      : Description(std::move(ProgramDescription)) {}

  /// Registers an integer-valued option "--name=N". A value outside the
  /// inclusive range [\p Min, \p Max] (or outside long long) prints the
  /// flag and its bounds and exits with status 2.
  void addInt(const std::string &Name, long long *Storage,
              const std::string &Help, long long Min = LLONG_MIN,
              long long Max = LLONG_MAX);

  /// Registers a double-valued option "--name=X".
  void addDouble(const std::string &Name, double *Storage,
                 const std::string &Help);

  /// Registers a string-valued option "--name=str".
  void addString(const std::string &Name, std::string *Storage,
                 const std::string &Help);

  /// Registers a boolean flag "--name" (sets true; "--name=false" clears).
  void addFlag(const std::string &Name, bool *Storage,
               const std::string &Help);

  /// Parses argv. On "--help" prints usage and exits 0. On malformed or
  /// unknown options reports a fatal error. Positional arguments are
  /// collected in positionalArgs().
  void parse(int Argc, const char *const *Argv);

  const std::vector<std::string> &positionalArgs() const { return Positional; }

  /// Renders the usage/help text.
  std::string usage(const std::string &Argv0) const;

private:
  enum class OptionKind { Int, Double, String, Flag };

  struct Option {
    std::string Name;
    OptionKind Kind;
    void *Storage;
    std::string Help;
    long long Min = LLONG_MIN, Max = LLONG_MAX; ///< Int only.
  };

  const Option *find(const std::string &Name) const;
  void setValue(const Option &Opt, const std::string &Value);

  std::string Description;
  std::vector<Option> Options;
  std::vector<std::string> Positional;
};

} // namespace atc

#endif // ATC_SUPPORT_OPTIONS_H
