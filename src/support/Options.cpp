//===- support/Options.cpp - Tiny command-line parser ---------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"
#include "support/Compiler.h"
#include "support/Error.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace atc;

void OptionSet::addInt(const std::string &Name, long long *Storage,
                       const std::string &Help, long long Min,
                       long long Max) {
  Options.push_back({Name, OptionKind::Int, Storage, Help, Min, Max});
}

void OptionSet::addDouble(const std::string &Name, double *Storage,
                          const std::string &Help) {
  Options.push_back({Name, OptionKind::Double, Storage, Help});
}

void OptionSet::addString(const std::string &Name, std::string *Storage,
                          const std::string &Help) {
  Options.push_back({Name, OptionKind::String, Storage, Help});
}

void OptionSet::addFlag(const std::string &Name, bool *Storage,
                        const std::string &Help) {
  Options.push_back({Name, OptionKind::Flag, Storage, Help});
}

const OptionSet::Option *OptionSet::find(const std::string &Name) const {
  for (const Option &Opt : Options)
    if (Opt.Name == Name)
      return &Opt;
  return nullptr;
}

void OptionSet::setValue(const Option &Opt, const std::string &Value) {
  switch (Opt.Kind) {
  case OptionKind::Int: {
    char *End = nullptr;
    errno = 0;
    long long V = std::strtoll(Value.c_str(), &End, 10);
    if (End == Value.c_str() || *End != '\0')
      reportFatalError("option --" + Opt.Name + " expects an integer, got '" +
                       Value + "'");
    if (errno == ERANGE || V < Opt.Min || V > Opt.Max) {
      std::fprintf(stderr, "option --%s expects an integer in [%lld, %lld], "
                           "got '%s'\n",
                   Opt.Name.c_str(), Opt.Min, Opt.Max, Value.c_str());
      std::exit(2);
    }
    *static_cast<long long *>(Opt.Storage) = V;
    return;
  }
  case OptionKind::Double: {
    char *End = nullptr;
    double V = std::strtod(Value.c_str(), &End);
    if (End == Value.c_str() || *End != '\0')
      reportFatalError("option --" + Opt.Name + " expects a number, got '" +
                       Value + "'");
    *static_cast<double *>(Opt.Storage) = V;
    return;
  }
  case OptionKind::String:
    *static_cast<std::string *>(Opt.Storage) = Value;
    return;
  case OptionKind::Flag:
    if (Value == "true" || Value == "1") {
      *static_cast<bool *>(Opt.Storage) = true;
    } else if (Value == "false" || Value == "0") {
      *static_cast<bool *>(Opt.Storage) = false;
    } else {
      reportFatalError("option --" + Opt.Name + " expects true/false, got '" +
                       Value + "'");
    }
    return;
  }
  ATC_UNREACHABLE("unhandled option kind");
}

void OptionSet::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::string Text = usage(Argv[0]);
      std::fwrite(Text.data(), 1, Text.size(), stdout);
      std::exit(0);
    }
    bool LongOpt = Arg.rfind("--", 0) == 0;
    bool ShortOpt = !LongOpt && Arg.size() >= 2 && Arg[0] == '-' &&
                    (std::isalpha(static_cast<unsigned char>(Arg[1])) != 0);
    if (!LongOpt && !ShortOpt) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(LongOpt ? 2 : 1);
    std::string Value;
    bool HasValue = false;
    if (std::size_t Eq = Body.find('='); Eq != std::string::npos) {
      Value = Body.substr(Eq + 1);
      Body = Body.substr(0, Eq);
      HasValue = true;
    }
    const Option *Opt = find(Body);
    if (!Opt)
      reportFatalError("unknown option --" + Body);
    if (Opt->Kind == OptionKind::Flag && !HasValue) {
      *static_cast<bool *>(Opt->Storage) = true;
      continue;
    }
    if (!HasValue) {
      if (I + 1 >= Argc)
        reportFatalError("option --" + Body + " expects a value");
      Value = Argv[++I];
    }
    setValue(*Opt, Value);
  }
}

std::string OptionSet::usage(const std::string &Argv0) const {
  std::string Out = "usage: " + Argv0 + " [options]\n";
  if (!Description.empty())
    Out += Description + "\n";
  Out += "options:\n";
  for (const Option &Opt : Options) {
    Out += "  --" + Opt.Name;
    switch (Opt.Kind) {
    case OptionKind::Int:
      Out += "=N";
      break;
    case OptionKind::Double:
      Out += "=X";
      break;
    case OptionKind::String:
      Out += "=STR";
      break;
    case OptionKind::Flag:
      break;
    }
    Out += "\n      " + Opt.Help + "\n";
  }
  Out += "  --help\n      print this help\n";
  return Out;
}
