//===- tests/ParamNames.h - Stable parameter text in test names -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GoogleTest prints a value-parameterized test's parameter into its
/// listed name ("# GetParam() = …"), and ctest registers that text as part
/// of the test name. A struct without a PrintTo prints its raw bytes, which
/// ties every name to the struct's layout. A PrintTo that calls
/// printIntFieldsAsBytes prints a fixed list of int fields in exactly that
/// raw-byte form, so the names stay put when a struct loses a field.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_TESTS_PARAMNAMES_H
#define ATC_TESTS_PARAMNAMES_H

#include <cstdio>
#include <initializer_list>
#include <ostream>

namespace atc::test {

/// Prints \p Fields as GoogleTest prints an object of that many
/// consecutive little-endian 4-byte ints:
/// "8-byte object <01-00 00-00 00-00 00-00>".
inline void printIntFieldsAsBytes(std::initializer_list<int> Fields,
                                  std::ostream *OS) {
  *OS << Fields.size() * sizeof(int) << "-byte object <";
  unsigned Byte = 0;
  for (int F : Fields)
    for (unsigned I = 0; I != sizeof(int); ++I, ++Byte) {
      if (Byte != 0)
        *OS << (Byte % 2 == 0 ? ' ' : '-');
      char Hex[3];
      std::snprintf(Hex, sizeof(Hex), "%02X",
                    (static_cast<unsigned>(F) >> (8 * I)) & 0xFFu);
      *OS << Hex;
    }
  *OS << '>';
}

} // namespace atc::test

#endif // ATC_TESTS_PARAMNAMES_H
