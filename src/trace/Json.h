//===- trace/Json.h - Minimal JSON value and parser -------------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser used by the trace reader
/// (TraceRead.h) and the trace tests to load exported trace.json files
/// back in, plus the one string escaper every JSON writer in the tree
/// uses (escapeJson). Deliberately minimal: full JSON syntax, no
/// streaming, values held as a tagged tree. Not for hot paths. The
/// escaper is inline so header-only users (TraceJson.h in atcc-generated
/// programs) need no library.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_TRACE_JSON_H
#define ATC_TRACE_JSON_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace atc {

/// Escapes \p S for embedding inside a JSON string literal: quote,
/// backslash and every byte below 0x20 (as \n, \r, \t or \u00XX), so
/// json::parse reads back exactly \p S. Bytes from 0x7F up pass through.
inline std::string escapeJson(const std::string &S) {
  static constexpr char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    const auto U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C == '\r') {
      Out += "\\r";
    } else if (C == '\t') {
      Out += "\\t";
    } else if (U < 0x20) {
      Out += "\\u00";
      Out += Hex[U >> 4];
      Out += Hex[U & 0xF];
    } else {
      Out += C;
    }
  }
  return Out;
}

namespace json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// One JSON value. Numbers are kept as double (trace timestamps fit with
/// full precision at the microsecond scale the exporter writes).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() : K(Kind::Null) {}
  explicit Value(bool B) : K(Kind::Bool), BoolV(B) {}
  explicit Value(double N) : K(Kind::Number), NumV(N) {}
  explicit Value(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  explicit Value(Array A)
      : K(Kind::Array), ArrV(std::make_shared<Array>(std::move(A))) {}
  explicit Value(Object O)
      : K(Kind::Object), ObjV(std::make_shared<Object>(std::move(O))) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolV; }
  double asNumber() const { return NumV; }
  const std::string &asString() const { return StrV; }
  const Array &asArray() const { return *ArrV; }
  const Object &asObject() const { return *ObjV; }

  /// Object member lookup; returns null Value when absent or not an
  /// object, so chained lookups degrade gracefully.
  const Value &operator[](const std::string &Key) const {
    static const Value Null;
    if (!isObject())
      return Null;
    auto It = ObjV->find(Key);
    return It == ObjV->end() ? Null : It->second;
  }

  /// Convenience accessors with defaults for schema-tolerant reading.
  double numberOr(double Default) const {
    return isNumber() ? NumV : Default;
  }
  std::string stringOr(const std::string &Default) const {
    return isString() ? StrV : Default;
  }

private:
  Kind K;
  bool BoolV = false;
  double NumV = 0;
  std::string StrV;
  std::shared_ptr<Array> ArrV;
  std::shared_ptr<Object> ObjV;
};

/// Parses \p Text as one JSON document. On failure returns false and
/// fills \p Error with a message carrying the byte offset.
bool parse(const std::string &Text, Value &Out, std::string &Error);

} // namespace json
} // namespace atc

#endif // ATC_TRACE_JSON_H
