//===- support/StringUtils.h - Small string helpers -----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the assembler and the tools: trimming,
/// splitting, integer parsing with RISC-V-style radix prefixes, the
/// tools' range-checked numeric flags, and a printf-style std::string
/// formatter.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SUPPORT_STRINGUTILS_H
#define LBP_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lbp {

/// Returns \p S without leading and trailing spaces and tabs.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep; empty pieces are kept.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Splits \p S into lines (handles a missing final newline).
std::vector<std::string_view> splitLines(std::string_view S);

/// Parses a signed 64-bit integer with optional sign and 0x/0b/0 radix
/// prefixes. Returns std::nullopt when \p S is not entirely a number or
/// its digits do not fit in 64 bits.
std::optional<int64_t> parseInteger(std::string_view S);

/// Reads the value of Argv[\p I], a numeric command-line flag of \p Tool:
/// steps \p I onto the next argument and parses it (parseInteger syntax)
/// into \p Out if it is an integer in [\p Lo, \p Hi]. Otherwise —
/// malformed, out of range, or missing — it prints "<Tool>: <flag> wants
/// an integer in [Lo, Hi]" to stderr, leaves \p Out untouched and returns
/// false, so a negative count can never wrap into a huge unsigned.
template <class T>
bool parseFlagInteger(const char *Tool, int Argc, char **Argv, int &I,
                      int64_t Lo, int64_t Hi, T &Out) {
  const char *Flag = Argv[I];
  std::optional<int64_t> V;
  if (I + 1 < Argc)
    V = parseInteger(Argv[++I]);
  if (!V || *V < Lo || *V > Hi) {
    std::fprintf(stderr, "%s: %s wants an integer in [%lld, %lld]\n", Tool,
                 Flag, static_cast<long long>(Lo), static_cast<long long>(Hi));
    return false;
  }
  Out = static_cast<T>(*V);
  return true;
}

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters. Fault messages and livelock wait reports carry newlines
/// and may quote register/label names; everything else the tools emit
/// is identifier-shaped.
std::string jsonEscape(const std::string &S);

} // namespace lbp

#endif // LBP_SUPPORT_STRINGUTILS_H
