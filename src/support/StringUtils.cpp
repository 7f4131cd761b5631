//===- support/StringUtils.cpp - Small string helpers ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

using namespace lbp;

std::string_view lbp::trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B != E && (S[B] == ' ' || S[B] == '\t'))
    ++B;
  while (E != B && (S[E - 1] == ' ' || S[E - 1] == '\t' || S[E - 1] == '\r'))
    --E;
  return S.substr(B, E - B);
}

std::vector<std::string_view> lbp::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Pieces;
  size_t Pos = 0;
  while (true) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string_view::npos) {
      Pieces.push_back(S.substr(Pos));
      return Pieces;
    }
    Pieces.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
}

std::vector<std::string_view> lbp::splitLines(std::string_view S) {
  std::vector<std::string_view> Lines;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Next = S.find('\n', Pos);
    if (Next == std::string_view::npos) {
      Lines.push_back(S.substr(Pos));
      return Lines;
    }
    Lines.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
  return Lines;
}

std::optional<int64_t> lbp::parseInteger(std::string_view S) {
  S = trim(S);
  if (S.empty())
    return std::nullopt;

  bool Negative = false;
  if (S[0] == '+' || S[0] == '-') {
    Negative = S[0] == '-';
    S.remove_prefix(1);
    if (S.empty())
      return std::nullopt;
  }

  int Radix = 10;
  if (S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
    Radix = 16;
    S.remove_prefix(2);
  } else if (S.size() > 2 && S[0] == '0' && (S[1] == 'b' || S[1] == 'B')) {
    Radix = 2;
    S.remove_prefix(2);
  }

  uint64_t Value = 0;
  for (char C : S) {
    int Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      return std::nullopt;
    if (Digit >= Radix ||
        __builtin_mul_overflow(Value, static_cast<uint64_t>(Radix), &Value) ||
        __builtin_add_overflow(Value, static_cast<uint64_t>(Digit), &Value))
      return std::nullopt;
  }
  return static_cast<int64_t>(Negative ? 0 - Value : Value);
}

std::string lbp::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Result(Needed > 0 ? static_cast<size_t>(Needed) : 0, '\0');
  if (Needed > 0)
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  va_end(Args);
  return Result;
}

std::string lbp::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}
