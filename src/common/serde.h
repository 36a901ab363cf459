#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace llamatune {

/// \name Bit-exact double text codec
///
/// Checkpoints and the trial wire format must round-trip doubles
/// exactly — a decimal rendering loses bits and would break the
/// bit-for-bit resume guarantee — so doubles are encoded as the
/// 16-hex-digit IEEE-754 bit pattern ("3ff0000000000000" for 1.0).
/// Negative zero and non-finite values (including NaN payloads)
/// survive the round trip unchanged.
/// @{

/// Encodes a double as its 64-bit pattern in lowercase hex.
std::string EncodeDoubleBits(double value);

/// Decodes EncodeDoubleBits output. Fails on malformed tokens.
Result<double> DecodeDoubleBits(const std::string& token);

/// @}

/// Parses a whole-token base-10 signed integer (no trailing junk).
Result<int64_t> ParseInt64(const std::string& token);

/// Hex-encodes arbitrary bytes ("" -> "", "Ok" -> "4f6b"): keeps
/// opaque payloads (objective state blobs) single-token inside the
/// whitespace-delimited checkpoint format.
std::string EncodeBytes(const std::string& bytes);

/// Decodes EncodeBytes output. Fails on odd length or non-hex digits.
Result<std::string> DecodeBytes(const std::string& token);

/// \brief Writes the whitespace-delimited token grammar shared by wire
/// payloads, trial lines, optimizer history, checkpoints and WAL
/// records (TokenReader reads it back).
///
/// Every token is preceded by one space, except at the start of the
/// output or of a line, so `Word("trial").Int(5)` writes "trial 5".
/// Calls chain:
///
///   std::string line = TokenWriter().Word("obs").Doubles(p).Take();
class TokenWriter {
 public:
  /// A verbatim token (a tag or keyword; must not contain whitespace).
  TokenWriter& Word(std::string_view word);
  /// Base-10 integers.
  TokenWriter& Int(int64_t value);
  TokenWriter& U64(uint64_t value);
  TokenWriter& Count(size_t count) { return Int(static_cast<int64_t>(count)); }
  TokenWriter& Bool(bool value) { return Int(value ? 1 : 0); }
  /// A double as its EncodeDoubleBits pattern.
  TokenWriter& Bits(double value);
  /// A count followed by that many Bits tokens.
  TokenWriter& Doubles(const std::vector<double>& values);
  /// Arbitrary bytes as one 'x'-prefixed hex token, so empty strings
  /// and strings with whitespace survive tokenization.
  TokenWriter& Str(std::string_view bytes);
  /// Arbitrary bytes as bare hex (EncodeBytes). An empty string still
  /// writes its separator.
  TokenWriter& Hex(std::string_view bytes);
  /// Ends the current line.
  TokenWriter& EndLine();
  /// Appends already-encoded text verbatim.
  TokenWriter& Raw(std::string_view text);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Separate();

  std::string out_;
};

/// \brief Reads the TokenWriter grammar from a string.
///
/// Tokens are split on exactly the whitespace set `operator>>` uses
/// (" \t\n\v\f\r"). The first error sticks: once a read fails, every
/// later read returns a zero value without consuming input, and
/// status() reports the first failure. A parser therefore reads field
/// after field and checks status() once, at the points where it must
/// act on what it read:
///
///   TokenReader in(line, "wire");
///   int n = in.Expect("askbatch").Expect("n").Int32();
///   if (!in.ok()) return in.status();
///
/// Loops over an untrusted count must also stop on error
/// (`i < n && in.ok()`).
class TokenReader {
 public:
  /// `context` prefixes every error message ("wire: ...").
  explicit TokenReader(std::string_view text, std::string_view context = "")
      : text_(text), context_(context) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Records `message` as the error unless one is already recorded.
  void Fail(const std::string& message);

  /// True when only whitespace remains (never an error).
  bool AtEnd();
  /// Fails unless only whitespace remains.
  void ExpectEnd();

  /// The next token; `what` names it in the truncation error.
  std::string_view Word(std::string_view what = "token");
  /// Consumes the next token and fails unless it equals `word`.
  TokenReader& Expect(std::string_view word);

  /// A whole-token base-10 integer (ParseInt64 rules).
  int64_t Int();
  /// An integer that must lie in [lo, hi].
  int64_t IntIn(int64_t lo, int64_t hi);
  /// An integer that must fit an int: untrusted values are never
  /// narrowed silently.
  int Int32();
  uint64_t U64();
  bool Bool() { return Int() != 0; }
  double Bits();
  std::vector<double> Doubles();
  std::string Str();
  std::string Hex();

  /// Reads an element count and reserves room for it in `out`. The
  /// reserve is clamped: the count is untrusted text, and a corrupt
  /// count must fail through the truncated-input error, not throw
  /// bad_alloc.
  template <typename T>
  int64_t Count(std::vector<T>* out) {
    int64_t count = Int();
    out->reserve(ReserveHint(count));
    return count;
  }
  static size_t ReserveHint(int64_t count) {
    return static_cast<size_t>(std::clamp<int64_t>(count, 0, 4096));
  }

  /// Skips the rest of the current line, including its newline.
  void SkipLine();
  /// Returns the lines before the first line exactly equal to
  /// `terminator` (or the rest of the text when none is) and moves past
  /// the terminator line.
  std::string_view LinesUntil(std::string_view terminator);

  /// `value` when every read succeeded, else the first error.
  template <typename T>
  Result<T> Finish(T value) const {
    if (!ok()) return status_;
    return Result<T>(std::move(value));
  }

 private:
  void SkipSpace();
  /// The next token, or "" at the end of input or after an error.
  std::string_view Next();

  std::string_view text_;
  size_t pos_ = 0;
  std::string_view context_;
  Status status_;
};

}  // namespace llamatune
