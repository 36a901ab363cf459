#include "src/common/serde.h"

#include <charconv>
#include <cstring>

namespace llamatune {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// std::strtoll rules: optional leading whitespace, an optional sign,
/// digits, and nothing after them.
template <typename Int>
bool ParseDecimal(std::string_view token, Int* value) {
  while (!token.empty() && IsSpace(token.front())) token.remove_prefix(1);
  if (token.size() > 1 && token[0] == '+' && token[1] >= '0' &&
      token[1] <= '9') {
    token.remove_prefix(1);
  }
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end && !token.empty();
}

bool DecodeBits(std::string_view token, double* value) {
  if (token.size() != 16 ||
      token.find_first_not_of(kHexDigits) != std::string_view::npos) {
    return false;
  }
  uint64_t bits = 0;
  std::from_chars(token.data(), token.data() + token.size(), bits, 16);
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

void AppendBits(double value, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[16];
  for (int i = 15; i >= 0; --i, bits >>= 4) buf[i] = kHexDigits[bits & 0xf];
  out->append(buf, sizeof(buf));
}

void AppendHex(std::string_view bytes, std::string* out) {
  out->reserve(out->size() + bytes.size() * 2);
  for (unsigned char c : bytes) {
    out->push_back(kHexDigits[c >> 4]);
    out->push_back(kHexDigits[c & 0xf]);
  }
}

/// Decodes lowercase hex; returns an error message, or "" on success.
std::string DecodeHex(std::string_view token, std::string* out) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (token.size() % 2 != 0) {
    return "DecodeBytes: odd-length hex: " + std::string(token);
  }
  out->clear();
  out->reserve(token.size() / 2);
  for (size_t i = 0; i < token.size(); i += 2) {
    int hi = nibble(token[i]);
    int lo = nibble(token[i + 1]);
    if (hi < 0 || lo < 0) {
      return "DecodeBytes: bad hex digit in: " + std::string(token);
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return "";
}

}  // namespace

std::string EncodeDoubleBits(double value) {
  std::string out;
  AppendBits(value, &out);
  return out;
}

Result<double> DecodeDoubleBits(const std::string& token) {
  double value = 0.0;
  if (!DecodeBits(token, &value)) {
    return Status::InvalidArgument("malformed double bit pattern: " + token);
  }
  return value;
}

std::string EncodeBytes(const std::string& bytes) {
  std::string out;
  AppendHex(bytes, &out);
  return out;
}

Result<std::string> DecodeBytes(const std::string& token) {
  std::string out;
  std::string error = DecodeHex(token, &out);
  if (!error.empty()) return Status::InvalidArgument(std::move(error));
  return out;
}

Result<int64_t> ParseInt64(const std::string& token) {
  int64_t value = 0;
  if (!ParseDecimal(token, &value)) {
    return Status::InvalidArgument("not an integer: " + token);
  }
  return value;
}

// ---------------------------------------------------------------------------
// TokenWriter
// ---------------------------------------------------------------------------

void TokenWriter::Separate() {
  if (!out_.empty() && out_.back() != '\n') out_.push_back(' ');
}

TokenWriter& TokenWriter::Word(std::string_view word) {
  Separate();
  out_.append(word);
  return *this;
}

TokenWriter& TokenWriter::Int(int64_t value) {
  char buf[24];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return Word(std::string_view(buf, result.ptr - buf));
}

TokenWriter& TokenWriter::U64(uint64_t value) {
  char buf[24];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return Word(std::string_view(buf, result.ptr - buf));
}

TokenWriter& TokenWriter::Bits(double value) {
  Separate();
  AppendBits(value, &out_);
  return *this;
}

TokenWriter& TokenWriter::Doubles(const std::vector<double>& values) {
  Count(values.size());
  for (double value : values) Bits(value);
  return *this;
}

TokenWriter& TokenWriter::Str(std::string_view bytes) {
  Separate();
  out_.push_back('x');
  AppendHex(bytes, &out_);
  return *this;
}

TokenWriter& TokenWriter::Hex(std::string_view bytes) {
  Separate();
  AppendHex(bytes, &out_);
  return *this;
}

TokenWriter& TokenWriter::EndLine() {
  out_.push_back('\n');
  return *this;
}

TokenWriter& TokenWriter::Raw(std::string_view text) {
  out_.append(text);
  return *this;
}

// ---------------------------------------------------------------------------
// TokenReader
// ---------------------------------------------------------------------------

void TokenReader::Fail(const std::string& message) {
  if (!status_.ok()) return;
  status_ = Status::InvalidArgument(
      context_.empty() ? message : std::string(context_) + ": " + message);
}

void TokenReader::SkipSpace() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
}

bool TokenReader::AtEnd() {
  SkipSpace();
  return pos_ >= text_.size();
}

void TokenReader::ExpectEnd() {
  if (ok() && !AtEnd()) {
    Fail("unexpected trailing token '" + std::string(Next()) + "'");
  }
}

std::string_view TokenReader::Next() {
  if (!ok() || AtEnd()) return {};
  size_t begin = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  return text_.substr(begin, pos_ - begin);
}

std::string_view TokenReader::Word(std::string_view what) {
  std::string_view token = Next();
  if (token.empty()) Fail("truncated input, expected " + std::string(what));
  return token;
}

TokenReader& TokenReader::Expect(std::string_view word) {
  std::string_view got = Next();
  if (got != word) {
    Fail(got.empty() ? "truncated input, expected '" + std::string(word) + "'"
                     : "expected '" + std::string(word) + "', got '" +
                           std::string(got) + "'");
  }
  return *this;
}

int64_t TokenReader::Int() {
  std::string_view token = Word("an integer");
  int64_t value = 0;
  if (ok() && !ParseDecimal(token, &value)) {
    Fail("not an integer: " + std::string(token));
  }
  return ok() ? value : 0;
}

int64_t TokenReader::IntIn(int64_t lo, int64_t hi) {
  int64_t value = Int();
  if (ok() && (value < lo || value > hi)) {
    Fail("integer " + std::to_string(value) + " outside [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return ok() ? value : 0;
}

int TokenReader::Int32() {
  return static_cast<int>(IntIn(INT32_MIN, INT32_MAX));
}

uint64_t TokenReader::U64() {
  std::string_view token = Word("an unsigned integer");
  uint64_t value = 0;
  if (ok() && !ParseDecimal(token, &value)) {
    Fail("not an unsigned integer: " + std::string(token));
  }
  return ok() ? value : 0;
}

double TokenReader::Bits() {
  std::string_view token = Word("a double bit pattern");
  double value = 0.0;
  if (ok() && !DecodeBits(token, &value)) {
    Fail("malformed double bit pattern: " + std::string(token));
  }
  return ok() ? value : 0.0;
}

std::vector<double> TokenReader::Doubles() {
  std::vector<double> values;
  for (int64_t i = 0, n = Count(&values); i < n && ok(); ++i) {
    values.push_back(Bits());
  }
  return values;
}

std::string TokenReader::Str() {
  std::string_view token = Word("an x-prefixed hex string");
  std::string value;
  if (!ok()) return value;
  if (token[0] != 'x') {
    Fail("not an x-prefixed hex string: " + std::string(token));
    return value;
  }
  std::string error = DecodeHex(token.substr(1), &value);
  if (!error.empty()) Fail(error);
  return value;
}

std::string TokenReader::Hex() {
  std::string_view token = Word("a hex string");
  std::string value;
  if (!ok()) return value;
  std::string error = DecodeHex(token, &value);
  if (!error.empty()) Fail(error);
  return value;
}

void TokenReader::SkipLine() {
  if (!ok()) return;
  size_t newline = text_.find('\n', pos_);
  pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
}

std::string_view TokenReader::LinesUntil(std::string_view terminator) {
  if (!ok()) return {};
  const size_t begin = pos_;
  while (pos_ < text_.size()) {
    size_t newline = text_.find('\n', pos_);
    size_t end = newline == std::string_view::npos ? text_.size() : newline;
    size_t line_start = pos_;
    pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
    if (text_.substr(line_start, end - line_start) == terminator) {
      return text_.substr(begin, line_start - begin);
    }
  }
  return text_.substr(begin);
}

}  // namespace llamatune
