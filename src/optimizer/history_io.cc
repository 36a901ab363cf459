#include "src/optimizer/history_io.h"

#include <cstring>

#include "src/common/serde.h"

namespace llamatune {

namespace {

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string SerializeHistory(const std::vector<Observation>& history) {
  TokenWriter out;
  for (const Observation& obs : history) {
    out.Word("obs").Doubles(obs.point).Bits(obs.value).EndLine();
  }
  return out.Take();
}

Result<std::vector<Observation>> ParseHistory(const std::string& text,
                                              int expected_count) {
  TokenReader in(text, "history");
  std::vector<Observation> history;
  history.reserve(TokenReader::ReserveHint(expected_count));
  while (in.ok() && !in.AtEnd()) {
    Observation obs;
    obs.point = in.Expect("obs").Doubles();
    obs.value = in.Bits();
    history.push_back(std::move(obs));
  }
  if (!in.ok()) return in.status();
  if (expected_count >= 0 &&
      static_cast<int>(history.size()) != expected_count) {
    return Status::InvalidArgument(
        "history: observation count mismatch: expected " +
        std::to_string(expected_count) + ", parsed " +
        std::to_string(history.size()));
  }
  return history;
}

bool HistoryBitsEqual(const std::vector<Observation>& a,
                      const std::vector<Observation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].point.size() != b[i].point.size()) return false;
    if (!BitsEqual(a[i].value, b[i].value)) return false;
    for (size_t j = 0; j < a[i].point.size(); ++j) {
      if (!BitsEqual(a[i].point[j], b[i].point[j])) return false;
    }
  }
  return true;
}

}  // namespace llamatune
