#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/core/trial.h"
#include "src/optimizer/history_io.h"

namespace llamatune {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SerdeTest, DoubleBitsRoundTripExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           1.0 / 3.0,
                           -1e308,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    Result<double> back = DecodeDoubleBits(EncodeDoubleBits(v));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(SameBits(v, *back)) << "value " << v;
  }
  EXPECT_EQ(EncodeDoubleBits(1.0), "3ff0000000000000");
}

TEST(SerdeTest, DecodeRejectsMalformedTokens) {
  EXPECT_FALSE(DecodeDoubleBits("").ok());
  EXPECT_FALSE(DecodeDoubleBits("3ff").ok());
  EXPECT_FALSE(DecodeDoubleBits("3ff000000000000g").ok());
  EXPECT_FALSE(DecodeDoubleBits("3ff00000000000000").ok());  // 17 digits
}

TEST(SerdeTest, ParseInt64RejectsJunk) {
  ASSERT_TRUE(ParseInt64("-42").ok());
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_FALSE(ParseInt64("42x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
}

TEST(TokenCodecTest, WriterSeparatesTokensWithinLines) {
  TokenWriter out;
  out.Word("round").Word("B").Int(-5).Count(2).EndLine();
  out.Word("state").Bool(true).Bits(1.0).Hex("").EndLine();
  out.Word("name").Str("a b").Str("").U64(18446744073709551615ULL);
  out.Word("point").Doubles({0.5});
  EXPECT_EQ(out.str(),
            "round B -5 2\n"
            "state 1 3ff0000000000000 \n"
            "name x612062 x 18446744073709551615 point 1 3fe0000000000000");
}

TEST(TokenCodecTest, ReaderSplitsOnTheOperatorWhitespaceSet) {
  TokenReader in(" a\t1\n\v-2\f\r+3  x6869\n");
  EXPECT_EQ(in.Word(), "a");
  EXPECT_EQ(in.Int(), 1);
  EXPECT_EQ(in.Int(), -2);
  EXPECT_EQ(in.Int(), 3);
  EXPECT_EQ(in.Str(), "hi");
  EXPECT_TRUE(in.AtEnd());
  EXPECT_TRUE(in.ok());
  in.ExpectEnd();
  EXPECT_TRUE(in.ok());
}

TEST(TokenCodecTest, FirstErrorSticksAndLaterReadsAreInert) {
  TokenReader in("n 5x 7 end", "wire");
  EXPECT_EQ(in.Expect("n").Int(), 0);
  ASSERT_FALSE(in.ok());
  const std::string first = in.status().message();
  EXPECT_EQ(first, "wire: not an integer: 5x");
  EXPECT_EQ(in.Int(), 0);  // does not consume "7"
  in.Expect("nope");
  EXPECT_EQ(in.Word(), "");
  EXPECT_EQ(in.status().message(), first);
  EXPECT_EQ(in.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(in.Finish(1).ok());
}

TEST(TokenCodecTest, IntegerTokensFollowParseInt64) {
  for (const char* good : {"0", "-0", "+7", "-9223372036854775808",
                           "9223372036854775807"}) {
    TokenReader in(good);
    in.Int();
    EXPECT_TRUE(in.ok()) << good;
    EXPECT_TRUE(ParseInt64(good).ok()) << good;
  }
  for (const char* bad : {"5x", "+-5", "-", "+", "0x10", "1e3",
                          "9223372036854775808"}) {
    TokenReader in(bad);
    in.Int();
    EXPECT_FALSE(in.ok()) << bad;
    EXPECT_FALSE(ParseInt64(bad).ok()) << bad;
  }
  TokenReader u64("18446744073709551615 -1");
  EXPECT_EQ(u64.U64(), 18446744073709551615ULL);
  u64.U64();
  EXPECT_FALSE(u64.ok());
}

TEST(TokenCodecTest, Int32RejectsValuesAnIntCannotHold) {
  TokenReader in("2147483647 -2147483648 4294967297");
  EXPECT_EQ(in.Int32(), 2147483647);
  EXPECT_EQ(in.Int32(), -2147483647 - 1);
  EXPECT_TRUE(in.ok());
  in.Int32();
  EXPECT_FALSE(in.ok());

  TokenReader range("3 4");
  EXPECT_EQ(range.IntIn(0, 3), 3);
  range.IntIn(0, 3);
  EXPECT_FALSE(range.ok());
}

TEST(TokenCodecTest, HugeCountsFailAsTruncatedInput) {
  TokenReader in("1000000000000 3ff0000000000000");
  std::vector<double> values = in.Doubles();
  EXPECT_FALSE(in.ok());
  EXPECT_LE(values.capacity(), 4096u);
  EXPECT_EQ(TokenReader::ReserveHint(-3), 0u);
  EXPECT_EQ(TokenReader::ReserveHint(1), 1u);
}

TEST(TokenCodecTest, LinesUntilStopsAtAnExactTerminatorLine) {
  TokenReader in("history 2 ignored\nobs a\n end\nend\nafter\n");
  EXPECT_EQ(in.Expect("history").Int(), 2);
  in.SkipLine();
  EXPECT_EQ(in.LinesUntil("end"), "obs a\n end\n");
  EXPECT_EQ(in.Word(), "after");

  TokenReader unterminated("x\nobs b");
  unterminated.SkipLine();
  EXPECT_EQ(unterminated.LinesUntil("end"), "obs b");
  EXPECT_TRUE(unterminated.AtEnd());
}

TEST(TrialTest, TrialRoundTrips) {
  Trial trial;
  trial.id = 17;
  trial.point = {0.25, -0.5, 1.0 / 3.0};
  trial.config = Configuration({128.0, 0.875, 3.0});
  trial.is_baseline = false;

  Result<Trial> back = ParseTrial(SerializeTrial(trial));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id, trial.id);
  EXPECT_EQ(back->is_baseline, trial.is_baseline);
  ASSERT_EQ(back->point.size(), trial.point.size());
  for (size_t i = 0; i < trial.point.size(); ++i) {
    EXPECT_TRUE(SameBits(back->point[i], trial.point[i]));
  }
  EXPECT_EQ(back->config, trial.config);
}

TEST(TrialTest, BaselineTrialRoundTrips) {
  Trial trial;
  trial.id = 1;
  trial.is_baseline = true;
  trial.config = Configuration({50.0, 0.5});

  Result<Trial> back = ParseTrial(SerializeTrial(trial));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_baseline);
  EXPECT_TRUE(back->point.empty());
  EXPECT_EQ(back->config, trial.config);
}

TEST(TrialTest, TrialResultRoundTrips) {
  TrialResult result;
  result.trial_id = 99;
  result.value = 1234.5678;
  result.outcome = TrialOutcome::kCrashed;
  result.metrics = {1.0, -0.0, 2.5};

  Result<TrialResult> back = ParseTrialResult(SerializeTrialResult(result));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->trial_id, result.trial_id);
  EXPECT_EQ(back->outcome, result.outcome);
  EXPECT_TRUE(back->crashed());
  EXPECT_TRUE(SameBits(back->value, result.value));
  ASSERT_EQ(back->metrics.size(), result.metrics.size());
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    EXPECT_TRUE(SameBits(back->metrics[i], result.metrics[i]));
  }
}

TEST(TrialTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTrial("").ok());
  EXPECT_FALSE(ParseTrial("result 1 0 0000000000000000 metrics 0").ok());
  EXPECT_FALSE(ParseTrial("trial 1 0 point 2 3ff0000000000000").ok());
  EXPECT_FALSE(ParseTrialResult("trial 1 0 point 0 config 0").ok());
  EXPECT_FALSE(ParseTrialResult("result 1 0").ok());
}

TEST(HistoryIoTest, HistoryRoundTripsBitForBit) {
  std::vector<Observation> history;
  history.push_back({{0.1, 0.2, 0.3}, 55.5});
  history.push_back({{1.0 / 7.0, -0.0}, -1e-9});
  history.push_back({{}, 0.0});

  std::string text = SerializeHistory(history);
  Result<std::vector<Observation>> back =
      ParseHistory(text, static_cast<int>(history.size()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(HistoryBitsEqual(history, *back));
}

TEST(HistoryIoTest, CountMismatchAndGarbageFail) {
  std::vector<Observation> history = {{{0.5}, 1.0}};
  std::string text = SerializeHistory(history);
  EXPECT_FALSE(ParseHistory(text, 2).ok());
  EXPECT_FALSE(ParseHistory("obs 1 zzz", 1).ok());
  EXPECT_FALSE(ParseHistory("nonsense", -1).ok());
}

TEST(HistoryIoTest, BitsEqualDistinguishesValues) {
  std::vector<Observation> a = {{{0.5}, 1.0}};
  std::vector<Observation> b = {{{0.5}, 1.0}};
  EXPECT_TRUE(HistoryBitsEqual(a, b));
  b[0].value = std::nextafter(1.0, 2.0);
  EXPECT_FALSE(HistoryBitsEqual(a, b));
  b[0].value = 1.0;
  b[0].point[0] = -0.5;
  EXPECT_FALSE(HistoryBitsEqual(a, b));
  b.clear();
  EXPECT_FALSE(HistoryBitsEqual(a, b));
}

// Seeded mutation fuzz: truncations and byte flips of valid trial,
// result and history text must return a Status, never crash.
TEST(FuzzTest, TrialAndHistoryParsersNeverCrashOnMutatedBytes) {
  Trial trial;
  trial.id = 12;
  trial.point = {0.25, -0.0};
  trial.config = Configuration({64.0, 0.5, 2.0});
  trial.fidelity = 0.5;
  TrialResult result;
  result.trial_id = 12;
  result.value = 42.5;
  result.outcome = TrialOutcome::kLost;
  result.metrics = {1.0, 2.0, 3.0};
  std::vector<Observation> history = {{{0.5, 0.25}, 1.0}, {{}, -2.0}};
  const std::vector<std::string> corpus = {SerializeTrial(trial),
                                           SerializeTrialResult(result),
                                           SerializeHistory(history)};
  auto parse_all = [](const std::string& text) {
    Result<Trial> t = ParseTrial(text);
    if (t.ok()) {
      EXPECT_TRUE(t->fidelity > 0.0 && t->fidelity <= 1.0);
    }
    ParseTrialResult(text);
    ParseHistory(text, -1);
    ParseHistory(text, 2);
  };
  for (const std::string& text : corpus) {
    for (size_t cut = 0; cut <= text.size(); ++cut) {
      parse_all(text.substr(0, cut));
    }
  }
  Rng rng(20261017);
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = corpus[rng.UniformInt(0, corpus.size() - 1)];
    int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < flips; ++m) {
      mutated[rng.UniformInt(0, mutated.size() - 1)] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    parse_all(mutated);
  }
}

}  // namespace
}  // namespace llamatune
