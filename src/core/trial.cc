#include "src/core/trial.h"

namespace llamatune {

// The optional trailing `fid <bits>` pair: absent means full fidelity
// (the only value pre-fidelity writers produced), so old serialized
// trials/results parse unchanged; conversely the writers emit it only
// for fidelity != 1.0, keeping the full-fidelity encoding
// byte-identical to the pre-fidelity format.

std::string SerializeTrial(const Trial& trial) {
  TokenWriter out;
  out.Word("trial").Int(trial.id).Bool(trial.is_baseline);
  out.Word("point").Doubles(trial.point);
  out.Word("config").Doubles(trial.config.values());
  if (trial.fidelity != 1.0) out.Word("fid").Bits(trial.fidelity);
  return out.Take();
}

Result<Trial> ParseTrial(const std::string& line) {
  TokenReader in(line);
  Trial trial;
  trial.id = in.Expect("trial").Int();
  trial.is_baseline = in.Bool();
  trial.point = in.Expect("point").Doubles();
  trial.config = Configuration(in.Expect("config").Doubles());
  if (!in.AtEnd()) trial.fidelity = in.Expect("fid").Bits();
  in.ExpectEnd();
  if (in.ok() && !(trial.fidelity > 0.0 && trial.fidelity <= 1.0)) {
    in.Fail("fidelity out of (0, 1]: " + EncodeDoubleBits(trial.fidelity));
  }
  return in.Finish(std::move(trial));
}

std::string SerializeTrialResult(const TrialResult& result) {
  TokenWriter out;
  out.Word("result").Int(result.trial_id).Int(static_cast<int>(result.outcome));
  out.Bits(result.value).Word("metrics").Doubles(result.metrics);
  if (result.fidelity != 1.0) out.Word("fid").Bits(result.fidelity);
  return out.Take();
}

Result<TrialResult> ParseTrialResult(const std::string& line) {
  TokenReader in(line);
  TrialResult result;
  result.trial_id = in.Expect("result").Int();
  result.outcome = static_cast<TrialOutcome>(
      in.IntIn(0, static_cast<int64_t>(TrialOutcome::kLost)));
  result.value = in.Bits();
  result.metrics = in.Expect("metrics").Doubles();
  if (!in.AtEnd()) result.fidelity = in.Expect("fid").Bits();
  in.ExpectEnd();
  if (in.ok() && !(result.fidelity > 0.0 && result.fidelity <= 1.0)) {
    in.Fail("fidelity out of (0, 1]: " + EncodeDoubleBits(result.fidelity));
  }
  return in.Finish(std::move(result));
}

}  // namespace llamatune
