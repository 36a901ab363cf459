#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/optimizer/optimizer.h"

namespace llamatune {

/// \brief Bit-exact text serialization of an optimizer's observed
/// history — the optimizer-visible trajectory of a tuning session.
///
/// The session checkpoint embeds this block and uses it two ways: as a
/// record of what the optimizer has seen, and as an integrity pin —
/// TuningSession::Restore replays the trajectory through a freshly
/// seeded optimizer and fails loudly if the replayed history does not
/// reproduce this block bit-for-bit (which would mean the restored
/// stack was wired with a different seed, optimizer, or adapter than
/// the one that produced the checkpoint).
///
/// Format: one "obs" line per observation, doubles encoded as IEEE-754
/// bit patterns (TokenWriter::Bits, src/common/serde.h):
///
///   obs <point dim> <hex>... <value hex>
std::string SerializeHistory(const std::vector<Observation>& history);

/// Parses SerializeHistory output. `text` may carry surrounding
/// whitespace; anything that is not a well-formed "obs" line fails.
Result<std::vector<Observation>> ParseHistory(const std::string& text,
                                              int expected_count);

/// True when the two histories agree bit-for-bit (same length, and
/// every point coordinate and value has an identical bit pattern —
/// NaNs with equal payloads compare equal).
bool HistoryBitsEqual(const std::vector<Observation>& a,
                      const std::vector<Observation>& b);

}  // namespace llamatune
