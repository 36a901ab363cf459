// Fixture: trial lines are embedded verbatim in checkpoints, WAL
// records and frames, so src/core/trial.* is a serde path.
#include <sstream>
#include <string>

std::string FirstToken(const std::string& line) {
  std::stringstream in(line);
  std::string token;
  in >> token;
  return token;
}
