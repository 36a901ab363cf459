// Fixture: a hand-rolled stream parser in a wire path (src/net/) — a
// second grammar next to TokenReader that can drift from it.
#include <sstream>
#include <string>

long ParseCount(const std::string& payload) {
  std::istringstream in(payload);
  std::string tag;
  long count = 0;
  in >> tag >> count;
  return count;
}
