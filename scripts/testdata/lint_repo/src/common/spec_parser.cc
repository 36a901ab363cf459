// Fixture: input streams outside serde paths (an operator-supplied
// option string, never a trajectory byte) must lint clean.
#include <sstream>
#include <string>

int CountOptions(const std::string& spec) {
  std::istringstream in(spec);
  std::string option;
  int count = 0;
  while (in >> option) ++count;
  return count;
}
