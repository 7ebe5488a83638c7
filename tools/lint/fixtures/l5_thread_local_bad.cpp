// L5 negative fixture: every spelling of thread-local storage must fire.
#include <vector>

namespace monge {

struct Engine {
  std::vector<int> arena;
};

Engine& per_thread_engine() {
  thread_local Engine engine;  // monge-lint-expect: L5
  return engine;
}

static thread_local int depth = 0;  // monge-lint-expect: L5

__thread int gnu_counter = 0;  // monge-lint-expect: L5

int bump() { return ++depth + ++gnu_counter; }

}  // namespace monge
