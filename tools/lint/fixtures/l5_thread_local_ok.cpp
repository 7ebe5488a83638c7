// L5 positive fixture: state owned by an object the caller holds, and the
// keyword only inside comments, strings or longer identifiers, must stay
// silent. A thread_local in this comment is text, not storage.
#include <vector>

namespace monge {

struct Engine {
  std::vector<int> arena;
};

struct Solver {
  Engine engine;  // one per Solver, owned by whoever built the Solver
};

int thread_local_count = 0;

const char* doc() { return "never declare thread_local engines"; }

int solve(Solver& solver) {
  solver.engine.arena.push_back(thread_local_count);
  return static_cast<int>(solver.engine.arena.size());
}

}  // namespace monge
