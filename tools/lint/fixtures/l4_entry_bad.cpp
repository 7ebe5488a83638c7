// L4 negative fixture: an unchecked member fires, a wrapper delegating to
// an UNchecked member fires too, and so does a member named nowhere in the
// config — the entry list is every member defined here minus the exempt
// list, so nothing has to be listed to be checked. Self-test config:
// monge-lint-l4: class=Engine exempt=Engine checkers=check_limit
#include <cstdint>
#include <span>
#include <vector>

namespace monge {

struct Engine {
  void mul_into(std::span<const std::int32_t> a, std::span<std::int32_t> out);
  std::vector<std::int32_t> mul(std::span<const std::int32_t> a);
  std::vector<std::int32_t> mul_raw(std::span<const std::int32_t> a);
};

// No size validation anywhere on this path.
void Engine::mul_into(std::span<const std::int32_t> a,  // monge-lint-expect: L4
                      std::span<std::int32_t> out) {
  (void)a;
  (void)out;
}

// Delegates, but to an entry point that never checks — still unguarded.
std::vector<std::int32_t> Engine::mul(std::span<const std::int32_t> a) {  // monge-lint-expect: L4
  std::vector<std::int32_t> out(a.size());
  mul_into(a, out);
  return out;
}

// Added without touching the config and never checked: still found.
std::vector<std::int32_t> Engine::mul_raw(std::span<const std::int32_t> a) {  // monge-lint-expect: L4
  return std::vector<std::int32_t>(a.begin(), a.end());
}

}  // namespace monge
