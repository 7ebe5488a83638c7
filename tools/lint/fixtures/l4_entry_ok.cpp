// L4 positive fixture: every member outside the exempt list validates the
// size limit, either directly through a checker or by delegating to a
// checked member; the exempt constructor and accessor need no check.
// Self-test config:
// monge-lint-l4: class=Engine exempt=Engine,calls checkers=check_limit,kEngineMaxN
#include <cstdint>
#include <span>
#include <vector>

namespace monge {

inline constexpr std::int64_t kEngineMaxN = 1 << 30;

struct Engine {
  Engine();
  void mul_into(std::span<const std::int32_t> a, std::span<std::int32_t> out);
  std::vector<std::int32_t> mul_raw(std::span<const std::int32_t> a);
  std::vector<std::int32_t> mul(std::span<const std::int32_t> a);
  std::int64_t calls() const;
  std::int64_t calls_ = 0;
};

void check_limit(std::size_t size);

// Exempt: takes no product input.
Engine::Engine() : calls_(0) {}

// Direct check through the named helper.
void Engine::mul_into(std::span<const std::int32_t> a,
                      std::span<std::int32_t> out) {
  check_limit(a.size());
  (void)out;
}

// Direct check against the named constant.
std::vector<std::int32_t> Engine::mul_raw(std::span<const std::int32_t> a) {
  if (static_cast<std::int64_t>(a.size()) > kEngineMaxN) return {};
  std::vector<std::int32_t> out(a.size());
  mul_into(a, out);
  return out;
}

// Checked by delegation: calls mul_into, which checks.
std::vector<std::int32_t> Engine::mul(std::span<const std::int32_t> a) {
  std::vector<std::int32_t> out(a.size());
  mul_into(a, out);
  return out;
}

// Exempt: a counter read.
std::int64_t Engine::calls() const { return calls_; }

}  // namespace monge
