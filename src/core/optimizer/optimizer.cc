#include "core/optimizer/optimizer.h"

#include <map>
#include <mutex>
#include <utility>

namespace angelptm::core {
namespace {

std::map<std::string, OptimizerFactory>& Registry() {
  // Leaked-on-purpose function-local: factories may be consulted from
  // benches/tests that outlive main()'s statics.
  static auto* registry =
      new std::map<std::string, OptimizerFactory>();  // lint: naked-new (intentional leak, no destruction-order hazard)
  return *registry;
}

}  // namespace

// Per-implementation registration hooks (defined in the rule's own .cc).
// Explicit calls instead of static initializers: the angelptm static library
// would otherwise dead-strip the unreferenced registration objects.
void RegisterAdamOptimizer();
void RegisterSgdmOptimizer();
void RegisterLambOptimizer();
void RegisterAdafactorOptimizer();

void EnsureBuiltinOptimizersRegistered() {
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterAdamOptimizer();
    RegisterSgdmOptimizer();
    RegisterLambOptimizer();
    RegisterAdafactorOptimizer();
  });
}

bool RegisterOptimizer(const std::string& rule, OptimizerFactory factory) {
  Registry()[rule] = factory;
  return true;
}

std::vector<std::string> RegisteredOptimizers() {
  EnsureBuiltinOptimizersRegistered();
  std::vector<std::string> rules;
  rules.reserve(Registry().size());
  for (const auto& [rule, factory] : Registry()) rules.push_back(rule);
  return rules;
}

util::Result<std::unique_ptr<Optimizer>> Optimizer::Create(
    const OptimizerConfig& config) {
  EnsureBuiltinOptimizersRegistered();
  if (config.learning_rate <= 0.0) {
    return util::Status::InvalidArgument(
        "optimizer learning_rate must be positive");
  }
  const auto it = Registry().find(config.rule);
  if (it == Registry().end()) {
    std::string known;
    for (const std::string& rule : RegisteredOptimizers()) {
      if (!known.empty()) known += ", ";
      known += rule;
    }
    return util::Status::NotFound("unknown optimizer rule '" + config.rule +
                                  "' (registered: " + known + ")");
  }
  return it->second(config);
}

}  // namespace angelptm::core
