#include "model/dclass.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace cpy {

namespace {

struct ClassImpl {
  // std::map: node-based, so MethodDef addresses stay stable.
  std::map<std::string, MethodDef> methods;
  std::atomic<std::uint32_t> attr_slot_hint{0};
};

struct ClassRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, std::unique_ptr<ClassImpl>> classes;

  static ClassRegistry& instance() {
    static ClassRegistry r;
    return r;
  }

  ClassImpl& get_or_create(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    auto& slot = classes[name];
    if (!slot) slot = std::make_unique<ClassImpl>();
    return *slot;
  }

  /// Lock-free on a hit: classes are never erased, so a class found
  /// once stays valid for the process lifetime, and each thread keeps
  /// the classes it found. Misses take the lock and are not kept, so a
  /// class defined later is still found.
  ClassImpl* find(const std::string& name) {
    thread_local std::unordered_map<std::string, ClassImpl*> seen;
    const auto hit = seen.find(name);
    if (hit != seen.end()) return hit->second;
    ClassImpl* impl = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto it = classes.find(name);
      if (it != classes.end()) impl = it->second.get();
    }
    if (impl != nullptr) seen.emplace(name, impl);
    return impl;
  }
};

}  // namespace

DClass::DClass(std::string name) : name_(std::move(name)) {
  ClassRegistry::instance().get_or_create(name_);
}

DClass& DClass::def(const std::string& method,
                    std::vector<std::string> params, MethodFn fn) {
  auto& impl = ClassRegistry::instance().get_or_create(name_);
  MethodDef& d = impl.methods[method];
  d.name = method;
  d.params = std::move(params);
  d.fn = std::move(fn);
  return *this;
}

DClass& DClass::def_threaded(const std::string& method,
                             std::vector<std::string> params, MethodFn fn) {
  def(method, std::move(params), std::move(fn));
  auto& impl = ClassRegistry::instance().get_or_create(name_);
  impl.methods[method].threaded = true;
  return *this;
}

namespace {

/// Dependency sets of replaced when-conditions. Buffered messages hold
/// raw pointers into their condition's deps; redefining a condition
/// must keep the old set alive until the (epoch-triggered) rebucket.
std::vector<std::shared_ptr<const cx::WhenDeps>>& retired_deps() {
  static auto* v = new std::vector<std::shared_ptr<const cx::WhenDeps>>();
  return *v;
}

}  // namespace

DClass& DClass::when(const std::string& method,
                     const std::string& condition) {
  auto& impl = ClassRegistry::instance().get_or_create(name_);
  const auto it = impl.methods.find(method);
  if (it == impl.methods.end()) {
    throw std::logic_error("when('" + condition + "'): class " + name_ +
                           " has no method " + method +
                           " (define it first)");
  }
  // Shared compile cache: @when and wait_until sites with the same
  // source string reuse one AST + dependency set.
  const Expr& compiled = Expr::compile_cached(condition);
  MethodDef& d = it->second;
  if (d.has_when && d.when_deps != nullptr && d.when_deps != compiled.deps()) {
    retired_deps().push_back(d.when_deps);
  }
  d.when_cond = compiled;
  d.has_when = true;
  d.when_deps = compiled.deps();
  // Condition (re)definition can change which buffered messages are
  // eligible without any chare state changing.
  cx::bump_when_config_epoch();
  return *this;
}

const MethodDef* find_method(const std::string& cls,
                             const std::string& method) {
  ClassImpl* impl = ClassRegistry::instance().find(cls);
  if (impl == nullptr) return nullptr;
  const auto it = impl->methods.find(method);
  return it == impl->methods.end() ? nullptr : &it->second;
}

bool class_exists(const std::string& cls) {
  return ClassRegistry::instance().find(cls) != nullptr;
}

std::atomic<std::uint32_t>* attr_slot_hint(const std::string& cls) {
  ClassImpl* impl = ClassRegistry::instance().find(cls);
  return impl == nullptr ? nullptr : &impl->attr_slot_hint;
}

}  // namespace cpy
