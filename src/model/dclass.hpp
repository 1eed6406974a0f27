#pragma once
// Dynamic chare classes (the model layer's class objects).
//
// In CharmPy a chare class is a plain Python class: methods are found by
// reflection, @when/@threaded are decorators. Here a DClass describes a
// dynamic class as data — method table, parameter names (needed so `when`
// conditions can reference arguments by name), threaded flags and
// compiled when-conditions:
//
//   cpy::DClass cls("Worker");
//   cls.def("__init__", {"master"}, [](cpy::DChare& self, cpy::Args& a) {
//       self["master"] = a[0];
//       return cpy::Value::none();
//     });
//   cls.def("recv", {"iter", "data"}, ...).when("recv", "self.iter == iter");
//   cls.def_threaded("run", {}, ...);
//
// Classes register globally by name at construction; instances are
// created with cpy::create_chare / create_group / create_array.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/expr.hpp"
#include "model/value.hpp"

namespace cpy {

class DChare;

using MethodFn = std::function<Value(DChare& self, Args& args)>;

struct MethodDef {
  std::string name;
  std::vector<std::string> params;
  MethodFn fn;
  bool threaded = false;
  bool has_when = false;
  Expr when_cond;
  /// Dependency set of when_cond (shared with the compiled Expr); the
  /// delivery engine uses it to skip re-tests of buffered messages
  /// whose `self.<attr>` reads did not change.
  std::shared_ptr<const cx::WhenDeps> when_deps;
};

class DClass {
 public:
  /// Create (or reopen) the class `name` in the global registry.
  explicit DClass(std::string name);

  /// Define a method. Parameter names are used by `when` conditions.
  DClass& def(const std::string& method, std::vector<std::string> params,
              MethodFn fn);

  /// Define a threaded method (may block on futures / wait()).
  DClass& def_threaded(const std::string& method,
                       std::vector<std::string> params, MethodFn fn);

  /// Attach a when-condition string to a method (the @when decorator).
  /// The condition is compiled once, here.
  DClass& when(const std::string& method, const std::string& condition);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

/// Look up a method; returns nullptr if the class or method is unknown.
/// The returned pointer stays valid for the process lifetime. Takes no
/// lock once the calling thread has found the class.
const MethodDef* find_method(const std::string& cls,
                             const std::string& method);

/// True if the class exists in the registry.
bool class_exists(const std::string& cls);

/// Slot-table capacity hint of class `cls`: the most attributes one of
/// its instances has resolved so far. Null for an unknown class;
/// otherwise valid for the process lifetime.
std::atomic<std::uint32_t>* attr_slot_hint(const std::string& cls);

}  // namespace cpy
