#pragma once
// DChare — the dynamic chare of the model layer.
//
// Every dynamic chare is an instance of one C++ class whose behaviour is
// given by its DClass (method table looked up by name) and whose state
// lives in an attribute dict — exactly how Python objects work, which is
// what gives this layer CharmPy's flexibility (a class usable for
// singletons, groups and any array; automatic migration serialization of
// the whole attribute dict; `when`/`wait` conditions evaluated against
// attributes by name).
//
// Inside a method, `self["x"]` reads/writes attributes:
//
//   cls.def("recvData", {"data"}, [](cpy::DChare& self, cpy::Args& a) {
//     self["msg_count"] = self["msg_count"].as_int() + 1;
//     return cpy::Value::none();
//   });

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/charm.hpp"
#include "model/dclass.hpp"
#include "model/value.hpp"

namespace cpy {

/// Reduction target: a future, or a (possibly broadcast) entry method.
struct DTarget {
  cx::Callback raw;
  bool wrap_method = false;  ///< value travels as (method, value)
  std::string method;

  static DTarget to_future(const cx::ReplyTo& slot) {
    DTarget t;
    t.raw = cx::Callback::to_future(slot);
    return t;
  }
};

/// Unpacked chare state that is not an attribute dict: a corrupt or
/// foreign blob, rejected where it is decoded.
struct CorruptStateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class DChare : public cx::Chare {
 public:
  DChare() = default;  ///< migration path (state arrives via pup)

  /// Construction: binds the instance to its dynamic class and calls
  /// "__init__" with `ctor_args` if defined.
  DChare(std::string cls, Args ctor_args);

  /// Universal entry methods: dispatch by method name. The runtime picks
  /// the threaded variant for methods declared with def_threaded.
  Value dyn_call(std::string method, Args args);
  Value dyn_call_threaded(std::string method, Args args);

  /// Reduction-result delivery: invokes `tagged.first` with the result.
  void dyn_result(std::pair<std::string, Value> tagged);

  // --- state ---------------------------------------------------------------

  /// Attribute access (creates the attribute on write, like Python).
  /// Marks the attribute dirty for the when-condition engine. The first
  /// access of a name resolves it into this instance's slot table; later
  /// ones find the slot by key and name and skip the dict.
  Value& operator[](std::string_view name);

  /// Read-only slot lookup for condition evaluation: the attribute's
  /// value if this instance has resolved `name` (whose attr_key is
  /// `key`), else nullptr — the caller then reads attrs(). Marks nothing.
  [[nodiscard]] const Value* slot_value(cx::AttrKey key,
                                        std::string_view name) const noexcept {
    const AttrSlot* s = find_slot(key, name);
    return s == nullptr ? nullptr : s->val;
  }
  [[nodiscard]] bool has_attr(const std::string& name) const;
  /// The whole attribute dict as a Value (shared reference).
  [[nodiscard]] const Value& attrs() const noexcept { return attrs_; }

  [[nodiscard]] const std::string& dclass() const noexcept { return cls_; }

  /// Method lookup through this instance's cache: one global-registry
  /// resolution per method name for the lifetime of the instance
  /// (MethodDef storage is node-based, so the pointers stay valid and
  /// see later redefinitions in place). Returns nullptr if unknown;
  /// misses are not cached, so methods defined later are still found.
  /// The cache is a short vector: a class has few methods, and a scan
  /// that compares lengths first beats hashing the name.
  [[nodiscard]] const MethodDef* find_method_cached(
      const std::string& method) const;

  /// Automatic migration serialization: class name + attribute dict.
  /// Unpacking throws CorruptStateError if the state is not a dict, and
  /// drops the slot table (its pointers led into the replaced dict).
  void pup(pup::Er& p) override;

  /// Calls the dynamic method "resumeFromSync" after load balancing.
  void resume_from_sync() override;

  // --- services for method bodies -------------------------------------------

  /// Suspend until a condition over `self` holds (threaded methods only).
  /// Paper §II-H2: self.wait('condition').
  void wait_until(const std::string& condition);

  /// Contribute to a reduction (paper §II-F). Reducer names: "sum",
  /// "product", "min", "max", "gather", "concat", or a custom name
  /// registered with add_dyn_reducer.
  void contribute_value(const Value& data, const std::string& reducer,
                        const DTarget& target);

  /// Empty reduction (barrier): data=None, reducer=None of the paper.
  void barrier(const DTarget& target) {
    contribute_value(Value::none(), "none", target);
  }

  /// Re-exposed chare services (protected in cx::Chare).
  void migrate_to(int pe) { migrate(pe); }
  void sync() { at_sync(); }

  /// Per-message overhead charged to the simulated clock by dyn_call,
  /// modeling the interpreter/dispatch cost of the dynamic layer (no-op
  /// on the threaded backend, where the real cost is already paid).
  static void set_sim_dispatch_overhead(double seconds) noexcept;
  static double sim_dispatch_overhead() noexcept;

 private:
  /// One resolved attribute: its dict entry and its dirty-clock tick.
  /// Both are node-stable (std::map node, DirtyClock deque), so a slot
  /// stays valid until the dict itself is replaced, which only pup's
  /// unpack does. Attributes are never erased from the dict.
  struct AttrSlot {
    cx::AttrKey key;
    const std::string* name;
    Value* val;
    std::uint64_t* tick;
  };

  [[nodiscard]] const AttrSlot* find_slot(cx::AttrKey key,
                                          std::string_view name) const noexcept {
    for (const AttrSlot& s : slots_) {
      if (s.key == key && *s.name == name) return &s;
    }
    return nullptr;
  }
  const MethodDef& resolve(const std::string& method) const;
  Value& bind_slot(std::string_view name, cx::AttrKey key);
  void adopt_class_hint();

  std::string cls_;
  /// The single source of truth for attributes; slots_ only index it.
  Value attrs_ = Value::dict({});
  std::vector<AttrSlot> slots_;
  /// The class's slot-count hint (see attr_slot_hint); sizes slots_ once.
  std::atomic<std::uint32_t>* slot_hint_ = nullptr;
  /// Per-instance resolution cache (positive entries only; not pupped —
  /// it repopulates after migration).
  mutable std::vector<std::pair<std::string, const MethodDef*>>
      method_cache_;
};

}  // namespace cpy
