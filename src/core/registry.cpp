#include "core/registry.hpp"

namespace cx {

EpInfo& Registry::mutable_ep(EpId id) {
  EpInfo& info = eps_.at(id);
  // Attribute edits (set_when / clear_when / set_when_deps) can change
  // which buffered messages are eligible without any chare state
  // changing; the epoch bump makes every chare re-examine its buffer.
  bump_when_config_epoch();
  return info;
}

}  // namespace cx
