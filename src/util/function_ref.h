// A non-owning reference to a callable: two words, no allocation, one
// indirect call per invocation.
//
// std::function owns (and may heap-allocate) its target; a protocol that
// only calls its callbacks while one Network::run is in progress does not
// need that. FunctionRef refers to a callable that the caller keeps alive
// for as long as the reference is used -- typically a lambda passed
// straight into the call that runs the protocol. A plain function pointer
// is held by value, so a FunctionRef built from one never dangles.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace kkt::util {

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef(R (*fn)(Args...)) noexcept  // NOLINT: implicit by design
      : call_(&call_fn) {
    target_.fn = reinterpret_cast<void (*)()>(fn);
  }

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             !std::is_pointer_v<std::decay_t<F>> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design
      : call_(&call_obj<std::remove_reference_t<F>>) {
    target_.obj = const_cast<void*>(
        static_cast<const void*>(std::addressof(f)));
  }

  R operator()(Args... args) const {
    return call_(target_, std::forward<Args>(args)...);
  }

 private:
  union Target {
    void* obj;
    void (*fn)();
  };

  static R call_fn(Target t, Args... args) {
    return reinterpret_cast<R (*)(Args...)>(t.fn)(
        std::forward<Args>(args)...);
  }
  template <class F>
  static R call_obj(Target t, Args... args) {
    return (*static_cast<F*>(t.obj))(std::forward<Args>(args)...);
  }

  Target target_;
  R (*call_)(Target, Args...);
};

}  // namespace kkt::util
