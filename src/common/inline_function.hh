/**
 * @file
 * Move-only callable wrapper with inline (small-buffer) storage.
 *
 * `std::function` on libstdc++ only inlines captures up to two
 * pointers; nearly every event callback in the simulator captures
 * more (an instance pointer, an epoch, a Value, a continuation), so
 * each scheduled event used to cost a heap allocation. InlineFunction
 * stores callables up to InlineSize bytes in place and only falls
 * back to the heap beyond that, which removes the per-event
 * allocation from the kernel hot path entirely.
 *
 * Differences from std::function, deliberate and relied upon:
 *  - move-only (no copy), so captures can hold move-only state;
 *  - no target()/target_type() RTTI surface;
 *  - invoking an empty InlineFunction is undefined (asserted in
 *    debug) instead of throwing std::bad_function_call.
 */

#ifndef SPECFAAS_COMMON_INLINE_FUNCTION_HH
#define SPECFAAS_COMMON_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace specfaas {

template <typename Sig, std::size_t InlineSize = 72>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineSize>
class InlineFunction<R(Args...), InlineSize>
{
  public:
    /**
     * True when a callable of type F is stored in place. Hot-path
     * call sites static_assert this on their lambdas, so a capture
     * that outgrows the buffer fails to compile instead of silently
     * costing a heap allocation per call.
     */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= InlineSize &&
               alignof(D) <= alignof(std::max_align_t);
    }

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    InlineFunction(F&& f)
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
            invoke_ = [](void* p, Args&&... args) -> R {
                return (*std::launder(reinterpret_cast<D*>(p)))(
                    std::forward<Args>(args)...);
            };
            manage_ = [](void* dst, void* src) noexcept {
                if (src != nullptr) {
                    D* from = std::launder(reinterpret_cast<D*>(src));
                    ::new (dst) D(std::move(*from));
                    from->~D();
                } else {
                    std::launder(reinterpret_cast<D*>(dst))->~D();
                }
            };
        } else {
            // Oversized callable: box it and keep only the pointer
            // inline. Moves then just relocate the pointer.
            using Ptr = D*;
            ::new (static_cast<void*>(buf_))
                Ptr(new D(std::forward<F>(f)));
            invoke_ = [](void* p, Args&&... args) -> R {
                Ptr d = *std::launder(reinterpret_cast<Ptr*>(p));
                return (*d)(std::forward<Args>(args)...);
            };
            manage_ = [](void* dst, void* src) noexcept {
                if (src != nullptr) {
                    Ptr* from = std::launder(
                        reinterpret_cast<Ptr*>(src));
                    ::new (dst) Ptr(*from);
                    *from = nullptr;
                } else {
                    delete *std::launder(
                        reinterpret_cast<Ptr*>(dst));
                }
            };
        }
    }

    InlineFunction(InlineFunction&& other) noexcept
        : invoke_(other.invoke_), manage_(other.manage_)
    {
        if (manage_ != nullptr)
            manage_(buf_, other.buf_);
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this == &other)
            return *this;
        reset();
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (manage_ != nullptr)
            manage_(buf_, other.buf_);
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    InlineFunction&
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    void
    reset() noexcept
    {
        if (manage_ != nullptr) {
            manage_(buf_, nullptr);
            manage_ = nullptr;
            invoke_ = nullptr;
        }
    }

    explicit operator bool() const noexcept
    {
        return invoke_ != nullptr;
    }

    R
    operator()(Args... args)
    {
        SPECFAAS_ASSERT(invoke_ != nullptr,
                        "invoking empty InlineFunction");
        return invoke_(buf_, std::forward<Args>(args)...);
    }

  private:
    using Invoke = R (*)(void*, Args&&...);
    using Manage = void (*)(void* dst, void* src) noexcept;

    alignas(std::max_align_t) unsigned char buf_[InlineSize];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

} // namespace specfaas

#endif // SPECFAAS_COMMON_INLINE_FUNCTION_HH
