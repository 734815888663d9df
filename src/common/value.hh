/**
 * @file
 * A JSON-like dynamic value type.
 *
 * Serverless functions exchange JSON payloads; SpecFaaS treats those
 * payloads as opaque values that must support equality comparison
 * (memoization-table lookup and output validation), hashing
 * (memoization keys), and printing (tracing). Value provides exactly
 * that: null, boolean, integer, double, string, array and object.
 *
 * Storage is a hand-rolled tagged union sized for the hot path:
 * Null/Bool/Int/Double live entirely inline, String is an inline
 * std::string (so short strings ride the small-string optimization
 * with no heap), and only Array/Object are boxed. That keeps
 * sizeof(Value) at one tag byte plus one std::string — well under
 * the std::variant layout it replaces, which paid for the largest
 * alternative (a std::map) in every scalar payload field. Copy, move
 * and destroy of the scalar kinds are inline header paths; only the
 * String and boxed kinds leave them.
 *
 * An Array/Object box is one heap block: an atomic reference count,
 * the entry count and the capacity, followed by the entries
 * themselves. A box built from a known number of entries (an
 * initializer list, a copy-on-write clone) is sized exactly; only a
 * builder that appends past the capacity grows it geometrically.
 * An empty array or object owns no box at all.
 *
 * Boxes are copy-on-write: copying a Value (or a ValueArray /
 * ValueObject handle) shares the box, and every mutating accessor
 * clones a shared box before writing. The speculation engine copies
 * payloads constantly (slot inputs/outputs, memo rows, hints,
 * committed nodes) and almost never mutates a copy, so CoW turns the
 * dominant allocation source into a refcount bump. Reference counts
 * are atomic because payloads cross threads in the parallel harness.
 * The one sharp edge: a reference obtained from a mutating accessor
 * is invalidated by copying the Value it came from and then writing
 * through the reference — don't hold such references across copies
 * (the usual build-then-copy pattern is unaffected).
 */

#ifndef SPECFAAS_COMMON_VALUE_HH
#define SPECFAAS_COMMON_VALUE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <string>
#include <string_view>
#include <utility>

namespace specfaas {

class Value;

namespace detail {

/**
 * Shared, copy-on-write handle to one heap block holding a header
 * and a contiguous run of T. The common storage of ValueArray and
 * ValueObject; the element type may be incomplete where the handle
 * is declared, since only member bodies touch it.
 */
template <typename T>
class SharedSeq
{
  public:
    SharedSeq() noexcept = default;
    SharedSeq(const SharedSeq& other) noexcept : box_(other.box_)
    {
        if (box_ != nullptr)
            box_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    SharedSeq(SharedSeq&& other) noexcept
        : box_(std::exchange(other.box_, nullptr))
    {
    }
    SharedSeq&
    operator=(const SharedSeq& other) noexcept
    {
        SharedSeq(other).swap(*this);
        return *this;
    }
    SharedSeq&
    operator=(SharedSeq&& other) noexcept
    {
        SharedSeq(std::move(other)).swap(*this);
        return *this;
    }
    ~SharedSeq() { release(); }

    void swap(SharedSeq& other) noexcept { std::swap(box_, other.box_); }

    std::size_t size() const noexcept { return box_ ? box_->size : 0; }
    bool empty() const noexcept { return size() == 0; }
    /** Entries the current box holds without growing. */
    std::size_t
    capacity() const noexcept
    {
        return box_ ? box_->capacity : 0;
    }
    /** True when @p other shares this box (equality's fast path). */
    bool
    sharesBoxWith(const SharedSeq& other) const noexcept
    {
        return box_ != nullptr && box_ == other.box_;
    }

  protected:
    const T* data() const noexcept { return box_ ? box_->items() : nullptr; }

    /** Unshared storage; clones a shared box at its exact size. */
    T*
    mutableData()
    {
        if (box_ != nullptr && !unique())
            rebox(box_->size, box_->size);
        return box_ ? box_->items() : nullptr;
    }

    /**
     * Insert @p item before position @p idx. A unique box with room
     * shifts in place; a full unique box grows geometrically (a
     * builder appending); a shared box is cloned with exactly one
     * more slot.
     */
    T*
    insertAt(std::size_t idx, T&& item)
    {
        const std::size_t n = size();
        if (box_ == nullptr || !unique() || n == box_->capacity) {
            const std::size_t cap =
                box_ != nullptr && unique() ? grownCapacity(n) : n + 1;
            rebox(cap, idx);
            T* items = box_->items();
            ::new (static_cast<void*>(items + idx)) T(std::move(item));
            ++box_->size;
            return items + idx;
        }
        T* items = box_->items();
        if (idx == n) {
            ::new (static_cast<void*>(items + n)) T(std::move(item));
        } else {
            ::new (static_cast<void*>(items + n)) T(std::move(items[n - 1]));
            std::move_backward(items + idx, items + n - 1, items + n);
            items[idx] = std::move(item);
        }
        ++box_->size;
        return items + idx;
    }

    /** Remove the entry at @p idx (unsharing first). */
    void
    eraseAt(std::size_t idx)
    {
        T* items = mutableData();
        const std::size_t n = box_->size;
        std::move(items + idx + 1, items + n, items + idx);
        items[n - 1].~T();
        --box_->size;
    }

    /** Ensure room for @p n entries, sized exactly. */
    void
    reserveExact(std::size_t n)
    {
        if (n > capacity() || (box_ != nullptr && !unique() && n > 0))
            rebox(std::max(n, size()), size());
    }

  private:
    struct alignas(8) Box
    {
        std::atomic<std::uint32_t> refs;
        std::uint32_t size;
        std::uint32_t capacity;
        std::uint32_t reserved;

        T*
        items() noexcept
        {
            return reinterpret_cast<T*>(
                reinterpret_cast<unsigned char*>(this) + sizeof(Box));
        }
    };

    bool
    unique() const noexcept
    {
        return box_->refs.load(std::memory_order_acquire) == 1;
    }

    static std::size_t
    grownCapacity(std::size_t n)
    {
        return n < 2 ? 2 : 2 * n;
    }

    /**
     * Move (unique box) or copy (shared box) the entries into a new
     * box of @p cap slots, leaving slot @p gap free when it is below
     * the size (size == gap: no gap). The caller fills the gap.
     */
    void
    rebox(std::size_t cap, std::size_t gap)
    {
        static_assert(alignof(T) <= alignof(Box),
                      "entries must not need more than 8-byte alignment");
        void* raw = ::operator new(sizeof(Box) + cap * sizeof(T));
        Box* fresh = ::new (raw) Box;
        fresh->refs.store(1, std::memory_order_relaxed);
        fresh->size = 0;
        fresh->capacity = static_cast<std::uint32_t>(cap);
        fresh->reserved = 0;
        if (box_ != nullptr) {
            const std::size_t n = box_->size;
            T* from = box_->items();
            T* to = fresh->items();
            if (unique()) {
                for (std::size_t i = 0; i < n; ++i)
                    ::new (static_cast<void*>(to + (i < gap ? i : i + 1)))
                        T(std::move(from[i]));
            } else {
                std::size_t i = 0;
                try {
                    for (; i < n; ++i)
                        ::new (static_cast<void*>(to + (i < gap ? i : i + 1)))
                            T(from[i]);
                } catch (...) {
                    while (i-- > 0)
                        to[i < gap ? i : i + 1].~T();
                    fresh->~Box();
                    ::operator delete(raw);
                    throw;
                }
            }
            fresh->size = static_cast<std::uint32_t>(n);
            release();
        }
        box_ = fresh;
    }

    static void
    destroyItems(Box* box) noexcept
    {
        T* items = box->items();
        for (std::uint32_t i = 0; i < box->size; ++i)
            items[i].~T();
    }

    void
    release() noexcept
    {
        if (box_ == nullptr)
            return;
        if (box_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            destroyItems(box_);
            box_->~Box();
            ::operator delete(static_cast<void*>(box_));
        }
        box_ = nullptr;
    }

    Box* box_ = nullptr;
};

} // namespace detail

/**
 * Sequence of values used for JSON-array payloads: a vector-shaped
 * copy-on-write handle (the subset of std::vector the simulator uses).
 */
class ValueArray : public detail::SharedSeq<Value>
{
  public:
    using value_type = Value;
    using iterator = Value*;
    using const_iterator = const Value*;

    ValueArray() = default;
    ValueArray(std::initializer_list<Value> init);

    // Bodies follow Value's definition (the element must be complete).
    const_iterator begin() const;
    const_iterator end() const;
    iterator begin();
    iterator end();

    const Value& operator[](std::size_t i) const;
    Value& operator[](std::size_t i);

    void push_back(Value v);
    /** Replace the contents with @p n copies of @p v (exact size). */
    void assign(std::size_t n, const Value& v);

    bool operator==(const ValueArray& other) const;
    bool operator!=(const ValueArray& other) const
    {
        return !(*this == other);
    }
};

/**
 * Ordered key/value mapping used for JSON-object payloads.
 *
 * A sorted flat run of (key, value) entries with a std::map-shaped
 * interface (the subset the simulator uses), kept in the one block
 * of its copy-on-write box. Payload objects are a handful of fields,
 * so a contiguous run replaces a red-black tree node per field while
 * keeping the sorted iteration order the deterministic hash and
 * printer depend on. Lookups take std::string_view, so a literal key
 * costs no std::string.
 */
class ValueObject
    : public detail::SharedSeq<std::pair<std::string, Value>>
{
  public:
    using value_type = std::pair<std::string, Value>;
    // Contiguous storage, so plain pointers serve as iterators.
    using iterator = value_type*;
    using const_iterator = const value_type*;

    ValueObject() = default;
    ValueObject(std::initializer_list<value_type> init);

    // Bodies follow Value's definition (the element must be complete).
    // The non-const overloads unshare the box first.
    iterator begin();
    iterator end();
    const_iterator begin() const;
    const_iterator end() const;

    iterator find(std::string_view key);
    const_iterator find(std::string_view key) const;
    std::size_t count(std::string_view key) const;

    /** Field access; default-constructs a null value when missing. */
    Value& operator[](std::string_view key);

    /** Insert @p key unless present (std::map::emplace semantics). */
    std::pair<iterator, bool> emplace(std::string key, Value v);

    iterator erase(const_iterator pos);

    bool operator==(const ValueObject& other) const;
    bool operator!=(const ValueObject& other) const
    {
        return !(*this == other);
    }

  private:
    /** Index of the first entry whose key is >= @p key. */
    std::size_t lowerBound(std::string_view key) const;
};

/**
 * Immutable-ish JSON-like value with value semantics.
 *
 * Copying is cheap and observably deep: scalars and strings are
 * copied, arrays and objects share their copy-on-write box until
 * either copy is written through (see the file comment).
 */
class Value
{
  public:
    /**
     * Discriminator for the stored alternative. The numeric order is
     * part of the hash: hashInto() mixes the kind as the tag byte, so
     * reordering entries would silently change every memoization key
     * and committed-report hash. The inline paths also rely on the
     * scalar kinds preceding String.
     */
    enum class Kind : std::uint8_t
    { Null, Bool, Int, Double, String, Array, Object };

    /** Construct a null value. */
    Value() noexcept {}
    /** Construct a boolean value. */
    Value(bool b) : kind_(Kind::Bool) { data_.b = b; }
    /** Construct an integer value. */
    Value(std::int64_t i) : kind_(Kind::Int) { data_.i = i; }
    /** Construct an integer value from int (convenience). */
    Value(int i) : kind_(Kind::Int) { data_.i = i; }
    /** Construct a floating point value. */
    Value(double d) : kind_(Kind::Double) { data_.d = d; }
    /** Construct a string value. */
    Value(std::string s) : kind_(Kind::String)
    {
        ::new (&data_.s) std::string(std::move(s));
    }
    /** Construct a string value from a C literal. */
    Value(const char* s) : kind_(Kind::String)
    {
        ::new (&data_.s) std::string(s);
    }
    /** Construct an array value (adopts the handle; no copy). */
    Value(ValueArray a) noexcept : kind_(Kind::Array)
    {
        ::new (&data_.arr) ValueArray(std::move(a));
    }
    /** Construct an object value (adopts the handle; no copy). */
    Value(ValueObject o) noexcept : kind_(Kind::Object)
    {
        ::new (&data_.obj) ValueObject(std::move(o));
    }

    Value(const Value& other) : kind_(other.kind_)
    {
        if (kind_ < Kind::String)
            copyScalar(other);
        else
            copyBoxed(other);
    }

    Value(Value&& other) noexcept : kind_(other.kind_)
    {
        moveFrom(other);
    }

    Value&
    operator=(const Value& other)
    {
        if (this != &other) {
            if (kind_ < Kind::String && other.kind_ < Kind::String) {
                kind_ = other.kind_;
                copyScalar(other);
            } else {
                Value tmp(other);
                destroyData();
                kind_ = tmp.kind_;
                moveFrom(tmp);
            }
        }
        return *this;
    }

    Value&
    operator=(Value&& other) noexcept
    {
        if (this != &other) {
            // Detach first: @p other may live inside this value's box.
            Value tmp(std::move(other));
            destroyData();
            kind_ = tmp.kind_;
            moveFrom(tmp);
        }
        return *this;
    }

    ~Value() { destroyData(); }

    /** Kind of the stored alternative. */
    Kind kind() const { return kind_; }

    /** @{ Type predicates. */
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isDouble() const { return kind_ == Kind::Double; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }
    /** @} */

    /**
     * JavaScript-style truthiness, used to resolve `when` branch
     * conditions: null, false, 0, 0.0 and "" are falsy; everything
     * else (including empty arrays/objects) is truthy.
     */
    bool truthy() const;

    /** @{ Checked accessors; abort on kind mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string& asString() const;
    const ValueArray& asArray() const;
    const ValueObject& asObject() const;
    /** Mutable handles; writes through them unshare the box. */
    ValueArray& asArray();
    ValueObject& asObject();
    /** @} */

    /**
     * Numeric view: returns the int or double alternative as double.
     * Aborts for non-numeric kinds.
     */
    double asNumber() const;

    /**
     * Object field lookup. Returns a null value when the field is
     * missing or when this value is not an object.
     */
    const Value& at(std::string_view field) const;

    /** Mutable object field access; converts a null value to object. */
    Value& operator[](std::string_view field);

    /** Deep structural equality. */
    bool operator==(const Value& other) const;
    bool operator!=(const Value& other) const { return !(*this == other); }

    /**
     * Deterministic 64-bit hash of the whole value tree (FNV-1a over
     * a canonical serialization). Stable across runs and platforms.
     */
    std::uint64_t hash() const;

    /** Canonical compact JSON-ish rendering (sorted object keys). */
    std::string toString() const;

    /** Number of direct children (array/object), 0 otherwise. */
    std::size_t size() const;

    /** Convenience builder for an object value (sized exactly). */
    static Value object(std::initializer_list<ValueObject::value_type> init);

    /** Convenience builder for an array value (sized exactly). */
    static Value array(std::initializer_list<Value> init);

  private:
    union Data
    {
        bool b;
        std::int64_t i;
        double d;
        std::string s;
        ValueArray arr;
        ValueObject obj;

        Data() noexcept : i(0) {}
        ~Data() {}
    };

    /** Scalar payload copy (the kind is already set). */
    void
    copyScalar(const Value& other) noexcept
    {
        std::memcpy(static_cast<void*>(&data_),
                    static_cast<const void*>(&other.data_),
                    sizeof(std::int64_t));
    }

    /** String/Array/Object copy (the kind is already set). */
    void
    copyBoxed(const Value& other)
    {
        switch (kind_) {
          case Kind::String:
            ::new (&data_.s) std::string(other.data_.s);
            break;
          case Kind::Array:
            ::new (&data_.arr) ValueArray(other.data_.arr);
            break;
          default:
            ::new (&data_.obj) ValueObject(other.data_.obj);
            break;
        }
    }

    /** Take @p other's payload (kind_ already copied); @p other → null. */
    void
    moveFrom(Value& other) noexcept
    {
        switch (kind_) {
          case Kind::String:
            ::new (&data_.s) std::string(std::move(other.data_.s));
            other.data_.s.~basic_string();
            break;
          case Kind::Array:
            ::new (&data_.arr) ValueArray(std::move(other.data_.arr));
            other.data_.arr.~ValueArray();
            break;
          case Kind::Object:
            ::new (&data_.obj) ValueObject(std::move(other.data_.obj));
            other.data_.obj.~ValueObject();
            break;
          default:
            copyScalar(other);
            break;
        }
        other.kind_ = Kind::Null;
    }

    void
    destroyData() noexcept
    {
        if (kind_ >= Kind::String)
            destroyBoxed();
        kind_ = Kind::Null;
    }

    void destroyBoxed() noexcept;

    void hashInto(std::uint64_t& h) const;
    void printInto(std::string& out) const;

    Kind kind_ = Kind::Null;
    Data data_;
};

inline ValueArray::ValueArray(std::initializer_list<Value> init)
{
    reserveExact(init.size());
    for (const Value& v : init)
        push_back(v);
}

inline ValueArray::const_iterator
ValueArray::begin() const
{
    return data();
}

inline ValueArray::const_iterator
ValueArray::end() const
{
    return data() + size();
}

inline ValueArray::iterator
ValueArray::begin()
{
    return mutableData();
}

inline ValueArray::iterator
ValueArray::end()
{
    return mutableData() + size();
}

inline const Value&
ValueArray::operator[](std::size_t i) const
{
    return data()[i];
}

inline Value&
ValueArray::operator[](std::size_t i)
{
    return mutableData()[i];
}

inline void
ValueArray::push_back(Value v)
{
    insertAt(size(), std::move(v));
}

inline void
ValueArray::assign(std::size_t n, const Value& v)
{
    ValueArray fresh;
    fresh.reserveExact(n);
    for (std::size_t i = 0; i < n; ++i)
        fresh.push_back(v);
    *this = std::move(fresh);
}

inline bool
ValueArray::operator==(const ValueArray& other) const
{
    return sharesBoxWith(other) ||
           (size() == other.size() &&
            std::equal(begin(), end(), other.begin()));
}

inline ValueObject::ValueObject(std::initializer_list<value_type> init)
{
    reserveExact(init.size());
    for (const value_type& kv : init)
        emplace(kv.first, kv.second);
}

inline ValueObject::iterator
ValueObject::begin()
{
    return mutableData();
}

inline ValueObject::iterator
ValueObject::end()
{
    return mutableData() + size();
}

inline ValueObject::const_iterator
ValueObject::begin() const
{
    return data();
}

inline ValueObject::const_iterator
ValueObject::end() const
{
    return data() + size();
}

inline std::size_t
ValueObject::lowerBound(std::string_view key) const
{
    const_iterator it =
        std::lower_bound(begin(), end(), key,
                         [](const value_type& kv, std::string_view k) {
                             return std::string_view(kv.first) < k;
                         });
    return static_cast<std::size_t>(it - begin());
}

inline std::size_t
ValueObject::count(std::string_view key) const
{
    return find(key) == end() ? 0 : 1;
}

inline ValueObject::const_iterator
ValueObject::find(std::string_view key) const
{
    const std::size_t idx = lowerBound(key);
    return idx == size() || data()[idx].first != key ? end()
                                                     : data() + idx;
}

inline ValueObject::iterator
ValueObject::find(std::string_view key)
{
    const std::size_t idx = lowerBound(key);
    if (idx == size() || data()[idx].first != key)
        return end();
    return begin() + idx;
}

inline Value&
ValueObject::operator[](std::string_view key)
{
    const std::size_t idx = lowerBound(key);
    if (idx < size() && data()[idx].first == key)
        return mutableData()[idx].second;
    return insertAt(idx, value_type(std::string(key), Value()))->second;
}

inline std::pair<ValueObject::iterator, bool>
ValueObject::emplace(std::string key, Value v)
{
    const std::size_t idx = lowerBound(key);
    if (idx < size() && data()[idx].first == key)
        return {begin() + idx, false};
    return {insertAt(idx, value_type(std::move(key), std::move(v))), true};
}

inline ValueObject::iterator
ValueObject::erase(const_iterator pos)
{
    const std::size_t idx = static_cast<std::size_t>(pos - data());
    eraseAt(idx);
    return begin() + idx;
}

inline bool
ValueObject::operator==(const ValueObject& other) const
{
    return sharesBoxWith(other) ||
           (size() == other.size() &&
            std::equal(begin(), end(), other.begin()));
}

/** Stream-style printing helper for logs and test failure messages. */
std::string toDisplayString(const Value& v);

/**
 * Null-tolerant integer view: @p def when @p v is not an Int.
 * Function bodies use this for values derived from global reads,
 * which may be missing during speculative execution.
 */
inline std::int64_t
intOr(const Value& v, std::int64_t def)
{
    return v.isInt() ? v.asInt() : def;
}

} // namespace specfaas

/** std::hash specialization so Value can key unordered containers. */
template <>
struct std::hash<specfaas::Value>
{
    std::size_t operator()(const specfaas::Value& v) const
    {
        return static_cast<std::size_t>(v.hash());
    }
};

#endif // SPECFAAS_COMMON_VALUE_HH
