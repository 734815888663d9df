#include "value.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "logging.hh"

namespace specfaas {

namespace {

const Value kNullValue{};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnvMix(std::uint64_t& h, const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void
fnvMixByte(std::uint64_t& h, unsigned char b)
{
    h ^= b;
    h *= kFnvPrime;
}

} // namespace

void
Value::destroyBoxed() noexcept
{
    switch (kind_) {
      case Kind::String:
        data_.s.~basic_string();
        break;
      case Kind::Array:
        data_.arr.~ValueArray();
        break;
      case Kind::Object:
        data_.obj.~ValueObject();
        break;
      default:
        break;
    }
}

bool
Value::truthy() const
{
    switch (kind_) {
      case Kind::Null:
        return false;
      case Kind::Bool:
        return data_.b;
      case Kind::Int:
        return data_.i != 0;
      case Kind::Double:
        return data_.d != 0.0;
      case Kind::String:
        return !data_.s.empty();
      case Kind::Array:
      case Kind::Object:
        return true;
    }
    return false;
}

bool
Value::asBool() const
{
    SPECFAAS_ASSERT(isBool(), "Value::asBool on non-bool: %s",
                    toString().c_str());
    return data_.b;
}

std::int64_t
Value::asInt() const
{
    SPECFAAS_ASSERT(isInt(), "Value::asInt on non-int: %s",
                    toString().c_str());
    return data_.i;
}

double
Value::asDouble() const
{
    SPECFAAS_ASSERT(isDouble(), "Value::asDouble on non-double: %s",
                    toString().c_str());
    return data_.d;
}

double
Value::asNumber() const
{
    if (isInt())
        return static_cast<double>(data_.i);
    SPECFAAS_ASSERT(isDouble(), "Value::asNumber on non-numeric: %s",
                    toString().c_str());
    return data_.d;
}

const std::string&
Value::asString() const
{
    SPECFAAS_ASSERT(isString(), "Value::asString on non-string: %s",
                    toString().c_str());
    return data_.s;
}

const ValueArray&
Value::asArray() const
{
    SPECFAAS_ASSERT(isArray(), "Value::asArray on non-array: %s",
                    toString().c_str());
    return data_.arr;
}

const ValueObject&
Value::asObject() const
{
    SPECFAAS_ASSERT(isObject(), "Value::asObject on non-object: %s",
                    toString().c_str());
    return data_.obj;
}

ValueArray&
Value::asArray()
{
    SPECFAAS_ASSERT(isArray(), "Value::asArray on non-array");
    return data_.arr;
}

ValueObject&
Value::asObject()
{
    SPECFAAS_ASSERT(isObject(), "Value::asObject on non-object");
    return data_.obj;
}

const Value&
Value::at(std::string_view field) const
{
    if (!isObject())
        return kNullValue;
    auto it = data_.obj.find(field);
    return it == data_.obj.end() ? kNullValue : it->second;
}

Value&
Value::operator[](std::string_view field)
{
    if (isNull()) {
        ::new (&data_.obj) ValueObject();
        kind_ = Kind::Object;
    }
    SPECFAAS_ASSERT(isObject(), "Value::operator[] on non-object");
    return data_.obj[field];
}

bool
Value::operator==(const Value& other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return data_.b == other.data_.b;
      case Kind::Int:
        return data_.i == other.data_.i;
      case Kind::Double:
        return data_.d == other.data_.d;
      case Kind::String:
        return data_.s == other.data_.s;
      case Kind::Array:
        return data_.arr == other.data_.arr;
      case Kind::Object:
        return data_.obj == other.data_.obj;
    }
    return false;
}

void
Value::hashInto(std::uint64_t& h) const
{
    fnvMixByte(h, static_cast<unsigned char>(kind_));
    switch (kind_) {
      case Kind::Null:
        break;
      case Kind::Bool: {
        unsigned char b = data_.b ? 1 : 0;
        fnvMixByte(h, b);
        break;
      }
      case Kind::Int: {
        auto i = data_.i;
        fnvMix(h, &i, sizeof(i));
        break;
      }
      case Kind::Double: {
        auto d = data_.d;
        fnvMix(h, &d, sizeof(d));
        break;
      }
      case Kind::String:
        fnvMix(h, data_.s.data(), data_.s.size());
        break;
      case Kind::Array: {
        for (const auto& v : data_.arr)
            v.hashInto(h);
        break;
      }
      case Kind::Object: {
        for (const auto& [k, v] : data_.obj) {
            fnvMix(h, k.data(), k.size());
            fnvMixByte(h, ':');
            v.hashInto(h);
        }
        break;
      }
    }
}

std::uint64_t
Value::hash() const
{
    std::uint64_t h = kFnvOffset;
    hashInto(h);
    return h;
}

void
Value::printInto(std::string& out) const
{
    char buf[64];
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += data_.b ? "true" : "false";
        break;
      case Kind::Int:
        std::snprintf(buf, sizeof(buf), "%" PRId64, data_.i);
        out += buf;
        break;
      case Kind::Double:
        std::snprintf(buf, sizeof(buf), "%.6g", data_.d);
        out += buf;
        break;
      case Kind::String:
        out += '"';
        out += data_.s;
        out += '"';
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const auto& v : data_.arr) {
            if (!first)
                out += ',';
            first = false;
            v.printInto(out);
        }
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto& [k, v] : data_.obj) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += k;
            out += "\":";
            v.printInto(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
Value::toString() const
{
    std::string out;
    printInto(out);
    return out;
}

std::size_t
Value::size() const
{
    if (isArray())
        return data_.arr.size();
    if (isObject())
        return data_.obj.size();
    return 0;
}

Value
Value::object(std::initializer_list<ValueObject::value_type> init)
{
    return Value(ValueObject(init));
}

Value
Value::array(std::initializer_list<Value> init)
{
    return Value(ValueArray(init));
}

std::string
toDisplayString(const Value& v)
{
    return v.toString();
}

} // namespace specfaas
