#include "instance.hh"

#include <charconv>

#include "common/logging.hh"

namespace specfaas {

bool
orderKeyLess(const OrderKey& a, const OrderKey& b)
{
    return std::lexicographical_compare(a.begin(), a.end(),
                                        b.begin(), b.end());
}

bool
orderKeyIsPrefix(const OrderKey& pre, const OrderKey& key)
{
    if (pre.size() >= key.size())
        return false;
    for (std::size_t i = 0; i < pre.size(); ++i)
        if (pre[i] != key[i])
            return false;
    return true;
}

std::string
orderKeyToString(const OrderKey& key)
{
    // Rendered for every traced slot event, so format in one stack
    // pass; 192 bytes covers keys ~15 levels deep, far beyond any
    // real workflow nesting.
    char local[192];
    std::size_t n = 0;
    local[n++] = '[';
    if (key.size() * 12 + 2 <= sizeof local) {
        for (std::size_t i = 0; i < key.size(); ++i) {
            if (i > 0)
                local[n++] = '.';
            n = static_cast<std::size_t>(
                std::to_chars(local + n, local + sizeof local, key[i])
                    .ptr -
                local);
        }
        local[n++] = ']';
        return std::string(local, n);
    }
    std::string out = "[";
    for (std::size_t i = 0; i < key.size(); ++i) {
        if (i > 0)
            out += '.';
        out += strFormat("%d", key[i]);
    }
    out += ']';
    return out;
}

const char*
squashReasonName(SquashReason reason)
{
    switch (reason) {
    case SquashReason::None:
        return "none";
    case SquashReason::ControlMispredict:
        return "control-mispredict";
    case SquashReason::DataMispredict:
        return "data-mispredict";
    case SquashReason::BufferViolation:
        return "buffer-violation";
    case SquashReason::CascadedFromPredecessor:
        return "cascaded";
    case SquashReason::Fault:
        return "fault";
    }
    return "?";
}

const Value&
FunctionInstance::callArgs(std::size_t site) const
{
    static const Value kNone;
    for (const CallSiteRecord& r : callSites)
        if (r.site == site && r.taken)
            return r.args;
    return kNone;
}

std::string
FunctionInstance::label() const
{
    return strFormat("%s%s#%llu",
                     def != nullptr ? def->name.c_str() : "?",
                     orderKeyToString(order).c_str(),
                     static_cast<unsigned long long>(id));
}

} // namespace specfaas
