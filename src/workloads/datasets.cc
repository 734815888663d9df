#include "datasets.hh"

#include "common/logging.hh"

namespace specfaas {

Value
drawRequest(Rng& rng, const DatasetConfig& config)
{
    // A braced list evaluates in order, so the draws keep their order.
    Value v = Value::object(
        {{"user", Value(strFormat(
                      "u%llu", static_cast<unsigned long long>(rng.uniformInt(
                                   std::uint64_t{config.users}))))},
         {"item", Value(strFormat(
                      "i%llu", static_cast<unsigned long long>(
                                   rng.zipf(config.items, config.zipfS))))},
         {"qty", Value(static_cast<std::int64_t>(rng.uniformInt(4) + 1))}});
    for (std::uint32_t i = 0; i < config.branchFields; ++i) {
        v[strFormat("b%u", i)] = Value(rng.bernoulli(config.branchBias));
    }
    return v;
}

Value
drawTicketRequest(Rng& rng, const DatasetConfig& config)
{
    // Route and date are the memoization-relevant pair: Zipf-popular
    // routes on a small set of travel dates, as in real ticket data.
    // A braced list evaluates in order, so the draws keep their order.
    Value v = Value::object(
        {{"user", Value(strFormat(
                      "u%llu", static_cast<unsigned long long>(rng.uniformInt(
                                   std::uint64_t{config.users}))))},
         {"route", Value(strFormat(
                       "r%llu", static_cast<unsigned long long>(
                                    rng.zipf(config.items, config.zipfS))))},
         {"date", Value(strFormat("d%llu", static_cast<unsigned long long>(
                                               rng.zipf(8, 1.6))))},
         {"cls", Value(rng.bernoulli(0.8) ? "economy" : "first")}});
    for (std::uint32_t i = 0; i < config.branchFields; ++i) {
        v[strFormat("b%u", i)] = Value(rng.bernoulli(config.branchBias));
    }
    return v;
}

std::int64_t
bucketOf(const std::string& s, std::int64_t buckets)
{
    SPECFAAS_ASSERT(buckets > 0, "bucketOf with no buckets");
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return static_cast<std::int64_t>(h % static_cast<std::uint64_t>(buckets));
}

} // namespace specfaas
