/**
 * @file
 * Pins Value's representation: one-block copy-on-write boxes for
 * arrays and objects, exact sizing, geometric growth only past the
 * capacity, and string_view lookups. The golden hashes and renderings
 * were recorded from the earlier std::vector-backed representation;
 * memo keys, committed-report hashes and KvStore fingerprints are all
 * built on these, so they must not move.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/value.hh"

namespace specfaas {
namespace {

struct Golden
{
    Value value;
    std::uint64_t hash;
    const char* text;
};

std::vector<Golden>
goldens()
{
    Value built;
    built["z"] = Value(1);
    built["a"] = Value("x");
    built["m"] = Value::array({Value(false)});
    return {
        {Value::object(
             {{"user", Value("alice")},
              {"cart",
               Value::array({Value(1), Value(2.5),
                             Value::object({{"sku",
                                             Value("a-very-long-sku-"
                                                   "identifier")}})})},
              {"meta",
               Value::object({{"ok", Value(true)}, {"none", Value()}})}}),
         0x03b61a74941f1f44ull,
         "{\"cart\":[1,2.5,{\"sku\":\"a-very-long-sku-identifier\"}],"
         "\"meta\":{\"none\":null,\"ok\":true},\"user\":\"alice\"}"},
        {Value::array({Value(-7), Value(0.1), Value("short"),
                       Value::array({})}),
         0x4cff101653b1426full, "[-7,0.1,\"short\",[]]"},
        {Value("this string is longer than fifteen characters"),
         0x3fd6e4ab99d633a5ull,
         "\"this string is longer than fifteen characters\""},
        {Value(3.141592653589793), 0x886aba852e9de7deull, "3.14159"},
        {Value::object({}), 0x44bd2dd473ccfaffull, "{}"},
        {std::move(built), 0x0fe284497b8ce1f2ull,
         "{\"a\":\"x\",\"m\":[false],\"z\":1}"},
    };
}

TEST(ValueRepr, GoldenHashesAndRenderings)
{
    for (const Golden& g : goldens()) {
        EXPECT_EQ(g.value.toString(), g.text);
        EXPECT_EQ(g.value.hash(), g.hash) << g.text;
        // A copy shares the box and hashes identically.
        const Value copy = g.value;
        EXPECT_EQ(copy.hash(), g.hash) << g.text;
        EXPECT_EQ(copy, g.value);
    }
}

TEST(ValueRepr, CopyOnWriteIsolatesTheOriginal)
{
    const Value original = Value::object(
        {{"k", Value(1)}, {"list", Value::array({Value("a")})}});
    const std::string before = original.toString();

    Value copy = original;
    EXPECT_TRUE(copy.asObject().sharesBoxWith(original.asObject()))
        << "a copy must share the box until written";

    copy["k"] = Value(2);              // overwrite an existing field
    copy["new"] = Value("n");          // insert a new field
    copy["list"].asArray().push_back(Value("b")); // nested array
    EXPECT_FALSE(copy.asObject().sharesBoxWith(original.asObject()));

    EXPECT_EQ(original.toString(), before);
    EXPECT_EQ(original.at("k").asInt(), 1);
    EXPECT_EQ(original.at("list").size(), 1u);
    EXPECT_EQ(copy.at("k").asInt(), 2);
    EXPECT_EQ(copy.at("list").size(), 2u);
    EXPECT_EQ(copy.at("new").asString(), "n");

    // A shared box with spare capacity is still cloned before an
    // insert: the in-place path is only for a box nobody else holds.
    Value built;
    built["a"] = Value(1);
    built["b"] = Value(2);
    built["c"] = Value(3);
    ASSERT_GT(built.asObject().capacity(), built.size());
    Value alias = built;
    alias["d"] = Value(4);
    EXPECT_EQ(built.size(), 3u);
    EXPECT_TRUE(built.at("d").isNull());
    EXPECT_EQ(alias.size(), 4u);
    ValueArray arr;
    for (int i = 0; i < 3; ++i)
        arr.push_back(Value(i));
    ASSERT_GT(arr.capacity(), arr.size());
    ValueArray arrAlias = arr;
    arrAlias.push_back(Value(3));
    EXPECT_EQ(arr.size(), 3u);
    EXPECT_EQ(arrAlias.size(), 4u);

    // Erasing through a copy leaves the original alone too.
    Value second = original;
    ValueObject& fields = second.asObject();
    fields.erase(fields.find("k"));
    EXPECT_EQ(second.size(), 1u);
    EXPECT_EQ(original.size(), 2u);
    EXPECT_EQ(original.toString(), before);
}

TEST(ValueRepr, BoxesAreSizedToTheirContents)
{
    // Builders with a known entry count allocate exactly that.
    const Value obj = Value::object(
        {{"a", Value(1)}, {"b", Value(2)}, {"c", Value(3)}});
    EXPECT_EQ(obj.asObject().capacity(), 3u);
    const Value arr = Value::array({Value(1), Value(2)});
    EXPECT_EQ(arr.asArray().capacity(), 2u);

    // An empty object or array owns no box at all.
    const Value empty = Value::object({});
    EXPECT_TRUE(empty.isObject());
    EXPECT_EQ(empty.asObject().capacity(), 0u);
    EXPECT_EQ(Value::array({}).asArray().capacity(), 0u);

    // Writing a new field into a shared box clones it with exactly
    // one more slot; overwriting clones at the same size.
    Value grown = obj;
    grown["d"] = Value(4);
    EXPECT_EQ(grown.asObject().capacity(), 4u);
    Value same = obj;
    same["a"] = Value(9);
    EXPECT_EQ(same.asObject().capacity(), 3u);
}

TEST(ValueRepr, GrowthPastCapacityKeepsOrderAndContents)
{
    // Append well past every capacity step, in scrambled key order:
    // entries stay sorted and intact through each regrowth.
    Value v;
    for (int i = 0; i < 40; ++i) {
        const int k = (i * 17) % 40;
        v[std::string("key") + std::to_string(100 + k)] = Value(k);
    }
    ASSERT_EQ(v.size(), 40u);
    EXPECT_GE(v.asObject().capacity(), 40u);
    int expected = 0;
    for (const auto& [key, field] : v.asObject()) {
        EXPECT_EQ(key, "key" + std::to_string(100 + expected));
        EXPECT_EQ(field.asInt(), expected);
        ++expected;
    }

    ValueArray arr;
    for (int i = 0; i < 100; ++i)
        arr.push_back(Value(std::string(20, static_cast<char>('a' + i % 26))));
    ASSERT_EQ(arr.size(), 100u);
    EXPECT_GE(arr.capacity(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(arr[static_cast<std::size_t>(i)].asString(),
                  std::string(20, static_cast<char>('a' + i % 26)));
}

TEST(ValueRepr, LookupsThroughNonTerminatedStringViews)
{
    const std::string buffer = "itemqtyXYZ";
    const std::string_view item(buffer.data(), 4);    // "item"
    const std::string_view qty(buffer.data() + 4, 3); // "qty"

    Value v;
    v[item] = Value(7);
    v[qty] = Value(3);
    EXPECT_EQ(v.toString(), "{\"item\":7,\"qty\":3}");
    EXPECT_EQ(v.at(item).asInt(), 7);
    EXPECT_EQ(v.at(qty).asInt(), 3);
    EXPECT_TRUE(v.at(std::string_view(buffer.data(), 3)).isNull())
        << "a prefix of a key must not match it";
    EXPECT_EQ(v.asObject().count(item), 1u);
    EXPECT_EQ(v.asObject().count(std::string_view(buffer.data(), 5)), 0u);
    EXPECT_NE(v.asObject().find(qty), v.asObject().end());
}

TEST(ValueRepr, AssignmentFromOwnChildIsSafe)
{
    Value v = Value::object(
        {{"inner", Value::object({{"leaf", Value("long enough to "
                                                 "leave the SSO")}})}});
    v = v.at("inner");
    EXPECT_EQ(v.toString(), "{\"leaf\":\"long enough to leave the SSO\"}");
    v = std::move(v["leaf"]);
    EXPECT_EQ(v.asString(), "long enough to leave the SSO");
}

} // namespace
} // namespace specfaas
