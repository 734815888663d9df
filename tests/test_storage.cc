/** @file Unit tests for the global KvStore. */

#include <gtest/gtest.h>

#include "storage/kv_store.hh"

namespace specfaas {
namespace {

TEST(KvStore, PutGetRoundTrip)
{
    KvStore store;
    store.put("k", Value(42));
    auto v = store.get("k");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asInt(), 42);
}

TEST(KvStore, MissingKeyIsNullopt)
{
    KvStore store;
    EXPECT_FALSE(store.get("nope").has_value());
}

TEST(KvStore, OverwriteReplaces)
{
    KvStore store;
    store.put("k", Value(1));
    store.put("k", Value(2));
    EXPECT_EQ(store.get("k")->asInt(), 2);
    EXPECT_EQ(store.size(), 1u);
}

TEST(KvStore, CountersTrackAccesses)
{
    KvStore store;
    store.put("a", Value(1));
    (void)store.get("a");
    (void)store.get("b");
    EXPECT_EQ(store.writeCount(), 1u);
    EXPECT_EQ(store.readCount(), 2u);
    (void)store.peek("a"); // peek does not count
    EXPECT_EQ(store.readCount(), 2u);
}

TEST(KvStore, EraseAndClear)
{
    KvStore store;
    store.put("a", Value(1));
    EXPECT_TRUE(store.erase("a"));
    EXPECT_FALSE(store.erase("a"));
    store.put("b", Value(2));
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.writeCount(), 0u);
}

TEST(KvStore, FingerprintIsOrderIndependentAndContentSensitive)
{
    KvStore a;
    a.put("x", Value(1));
    a.put("y", Value(2));
    KvStore b;
    b.put("y", Value(2));
    b.put("x", Value(1));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.put("x", Value(3));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

} // namespace
} // namespace specfaas
