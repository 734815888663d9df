#include "faaschain.hh"

#include "app_helpers.hh"

#include "common/logging.hh"

namespace specfaas {

namespace {

/** Seed "avail"-style boolean records with a given dominant bias. */
void
seedFlags(KvStore& store, Rng& rng, const std::string& prefix,
          const std::string& item_prefix, std::uint32_t count,
          double bias)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        Value rec = Value::object({{"v", Value(rng.bernoulli(bias))}});
        store.put(strFormat("%s:\"%s%u\"", prefix.c_str(),
                            item_prefix.c_str(), i),
                  std::move(rec));
    }
}

/** Seed small integer records per item. */
void
seedBuckets(KvStore& store, Rng& rng, const std::string& prefix,
            const std::string& item_prefix, std::uint32_t count,
            std::int64_t buckets)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        Value rec = Value::object(
            {{"v", Value(rng.uniformInt(std::int64_t{0}, buckets - 1))}});
        store.put(strFormat("%s:\"%s%u\"", prefix.c_str(),
                            item_prefix.c_str(), i),
                  std::move(rec));
    }
}

std::function<Value(Rng&)>
requestGen(DatasetConfig config)
{
    return [config](Rng& rng) { return drawRequest(rng, config); };
}

} // namespace

Application
makeLoginApp(const DatasetConfig& config)
{
    Application app;
    app.name = "Login";
    app.suite = "FaaSChain";
    app.type = WorkflowType::Explicit;

    // 5 functions, 3 cross-function branches, no data dependences.
    app.functions.push_back(condFunction("LgValidate", "b0", 5.0));

    FunctionDef auth = condFunction("LgAuth", "b1", 8.0);
    auth.body.insert(auth.body.begin(),
                     Op::storageRead(fns::keyOf("pw", "user"), "pw"));
    app.functions.push_back(std::move(auth));

    app.functions.push_back(condFunction("LgSession", "b2", 6.0));

    FunctionDef grant = worker("LgGrant", 7.0, [](const Env& e) {
        return Value::object(
            {{"ok", Value(true)},
             {"tok", Value(bucketOf(e.input.at("user").toString(), 16))}});
    });
    grant.body.push_back(Op::storageWrite(
        fns::keyOf("sess", "user"), [](const Env& e) {
            return Value::object(
                {{"tok", Value(bucketOf(e.input.at("user").toString(), 16))}});
        }));
    app.functions.push_back(std::move(grant));

    app.functions.push_back(
        worker("LgFail", 3.0, [](const Env&) {
            return Value::object({{"ok", Value(false)}});
        }));

    app.workflow =
        when("LgValidate",
             when("LgAuth",
                  when("LgSession", task("LgGrant"), task("LgFail")),
                  task("LgFail")),
             task("LgFail"));

    app.inputGen = requestGen(config);
    auto users = config.users;
    app.seedStore = [users](KvStore& store, Rng& rng) {
        seedBuckets(store, rng, "pw", "u", users, 64);
    };
    return app;
}

Application
makeBankingApp(const DatasetConfig& config)
{
    Application app;
    app.name = "Banking";
    app.suite = "FaaSChain";
    app.type = WorkflowType::Explicit;

    app.functions.push_back(condFunction("BkCheckAcct", "b0", 6.0));

    FunctionDef fraud = condFunction("BkFraud", "b1", 9.0);
    // Fraud scoring logs evidence to a local temp file (§VI COW).
    fraud.body.push_back(Op::fileWrite(
        [](const Env&) { return std::string("fraud.log"); }));
    app.functions.push_back(std::move(fraud));

    FunctionDef balance = condFunction("BkBalance", "b2", 7.0);
    balance.body.insert(balance.body.begin(),
                        Op::storageRead(fns::keyOf("bal", "user"),
                                        "bal"));
    app.functions.push_back(std::move(balance));

    FunctionDef commit = worker("BkCommit", 8.0, [](const Env& e) {
        return Value::object({{"ok", Value(true)},
                              {"amt", Value(e.input.at("qty").asInt() * 10)}});
    });
    commit.body.push_back(Op::storageWrite(
        fns::keyOf("txn", "user"), [](const Env& e) {
            return Value::object(
                {{"amt", Value(e.input.at("qty").asInt() * 10)}});
        }));
    app.functions.push_back(std::move(commit));

    app.functions.push_back(worker("BkReject", 3.0, [](const Env&) {
        return Value::object({{"ok", Value(false)}});
    }));

    app.workflow =
        when("BkCheckAcct",
             when("BkFraud",
                  when("BkBalance", task("BkCommit"),
                       task("BkReject")),
                  task("BkReject")),
             task("BkReject"));

    app.inputGen = requestGen(config);
    auto users = config.users;
    app.seedStore = [users](KvStore& store, Rng& rng) {
        seedBuckets(store, rng, "bal", "u", users, 100);
    };
    return app;
}

Application
makeFlightBookApp(const DatasetConfig& config)
{
    Application app;
    app.name = "FlightBook";
    app.suite = "FaaSChain";
    app.type = WorkflowType::Explicit;

    // 7 functions, 4 branches, no data dependences.
    app.functions.push_back(condFunction("FbSearch", "b0", 9.0));

    FunctionDef seat = condFunction("FbSeat", "b1", 7.0);
    seat.body.insert(seat.body.begin(),
                     Op::storageRead(fns::keyOf("seat", "item"),
                                     "seat"));
    app.functions.push_back(std::move(seat));

    app.functions.push_back(condFunction("FbPrice", "b2", 6.0));
    app.functions.push_back(condFunction("FbPay", "b3", 8.0));

    FunctionDef confirm = worker("FbConfirm", 7.0, [](const Env& e) {
        return Value::object({{"ok", Value(true)},
                              {"flight", e.input.at("item")}});
    });
    confirm.body.push_back(Op::storageWrite(
        fns::keyOf("book", "user"), [](const Env& e) {
            return Value::object({{"flight", e.input.at("item")}});
        }));
    confirm.body.push_back(Op::http());
    app.functions.push_back(std::move(confirm));

    app.functions.push_back(worker("FbRefund", 5.0, [](const Env&) {
        return Value::object({{"ok", Value(false)},
                              {"refund", Value(true)}});
    }));
    app.functions.push_back(worker("FbCancel", 3.0, [](const Env&) {
        return Value::object({{"ok", Value(false)}});
    }));

    app.workflow =
        when("FbSearch",
             when("FbSeat",
                  when("FbPrice",
                       when("FbPay", task("FbConfirm"),
                            task("FbRefund")),
                       task("FbCancel")),
                  task("FbCancel")),
             task("FbCancel"));

    app.inputGen = requestGen(config);
    auto items = config.items;
    app.seedStore = [items](KvStore& store, Rng& rng) {
        seedBuckets(store, rng, "seat", "i", items, 16);
    };
    return app;
}

Application
makeHotelBookApp(const DatasetConfig& config)
{
    Application app;
    app.name = "HotelBook";
    app.suite = "FaaSChain";
    app.type = WorkflowType::Explicit;

    // 10 functions, 1 branch, sequence + storage data dependences.
    FunctionDef parse = worker("HbParse", 5.0, [](const Env& e) {
        return Value::object({{"hotel", e.input.at("item")},
                              {"qty", e.input.at("qty")}});
    });
    parse.body.push_back(Op::fileWrite(
        [](const Env&) { return std::string("req.json"); }));
    app.functions.push_back(std::move(parse));

    FunctionDef findh = worker("HbFind", 7.0, [](const Env& e) {
        return Value::object({{"hotel", e.input.at("hotel")},
                              {"qty", e.input.at("qty")},
                              {"rate", e.var("h").at("v")}});
    });
    findh.body.insert(findh.body.begin(),
                      Op::storageRead(fns::keyOf("hotel", "hotel"),
                                      "h"));
    app.functions.push_back(std::move(findh));

    app.functions.push_back(
        condFromStore("HbAvail", "avail", "hotel", 6.0));

    app.functions.push_back(worker("HbPrice", 8.0, [](const Env& e) {
        Value out = e.input;
        out["price"] = Value((e.input.at("rate").asInt() + 1) *
                             e.input.at("qty").asInt() % 32);
        return out;
    }));

    FunctionDef discount = worker("HbDiscount", 6.0, [](const Env& e) {
        Value out = e.input;
        const std::int64_t promo = e.var("promo").at("v").asInt();
        out["price"] =
            Value(std::max<std::int64_t>(
                0, e.input.at("price").asInt() - promo));
        return out;
    });
    discount.body.insert(
        discount.body.begin(),
        Op::storageRead([](const Env&) { return std::string("cfg:promo"); },
                        "promo"));
    app.functions.push_back(std::move(discount));

    // Producer: reserves the room and records it in global storage.
    FunctionDef reserve = worker("HbReserve", 9.0, fns::passInput());
    reserve.body.push_back(Op::storageWrite(
        fns::keyOf("room", "hotel"), [](const Env& e) {
            return Value::object({{"held", e.input.at("qty")}});
        }));
    app.functions.push_back(std::move(reserve));

    // Consumer: reads the reservation record the producer wrote —
    // the in-invocation RAW dependence that exercises the Data
    // Buffer and the squash minimizer.
    FunctionDef charge = worker("HbCharge", 8.0, [](const Env& e) {
        return Value::object({{"hotel", e.input.at("hotel")},
                              {"paid", e.input.at("price")},
                              {"held", e.var("room").at("held")}});
    });
    charge.body.insert(charge.body.begin(),
                       Op::storageRead(fns::keyOf("room", "hotel"),
                                       "room"));
    app.functions.push_back(std::move(charge));

    FunctionDef conf = worker("HbSendConf", 5.0, fns::passInput());
    conf.body.push_back(Op::http());
    app.functions.push_back(std::move(conf));

    app.functions.push_back(worker("HbNoAvail", 3.0, [](const Env&) {
        return Value::object({{"ok", Value(false)}});
    }));

    app.functions.push_back(worker("HbFinal", 4.0, [](const Env& e) {
        return Value::object({{"done", Value(true)}, {"res", e.input}});
    }));

    app.workflow = sequence({
        task("HbParse"),
        task("HbFind"),
        when("HbAvail",
             sequence({task("HbPrice"), task("HbDiscount"),
                       task("HbReserve"), task("HbCharge"),
                       task("HbSendConf")}),
             task("HbNoAvail")),
        task("HbFinal"),
    });

    app.inputGen = requestGen(config);
    auto items = config.items;
    const double bias = config.branchBias;
    app.seedStore = [items, bias](KvStore& store, Rng& rng) {
        seedBuckets(store, rng, "hotel", "i", items, 8);
        seedFlags(store, rng, "avail", "i", items, bias);
        store.put("cfg:promo", Value::object({{"v", Value(2)}}));
    };
    return app;
}

Application
makeOnlPurchApp(const DatasetConfig& config)
{
    Application app;
    app.name = "OnlPurch";
    app.suite = "FaaSChain";
    app.type = WorkflowType::Explicit;

    // 12 functions, 2 branches, DAG depth 10.
    FunctionDef parse = worker("OpParse", 6.0, [](const Env& e) {
        return Value::object({{"item", e.input.at("item")},
                              {"qty", e.input.at("qty")}});
    });
    parse.body.push_back(Op::fileWrite(
        [](const Env&) { return std::string("cart.json"); }));
    app.functions.push_back(std::move(parse));

    FunctionDef price = worker("OpPrice", 8.0, [](const Env& e) {
        Value out = e.input;
        out["cost"] = e.var("p").at("v");
        return out;
    });
    price.body.insert(price.body.begin(),
                      Op::storageRead(fns::keyOf("price", "item"), "p"));
    app.functions.push_back(std::move(price));

    app.functions.push_back(
        condFromStore("OpStock", "stock", "item", 6.0));

    FunctionDef reserve = worker("OpReserve", 8.0, fns::passInput());
    reserve.body.push_back(Op::storageWrite(
        fns::keyOf("resv", "item"), [](const Env& e) {
            return Value::object({{"qty", e.input.at("qty")}});
        }));
    app.functions.push_back(std::move(reserve));

    FunctionDef tax = worker("OpTax", 7.0, [](const Env& e) {
        Value out = e.input;
        out["total"] = Value((e.input.at("cost").asInt() *
                                  e.input.at("qty").asInt() +
                              e.var("tax").at("v").asInt()) %
                             64);
        return out;
    });
    tax.body.insert(tax.body.begin(),
                    Op::storageRead(
                        [](const Env&) { return std::string("cfg:tax"); },
                        "tax"));
    app.functions.push_back(std::move(tax));

    app.functions.push_back(
        condFromStore("OpPayAuth", "payok", "item", 8.0));

    // Reads the reservation the producer wrote (in-invocation RAW).
    FunctionDef chargec = worker("OpCharge", 9.0, [](const Env& e) {
        return Value::object({{"item", e.input.at("item")},
                              {"charged", e.input.at("total")},
                              {"resv", e.var("r").at("qty")}});
    });
    chargec.body.insert(chargec.body.begin(),
                        Op::storageRead(fns::keyOf("resv", "item"),
                                        "r"));
    chargec.body.push_back(Op::http());
    app.functions.push_back(std::move(chargec));

    FunctionDef inv = worker("OpUpdInv", 7.0, fns::passInput());
    inv.body.push_back(Op::storageWrite(
        fns::keyOf("inv", "item"), [](const Env& e) {
            return Value::object({{"sold", e.input.at("resv")}});
        }));
    app.functions.push_back(std::move(inv));

    FunctionDef email = worker("OpEmail", 5.0, [](const Env& e) {
        return Value::object({{"ok", Value(true)},
                              {"item", e.input.at("item")}});
    });
    email.body.push_back(Op::http());
    app.functions.push_back(std::move(email));

    app.functions.push_back(worker("OpPayFail", 4.0, [](const Env&) {
        return Value::object({{"ok", Value(false)},
                              {"why", Value("payment")}});
    }));
    app.functions.push_back(worker("OpNoStock", 3.0, [](const Env&) {
        return Value::object({{"ok", Value(false)},
                              {"why", Value("stock")}});
    }));
    app.functions.push_back(worker("OpSummary", 5.0, [](const Env& e) {
        return Value::object({{"done", Value(true)}, {"res", e.input}});
    }));

    app.workflow = sequence({
        task("OpParse"),
        task("OpPrice"),
        when("OpStock",
             sequence({task("OpReserve"), task("OpTax"),
                       when("OpPayAuth",
                            sequence({task("OpCharge"),
                                      task("OpUpdInv"),
                                      task("OpEmail")}),
                            task("OpPayFail"))}),
             task("OpNoStock")),
        task("OpSummary"),
    });

    app.inputGen = requestGen(config);
    auto items = config.items;
    const double bias = config.branchBias;
    app.seedStore = [items, bias](KvStore& store, Rng& rng) {
        seedBuckets(store, rng, "price", "i", items, 40);
        seedFlags(store, rng, "stock", "i", items, bias);
        seedFlags(store, rng, "payok", "i", items, bias);
        store.put("cfg:tax", Value::object({{"v", Value(7)}}));
    };
    return app;
}

Application
makeSmartHomeApp(const DatasetConfig& config)
{
    Application app;
    app.name = "SmartHome";
    app.suite = "FaaSChain";
    app.type = WorkflowType::Explicit;

    // The paper's running example (Listing 1 / Fig. 1): 7 functions,
    // 2 branches.
    app.functions.push_back(condFunction("ShLogin", "b0", 6.0));

    FunctionDef readt = worker("ShReadTemp", 7.0, [](const Env& e) {
        return Value::object({{"home", e.input.at("user")},
                              {"temp", e.var("t").at("v")}});
    });
    readt.body.insert(readt.body.begin(),
                      Op::storageRead(fns::keyOf("temp", "user"), "t"));
    app.functions.push_back(std::move(readt));

    app.functions.push_back(worker("ShNormalize", 8.0, [](const Env& e) {
        return Value::object({{"home", e.input.at("home")},
                              {"t", Value(e.input.at("temp").asInt() % 5)}});
    }));

    FunctionDef compare = worker("ShCompare", 5.0, [](const Env& e) {
        return Value(e.input.at("t").asInt() != 0);
    });
    app.functions.push_back(std::move(compare));

    FunctionDef air = worker("ShTurnAir", 9.0, fns::passInput());
    air.body.push_back(Op::http());
    app.functions.push_back(std::move(air));

    app.functions.push_back(worker("ShDone", 4.0, [](const Env& e) {
        return Value::object(
            {{"ok", Value(true)},
             {"home", e.input.isObject() ? e.input.at("home") : Value()}});
    }));
    app.functions.push_back(worker("ShFail", 3.0, [](const Env&) {
        return Value::object({{"ok", Value(false)}});
    }));

    app.workflow =
        when("ShLogin",
             sequence({task("ShReadTemp"), task("ShNormalize"),
                       when("ShCompare", task("ShTurnAir")),
                       task("ShDone")}),
             task("ShFail"));

    app.inputGen = requestGen(config);
    auto users = config.users;
    const double bias = config.branchBias;
    app.seedStore = [users, bias](KvStore& store, Rng& rng) {
        // temp % 5 != 0 is the "turn the A/C on" direction; seed it
        // as the dominant outcome with probability `bias`.
        for (std::uint32_t i = 0; i < users; ++i) {
            const std::int64_t base =
                5 * rng.uniformInt(std::int64_t{0}, 5);
            const std::int64_t temp =
                rng.bernoulli(bias)
                    ? base + rng.uniformInt(std::int64_t{1}, 4)
                    : base;
            store.put(strFormat("temp:\"u%u\"", i),
                      Value::object({{"v", Value(temp)}}));
        }
    };
    return app;
}

std::vector<Application>
faasChainSuite(const DatasetConfig& config)
{
    std::vector<Application> suite;
    suite.push_back(makeLoginApp(config));
    suite.push_back(makeBankingApp(config));
    suite.push_back(makeFlightBookApp(config));
    suite.push_back(makeHotelBookApp(config));
    suite.push_back(makeOnlPurchApp(config));
    suite.push_back(makeSmartHomeApp(config));
    return suite;
}

} // namespace specfaas
