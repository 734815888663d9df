#include "trainticket.hh"

#include "app_helpers.hh"

#include "common/logging.hh"

namespace specfaas {

namespace {

std::function<Value(Rng&)>
ticketGen(DatasetConfig config)
{
    return [config](Rng& rng) {
        Value v = drawTicketRequest(rng, config);
        // Implicit workflows memoize the root on its whole input;
        // keep the payload low-cardinality (route/date only carry
        // information; user stays out of the request body, as the
        // paper's ticket dataset identifies trips, not shoppers).
        return Value::object({{"route", v.at("route")},
                              {"date", v.at("date")}});
    };
}

/** Small args projection: {route}. */
ValueFn
routeArgs()
{
    return [](const Env& e) {
        return Value::object({{"route", e.input.at("route")}});
    };
}

/** Args projection: {route, date}. */
ValueFn
routeDateArgs()
{
    return [](const Env& e) {
        return Value::object({{"route", e.input.at("route")},
                              {"date", e.input.at("date")}});
    };
}

/** Tier-3 service: compute + optional read, low-cardinality output. */
FunctionDef
leafService(std::string name, double ms, std::string read_prefix,
            std::int64_t out_buckets)
{
    FunctionDef d;
    d.name = name;
    d.body.push_back(Op::compute(msToTicks(ms)));
    if (!read_prefix.empty()) {
        d.body.push_back(
            Op::storageRead(fns::keyOf(read_prefix, "route"), "rec"));
        d.output = [out_buckets](const Env& e) {
            return Value::object(
                {{"v", Value((intOr(e.var("rec").at("v"), 0) + 1) %
                             out_buckets)}});
        };
    } else {
        d.output = [name, out_buckets](const Env& e) {
            return Value::object(
                {{"v", Value(bucketOf(name + e.input.at("route").toString(),
                                      out_buckets))}});
        };
    }
    d.pureAnnotation = read_prefix.empty();
    return d;
}

void
seedRouteRecords(KvStore& store, Rng& rng, const std::string& prefix,
                 std::uint32_t routes, std::int64_t buckets)
{
    for (std::uint32_t i = 0; i < routes; ++i) {
        store.put(strFormat("%s:\"r%u\"", prefix.c_str(), i),
                  Value::object({{"v", Value(rng.uniformInt(
                                            std::int64_t{0},
                                            buckets - 1))}}));
    }
}

} // namespace

DatasetConfig
trainTicketDataset()
{
    DatasetConfig config;
    config.items = 150;   // routes
    config.zipfS = 1.8;   // popular routes dominate strongly
    config.branchBias = 0.98;
    config.branchFields = 2;
    return config;
}

Application
makeTcktApp(const DatasetConfig& config)
{
    Application app;
    app.name = "TcktApp";
    app.suite = "TrainTicket";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "TTOrder";

    // Root: books a ticket. 5 callees; QueryTrain is a tier-2 gather
    // with 4 callees; CreateBill calls a tier-3 tax service (depth 3).
    FunctionDef root;
    root.name = "TTOrder";
    root.body.push_back(Op::compute(msToTicks(6.0)));
    root.body.push_back(Op::call("TTGetStation", routeArgs(), "st"));
    root.body.push_back(Op::call("TTQueryTrain", routeDateArgs(), "qt"));
    root.body.push_back(Op::callIf(fns::bucketGuard("route", 50),
                                   "TTCheckUser", routeArgs(), "cu"));
    root.body.push_back(Op::compute(msToTicks(5.0)));
    root.body.push_back(Op::storageWrite(
        fns::keyOf2("order", "route", "date"), [](const Env& e) {
            return Value::object({{"price", e.var("qt").at("price")}});
        }));
    root.body.push_back(Op::call("TTCreateBill", routeDateArgs(), "cb"));
    root.body.push_back(Op::call("TTNotify", routeArgs(), "nt"));
    root.output = [](const Env& e) {
        return Value::object({{"ok", Value(true)},
                              {"price", e.var("qt").at("price")},
                              {"bill", e.var("cb").at("v")}});
    };
    app.functions.push_back(std::move(root));

    app.functions.push_back(
        leafService("TTGetStation", 7.0, "station", 12));

    FunctionDef query;
    query.name = "TTQueryTrain";
    query.body.push_back(Op::compute(msToTicks(5.0)));
    query.body.push_back(Op::call("TTSeatAvail", routeDateArgs(), "sa"));
    query.body.push_back(Op::call("TTPriceCalc", routeArgs(), "pc"));
    query.body.push_back(Op::call("TTTrainType", routeArgs(), "tt"));
    query.body.push_back(Op::callIf(fns::bucketGuard("route", 50),
                                    "TTFoodQuery", routeArgs(), "fq"));
    query.body.push_back(Op::compute(msToTicks(4.0)));
    query.output = [](const Env& e) {
        return Value::object(
            {{"price", Value((e.var("pc").at("v").asInt() + 1) *
                             (e.var("tt").at("v").asInt() + 1) % 64)},
             {"seats", e.var("sa").at("v")}});
    };
    app.functions.push_back(std::move(query));

    {
        FunctionDef seat;
        seat.name = "TTSeatAvail";
        seat.body.push_back(Op::compute(msToTicks(8.0)));
        seat.body.push_back(Op::storageRead(
            fns::keyOf2("seat", "route", "date"), "s"));
        seat.output = [](const Env& e) {
            return Value::object(
                {{"v", Value(e.var("s").at("v").asInt() % 16)}});
        };
        app.functions.push_back(std::move(seat));
    }
    app.functions.push_back(leafService("TTPriceCalc", 9.0, "price", 24));
    app.functions.push_back(leafService("TTTrainType", 5.0, "", 4));
    app.functions.push_back(leafService("TTFoodQuery", 6.0, "", 6));
    app.functions.push_back(leafService("TTCheckUser", 7.0, "", 2));

    FunctionDef bill;
    bill.name = "TTCreateBill";
    bill.body.push_back(Op::compute(msToTicks(6.0)));
    // Reads the order record the root writes earlier in the same
    // invocation: a cross-function RAW over global storage. A
    // speculatively launched TTCreateBill reads it prematurely, gets
    // squashed by the Data Buffer, and the squash minimizer learns to
    // stall this read (§V-C).
    bill.body.push_back(
        Op::storageRead(fns::keyOf2("order", "route", "date"), "ord"));
    bill.body.push_back(Op::call("TTTaxSvc", routeArgs(), "tax"));
    bill.body.push_back(Op::call("TTAuditSvc", routeArgs(), "aud"));
    bill.body.push_back(Op::storageWrite(
        fns::keyOf2("bill", "route", "date"), [](const Env& e) {
            return Value::object({{"tax", e.var("tax").at("v")},
                                  {"price", e.var("ord").at("price")}});
        }));
    bill.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((intOr(e.var("tax").at("v"), 0) +
                          intOr(e.var("ord").at("price"), 0)) %
                         32)}});
    };
    app.functions.push_back(std::move(bill));

    app.functions.push_back(leafService("TTTaxSvc", 7.0, "", 8));
    app.functions.push_back(leafService("TTAuditSvc", 5.0, "", 4));

    FunctionDef notify;
    notify.name = "TTNotify";
    notify.body.push_back(Op::compute(msToTicks(4.0)));
    notify.body.push_back(Op::http());
    notify.output = [](const Env&) {
        return Value::object({{"sent", Value(true)}});
    };
    app.functions.push_back(std::move(notify));

    app.inputGen = ticketGen(config);
    const auto routes = config.items;
    app.seedStore = [routes](KvStore& store, Rng& rng) {
        seedRouteRecords(store, rng, "station", routes, 12);
        seedRouteRecords(store, rng, "price", routes, 24);
        for (std::uint32_t r = 0; r < routes; ++r) {
            for (std::uint32_t d = 0; d < 14; ++d) {
                store.put(strFormat("seat:\"r%u\":\"d%u\"", r, d),
                          Value::object({{"v", Value(rng.uniformInt(
                                                    std::int64_t{0},
                                                    63))}}));
            }
        }
    };
    return app;
}

Application
makeTripInApp(const DatasetConfig& config)
{
    Application app;
    app.name = "TripInApp";
    app.suite = "TrainTicket";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "TIRoot";

    FunctionDef root;
    root.name = "TIRoot";
    root.body.push_back(Op::compute(msToTicks(5.0)));
    root.body.push_back(Op::call("TITrainQ", routeDateArgs(), "tq"));
    root.body.push_back(Op::call("TIStationQ", routeArgs(), "sq"));
    root.body.push_back(Op::call("TITimeQ", routeDateArgs(), "tmq"));
    root.body.push_back(Op::callIf(fns::bucketGuard("route", 50),
                                   "TIWeatherQ", routeDateArgs(), "wq"));
    root.body.push_back(Op::callIf(fns::bucketGuard("date", 40),
                                   "TIAlertQ", routeArgs(), "aq"));
    root.body.push_back(Op::compute(msToTicks(6.0)));
    root.output = [](const Env& e) {
        return Value::object({{"train", e.var("tq").at("v")},
                              {"depart", e.var("tmq").at("v")}});
    };
    app.functions.push_back(std::move(root));

    FunctionDef trainq;
    trainq.name = "TITrainQ";
    trainq.body.push_back(Op::compute(msToTicks(5.0)));
    trainq.body.push_back(Op::call("TIRouteSvc", routeArgs(), "rs"));
    trainq.body.push_back(Op::call("TISeatSvc", routeDateArgs(), "ss"));
    trainq.body.push_back(Op::call("TIPriceSvc", routeArgs(), "ps"));
    trainq.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("rs").at("v").asInt() +
                          e.var("ss").at("v").asInt() +
                          e.var("ps").at("v").asInt()) %
                         32)}});
    };
    app.functions.push_back(std::move(trainq));

    app.functions.push_back(leafService("TIRouteSvc", 8.0, "station", 12));
    app.functions.push_back(leafService("TISeatSvc", 7.0, "", 16));
    app.functions.push_back(leafService("TIPriceSvc", 9.0, "price", 24));
    app.functions.push_back(leafService("TIStationQ", 6.0, "station", 12));

    FunctionDef timeq;
    timeq.name = "TITimeQ";
    timeq.body.push_back(Op::compute(msToTicks(6.0)));
    timeq.body.push_back(Op::call("TISchedSvc", routeDateArgs(), "sc"));
    timeq.body.push_back(Op::call("TIDelaySvc", routeDateArgs(), "dl"));
    timeq.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("sc").at("v").asInt() +
                          e.var("dl").at("v").asInt()) %
                         24)}});
    };
    app.functions.push_back(std::move(timeq));

    app.functions.push_back(leafService("TISchedSvc", 8.0, "", 24));
    app.functions.push_back(leafService("TIDelaySvc", 6.0, "", 6));
    app.functions.push_back(leafService("TIWeatherQ", 7.0, "", 5));
    app.functions.push_back(leafService("TIAlertQ", 5.0, "", 3));

    app.inputGen = ticketGen(config);
    const auto routes = config.items;
    app.seedStore = [routes](KvStore& store, Rng& rng) {
        seedRouteRecords(store, rng, "station", routes, 12);
        seedRouteRecords(store, rng, "price", routes, 24);
    };
    return app;
}

Application
makeQueryTrvlApp(const DatasetConfig& config)
{
    Application app;
    app.name = "QueryTrvl";
    app.suite = "TrainTicket";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "QTRoot";

    FunctionDef root;
    root.name = "QTRoot";
    root.body.push_back(Op::compute(msToTicks(6.0)));
    root.body.push_back(Op::call("QTDirect", routeDateArgs(), "d"));
    root.body.push_back(Op::call("QTTransfer", routeDateArgs(), "t"));
    root.body.push_back(Op::callIf(fns::bucketGuard("date", 40),
                                   "QTPromo", routeArgs(), "p"));
    root.body.push_back(Op::callIf(fns::bucketGuard("route", 50),
                                   "QTInsure", routeArgs(), "ins"));
    root.body.push_back(Op::compute(msToTicks(5.0)));
    root.output = [](const Env& e) {
        return Value::object({{"direct", e.var("d").at("v")},
                              {"transfer", e.var("t").at("v")}});
    };
    app.functions.push_back(std::move(root));

    FunctionDef direct;
    direct.name = "QTDirect";
    direct.body.push_back(Op::compute(msToTicks(5.0)));
    direct.body.push_back(Op::call("QTSched", routeDateArgs(), "s"));
    direct.body.push_back(Op::call("QTFare", routeArgs(), "f"));
    direct.body.push_back(Op::call("QTStops", routeArgs(), "st"));
    direct.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("s").at("v").asInt() * 3 +
                          e.var("f").at("v").asInt()) %
                         48)}});
    };
    app.functions.push_back(std::move(direct));

    FunctionDef transfer;
    transfer.name = "QTTransfer";
    transfer.body.push_back(Op::compute(msToTicks(6.0)));
    transfer.body.push_back(Op::call("QTSched", routeDateArgs(), "s1"));
    transfer.body.push_back(Op::call("QTHub", routeArgs(), "h"));
    transfer.body.push_back(Op::call("QTFeeSvc", routeArgs(), "fee"));
    transfer.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("s1").at("v").asInt() +
                          e.var("h").at("v").asInt()) %
                         48)}});
    };
    app.functions.push_back(std::move(transfer));

    app.functions.push_back(leafService("QTSched", 8.0, "", 24));
    app.functions.push_back(leafService("QTFare", 7.0, "price", 24));
    app.functions.push_back(leafService("QTStops", 5.0, "station", 8));
    app.functions.push_back(leafService("QTHub", 6.0, "station", 12));
    app.functions.push_back(leafService("QTFeeSvc", 5.0, "", 10));
    app.functions.push_back(leafService("QTPromo", 5.0, "", 4));
    app.functions.push_back(leafService("QTInsure", 6.0, "", 5));

    app.inputGen = ticketGen(config);
    const auto routes = config.items;
    app.seedStore = [routes](KvStore& store, Rng& rng) {
        seedRouteRecords(store, rng, "station", routes, 12);
        seedRouteRecords(store, rng, "price", routes, 24);
    };
    return app;
}

Application
makeGetLeftApp(const DatasetConfig& config)
{
    Application app;
    app.name = "GetLeftApp";
    app.suite = "TrainTicket";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "GLRoot";

    FunctionDef root;
    root.name = "GLRoot";
    root.body.push_back(Op::compute(msToTicks(5.0)));
    root.body.push_back(Op::call("GLOrderQ", routeDateArgs(), "o"));
    root.body.push_back(Op::call("GLSeatLeft", routeDateArgs(), "s"));
    root.body.push_back(Op::call("GLPriceQ", routeArgs(), "p"));
    root.body.push_back(Op::callIf(fns::bucketGuard("route", 50),
                                   "GLNotify", routeArgs(), "n"));
    root.body.push_back(Op::compute(msToTicks(4.0)));
    root.body.push_back(Op::storageWrite(
        fns::keyOf2("leftcache", "route", "date"), [](const Env& e) {
            return Value::object({{"left", e.var("s").at("v")}});
        }));
    root.output = [](const Env& e) {
        return Value::object({{"left", e.var("s").at("v")},
                              {"orders", e.var("o").at("v")}});
    };
    app.functions.push_back(std::move(root));

    FunctionDef orderq;
    orderq.name = "GLOrderQ";
    orderq.body.push_back(Op::compute(msToTicks(7.0)));
    orderq.body.push_back(Op::call("GLCountSvc", routeDateArgs(), "c"));
    orderq.body.push_back(Op::call("GLUserSvc", routeArgs(), "u"));
    orderq.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("c").at("v").asInt() +
                          e.var("u").at("v").asInt()) %
                         16)}});
    };
    app.functions.push_back(std::move(orderq));

    FunctionDef seatleft;
    seatleft.name = "GLSeatLeft";
    seatleft.body.push_back(Op::compute(msToTicks(6.0)));
    seatleft.body.push_back(Op::call("GLConfigSvc", routeArgs(), "cfg"));
    seatleft.body.push_back(Op::call("GLCountSvc", routeDateArgs(), "c"));
    seatleft.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("cfg").at("v").asInt() * 4 -
                          e.var("c").at("v").asInt() + 64) %
                         64)}});
    };
    app.functions.push_back(std::move(seatleft));

    app.functions.push_back(leafService("GLCountSvc", 8.0, "", 16));
    app.functions.push_back(leafService("GLConfigSvc", 6.0, "station", 12));
    app.functions.push_back(leafService("GLUserSvc", 5.0, "", 12));
    app.functions.push_back(leafService("GLPriceQ", 6.0, "price", 24));

    FunctionDef gl_notify;
    gl_notify.name = "GLNotify";
    gl_notify.body.push_back(Op::compute(msToTicks(4.0)));
    gl_notify.body.push_back(Op::http());
    gl_notify.output = [](const Env&) {
        return Value::object({{"sent", Value(true)}});
    };
    app.functions.push_back(std::move(gl_notify));

    app.inputGen = ticketGen(config);
    const auto routes = config.items;
    app.seedStore = [routes](KvStore& store, Rng& rng) {
        seedRouteRecords(store, rng, "station", routes, 12);
        seedRouteRecords(store, rng, "price", routes, 24);
    };
    return app;
}

Application
makeCancelApp(const DatasetConfig& config)
{
    Application app;
    app.name = "CancelApp";
    app.suite = "TrainTicket";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "CaRoot";

    FunctionDef root;
    root.name = "CaRoot";
    root.body.push_back(Op::compute(msToTicks(6.0)));
    root.body.push_back(Op::call("CaOrderQ", routeDateArgs(), "o"));
    root.body.push_back(Op::call("CaRefund", routeDateArgs(), "r"));
    root.body.push_back(Op::callIf(fns::bucketGuard("route", 50),
                                   "CaNotify", routeArgs(), "n"));
    root.body.push_back(Op::callIf(fns::bucketGuard("date", 40),
                                   "CaInsQ", routeArgs(), "iq"));
    root.body.push_back(Op::compute(msToTicks(5.0)));
    root.body.push_back(Op::storageWrite(
        fns::keyOf2("cancel", "route", "date"), [](const Env& e) {
            return Value::object({{"refund", e.var("r").at("v")}});
        }));
    root.output = [](const Env& e) {
        return Value::object({{"ok", Value(true)},
                              {"refund", e.var("r").at("v")}});
    };
    app.functions.push_back(std::move(root));

    FunctionDef orderq;
    orderq.name = "CaOrderQ";
    orderq.body.push_back(Op::compute(msToTicks(7.0)));
    orderq.body.push_back(Op::call("CaStatusSvc", routeDateArgs(), "st"));
    orderq.body.push_back(Op::call("CaUserSvc", routeArgs(), "u"));
    orderq.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("st").at("v").asInt() +
                          e.var("u").at("v").asInt()) %
                         16)}});
    };
    app.functions.push_back(std::move(orderq));

    FunctionDef refund;
    refund.name = "CaRefund";
    refund.body.push_back(Op::compute(msToTicks(8.0)));
    refund.body.push_back(Op::call("CaFeeSvc", routeArgs(), "fee"));
    refund.body.push_back(Op::call("CaPaySvc", routeDateArgs(), "pay"));
    refund.body.push_back(Op::call("CaLedgerSvc", routeArgs(), "led"));
    refund.output = [](const Env& e) {
        return Value::object(
            {{"v", Value((e.var("pay").at("v").asInt() -
                          e.var("fee").at("v").asInt() + 32) %
                         32)}});
    };
    app.functions.push_back(std::move(refund));

    app.functions.push_back(leafService("CaStatusSvc", 6.0, "", 8));
    app.functions.push_back(leafService("CaUserSvc", 7.0, "", 12));
    app.functions.push_back(leafService("CaFeeSvc", 5.0, "price", 24));
    app.functions.push_back(leafService("CaPaySvc", 9.0, "", 16));
    app.functions.push_back(leafService("CaLedgerSvc", 6.0, "", 8));
    app.functions.push_back(leafService("CaInsQ", 5.0, "", 4));

    FunctionDef notify;
    notify.name = "CaNotify";
    notify.body.push_back(Op::compute(msToTicks(4.0)));
    notify.body.push_back(Op::http());
    notify.output = [](const Env&) {
        return Value::object({{"sent", Value(true)}});
    };
    app.functions.push_back(std::move(notify));

    app.inputGen = ticketGen(config);
    const auto routes = config.items;
    app.seedStore = [routes](KvStore& store, Rng& rng) {
        seedRouteRecords(store, rng, "price", routes, 24);
    };
    return app;
}

std::vector<Application>
trainTicketSuite(const DatasetConfig& config)
{
    std::vector<Application> suite;
    suite.push_back(makeTcktApp(config));
    suite.push_back(makeTripInApp(config));
    suite.push_back(makeQueryTrvlApp(config));
    suite.push_back(makeGetLeftApp(config));
    suite.push_back(makeCancelApp(config));
    return suite;
}

} // namespace specfaas
