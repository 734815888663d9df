#include "function_def.hh"

#include <algorithm>

namespace specfaas {

namespace {

const Value kNull{};

/** First position whose symbol id is >= name's. */
inline std::vector<std::pair<Symbol, Value>>::const_iterator
varLowerBound(const std::vector<std::pair<Symbol, Value>>& vars,
              Symbol name)
{
    return std::lower_bound(vars.begin(), vars.end(), name,
                            [](const std::pair<Symbol, Value>& entry,
                               Symbol key) {
                                return entry.first < key;
                            });
}

} // namespace

const Value&
Env::var(Symbol name) const
{
    auto it = varLowerBound(vars_, name);
    return it == vars_.end() || it->first != name ? kNull : it->second;
}

const Value&
Env::var(std::string_view name) const
{
    for (const auto& [sym, v] : vars_)
        if (sym.str() == name)
            return v;
    return kNull;
}

void
Env::set(Symbol name, Value v)
{
    auto it = varLowerBound(vars_, name);
    if (it != vars_.end() && it->first == name) {
        vars_[it - vars_.begin()].second = std::move(v);
        return;
    }
    vars_.emplace(vars_.begin() + (it - vars_.begin()), name,
                  std::move(v));
}

Op
Op::compute(Tick duration)
{
    Op op;
    op.kind = Kind::Compute;
    op.duration = duration;
    return op;
}

Op
Op::storageRead(KeyFn key, std::string var)
{
    Op op;
    op.kind = Kind::StorageRead;
    op.key = std::move(key);
    op.var = Symbol(var);
    return op;
}

Op
Op::storageWrite(KeyFn key, ValueFn value)
{
    Op op;
    op.kind = Kind::StorageWrite;
    op.key = std::move(key);
    op.value = std::move(value);
    return op;
}

Op
Op::call(std::string callee, ValueFn args, std::string var)
{
    Op op;
    op.kind = Kind::Call;
    op.callee = Symbol(callee);
    op.value = std::move(args);
    op.var = Symbol(var);
    return op;
}

Op
Op::callIf(BoolFn guard, std::string callee, ValueFn args, std::string var)
{
    Op op = call(std::move(callee), std::move(args), std::move(var));
    op.guard = std::move(guard);
    return op;
}

Op
Op::http()
{
    Op op;
    op.kind = Kind::Http;
    return op;
}

Op
Op::fileWrite(KeyFn name)
{
    Op op;
    op.kind = Kind::FileWrite;
    op.key = std::move(name);
    return op;
}

Op
Op::fileRead(KeyFn name, std::string var)
{
    Op op;
    op.kind = Kind::FileRead;
    op.key = std::move(name);
    op.var = Symbol(var);
    return op;
}

Op
Op::setVar(std::string var, ValueFn value)
{
    Op op;
    op.kind = Kind::SetVar;
    op.var = Symbol(var);
    op.value = std::move(value);
    return op;
}

void
FunctionDef::compile()
{
    std::vector<Symbol> vars;
    for (const auto& op : body) {
        // Mirrors the interpreter: reads and SetVar always bind their
        // var, calls and file reads only a named one.
        const bool sets =
            op.kind == Op::Kind::StorageRead ||
            op.kind == Op::Kind::SetVar ||
            ((op.kind == Op::Kind::Call || op.kind == Op::Kind::FileRead) &&
             !op.var.empty());
        if (sets && std::find(vars.begin(), vars.end(), op.var) == vars.end())
            vars.push_back(op.var);
    }
    varSlots = vars.size();
    callSiteCount = callCount();
}

bool
FunctionDef::readsGlobalState() const
{
    for (const auto& op : body)
        if (op.kind == Op::Kind::StorageRead)
            return true;
    return false;
}

bool
FunctionDef::writesGlobalState() const
{
    for (const auto& op : body)
        if (op.kind == Op::Kind::StorageWrite)
            return true;
    return false;
}

bool
FunctionDef::hasCalls() const
{
    return callCount() > 0;
}

std::size_t
FunctionDef::callCount() const
{
    std::size_t n = 0;
    for (const auto& op : body)
        if (op.kind == Op::Kind::Call)
            ++n;
    return n;
}

bool
FunctionDef::hasSideEffects() const
{
    for (const auto& op : body) {
        switch (op.kind) {
          case Op::Kind::StorageWrite:
          case Op::Kind::FileWrite:
          case Op::Kind::Http:
            return true;
          default:
            break;
        }
    }
    return false;
}

bool
FunctionDef::isEffectivelyPure() const
{
    return !readsGlobalState() && !hasSideEffects();
}

Tick
FunctionDef::totalComputeTime() const
{
    Tick total = 0;
    for (const auto& op : body)
        if (op.kind == Op::Kind::Compute)
            total += op.duration;
    return total;
}

} // namespace specfaas
