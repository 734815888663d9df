#include "registry.hh"

#include "common/logging.hh"

namespace specfaas {

void
FunctionRegistry::add(FunctionDef def)
{
    def.sym = Symbol(def.name);
    def.compile();
    const Symbol sym = def.sym;
    FunctionDef& stored = functions_[def.name];
    stored = std::move(def);
    if (sym.id() >= bySymbol_.size())
        bySymbol_.resize(sym.id() + 1, nullptr);
    bySymbol_[sym.id()] = &stored;
}

void
FunctionRegistry::addApplication(const Application& app)
{
    for (const auto& f : app.functions)
        add(f);
}

const FunctionDef&
FunctionRegistry::get(const std::string& name) const
{
    const FunctionDef* f = find(name);
    SPECFAAS_ASSERT(f != nullptr, "unknown function %s", name.c_str());
    return *f;
}

const FunctionDef*
FunctionRegistry::find(const std::string& name) const
{
    auto it = functions_.find(name);
    return it == functions_.end() ? nullptr : &it->second;
}

const FunctionDef&
FunctionRegistry::get(Symbol name) const
{
    const FunctionDef* f = find(name);
    SPECFAAS_ASSERT(f != nullptr, "unknown function %s",
                    name.str().c_str());
    return *f;
}

const FunctionDef*
FunctionRegistry::find(Symbol name) const
{
    return name.id() < bySymbol_.size() ? bySymbol_[name.id()]
                                        : nullptr;
}

void
ApplicationRegistry::add(Application app)
{
    apps_.push_back(std::make_unique<Application>(std::move(app)));
}

const Application&
ApplicationRegistry::get(const std::string& name) const
{
    for (const auto& app : apps_)
        if (app->name == name)
            return *app;
    fatal("unknown application %s", name.c_str());
}

std::vector<const Application*>
ApplicationRegistry::suite(const std::string& suite) const
{
    std::vector<const Application*> out;
    for (const auto& app : apps_)
        if (app->suite == suite)
            out.push_back(app.get());
    return out;
}

std::vector<const Application*>
ApplicationRegistry::all() const
{
    std::vector<const Application*> out;
    for (const auto& app : apps_)
        out.push_back(app.get());
    return out;
}

std::vector<std::string>
ApplicationRegistry::suiteNames() const
{
    std::vector<std::string> out;
    for (const auto& app : apps_) {
        bool seen = false;
        for (const auto& s : out)
            if (s == app->suite)
                seen = true;
        if (!seen)
            out.push_back(app->suite);
    }
    return out;
}

} // namespace specfaas
