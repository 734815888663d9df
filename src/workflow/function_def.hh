/**
 * @file
 * The function model: a FaaS function is a deterministic program of
 * abstract operations (compute bursts, global storage reads/writes,
 * calls to other functions, HTTP requests, local temp-file I/O).
 *
 * The platform treats functions as black boxes (§II-A): controllers
 * only observe the operations a running handler issues. Because op
 * programs compute their values deterministically from the function
 * input plus whatever the function has read, memoization, validation
 * and squash are exercised for real — a speculative run fed a wrong
 * input genuinely produces wrong downstream values that the commit
 * validation must catch.
 */

#ifndef SPECFAAS_WORKFLOW_FUNCTION_DEF_HH
#define SPECFAAS_WORKFLOW_FUNCTION_DEF_HH

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/symbol.hh"
#include "common/types.hh"
#include "common/value.hh"

namespace specfaas {

/**
 * Execution environment of one handler: the request input plus named
 * results of reads/calls/local computations.
 *
 * Variables are stored flat, sorted by interned symbol id: lookups
 * binary-search over integers and writes shift a small contiguous
 * vector instead of allocating a tree node per variable.
 */
class Env
{
  public:
    Value input;

    /** Variable lookup; returns null when unset. */
    const Value& var(Symbol name) const;

    /** String-keyed lookup (interns the name). */
    const Value&
    var(std::string_view name) const
    {
        return var(Symbol(name));
    }

    /** Set (insert or overwrite) a variable. */
    void set(Symbol name, Value v);

    std::size_t varCount() const { return vars_.size(); }

    /** Make room for @p n variables up front (launch-time sizing). */
    void reserve(std::size_t n) { vars_.reserve(n); }

  private:
    std::vector<std::pair<Symbol, Value>> vars_;
};

/** Computes a Value from the environment (pure). */
using ValueFn = std::function<Value(const Env&)>;

/** Computes a bool from the environment (pure). */
using BoolFn = std::function<bool(const Env&)>;

/** Computes a storage key / file name from the environment (pure). */
using KeyFn = std::function<std::string(const Env&)>;

/** One abstract operation inside a function body. */
struct Op
{
    enum class Kind {
        /** Burn CPU for `duration` ticks (plus jitter). */
        Compute,
        /** Read global record key() into var. */
        StorageRead,
        /** Write value() to global record key(). */
        StorageWrite,
        /** Invoke `callee` with args value(); result into var. */
        Call,
        /** External HTTP request (side effect; deferred while spec). */
        Http,
        /** Write to a local temporary file key() (copy-on-write). */
        FileWrite,
        /** Read a local temporary file key(). */
        FileRead,
        /** Pure local computation: var = value(). */
        SetVar,
    };

    Kind kind;

    /** Compute: mean CPU burst length. */
    Tick duration = 0;

    /** StorageRead/Write, File ops: record key / file name. */
    KeyFn key;

    /** StorageWrite/Call/SetVar: value, call args, var value. */
    ValueFn value;

    /** StorageRead/Call/SetVar/FileRead: destination variable. */
    Symbol var;

    /** Call: callee function name. */
    Symbol callee;

    /**
     * Optional guard: op executes only when guard(env) is true.
     * Guarded Call ops are the control-dependent subroutine calls of
     * implicit workflows (§II-C).
     */
    BoolFn guard;

    /** @{ Builders. */
    static Op compute(Tick duration);
    static Op storageRead(KeyFn key, std::string var);
    static Op storageWrite(KeyFn key, ValueFn value);
    static Op call(std::string callee, ValueFn args, std::string var);
    static Op callIf(BoolFn guard, std::string callee, ValueFn args,
                     std::string var);
    static Op http();
    static Op fileWrite(KeyFn name);
    static Op fileRead(KeyFn name, std::string var);
    static Op setVar(std::string var, ValueFn value);
    /** @} */
};

/** Definition of one FaaS function. */
struct FunctionDef
{
    std::string name;

    /** Interned name; filled by FunctionRegistry::add. */
    Symbol sym;

    /** Op program executed by each handler. */
    std::vector<Op> body;

    /**
     * Output computed from the final environment when the body
     * finishes. Defaults to echoing the input.
     */
    ValueFn output;

    /**
     * Relative jitter (coefficient of variation) applied to each
     * Compute burst.
     */
    double computeCv = 0.08;

    /** `pure-function` annotation (§VI): skippable on memo hit. */
    bool pureAnnotation = false;

    /** `non-speculative` annotation (§VI): never launched early. */
    bool nonSpeculativeAnnotation = false;

    /**
     * @{ Body shape, compiled once by compile() (FunctionRegistry::add
     * calls it): the distinct variables the body sets and its Call
     * ops. A launch sizes each instance's environment and call-site
     * records from them, so a running handler never grows them.
     */
    std::size_t varSlots = 0;
    std::size_t callSiteCount = 0;
    void compile();
    /** @} */

    /** @{ Static structure queries used by the characterization. */
    bool readsGlobalState() const;
    bool writesGlobalState() const;
    bool hasCalls() const;
    std::size_t callCount() const;
    bool hasSideEffects() const; // storage writes, file writes, HTTP
    bool isEffectivelyPure() const; // no global reads/writes/side eff.
    Tick totalComputeTime() const;
    /** @} */
};

} // namespace specfaas

#endif // SPECFAAS_WORKFLOW_FUNCTION_DEF_HH
