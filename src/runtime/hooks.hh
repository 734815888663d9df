/**
 * @file
 * The runtime ↔ controller interface.
 *
 * The function runtime intercepts every externally visible operation
 * a handler issues (§VI): global-storage get/set, subroutine calls,
 * and HTTP requests. The interpreter forwards those interceptions to
 * a RuntimeHooks implementation — the baseline controller routes them
 * straight to storage / nested invocations, while the SpecFaaS
 * controller routes them through the Data Buffer and the speculative
 * call machinery.
 */

#ifndef SPECFAAS_RUNTIME_HOOKS_HH
#define SPECFAAS_RUNTIME_HOOKS_HH

#include <string>

#include "common/inline_function.hh"
#include "common/value.hh"
#include "fault/fault_types.hh"
#include "runtime/instance.hh"

namespace specfaas {

/**
 * @{ Hook completion callbacks. Small-buffer move-only callables: the
 * interpreter's continuations capture the interpreter, an instance
 * pointer, its epoch and at most a variable symbol, so they ride
 * inline. The buffers are sized to just that, because controllers
 * carry these callbacks inside their own event captures: a small
 * callback is what lets those captures fit the event buffer too.
 */
using ValueCallback = InlineFunction<void(Value), 48>;
using DoneCallback = InlineFunction<void(), 32>;
/** @} */

/** Controller-side handlers for intercepted runtime operations. */
class RuntimeHooks
{
  public:
    virtual ~RuntimeHooks() = default;

    /**
     * Intercepted global-storage read. Completes asynchronously with
     * the record value (null when absent).
     */
    virtual void storageGet(const InstancePtr& inst,
                            const std::string& key,
                            ValueCallback done) = 0;

    /** Intercepted global-storage write. */
    virtual void storagePut(const InstancePtr& inst,
                            const std::string& key, Value value,
                            DoneCallback done) = 0;

    /**
     * Intercepted subroutine call (implicit workflows, §II-C). The
     * caller blocks until @p done fires with the callee's output.
     */
    virtual void functionCall(const InstancePtr& inst,
                              std::size_t call_site, Symbol callee,
                              Value args, ValueCallback done) = 0;

    /**
     * Intercepted external HTTP request (sendto, §VI). Speculative
     * instances are suspended until they turn non-speculative.
     */
    virtual void httpRequest(const InstancePtr& inst,
                             DoneCallback done) = 0;

    /** The handler finished its body and produced @p output. */
    virtual void completed(const InstancePtr& inst, Value output) = 0;

    /**
     * An injected fault killed the handler of @p inst (the runtime
     * never crashes on its own). The controller owns recovery: tear
     * the instance down, retry its pipeline coordinate with backoff,
     * and answer a deterministic error once retries are exhausted.
     * Default no-op for controllers that never run with faults.
     */
    virtual void crashed(const InstancePtr& inst, FaultKind kind)
    {
        (void)inst;
        (void)kind;
    }
};

} // namespace specfaas

#endif // SPECFAAS_RUNTIME_HOOKS_HH
