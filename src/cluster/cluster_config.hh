/**
 * @file
 * Cluster-wide configuration constants.
 *
 * Default magnitudes are calibrated to the paper's Fig. 3 breakdown
 * and §VI measurements: container creation ≈1500 ms, runtime setup
 * ≈350 ms, handler-process kill ≈1 ms, and warm per-function
 * platform/transfer overheads sized so that function execution is
 * 33–42% of the warm response time (Observation 1).
 */

#ifndef SPECFAAS_CLUSTER_CLUSTER_CONFIG_HH
#define SPECFAAS_CLUSTER_CLUSTER_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace specfaas {

/** Static description of the simulated cluster and platform costs. */
struct ClusterConfig
{
    /** Number of worker nodes (paper: five EPYC servers). */
    std::uint32_t numNodes = 5;

    /** Cores per node (paper: 24 cores, 2-way SMT → 48 hw threads). */
    std::uint32_t coresPerNode = 48;

    /** Cold start: container + network namespace creation. */
    Tick containerCreation = msToTicks(1500.0);

    /** Cold start: code injection + docker proxy start. */
    Tick runtimeSetup = msToTicks(350.0);

    /**
     * Warm start: initializer forks a fresh handler process for the
     * request (§VI runtime split).
     */
    Tick handlerForkOverhead = msToTicks(0.5);

    /** Killing a handler process on squash (§VI, ≈1 ms). */
    Tick processKillOverhead = msToTicks(1.0);

    /**
     * Under the container-kill squash policy, the destroyed
     * container cannot be reused (§VI): relaunched work must wait
     * for the platform to provision a replacement execution
     * environment. This is that provisioning latency in a warm
     * environment (a full cold start applies when no pre-warmed
     * capacity remains).
     */
    Tick containerRespawnLatency = msToTicks(45.0);

    /**
     * Front-end → controller → worker communication when a new
     * request arrives (Fig. 3 "Platform Overhead"), charged once per
     * function launch. Sized so that warm per-function response is
     * ~20 ms with execution at 33–42% of it (Observation 1 and the
     * per-application totals of Table I).
     */
    Tick platformOverhead = msToTicks(7.0);

    /**
     * Explicit workflows: worker → controller completion message plus
     * the conductor helper-function execution plus controller →
     * worker next-launch message (Fig. 3 "Transfer Function
     * Overhead").
     */
    Tick conductorOverhead = msToTicks(7.0);

    /**
     * Implicit workflows: one HTTP/RPC hop between caller and callee
     * (charged each way).
     */
    Tick rpcLatency = msToTicks(3.5);

    /**
     * SpecFaaS sequence-table dispatch: the controller picks the next
     * function locally instead of round-tripping through the
     * conductor (§IV), leaving only a small scheduling cost.
     */
    Tick sequenceTableDispatch = msToTicks(0.8);

    /** Message latency worker ↔ controller (Data Buffer requests). */
    Tick controllerMsgLatency = msToTicks(0.25);

    /**
     * @{ Control-plane capacity. Every function launch occupies one
     * of the platform's controller threads for a service time; this
     * is the throughput bottleneck of real FaaS control planes (an
     * OpenWhisk-style platform throttles activations long before the
     * worker CPUs saturate). Conventional dispatch does front-end /
     * controller / conductor work per launch; SpecFaaS's
     * Sequence-Table dispatch (§IV) is much cheaper. The service
     * time is the in-series part of the corresponding overhead.
     */
    std::uint32_t controllerThreads = 8;
    Tick baselineLaunchService = msToTicks(2.6);
    Tick specLaunchService = msToTicks(0.6);
    /**
     * Admission control: new requests are rejected (OpenWhisk's
     * 429 TooManyRequests) when this many launches are already
     * queued at the controller.
     */
    std::uint32_t admissionQueueLimit = 24;
    /** @} */
};

} // namespace specfaas

#endif // SPECFAAS_CLUSTER_CLUSTER_CONFIG_HH
