/**
 * @file
 * Cluster: the owner of the Fleet, kept as a two-accessor shim.
 *
 * The Fleet (fleet/fleet.hh) owns the worker nodes, the control-plane
 * station and the container pool, and the engines, the platform and
 * the benches all program against it directly. Cluster remains only
 * because the frozen benchmark harness (specbench/bench.cc) reaches
 * the fleet through FaasPlatform::cluster() and calls exactly
 * containers() and fleet() on it; it goes away with the next change
 * to that harness.
 */

#ifndef SPECFAAS_CLUSTER_CLUSTER_HH
#define SPECFAAS_CLUSTER_CLUSTER_HH

#include "cluster/cluster_config.hh"
#include "fleet/fleet.hh"
#include "sim/simulation.hh"

namespace specfaas {

/** Owns the simulated fleet. */
class Cluster
{
  public:
    /**
     * @param sim simulation context
     * @param config node counts and platform cost constants
     * @param fleet dynamics configuration (default: static fleet)
     */
    Cluster(Simulation& sim, const ClusterConfig& config,
            const FleetConfig& fleet = {})
        : fleet_(sim, config, fleet)
    {}

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    Fleet& fleet() { return fleet_; }
    ContainerPool& containers() { return fleet_.containers(); }

  private:
    Fleet fleet_;
};

} // namespace specfaas

#endif // SPECFAAS_CLUSTER_CLUSTER_HH
